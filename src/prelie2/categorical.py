"""The categorified presentation and the equivalence with 2-term structures.

Split presentations store the morphism space as object-part ⊕ kernel-part, in
which the two functors are mutually inverse on the nose.  Presentations in an
arbitrary morphism basis are supported through the canonical splitting
f -> (s(f), f - 1_{s(f)}), computed with an exact kernel basis; the comparison
isomorphism onto such a presentation is then genuinely nontrivial.

The giant coherence diagram is never evaluated as a pasting diagram: the
extracted 2-term structure passing its own validator certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded_spaces import TwoTermComplex
from .identities import Condition, check
from .prelie2_core import (
    PreLie2Algebra,
    PreLie2Hom,
    validate as validate_prelie2,
)
from .report import InvalidStructureError, ValidationReport, Violation, make_report
from .scalar_tensor import (
    MultiMap,
    Space,
    Vector,
    basis_vector,
    invert_linear,
    ml_apply,
    ml_compose_linear,
    nullspace,
    vec_add,
    vec_sub,
    zero_vector,
)


@dataclass(frozen=True)
class TwoVectorSpace:
    """Split form: objects V0, morphisms V0 ⊕ V1, s = projection,
    t(u+m) = u + dM m, 1_u = (u, 0)."""

    complex: TwoTermComplex

    @property
    def obj(self) -> Space:
        return self.complex.v0

    @property
    def mor(self) -> Space:
        return Space(
            self.complex.v0.dim + self.complex.v1.dim,
            f"{self.complex.v0.label}(+){self.complex.v1.label}",
        )

    def embed0(self, u: Vector) -> Vector:
        return tuple(u) + zero_vector(self.complex.v1)

    def embed1(self, m: Vector) -> Vector:
        return zero_vector(self.complex.v0) + tuple(m)

    def proj0(self, f: Vector) -> Vector:
        return f[: self.complex.v0.dim]

    def proj1(self, f: Vector) -> Vector:
        return f[self.complex.v0.dim :]

    def source(self, f: Vector) -> Vector:
        return self.proj0(f)

    def target(self, f: Vector) -> Vector:
        return vec_add(self.proj0(f), ml_apply(self.complex.dm, [self.proj1(f)]))


@dataclass(frozen=True)
class CatPreLie2:
    space: TwoVectorSpace
    star_obj: MultiMap  # V0 x V0 -> V0
    star_mor: MultiMap  # mor x mor -> mor
    jac: MultiMap  # V0 x V0 x V0 -> V1 (kernel component of J)


@dataclass(frozen=True)
class CatHom:
    phi0: MultiMap  # V0 -> V0'
    phi1: MultiMap  # mor -> mor'
    phi2: MultiMap  # V0 x V0 -> mor'


@dataclass(frozen=True)
class RawCatPreLie2:
    """A presentation whose morphism basis need not respect the splitting."""

    obj: Space
    mor: Space
    smap: MultiMap  # mor -> obj
    tmap: MultiMap  # mor -> obj
    unit: MultiMap  # obj -> mor
    star_obj: MultiMap  # obj x obj -> obj
    star_mor: MultiMap  # mor x mor -> mor
    jac: MultiMap  # obj^3 -> mor (the full J morphism)


_FUNCTOR_LAWS = (
    Condition("source", "fg", "p0(star(f,g)) - star0(p0(f),p0(g))"),
    Condition("target", "fg", "t(star(f,g)) - star0(t(f),t(g))"),
    Condition("unit", "uv", "p1(star(e0(u),e0(v)))"),
    Condition("interchange-a", "mn", "p1(star(e1(m),e1(n))) - p1(star(e0(d(m)),e1(n)))"),
    Condition("interchange-b", "mn", "p1(star(e0(d(m)),e1(n))) - p1(star(e1(m),e0(d(n))))"),
)


def _split_maps(sp: TwoVectorSpace) -> dict[str, MultiMap]:
    """The projections p0, p1, the embeddings e0, e1 and the target t of a
    split morphism space, as maps."""
    v0, v1, mor = sp.complex.v0, sp.complex.v1, sp.mor
    p0 = MultiMap.build((mor,), v0, lambda f: sp.proj0(basis_vector(mor, f)))
    p1 = MultiMap.build((mor,), v1, lambda f: sp.proj1(basis_vector(mor, f)))
    return {
        "p0": p0,
        "p1": p1,
        "e0": MultiMap.build((v0,), mor, lambda u: sp.embed0(basis_vector(v0, u))),
        "e1": MultiMap.build((v1,), mor, lambda m: sp.embed1(basis_vector(v1, m))),
        "t": p0 + ml_compose_linear(sp.complex.dm, p1),
    }


def validate_cat(c: CatPreLie2) -> ValidationReport:
    """Bilinear-functor laws for the morphism-level product."""
    tensors = {"star": c.star_mor, "star0": c.star_obj, "d": c.space.complex.dm, **_split_maps(c.space)}
    return check(tensors, _FUNCTOR_LAWS)


def functor_T(a: PreLie2Algebra) -> CatPreLie2:
    """(u+m) ⋆ (v+n) = u·v + u·n + m·v + (dM m)·n, with the homotopy as the
    kernel component of the associator isomorphism."""
    rep = validate_prelie2(a)
    if not rep.ok:
        raise InvalidStructureError("functor_T needs a valid structure", rep)
    sp = TwoVectorSpace(TwoTermComplex(a.a0, a.a1, a.dm))
    n0 = a.a0.dim

    def star_mor_img(i: int, j: int) -> Vector:
        u = basis_vector(a.a0, i) if i < n0 else zero_vector(a.a0)
        m = basis_vector(a.a1, i - n0) if i >= n0 else zero_vector(a.a1)
        v = basis_vector(a.a0, j) if j < n0 else zero_vector(a.a0)
        n = basis_vector(a.a1, j - n0) if j >= n0 else zero_vector(a.a1)
        obj = ml_apply(a.mul00, [u, v])
        ker = vec_add(
            vec_add(ml_apply(a.mul01, [u, n]), ml_apply(a.mul10, [m, v])),
            ml_apply(a.mul01, [ml_apply(a.dm, [m]), n]),
        )
        return tuple(obj) + tuple(ker)

    star_mor = MultiMap.build((sp.mor, sp.mor), sp.mor, star_mor_img)
    return CatPreLie2(sp, a.mul00, star_mor, a.l3)


def functor_S(c: CatPreLie2) -> PreLie2Algebra:
    """Extract the 2-term structure; functor-law or axiom violations raise."""
    rep = validate_cat(c)
    if not rep.ok:
        raise InvalidStructureError("functor_S: presentation is not functorial", rep)
    sp = c.space
    v0, v1 = sp.complex.v0, sp.complex.v1
    mul01 = MultiMap.build(
        (v0, v1),
        v1,
        lambda i, p: sp.proj1(
            ml_apply(c.star_mor, [sp.embed0(basis_vector(v0, i)), sp.embed1(basis_vector(v1, p))])
        ),
    )
    mul10 = MultiMap.build(
        (v1, v0),
        v1,
        lambda p, i: sp.proj1(
            ml_apply(c.star_mor, [sp.embed1(basis_vector(v1, p)), sp.embed0(basis_vector(v0, i))])
        ),
    )
    a = PreLie2Algebra(v0, v1, sp.complex.dm, c.star_obj, mul01, mul10, c.jac)
    rep2 = validate_prelie2(a)
    if not rep2.ok:
        raise InvalidStructureError("functor_S: extracted structure invalid", rep2)
    return a


def hom_T(f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra) -> CatHom:
    """Phi1 = F0 ⊕ F1 and Phi2(u, v) = (F0 u ·' F0 v) + F2(u, v)."""
    ca, cb = functor_T(a), functor_T(b)
    spa, spb = ca.space, cb.space
    n0a, n1a = a.a0.dim, a.a1.dim

    def phi1_img(i: int) -> Vector:
        if i < n0a:
            return spb.embed0(f.f0.image_of_basis(i))
        return spb.embed1(f.f1.image_of_basis(i - n0a))

    phi1 = MultiMap.build((spa.mor,), spb.mor, phi1_img)

    def phi2_img(i: int, j: int) -> Vector:
        u = f.f0.image_of_basis(i)
        v = f.f0.image_of_basis(j)
        return tuple(ml_apply(b.mul00, [u, v])) + tuple(f.f2.image_of_basis(i, j))

    phi2 = MultiMap.build((a.a0, a.a0), spb.mor, phi2_img)
    return CatHom(f.f0, phi1, phi2)


def hom_S(phi: CatHom, c: CatPreLie2, d: CatPreLie2) -> PreLie2Hom:
    """F1 = Phi1 on kernel parts; F2(u,v) = Phi2(u,v) - 1 at its source."""
    spc, spd = c.space, d.space
    v1c = spc.complex.v1
    f1 = MultiMap.build(
        (v1c,),
        spd.complex.v1,
        lambda p: spd.proj1(ml_apply(phi.phi1, [spc.embed1(basis_vector(v1c, p))])),
    )
    f2 = MultiMap.build(
        phi.phi2.inputs,
        spd.complex.v1,
        lambda i, j: spd.proj1(phi.phi2.image_of_basis(i, j)),
    )
    return PreLie2Hom(phi.phi0, f1, f2)


# -- general presentations and the comparison isomorphism ---------------------


def _difference(x: MultiMap, y: MultiMap) -> tuple[Fraction, ...]:
    """The nonzero entries of x - y, row-major: the defect of x = y."""
    return tuple(a - b for a, b in zip(x.coeffs, y.coeffs) if a != b)


def split_presentation(raw: RawCatPreLie2) -> tuple[CatPreLie2, MultiMap]:
    """Canonical splitting of a presentation: kernel basis from s, shear off
    the units.  Returns the split structure and the morphism-space
    isomorphism from split coordinates onto the raw basis."""
    bad: list[Violation] = []
    identity = MultiMap.identity(raw.obj)
    for label, end in (("s-unit", raw.smap), ("t-unit", raw.tmap)):
        composite = ml_compose_linear(end, raw.unit)
        if composite != identity:
            bad.append(Violation(label, (), _difference(composite, identity)))
    kernel = nullspace(raw.smap)
    if len(kernel) != raw.mor.dim - raw.obj.dim:
        bad.append(Violation("s-rank", (), (Fraction(len(kernel)),)))
    if bad:
        raise InvalidStructureError("not a 2-vector-space presentation", make_report(bad))
    v1 = Space(len(kernel), raw.obj.label + "ker")
    dm = MultiMap.build((v1,), raw.obj, lambda p: ml_apply(raw.tmap, [kernel[p]]))
    sp = TwoVectorSpace(TwoTermComplex(raw.obj, v1, dm))

    def alpha1_img(i: int) -> Vector:
        if i < raw.obj.dim:
            return raw.unit.image_of_basis(i)
        return kernel[i - raw.obj.dim]

    alpha1 = MultiMap.build((sp.mor,), raw.mor, alpha1_img)
    alpha1_inv = invert_linear(alpha1)
    if alpha1_inv is None:
        raise InvalidStructureError(
            "unit image and kernel do not span the morphism space",
            make_report([Violation("splitting", (), (Fraction(1),))]),
        )
    star_mor = MultiMap.build(
        (sp.mor, sp.mor),
        sp.mor,
        lambda i, j: ml_apply(
            alpha1_inv,
            [
                ml_apply(
                    raw.star_mor,
                    [alpha1.image_of_basis(i), alpha1.image_of_basis(j)],
                )
            ],
        ),
    )

    def jac_img(i, j, k):
        split_j = ml_apply(alpha1_inv, [raw.jac.image_of_basis(i, j, k)])
        u, v, w = (basis_vector(raw.obj, x) for x in (i, j, k))
        assoc = vec_sub(
            ml_apply(raw.star_obj, [ml_apply(raw.star_obj, [u, v]), w]),
            ml_apply(raw.star_obj, [u, ml_apply(raw.star_obj, [v, w])]),
        )
        if sp.proj0(split_j) != tuple(assoc):
            raise InvalidStructureError(
                "associator isomorphism has the wrong source",
                make_report([Violation("jac-source", (i, j, k), vec_sub(sp.proj0(split_j), assoc))]),
            )
        return sp.proj1(split_j)

    jac = MultiMap.build((raw.obj,) * 3, v1, jac_img)
    return CatPreLie2(sp, raw.star_obj, star_mor, jac), alpha1


# alpha1 carries the split structure onto the presentation, whose tensors carry a prime
_ALPHA = (
    Condition("alpha-star", "fg", "a1(star(f,g)) - star'(a1(f),a1(g))"),
    Condition(
        "alpha-jac",
        "uvw",
        "a1(e0(star0(star0(u,v),w))) - a1(e0(star0(u,star0(v,w)))) + a1(e1(jac(u,v,w))) - jac'(u,v,w)",
    ),
)


@dataclass(frozen=True)
class AlphaIso:
    """The comparison homomorphism from the split round trip onto a
    presentation, with its verification report."""

    split: CatPreLie2
    alpha0: MultiMap
    alpha1: MultiMap
    report: ValidationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def alpha_iso(c: CatPreLie2 | RawCatPreLie2) -> AlphaIso:
    """Verify T(S(C)) ≅ C.  On split presentations the comparison is the
    identity; on raw presentations it carries unit-part + kernel-part onto
    the raw morphism basis."""
    if isinstance(c, CatPreLie2):
        a = functor_S(c)
        again = functor_T(a)
        out: list[Violation] = []
        if again != c:
            out.append(Violation("roundtrip", (), (Fraction(1),)))
        return AlphaIso(
            c,
            MultiMap.identity(c.space.obj),
            MultiMap.identity(c.space.mor),
            make_report(out),
        )
    split, alpha1 = split_presentation(c)
    a = functor_S(split)
    again = functor_T(a)  # equals `split` on the nose
    sp = split.space
    out = []
    if again != split:
        out.append(Violation("roundtrip", (), (Fraction(1),)))
    maps = _split_maps(sp)
    for label, lhs, rhs in (
        ("alpha-s", ml_compose_linear(c.smap, alpha1), maps["p0"]),
        ("alpha-t", ml_compose_linear(c.tmap, alpha1), maps["t"]),
        ("alpha-unit", ml_compose_linear(alpha1, maps["e0"]), c.unit),
    ):
        if lhs != rhs:
            out.append(Violation(label, (), _difference(lhs, rhs)))
    tensors = {
        **maps,
        "a1": alpha1,
        "star": split.star_mor,
        "star0": split.star_obj,
        "jac": split.jac,
        "star'": c.star_mor,
        "jac'": c.jac,
    }
    report = make_report(out).merged(check(tensors, _ALPHA))
    return AlphaIso(split, MultiMap.identity(c.obj), alpha1, report)


def rebase_cat(c: CatPreLie2, w: MultiMap) -> RawCatPreLie2:
    """Transport a split structure along an invertible morphism-space map,
    producing a presentation whose basis ignores the splitting."""
    sp = c.space
    if w.inputs != (sp.mor,) or w.output.dim != sp.mor.dim:
        raise ValueError("rebasing map must act on the morphism space")
    w_inv = invert_linear(w)
    if w_inv is None:
        raise ValueError("rebasing map must be invertible")
    mor = w.output
    smap = MultiMap.build(
        (mor,), sp.obj, lambda i: sp.source(w_inv.image_of_basis(i))
    )
    tmap = MultiMap.build(
        (mor,), sp.obj, lambda i: sp.target(w_inv.image_of_basis(i))
    )
    unit = MultiMap.build(
        (sp.obj,), mor, lambda i: ml_apply(w, [sp.embed0(basis_vector(sp.obj, i))])
    )
    star_mor = MultiMap.build(
        (mor, mor),
        mor,
        lambda i, j: ml_apply(
            w,
            [
                ml_apply(
                    c.star_mor,
                    [w_inv.image_of_basis(i), w_inv.image_of_basis(j)],
                )
            ],
        ),
    )

    def jac_img(i, j, k):
        u, v, x = (basis_vector(sp.obj, y) for y in (i, j, k))
        assoc = vec_sub(
            ml_apply(c.star_obj, [ml_apply(c.star_obj, [u, v]), x]),
            ml_apply(c.star_obj, [u, ml_apply(c.star_obj, [v, x])]),
        )
        j_split = tuple(assoc) + tuple(c.jac.image_of_basis(i, j, k))
        return ml_apply(w, [j_split])

    jac = MultiMap.build((sp.obj,) * 3, mor, jac_img)
    return RawCatPreLie2(sp.obj, mor, smap, tmap, unit, c.star_obj, star_mor, jac)
