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
from .identities import Condition, check, tensor
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
    ml_compose_linear,
    nullspace,
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


def _split_maps(sp: TwoVectorSpace, prime: str = "") -> dict[str, MultiMap]:
    """The projections p0, p1, the embeddings e0, e1 and the target t of a
    split morphism space, as maps, each name followed by ``prime``."""
    v0, v1, mor = sp.complex.v0, sp.complex.v1, sp.mor
    p0 = MultiMap.build((mor,), v0, lambda f: sp.proj0(basis_vector(mor, f)))
    p1 = MultiMap.build((mor,), v1, lambda f: sp.proj1(basis_vector(mor, f)))
    maps = {
        "p0": p0,
        "p1": p1,
        "e0": MultiMap.build((v0,), mor, lambda u: sp.embed0(basis_vector(v0, u))),
        "e1": MultiMap.build((v1,), mor, lambda m: sp.embed1(basis_vector(v1, m))),
        "t": p0 + ml_compose_linear(sp.complex.dm, p1),
    }
    return {name + prime: m for name, m in maps.items()}


def validate_cat(c: CatPreLie2) -> ValidationReport:
    """Bilinear-functor laws for the morphism-level product."""
    tensors = {"star": c.star_mor, "star0": c.star_obj, "d": c.space.complex.dm, **_split_maps(c.space)}
    return check(tensors, _FUNCTOR_LAWS)


def _split_space(a: PreLie2Algebra) -> TwoVectorSpace:
    return TwoVectorSpace(TwoTermComplex(a.a0, a.a1, a.dm))


def functor_T(a: PreLie2Algebra) -> CatPreLie2:
    """(u+m) ⋆ (v+n) = u·v + u·n + m·v + (dM m)·n, with the homotopy as the
    kernel component of the associator isomorphism."""
    rep = validate_prelie2(a)
    if not rep.ok:
        raise InvalidStructureError("functor_T needs a valid structure", rep)
    sp = _split_space(a)
    star_mor = tensor(
        {**_split_maps(sp), "d": a.dm, "m00": a.mul00, "m01": a.mul01, "m10": a.mul10},
        "fg",
        "e0(m00(p0(f),p0(g))) + e1(m01(p0(f),p1(g))) + e1(m10(p1(f),p0(g))) + e1(m01(d(p1(f)),p1(g)))",
    )
    return CatPreLie2(sp, a.mul00, star_mor, a.l3)


def functor_S(c: CatPreLie2) -> PreLie2Algebra:
    """Extract the 2-term structure; functor-law or axiom violations raise."""
    rep = validate_cat(c)
    if not rep.ok:
        raise InvalidStructureError("functor_S: presentation is not functorial", rep)
    v = c.space.complex
    tensors = {**_split_maps(c.space), "star": c.star_mor}
    mul01 = tensor(tensors, "um", "p1(star(e0(u),e1(m)))")
    mul10 = tensor(tensors, "mu", "p1(star(e1(m),e0(u)))")
    a = PreLie2Algebra(v.v0, v.v1, v.dm, c.star_obj, mul01, mul10, c.jac)
    rep2 = validate_prelie2(a)
    if not rep2.ok:
        raise InvalidStructureError("functor_S: extracted structure invalid", rep2)
    return a


def hom_T(f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra) -> CatHom:
    """Phi1 = F0 ⊕ F1 and Phi2(u, v) = (F0 u ·' F0 v) + F2(u, v), between
    the split spaces of T(a) and T(b); a and b are not validated here."""
    maps = {**_split_maps(_split_space(a)), **_split_maps(_split_space(b), "'")}
    tensors = {**maps, "f0": f.f0, "f1": f.f1, "f2": f.f2, "m00'": b.mul00}
    phi1 = tensor(tensors, "f", "e0'(f0(p0(f))) + e1'(f1(p1(f)))")
    phi2 = tensor(tensors, "uv", "e0'(m00'(f0(u),f0(v))) + e1'(f2(u,v))")
    return CatHom(f.f0, phi1, phi2)


def hom_S(phi: CatHom, c: CatPreLie2, d: CatPreLie2) -> PreLie2Hom:
    """F1 = Phi1 on kernel parts; F2(u,v) = Phi2(u,v) - 1 at its source."""
    tensors = {**_split_maps(c.space), **_split_maps(d.space, "'"), "phi1": phi.phi1, "phi2": phi.phi2}
    f1 = tensor(tensors, "m", "p1'(phi1(e1(m)))")
    f2 = tensor(tensors, "uv", "p1'(phi2(u,v))")
    return PreLie2Hom(phi.phi0, f1, f2)


# -- general presentations and the comparison isomorphism ---------------------


def _difference(x: MultiMap, y: MultiMap) -> tuple[Fraction, ...]:
    """The nonzero entries of x - y, row-major: the defect of x = y."""
    return tuple(a - b for a, b in zip(x.coeffs, y.coeffs) if a != b)


# the object part of the split associator isomorphism is the associator
_JAC_SOURCE = (Condition("jac-source", "uvw", "p0(a1inv(jac(u,v,w))) - star0(star0(u,v),w) + star0(u,star0(v,w))"),)


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
    k = MultiMap((v1,), raw.mor, tuple(x for vec in kernel for x in vec))
    sp = TwoVectorSpace(TwoTermComplex(raw.obj, v1, ml_compose_linear(raw.tmap, k)))
    maps = _split_maps(sp)
    alpha1 = tensor({**maps, "unit": raw.unit, "k": k}, "f", "unit(p0(f)) + k(p1(f))")
    # square and invertible once s-unit and s-rank hold: s(alpha1(u, k)) = u,
    # and the kernel vectors are independent
    alpha1_inv = invert_linear(alpha1)
    tensors = {**maps, "a1": alpha1, "a1inv": alpha1_inv, "star": raw.star_mor, "star0": raw.star_obj, "jac": raw.jac}
    wrong_source = check(tensors, _JAC_SOURCE)
    if not wrong_source.ok:
        raise InvalidStructureError("associator isomorphism has the wrong source", wrong_source)
    star_mor = tensor(tensors, "fg", "a1inv(star(a1(f),a1(g)))")
    jac = tensor(tensors, "uvw", "p1(a1inv(jac(u,v,w)))")
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
    the raw morphism basis.  S raises unless its presentation is valid, and
    then T(S(split)) = split on the nose: the functor laws leave star_mor
    exactly the form that T rebuilds."""
    if isinstance(c, CatPreLie2):
        functor_S(c)
        return AlphaIso(c, MultiMap.identity(c.space.obj), MultiMap.identity(c.space.mor), ValidationReport())
    split, alpha1 = split_presentation(c)
    functor_S(split)
    out = []
    maps = _split_maps(split.space)
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
    tensors = {**_split_maps(sp), "w": w, "winv": w_inv, "star": c.star_mor, "star0": c.star_obj, "jac": c.jac}
    return RawCatPreLie2(
        sp.obj,
        w.output,
        tensor(tensors, "f", "p0(winv(f))"),
        tensor(tensors, "f", "t(winv(f))"),
        tensor(tensors, "u", "w(e0(u))"),
        c.star_obj,
        tensor(tensors, "fg", "w(star(winv(f),winv(g)))"),
        tensor(tensors, "uvx", "w(e0(star0(star0(u,v),x))) - w(e0(star0(u,star0(v,x)))) + w(e1(jac(u,v,x)))"),
    )
