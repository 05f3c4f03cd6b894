"""2-term L-infinity structures, homomorphisms, representations, semidirect
products, and the functor from 2-term pre-Lie structures.

The mixed bracket is stored once in (degree 0, degree 1) order; the opposite
order is the negative.  Representations are stored as operators acting
directly on V-coordinates and validated on V by the conditions of a
homomorphism into End(V), with each defect reported in End(V) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded_spaces import TwoTermComplex, end0_kernel
from .identities import Condition, check, skew, tensor
from .prelie_base import LieAlgebra
from .prelie2_core import PreLie2Algebra, PreLie2Hom, validate as validate_prelie2
from .report import InvalidStructureError, ValidationReport, Violation, make_report, nonzero_entries
from .scalar_tensor import ZERO, MultiMap, Space, block_multimap, direct_sum, vec_neg


@dataclass(frozen=True)
class Lie2Algebra:
    g0: Space
    g1: Space
    dk: MultiMap  # g1 -> g0
    l2_00: MultiMap  # g0 x g0 -> g0, skew
    l2_01: MultiMap  # g0 x g1 -> g1; l2(m, x) = -l2(x, m)
    l3: MultiMap  # g0 x g0 x g0 -> g1, totally skew


@dataclass(frozen=True)
class Lie2Hom:
    f0: MultiMap
    f1: MultiMap
    f2: MultiMap  # g0 x g0 -> g1', skew


@dataclass(frozen=True)
class Lie2Rep:
    """Operators of a 2-algebra on a 2-term complex, in V-coordinates."""

    complex: TwoTermComplex
    rho0_0: MultiMap  # g0 x V0 -> V0
    rho0_1: MultiMap  # g0 x V1 -> V1
    rho1: MultiMap  # g1 x V0 -> V1
    rho2: MultiMap  # g0 x g0 x V0 -> V1, skew in the g0 slots


def is_strict_lie2(g: Lie2Algebra) -> bool:
    return g.l3.is_zero()


def is_strict_rep(rep: Lie2Rep) -> bool:
    return rep.rho2.is_zero()


def zero_lie2(g0: Space, g1: Space) -> Lie2Algebra:
    return Lie2Algebra(
        g0,
        g1,
        MultiMap.zero((g1,), g0),
        MultiMap.zero((g0, g0), g0),
        MultiMap.zero((g0, g1), g1),
        MultiMap.zero((g0, g0, g0), g1),
    )


def _named(g: Lie2Algebra, prime: str = "") -> dict[str, MultiMap]:
    tensors = {"d": g.dk, "l2": g.l2_00, "l2m": g.l2_01, "l3": g.l3}
    return {name + prime: m for name, m in tensors.items()}


_AXIOMS = (
    skew("skew-l2", "l2", "xy", 0, 1),
    # one label, two families: the (0,1) swap is reported before the (1,2) swap
    skew("skew-l3", "l3", "xyz", 0, 1),
    skew("skew-l3", "l3", "xyz", 1, 2),
    Condition("i", "xm", "d(l2m(x,m)) - l2(x,d(m))"),
    Condition("ii", "xyz", "d(l3(x,y,z)) - l2(x,l2(y,z)) - l2(y,l2(z,x)) - l2(z,l2(x,y))"),
    # l2(y, l2(m, x)) = l2(y, -l2(x, m)); l2(m, l2(x, y)) = -l2(l2(x, y), m)
    Condition("iii", "xym", "l3(x,y,d(m)) - l2m(x,l2m(y,m)) + l2m(y,l2m(x,m)) + l2m(l2(x,y),m)"),
    # with (x_1, ..., x_4) = (w, x, y, z): sum_i (-1)^i l2(x_i, l3(the rest))
    # + sum_{i<j} (-1)^(i+j+1) l3(l2(x_i, x_j), the rest), the arity-4 relation
    # of Lada and Markl (1995); for d = 0 it is minus the Chevalley-Eilenberg
    # coboundary of l3, so l3 must be a 3-cocycle
    Condition(
        "iv",
        "wxyz",
        "- l2m(w,l3(x,y,z)) + l2m(x,l3(w,y,z)) - l2m(y,l3(w,x,z)) + l2m(z,l3(w,x,y))"
        " + l3(l2(w,x),y,z) - l3(l2(w,y),x,z) + l3(l2(w,z),x,y)"
        " + l3(l2(x,y),w,z) - l3(l2(x,z),w,y) + l3(l2(y,z),w,x)",
    ),
)


def validate(g: Lie2Algebra) -> ValidationReport:
    """Skewness plus conditions (i)-(iv), including the Jacobiator identity."""
    # (i) on two degree-1 arguments is reported at (n0 + p, q)
    i_11 = Condition("i", "mn", "l2m(d(m),n) + l2m(d(n),m)", shift=(g.g0.dim, 0))
    return check(_named(g), _AXIOMS + (i_11,))


# Tensors of the target algebra carry a prime.
_HOM_CONDITIONS = (
    skew("skew-f2", "f2", "xy", 0, 1),
    Condition("i", "m", "f0(d(m)) - d'(f1(m))"),
    Condition("ii", "xy", "f0(l2(x,y)) - l2'(f0(x),f0(y)) - d'(f2(x,y))"),
    Condition("iii", "xm", "f1(l2m(x,m)) - l2m'(f0(x),f1(m)) - f2(x,d(m))"),
    Condition(
        "iv",
        "xyz",
        "f2(l2(x,y),z) + f2(l2(y,z),x) + f2(l2(z,x),y) + f1(l3(x,y,z))"
        " - l2m'(f0(x),f2(y,z)) - l2m'(f0(y),f2(z,x)) - l2m'(f0(z),f2(x,y)) - l3'(f0(x),f0(y),f0(z))",
    ),
)


def validate_hom(f: Lie2Hom, g: Lie2Algebra, h: Lie2Algebra) -> ValidationReport:
    return check({**_named(g), **_named(h, "'"), "f0": f.f0, "f1": f.f1, "f2": f.f2}, _HOM_CONDITIONS)


# A representation is a homomorphism from g into End(V) (Baez and Crans 2004),
# checked here on V itself: x acts by the pair (r00(x,-), r01(x,-)) in End0,
# m and (x, y) by r1(m,-) and r2(x,y,-) in End1 = Hom(V0, V1); End(V) has the
# differential phi -> (dm∘phi, phi∘dm), the graded commutator as bracket and
# l3 = 0.  The last variable of each family is the argument in V, u in V0 or
# n in V1; it is folded into the defect (``_folded``), which makes each defect
# a vector of End(V) coordinates.
_REP = (
    Condition("rep-chain", "xn", "r00(x,dm(n)) - dm(r01(x,n))"),
    skew("rep-skew-f2", "r2", "xyu", 0, 1),
    # (i) and (ii) are equations in End0, one family on V0 and one on V1
    Condition("rep-i", "mu", "r00(d(m),u) - dm(r1(m,u))"),
    Condition("rep-i", "mn", "r01(d(m),n) - r1(m,dm(n))"),
    Condition("rep-ii", "xyu", "r00(l2(x,y),u) - r00(x,r00(y,u)) + r00(y,r00(x,u)) - dm(r2(x,y,u))"),
    Condition("rep-ii", "xyn", "r01(l2(x,y),n) - r01(x,r01(y,n)) + r01(y,r01(x,n)) - r2(x,y,dm(n))"),
    Condition("rep-iii", "xmu", "r1(l2m(x,m),u) - r01(x,r1(m,u)) + r1(m,r00(x,u)) - r2(x,d(m),u)"),
    Condition(
        "rep-iv",
        "xyzu",
        "r2(l2(x,y),z,u) + r2(l2(y,z),x,u) + r2(l2(z,x),y,u) + r1(l3(x,y,z),u)"
        " - r01(x,r2(y,z,u)) + r2(y,z,r00(x,u)) - r01(y,r2(z,x,u)) + r2(z,x,r00(y,u))"
        " - r01(z,r2(x,y,u)) + r2(x,y,r00(z,u))",
    ),
)


def _folded(report: ValidationReport, inner: int) -> dict[tuple[int, ...], list[Fraction]]:
    """{leading indices: defect} with each violation's last index, which runs
    over ``inner`` values, folded into its defect row-major; entries where no
    violation was reported are zero."""
    out: dict[tuple[int, ...], list[Fraction]] = {}
    for v in report.violations:
        *lead, k = v.where
        n = len(v.defect)
        out.setdefault(tuple(lead), [ZERO] * (inner * n))[k * n : (k + 1) * n] = v.defect
    return out


def _without_slices(m: MultiMap, bad: set[int]) -> MultiMap:
    """``m`` with its entries at the first-slot indices ``bad`` set to zero."""
    block = len(m.coeffs) // m.inputs[0].dim
    return MultiMap(m.inputs, m.output, tuple(ZERO if k // block in bad else c for k, c in enumerate(m.coeffs)))


def validate_rep(g: Lie2Algebra, rep: Lie2Rep) -> ValidationReport:
    """The conditions for ``rep`` to be a homomorphism into End(V), checked
    on V.  Each defect is in End(V) coordinates: Hom(V1, V0) for the chain
    condition, End1 row-major over (V0, V1), and End0 coordinates for (i)
    and (ii).  Operators that fail the chain condition have no End0
    coordinates and enter the other conditions as zero."""
    v = rep.complex
    n0, n1 = v.v0.dim, v.v1.dim
    tensors = {**_named(g), "dm": v.dm, "r00": rep.rho0_0, "r01": rep.rho0_1, "r1": rep.rho1, "r2": rep.rho2}
    chain = _folded(check(tensors, _REP[:1]), n1)
    if chain:
        bad = {where[0] for where in chain}
        tensors.update(r00=_without_slices(rep.rho0_0, bad), r01=_without_slices(rep.rho0_1, bad))
    out = [Violation("rep-chain", where, tuple(d)) for where, d in chain.items()]
    end0: dict[tuple, list[Fraction]] = {}  # (label, where) -> the pair (A0, A1) flattened
    for cond in _REP[1:]:
        on_v0 = cond.variables[-1] == "u"
        for where, d in _folded(check(tensors, (cond,)), n0 if on_v0 else n1).items():
            if cond.label in ("rep-i", "rep-ii"):
                start = 0 if on_v0 else n0 * n0
                end0.setdefault((cond.label, where), [ZERO] * (n0 * n0 + n1 * n1))[start : start + len(d)] = d
            else:
                out.append(Violation(cond.label, where, tuple(d)))
    if end0:
        free = end0_kernel(v)[3]
        out += (Violation(label, where, tuple(pair[c] for c in free)) for (label, where), pair in end0.items())
    return make_report(out)


# -- the functor from 2-term pre-Lie structures ------------------------------


def from_prelie2(a: PreLie2Algebra) -> tuple[Lie2Algebra, Lie2Rep]:
    """Antisymmetrized bracket, cyclic homotopy, and the left-multiplication
    representation on the structure's own complex."""
    rep = validate_prelie2(a)
    if not rep.ok:
        raise InvalidStructureError("from_prelie2 needs a valid structure", rep)
    t = {"m00": a.mul00, "m01": a.mul01, "m10": a.mul10, "l3": a.l3}
    lie2 = Lie2Algebra(
        a.a0,
        a.a1,
        a.dm,
        tensor(t, "xy", "m00(x,y) - m00(y,x)"),
        tensor(t, "xm", "m01(x,m) - m10(m,x)"),
        tensor(t, "xyz", "l3(x,y,z) + l3(y,z,x) + l3(z,x,y)"),
    )
    rep_ = Lie2Rep(TwoTermComplex(a.a0, a.a1, a.dm), a.mul00, a.mul01, a.mul10, tensor(t, "xyz", "-l3(x,y,z)"))
    return lie2, rep_


def hom_from_prelie2hom(
    f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra
) -> Lie2Hom:
    """F2 antisymmetrized: the 2-component of the bracket-level homomorphism."""
    return Lie2Hom(f.f0, f.f1, tensor({"f2": f.f2}, "xy", "f2(x,y) - f2(y,x)"))


# -- semidirect products ------------------------------------------------------


def _require_strict(g: Lie2Algebra, rep: Lie2Rep | None = None):
    if not is_strict_lie2(g):
        raise InvalidStructureError("operation needs a strict 2-algebra", nonzero_entries("strict", g.l3))
    if rep is not None and not is_strict_rep(rep):
        raise InvalidStructureError("operation needs a strict representation", nonzero_entries("strict-rep", rep.rho2))


def semidirect_strict(g: Lie2Algebra, rep: Lie2Rep) -> Lie2Algebra:
    """G ⋉ V for a strict algebra acting strictly on a 2-term complex."""
    _require_strict(g, rep)
    v = rep.complex
    s0 = direct_sum(f"{g.g0.label}+{v.v0.label}", g.g0, v.v0)
    s1 = direct_sum(f"{g.g1.label}+{v.v1.label}", g.g1, v.v1)
    return Lie2Algebra(
        s0.space,
        s1.space,
        block_multimap((s1,), s0, {(0,): (0, g.dk.image_of_basis), (1,): (1, v.dm.image_of_basis)}),
        block_multimap(
            (s0, s0),
            s0,
            {
                (0, 0): (0, g.l2_00.image_of_basis),
                (0, 1): (1, rep.rho0_0.image_of_basis),
                (1, 0): (1, lambda t, i: vec_neg(rep.rho0_0.image_of_basis(i, t))),
            },
        ),
        block_multimap(
            (s0, s1),
            s1,
            {
                (0, 0): (0, g.l2_01.image_of_basis),
                (0, 1): (1, rep.rho0_1.image_of_basis),
                (1, 0): (1, lambda t, p: vec_neg(rep.rho1.image_of_basis(p, t))),
            },
        ),
        MultiMap.zero((s0.space, s0.space, s0.space), s1.space),
    )


def semidirect_lie_algebra(g: Lie2Algebra) -> LieAlgebra:
    """Flatten a strict 2-algebra: [x+m, y+n] = l2(x,y) + l2(x,n) + l2(m,y)."""
    _require_strict(g)
    total = direct_sum(f"{g.g0.label}(+){g.g1.label}", g.g0, g.g1)
    bracket = block_multimap(
        (total, total),
        total,
        {
            (0, 0): (0, g.l2_00.image_of_basis),
            (0, 1): (1, g.l2_01.image_of_basis),
            (1, 0): (1, lambda p, j: vec_neg(g.l2_01.image_of_basis(j, p))),
        },
    )
    return LieAlgebra(total.space, bracket)
