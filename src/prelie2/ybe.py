"""Classical Yang-Baxter machinery, graded and ungraded.

r-matrices are dense square tensors over a flattened base algebra.  Doubles
are built with dual bases and Kronecker pairings, and the canonical solution
attached to a linear operator puts the image vector in the first tensor
factor, so the identity operator reproduces the familiar
sum of e_i⊗e_i* - e_i*⊗e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .graded_spaces import TwoTermComplex
from .identities import Condition, check, rows, solution, tensor
from .lie2_core import (
    Lie2Algebra,
    Lie2Rep,
    from_prelie2,
    is_strict_lie2,
    is_strict_rep,
    semidirect_lie_algebra,
    semidirect_strict,
)
from .o_operators import OOperatorContext
from .prelie_base import (
    SCALAR_LINE,
    LieAlgebra,
    LieRep,
    PreLieAlgebra,
    dual_regular_rep,
    skew_units,
    sub_adjacent,
    validate_prelie,
)
from .prelie2_core import PreLie2Algebra, is_strict, validate as validate_prelie2
from .report import InvalidStructureError, ValidationReport, Violation, nonzero_entries
from .scalar_tensor import MultiMap, Space, block_multimap, direct_sum, kernel_of_rows

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Tensor2Element:
    """Sum r_ij b_i⊗b_j over the basis of a (possibly graded) Lie algebra."""

    base: LieAlgebra
    coeffs: Matrix
    degrees: tuple[int, ...] | None = None  # 0/1 per basis index when graded

    def __post_init__(self):
        n = self.base.space.dim
        if len(self.coeffs) != n or any(len(row) != n for row in self.coeffs):
            raise ValueError("coefficient matrix does not match the base dimension")
        if self.degrees is not None and len(self.degrees) != n:
            raise ValueError("degree labels do not match the base dimension")


def sigma(r: Tensor2Element) -> Tensor2Element:
    """Exchange of tensor factors (transpose)."""
    n = r.base.space.dim
    return Tensor2Element(
        r.base,
        tuple(tuple(r.coeffs[j][i] for j in range(n)) for i in range(n)),
        r.degrees,
    )


def zero_matrix(n: int) -> Matrix:
    return tuple((Fraction(0),) * n for _ in range(n))


# r(k) = sum r_kp b_p and rt(l) = sum r_pl b_p; ev(k, x) is the k-th coordinate of x
_CYBE = (Condition("cybe", "klm", "ev(k,br(rt(l),rt(m))) + ev(l,br(r(k),rt(m))) + ev(m,br(r(k),r(l)))"),)


def cybe_check(r: Tensor2Element, g: LieAlgebra | None = None) -> ValidationReport:
    """[r12,r13] + [r13,r23] + [r12,r23] by structure-constant contraction."""
    g = g or r.base
    s = g.space
    if r.base.space.dim != s.dim:
        raise ValueError("r-matrix does not match the algebra dimension")
    tensors = {
        "br": g.bracket,
        "r": MultiMap((s,), s, tuple(c for row in r.coeffs for c in row)),
        "rt": MultiMap((s,), s, tuple(c for row in sigma(r).coeffs for c in row)),
        "ev": MultiMap((s, s), SCALAR_LINE, MultiMap.identity(s).coeffs),
    }
    return check(tensors, _CYBE)


# -- doubles over ordinary Lie algebras --------------------------------------


def double_lie_algebra(g: LieAlgebra, rep: LieRep) -> LieAlgebra:
    """g ⋉ V* through the dual representation, dual basis ordered after g."""
    m = rep.space.dim
    total = direct_sum(f"{g.space.label}(+){rep.space.label}*", g.space, rep.space)
    bracket = block_multimap(
        (total, total),
        total,
        {
            (0, 0): (0, g.bracket.image_of_basis),
            (0, 1): (1, lambda i, q: tuple(-rep.rho.entry(i, t, q) for t in range(m))),
            (1, 0): (1, lambda p, j: tuple(rep.rho.entry(j, t, p) for t in range(m))),
        },
    )
    return LieAlgebra(total.space, bracket)


def o_operator_to_r(t: MultiMap, g: LieAlgebra, rep: LieRep) -> Tensor2Element:
    """View T: V -> g inside the double and antisymmetrize."""
    if t.inputs != (rep.space,) or t.output != g.space:
        raise ValueError("operator signature must be V -> g")
    dbl = double_lie_algebra(g, rep)
    n, m = g.space.dim, rep.space.dim
    grid = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(m):
        for a in range(n):
            grid[a][n + i] += t.entry(i, a)
            grid[n + i][a] -= t.entry(i, a)
    return Tensor2Element(dbl, tuple(tuple(row) for row in grid))


_LIE_REP = (Condition("rep", "xyv", "rho(br(x,y),v) - rho(x,rho(y,v)) + rho(y,rho(x,v))"),)


def is_lie_rep(g: LieAlgebra, rep: LieRep) -> bool:
    return check({"br": g.bracket, "rho": rep.rho}, _LIE_REP).ok


# -- graded checks ------------------------------------------------------------


@dataclass(frozen=True)
class GradedCybeReport:
    skew_ok: bool
    cybe_ok: bool
    closedness_ok: bool
    witnesses: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return self.skew_ok and self.cybe_ok and self.closedness_ok


def flatten_strict(g: Lie2Algebra) -> tuple[LieAlgebra, tuple[int, ...]]:
    flat = semidirect_lie_algebra(g)
    degrees = (0,) * g.g0.dim + (1,) * g.g1.dim
    return flat, degrees


def graded_cybe_check(
    r: Tensor2Element, frkr: Matrix | None, g: Lie2Algebra
) -> GradedCybeReport:
    """Skewness of R, its Yang-Baxter contraction in the flattened bracket,
    and the mixed-degree closedness of r."""
    if not is_strict_lie2(g):
        raise InvalidStructureError("graded check needs a strict 2-algebra", nonzero_entries("strict", g.l3))
    flat, degrees = flatten_strict(g)
    n0, n1 = g.g0.dim, g.g1.dim
    n = n0 + n1
    if r.base.space.dim != n:
        raise ValueError("r-matrix does not match the flattened dimension")
    if frkr is not None and (len(frkr) != n1 or any(len(row) != n1 for row in frkr)):
        raise ValueError("second component must be a g1 x g1 matrix")
    for i, j in iter_product(range(n), repeat=2):
        if degrees[i] == degrees[j] and r.coeffs[i][j] != 0:
            raise ValueError(
                f"support violation: r[{i}][{j}] lies in degree ({degrees[i]},{degrees[j]})"
            )
    grid = [list(row) for row in r.coeffs]
    if frkr is not None:
        # R = r - (d⊗1 + 1⊗d) frkr
        for p, q in iter_product(range(n1), repeat=2):
            c = frkr[p][q]
            if not c:
                continue
            dp = g.dk.image_of_basis(p)
            dq = g.dk.image_of_basis(q)
            for a in range(n0):
                grid[a][n0 + q] -= c * dp[a]
                grid[n0 + p][a] -= c * dq[a]
    big_r = Tensor2Element(flat, tuple(tuple(row) for row in grid), degrees)

    witnesses: list[Violation] = []
    skew_ok = True
    for i, j in iter_product(range(n), repeat=2):
        s = big_r.coeffs[i][j] + big_r.coeffs[j][i]
        if s != 0:
            skew_ok = False
            witnesses.append(Violation("skew", (i, j), (s,)))
    cybe_report = cybe_check(big_r, flat)
    witnesses.extend(cybe_report.violations)

    closed_ok = True
    defect = [[Fraction(0)] * n for _ in range(n)]
    for i, j in iter_product(range(n), repeat=2):
        c = r.coeffs[i][j]
        if not c:
            continue
        if degrees[i] == 1:
            d_img = g.dk.image_of_basis(i - n0)
            for a in range(n0):
                defect[a][j] += c * d_img[a]
        if degrees[j] == 1:
            d_img = g.dk.image_of_basis(j - n0)
            for a in range(n0):
                defect[i][a] -= c * d_img[a]
    for i, j in iter_product(range(n), repeat=2):
        if defect[i][j] != 0:
            closed_ok = False
            witnesses.append(Violation("closedness", (i, j), (defect[i][j],)))
    return GradedCybeReport(skew_ok, cybe_report.ok, closed_ok, tuple(witnesses))


# -- solutions from operators --------------------------------------------------


def dual_complex(v: TwoTermComplex) -> TwoTermComplex:
    """V0* -> V1*, the transpose differential on dual bases."""
    v0d = Space(v.v1.dim, v.v1.label + "*")  # degree-0 part of the dual
    v1d = Space(v.v0.dim, v.v0.label + "*")
    dm = MultiMap.build(
        (v1d,), v0d, lambda i: tuple(v.dm.entry(p, i) for p in range(v.v1.dim))
    )
    return TwoTermComplex(v0d, v1d, dm)


def dual_rep(g: Lie2Algebra, rep: Lie2Rep) -> Lie2Rep:
    """Negative-transpose action on the dual complex (strict reps only)."""
    if not is_strict_rep(rep):
        raise InvalidStructureError("dual_rep needs a strict representation", nonzero_entries("strict-rep", rep.rho2))
    v = rep.complex
    vd = dual_complex(v)
    m0, m1 = v.v0.dim, v.v1.dim
    rho0_0 = MultiMap.build(
        (g.g0, vd.v0), vd.v0, lambda a, p: tuple(-rep.rho0_1.entry(a, q, p) for q in range(m1))
    )
    rho0_1 = MultiMap.build(
        (g.g0, vd.v1), vd.v1, lambda a, i: tuple(-rep.rho0_0.entry(a, j, i) for j in range(m0))
    )
    rho1 = MultiMap.build(
        (g.g1, vd.v0), vd.v1, lambda b, p: tuple(-rep.rho1.entry(b, i, p) for i in range(m0))
    )
    rho2 = MultiMap.zero((g.g0, g.g0, vd.v0), vd.v1)
    return Lie2Rep(vd, rho0_0, rho0_1, rho1, rho2)


def solution_from_o_operator(
    t0: MultiMap, t1: MultiMap, ctx: OOperatorContext
) -> tuple[Tensor2Element, Matrix, Lie2Algebra]:
    """The antisymmetrized graph of (T0, T1) inside G ⋉ V*, with vanishing
    degree-(1,1) component, plus the double it lives in."""
    g, rep = ctx.algebra, ctx.rep
    if not (is_strict_lie2(g) and is_strict_rep(rep)):
        raise InvalidStructureError(
            "solution_from_o_operator needs a strict context",
            nonzero_entries("strict", g.l3, rep.rho2),
        )
    v = ctx.complex
    dbl = semidirect_strict(g, dual_rep(g, rep))
    n0, n1 = g.g0.dim, g.g1.dim
    m0, m1 = v.v0.dim, v.v1.dim
    flat, degrees = flatten_strict(dbl)
    size = n0 + m1 + n1 + m0
    off_g1 = n0 + m1
    off_v0d = n0 + m1 + n1
    grid = [[Fraction(0)] * size for _ in range(size)]
    for i in range(m0):  # T0(u_i) ⊗ u_i*
        for a in range(n0):
            c = t0.entry(i, a)
            grid[a][off_v0d + i] += c
            grid[off_v0d + i][a] -= c
    for p in range(m1):  # T1(m_p) ⊗ m_p*
        for b in range(n1):
            c = t1.entry(p, b)
            grid[off_g1 + b][n0 + p] += c
            grid[n0 + p][off_g1 + b] -= c
    r = Tensor2Element(flat, tuple(tuple(row) for row in grid), degrees)
    frkr = zero_matrix(n1 + m0)
    return r, frkr, dbl


def canonical_solution(a: PreLie2Algebra) -> tuple[Tensor2Element, Matrix, Lie2Algebra]:
    """Identity-operator solution in G(A) ⋉ A* for a strict structure."""
    if not is_strict(a):
        raise InvalidStructureError("canonical_solution needs a strict structure", nonzero_entries("strict", a.l3))
    g, rep = from_prelie2(a)
    ctx = OOperatorContext(g, rep)
    return solution_from_o_operator(
        MultiMap.identity(a.a0), MultiMap.identity(a.a1), ctx
    )


# -- the A ⊕ A* bridge --------------------------------------------------------


def _dual_products(a: PreLieAlgebra):
    """mul01(x, xi) = ad*_x xi, mul10(xi, x) = -R*_x xi and l2_01 = ad*_x + R*_x
    on dual bases."""
    rep = dual_regular_rep(a)
    return rep.space, rep.rho, tensor({"mu": rep.mu}, "px", "mu(x,p)"), rep.rho - rep.mu


def a_astar_bridge(a: PreLieAlgebra, dm: MultiMap) -> dict:
    """Build both the 2-term pre-Lie candidate on A ⊕ A* and the bracket-level
    candidate on g(A) ⊕ A*, validate each, and report whether validity
    transfers (in both directions when the connecting map is skew)."""
    rep_a = validate_prelie(a)
    if not rep_a.ok:
        raise InvalidStructureError("a_astar_bridge needs a valid pre-Lie algebra", rep_a)
    dual, mul01, mul10, l2_01 = _dual_products(a)
    if dm.inputs != (dual,) or dm.output != a.space:
        dm = MultiMap((dual,), a.space, dm.coeffs)  # rebase onto the canonical dual space
    n = a.space.dim
    skew = all(
        dm.entry(p, q) == -dm.entry(q, p) for p, q in iter_product(range(n), repeat=2)
    )
    prelie2_cand = PreLie2Algebra(
        a.space,
        dual,
        dm,
        a.mul,
        mul01,
        mul10,
        MultiMap.zero((a.space, a.space, a.space), dual),
    )
    lie_sub = sub_adjacent(a)
    lie2_cand = Lie2Algebra(
        a.space,
        dual,
        dm,
        lie_sub.bracket,
        l2_01,
        MultiMap.zero((a.space, a.space, a.space), dual),
    )
    from .lie2_core import validate as validate_lie2

    pre_report = validate_prelie2(prelie2_cand)
    lie_report = validate_lie2(lie2_cand)
    forward = (not pre_report.ok) or lie_report.ok
    backward = (not skew) or (not lie_report.ok) or pre_report.ok
    return {
        "prelie2": prelie2_cand,
        "lie2": lie2_cand,
        "prelie2_report": pre_report,
        "lie2_report": lie_report,
        "dm_skew": skew,
        "equivalence": forward and backward,
    }


# D(k, -) is the k-th skew unit map A* -> A: xi_p -> e_q, xi_q -> -e_p (p < q)
_BRIDGE = (
    Condition("a1", "kis", "D(k,m01(i,s)) - mul(i,D(k,s))"),
    Condition("a2", "kis", "D(k,m10(s,i)) - mul(D(k,s),i)"),
    Condition("a3", "ksu", "m01(D(k,s),u) - m10(s,D(k,u))"),
)


def bridge_dm_solutions(a: PreLieAlgebra) -> list[MultiMap]:
    """Basis of skew connecting maps A* -> A satisfying the three
    differential-compatibility constraints of the bridge."""
    dual, mul01, mul10, _ = _dual_products(a)
    n = a.space.dim
    pairs = Space(n * (n - 1) // 2, "pairs")
    units = MultiMap((pairs, dual), a.space, skew_units(n))
    system = rows({"D": units, "mul": a.mul, "m01": mul01, "m10": mul10}, _BRIDGE, "k")
    return [solution(units, coords) for coords in kernel_of_rows(system, pairs.dim)]
