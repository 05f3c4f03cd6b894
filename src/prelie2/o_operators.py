"""Relative Rota-Baxter data on 2-algebras and the induced 2-term products.

A triple (T0, T1, T2) against a representation produces a 2-term pre-Lie
structure on the module complex, and (T0, T1, T2) itself becomes a
homomorphism back into the acting algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .graded_spaces import TwoTermComplex
from .identities import Condition, check, skew, tensor
from .lie2_core import (
    Lie2Algebra,
    Lie2Hom,
    Lie2Rep,
    is_strict_lie2,
    is_strict_rep,
    semidirect_lie_algebra,
    validate as validate_lie2,
    validate_rep,
)
from .prelie2_core import PreLie2Algebra
from .report import InvalidStructureError, ValidationReport, Violation, make_report, nonzero_entries
from .scalar_tensor import (
    DirectSum,
    MultiMap,
    block_multimap,
    direct_sum,
    ml_compose_linear,
)


@dataclass(frozen=True)
class OOperatorContext:
    algebra: Lie2Algebra
    rep: Lie2Rep

    @property
    def complex(self) -> TwoTermComplex:
        return self.rep.complex


@dataclass(frozen=True)
class OOperator:
    context: OOperatorContext
    t0: MultiMap  # V0 -> g0
    t1: MultiMap  # V1 -> g1
    t2: MultiMap  # V0 x V0 -> g1, skew


def validate_context(ctx: OOperatorContext) -> ValidationReport:
    rep = validate_lie2(ctx.algebra)
    return rep.merged(
        make_report(
            [
                Violation("ctx-" + v.condition, v.where, v.defect, v.derived)
                for v in validate_rep(ctx.algebra, ctx.rep).violations
            ]
        )
    )


def _chain_defect(t0: MultiMap, t1: MultiMap, ctx: OOperatorContext) -> MultiMap:
    """T0∘dm - dk∘T1 : V1 -> g0; (T0, T1) is a chain map exactly when it is zero."""
    return ml_compose_linear(t0, ctx.complex.dm) - ml_compose_linear(ctx.algebra.dk, t1)


_O_CONDITIONS = (
    Condition("chain", "m", "t0(dm(m)) - d(t1(m))"),
    skew("skew-t2", "t2", "xy", 0, 1),
    Condition("i", "xy", "t0(r00(t0(x),y)) - t0(r00(t0(y),x)) - l2(t0(x),t0(y)) - d(t2(x,y))"),
    # l2(T1 m, T0 w) = -l2(T0 w, T1 m)
    Condition("ii", "mw", "t1(r1(t1(m),w)) - t1(r01(t0(w),m)) + l2m(t0(w),t1(m)) - t2(dm(m),w)"),
    # l3 of the T0 images plus, for each rotation (a, b, c) of (x, y, z),
    # l2(T0 a, T2(b, c)) + T2(c, [a, b]_T) + T1(rho1(T2(b, c)) a + rho2(T0 b, T0 c) a)
    Condition(
        "iii",
        "xyz",
        "l3(t0(x),t0(y),t0(z))"
        " + l2m(t0(x),t2(y,z)) + t2(z,r00(t0(x),y)) - t2(z,r00(t0(y),x)) + t1(r1(t2(y,z),x)) + t1(r2(t0(y),t0(z),x))"
        " + l2m(t0(y),t2(z,x)) + t2(x,r00(t0(y),z)) - t2(x,r00(t0(z),y)) + t1(r1(t2(z,x),y)) + t1(r2(t0(z),t0(x),y))"
        " + l2m(t0(z),t2(x,y)) + t2(y,r00(t0(z),x)) - t2(y,r00(t0(x),z)) + t1(r1(t2(x,y),z)) + t1(r2(t0(x),t0(y),z))",
    ),
)


def validate_o(t: OOperator) -> ValidationReport:
    """Chain condition, skewness of T2, and conditions (i)-(iii)."""
    g, rep = t.context.algebra, t.context.rep
    algebra = {"d": g.dk, "l2": g.l2_00, "l2m": g.l2_01, "l3": g.l3}
    action = {"r00": rep.rho0_0, "r01": rep.rho0_1, "r1": rep.rho1, "r2": rep.rho2}
    return check({**algebra, **action, "t0": t.t0, "t1": t.t1, "t2": t.t2, "dm": rep.complex.dm}, _O_CONDITIONS)


def induced_prelie2(t: OOperator) -> PreLie2Algebra:
    """u·v = rho0(T0 u)v, u·m = rho0(T0 u)m, m·u = rho1(T1 m)u, and the
    homotopy -rho1(T2(.,.)) - rho2(T0 ., T0 .)."""
    rep = validate_o(t)
    if not rep.ok:
        raise InvalidStructureError("induced_prelie2 needs a valid triple", rep)
    r, v = t.context.rep, t.context.complex
    ts = {"t0": t.t0, "t1": t.t1, "t2": t.t2, "r00": r.rho0_0, "r01": r.rho0_1, "r1": r.rho1, "r2": r.rho2}
    mul00 = tensor(ts, "uv", "r00(t0(u),v)")
    mul01 = tensor(ts, "um", "r01(t0(u),m)")
    mul10 = tensor(ts, "mu", "r1(t1(m),u)")
    l3 = tensor(ts, "uvw", "-r1(t2(u,v),w) - r2(t0(u),t0(v),w)")
    return PreLie2Algebra(v.v0, v.v1, v.dm, mul00, mul01, mul10, l3)


def induced_hom(t: OOperator) -> Lie2Hom:
    """(T0, T1, T2) as a homomorphism from the induced 2-algebra into G."""
    rep = validate_o(t)
    if not rep.ok:
        raise InvalidStructureError("induced_hom needs a valid triple", rep)
    return Lie2Hom(t.t0, t.t1, t.t2)


_LIE_O = (Condition("o", "uv", "br(t(u),t(v)) - t(rho(t(u),v)) + t(rho(t(v),u))"),)


def lie_o_operator_holds(tmap: MultiMap, bracket: MultiMap, rho: MultiMap) -> bool:
    """[Tu, Tv] = T(rho(Tu)v - rho(Tv)u) on every basis pair."""
    return check({"t": tmap, "br": bracket, "rho": rho}, _LIE_O).ok


def flatten_check(t0: MultiMap, t1: MultiMap, ctx: OOperatorContext) -> bool:
    """T0 ⊕ T1 must be an operator for the flattened bracket and rho0 ⊕ rho1,
    and (T0, T1) must be a chain map.  Strict context only."""
    g, rep = ctx.algebra, ctx.rep
    if not (is_strict_lie2(g) and is_strict_rep(rep)):
        raise InvalidStructureError("flatten_check needs a strict context", nonzero_entries("strict", g.l3, rep.rho2))
    v = ctx.complex
    flat = semidirect_lie_algebra(g)
    gflat = DirectSum(flat.space, (g.g0, g.g1))
    vflat = direct_sum(f"{v.v0.label}(+){v.v1.label}", v.v0, v.v1)
    rho_flat = block_multimap(
        (gflat, vflat),
        vflat,
        {
            (0, 0): (0, rep.rho0_0.image_of_basis),
            (0, 1): (1, rep.rho0_1.image_of_basis),
            (1, 0): (1, rep.rho1.image_of_basis),
        },
    )
    t_flat = block_multimap(
        (vflat,), gflat, {(0,): (0, t0.image_of_basis), (1,): (1, t1.image_of_basis)}
    )
    return _chain_defect(t0, t1, ctx).is_zero() and lie_o_operator_holds(t_flat, flat.bracket, rho_flat)


def search_o_operators(ctx: OOperatorContext, bound: int = 1):
    """Exhaustively enumerate triples with integer entries in [-bound, bound].

    Yields valid OOperator instances; meant for fixture discovery at tiny
    dimensions only.
    """
    v = ctx.complex
    g = ctx.algebra
    n_t0 = v.v0.dim * g.g0.dim
    n_t1 = v.v1.dim * g.g1.dim
    pairs = [(i, j) for i in range(v.v0.dim) for j in range(v.v0.dim) if i < j]
    values = [Fraction(k) for k in range(-bound, bound + 1)]
    zero = (Fraction(0),) * g.g1.dim
    t2_grid = []
    for t2_entries in iter_product(values, repeat=len(pairs) * g.g1.dim):
        grid = {}
        for t, (i, j) in enumerate(pairs):
            col = t2_entries[t * g.g1.dim : (t + 1) * g.g1.dim]
            grid[(i, j)] = tuple(col)
            grid[(j, i)] = tuple(-c for c in col)
        t2_grid.append(MultiMap.build((v.v0, v.v0), g.g1, lambda i, j, grid=grid: grid.get((i, j), zero)))
    # one object per grid point, so validate_o scales each to integers once
    t1_grid = [MultiMap((v.v1,), g.g1, entries) for entries in iter_product(values, repeat=n_t1)]
    for t0_entries in iter_product(values, repeat=n_t0):
        t0 = MultiMap((v.v0,), g.g0, tuple(t0_entries))
        for t1 in t1_grid:
            if not _chain_defect(t0, t1, ctx).is_zero():
                continue  # the chain condition does not involve T2
            for t2 in t2_grid:
                cand = OOperator(ctx, t0, t1, t2)
                if validate_o(cand).ok:
                    yield cand
