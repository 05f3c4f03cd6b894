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
from .report import InvalidStructureError, ValidationReport, Violation, make_report
from .scalar_tensor import (
    DirectSum,
    MultiMap,
    basis_vector,
    block_multimap,
    direct_sum,
    ml_apply,
    ml_compose_linear,
    vec_add,
    vec_is_zero,
    vec_neg,
    vec_sub,
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


def validate_o(t: OOperator) -> ValidationReport:
    """Chain condition, skewness of T2, and conditions (i)-(iii).

    The basis images T0 e_i, T1 e_p, T2(e_i, e_j) and the products
    rho0(T0 e_i) e_j are taken once per call; (iii) at (i, j, k) sums one
    term per ordered triple over the three rotations of (i, j, k).
    """
    ctx = t.context
    g, rep, v = ctx.algebra, ctx.rep, ctx.complex
    n0 = range(v.v0.dim)
    out: list[Violation] = []
    chain = _chain_defect(t.t0, t.t1, ctx)
    for p in range(v.v1.dim):
        img = chain.image_of_basis(p)
        if not vec_is_zero(img):
            out.append(Violation("chain", (p,), img))
    t0e = [t.t0.image_of_basis(i) for i in n0]
    t2e = {(i, j): t.t2.image_of_basis(i, j) for i, j in iter_product(n0, repeat=2)}
    for i, j in iter_product(n0, repeat=2):
        defect = vec_add(t2e[i, j], t2e[j, i])
        if not vec_is_zero(defect):
            out.append(Violation("skew-t2", (i, j), defect))

    b0 = [basis_vector(v.v0, i) for i in n0]
    act = {(i, j): ml_apply(rep.rho0_0, [t0e[i], b0[j]]) for i, j in iter_product(n0, repeat=2)}
    comm = {(i, j): vec_sub(act[i, j], act[j, i]) for i, j in iter_product(n0, repeat=2)}

    for i, j in iter_product(n0, repeat=2):
        lhs = vec_sub(ml_apply(t.t0, [comm[i, j]]), ml_apply(g.l2_00, [t0e[i], t0e[j]]))
        defect = vec_sub(lhs, ml_apply(g.dk, [t2e[i, j]]))
        if not vec_is_zero(defect):
            out.append(Violation("i", (i, j), defect))
    for p, j in iter_product(range(v.v1.dim), n0):
        m, t1m = basis_vector(v.v1, p), t.t1.image_of_basis(p)
        inner = vec_sub(ml_apply(rep.rho1, [t1m, b0[j]]), ml_apply(rep.rho0_1, [t0e[j], m]))
        # l2(T1 m, T0 w) = -l2(T0 w, T1 m)
        lhs = vec_add(ml_apply(t.t1, [inner]), ml_apply(g.l2_01, [t0e[j], t1m]))
        defect = vec_sub(lhs, ml_apply(t.t2, [v.dm.image_of_basis(p), b0[j]]))
        if not vec_is_zero(defect):
            out.append(Violation("ii", (p, j), defect))

    term = {}
    for a, b, c in iter_product(n0, repeat=3):
        x = vec_add(ml_apply(g.l2_01, [t0e[a], t2e[b, c]]), ml_apply(t.t2, [b0[c], comm[a, b]]))
        inner = vec_add(ml_apply(rep.rho1, [t2e[b, c], b0[a]]), ml_apply(rep.rho2, [t0e[b], t0e[c], b0[a]]))
        term[a, b, c] = vec_add(x, ml_apply(t.t1, [inner]))
    for i, j, k in iter_product(n0, repeat=3):
        total = vec_add(vec_add(term[i, j, k], term[j, k, i]), term[k, i, j])
        total = vec_add(total, ml_apply(g.l3, [t0e[i], t0e[j], t0e[k]]))
        if not vec_is_zero(total):
            out.append(Violation("iii", (i, j, k), total))
    return make_report(out)


def induced_prelie2(t: OOperator) -> PreLie2Algebra:
    """u·v = rho0(T0 u)v, u·m = rho0(T0 u)m, m·u = rho1(T1 m)u, and the
    homotopy -rho1(T2(.,.)) - rho2(T0 ., T0 .)."""
    rep = validate_o(t)
    if not rep.ok:
        raise InvalidStructureError("induced_prelie2 needs a valid triple", rep)
    ctx = t.context
    v = ctx.complex
    r = ctx.rep
    mul00 = MultiMap.build(
        (v.v0, v.v0),
        v.v0,
        lambda i, j: ml_apply(r.rho0_0, [ml_apply(t.t0, [basis_vector(v.v0, i)]), basis_vector(v.v0, j)]),
    )
    mul01 = MultiMap.build(
        (v.v0, v.v1),
        v.v1,
        lambda i, p: ml_apply(r.rho0_1, [ml_apply(t.t0, [basis_vector(v.v0, i)]), basis_vector(v.v1, p)]),
    )
    mul10 = MultiMap.build(
        (v.v1, v.v0),
        v.v1,
        lambda p, i: ml_apply(r.rho1, [ml_apply(t.t1, [basis_vector(v.v1, p)]), basis_vector(v.v0, i)]),
    )
    l3 = MultiMap.build(
        (v.v0, v.v0, v.v0),
        v.v1,
        lambda i, j, k: vec_neg(
            vec_add(
                ml_apply(r.rho1, [t.t2.image_of_basis(i, j), basis_vector(v.v0, k)]),
                ml_apply(
                    r.rho2,
                    [
                        ml_apply(t.t0, [basis_vector(v.v0, i)]),
                        ml_apply(t.t0, [basis_vector(v.v0, j)]),
                        basis_vector(v.v0, k),
                    ],
                ),
            )
        ),
    )
    return PreLie2Algebra(v.v0, v.v1, v.dm, mul00, mul01, mul10, l3)


def induced_hom(t: OOperator) -> Lie2Hom:
    """(T0, T1, T2) as a homomorphism from the induced 2-algebra into G."""
    rep = validate_o(t)
    if not rep.ok:
        raise InvalidStructureError("induced_hom needs a valid triple", rep)
    return Lie2Hom(t.t0, t.t1, t.t2)


def lie_o_operator_holds(tmap: MultiMap, bracket: MultiMap, rho: MultiMap) -> bool:
    """[Tu, Tv] = T(rho(Tu)v - rho(Tv)u) on every basis pair."""
    nv = tmap.inputs[0].dim
    for i, j in iter_product(range(nv), repeat=2):
        u = basis_vector(tmap.inputs[0], i)
        w = basis_vector(tmap.inputs[0], j)
        tu, tw = ml_apply(tmap, [u]), ml_apply(tmap, [w])
        lhs = ml_apply(bracket, [tu, tw])
        rhs = ml_apply(
            tmap, [vec_sub(ml_apply(rho, [tu, w]), ml_apply(rho, [tw, u]))]
        )
        if lhs != rhs:
            return False
    return True


def flatten_check(t0: MultiMap, t1: MultiMap, ctx: OOperatorContext) -> bool:
    """T0 ⊕ T1 must be an operator for the flattened bracket and rho0 ⊕ rho1,
    and (T0, T1) must be a chain map.  Strict context only."""
    g, rep = ctx.algebra, ctx.rep
    if not (is_strict_lie2(g) and is_strict_rep(rep)):
        raise InvalidStructureError(
            "flatten_check needs a strict context",
            make_report([Violation("strict", (), tuple(c for m in (g.l3, rep.rho2) for c in m.coeffs if c))]),
        )
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
    for t0_entries in iter_product(values, repeat=n_t0):
        t0 = MultiMap((v.v0,), g.g0, tuple(t0_entries))
        for t1_entries in iter_product(values, repeat=n_t1):
            t1 = MultiMap((v.v1,), g.g1, tuple(t1_entries))
            if not _chain_defect(t0, t1, ctx).is_zero():
                continue  # the chain condition does not involve T2
            for t2 in t2_grid:
                cand = OOperator(ctx, t0, t1, t2)
                if validate_o(cand).ok:
                    yield cand
