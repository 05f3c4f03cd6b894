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


def validate_o(t: OOperator) -> ValidationReport:
    """Chain condition, skewness of T2, and conditions (i)-(iii); (iii) is
    evaluated twice, once via its rewriting in terms of the induced products,
    as an internal cross-check."""
    ctx = t.context
    g, rep, v = ctx.algebra, ctx.rep, ctx.complex
    out: list[Violation] = []
    chain = ml_compose_linear(t.t0, v.dm) - ml_compose_linear(g.dk, t.t1)
    for p in range(v.v1.dim):
        img = chain.image_of_basis(p)
        if not vec_is_zero(img):
            out.append(Violation("chain", (p,), img))
    for i, j in iter_product(range(v.v0.dim), repeat=2):
        defect = vec_add(t.t2.image_of_basis(i, j), t.t2.image_of_basis(j, i))
        if not vec_is_zero(defect):
            out.append(Violation("skew-t2", (i, j), defect))

    b0 = [basis_vector(v.v0, i) for i in range(v.v0.dim)]
    b1 = [basis_vector(v.v1, p) for p in range(v.v1.dim)]

    def t0(u):
        return ml_apply(t.t0, [u])

    def t1(m):
        return ml_apply(t.t1, [m])

    def t2(u, w):
        return ml_apply(t.t2, [u, w])

    def rho0_0(x, u):
        return ml_apply(rep.rho0_0, [x, u])

    def rho0_1(x, m):
        return ml_apply(rep.rho0_1, [x, m])

    def rho1(a, u):
        return ml_apply(rep.rho1, [a, u])

    def rho2(x, y, u):
        return ml_apply(rep.rho2, [x, y, u])

    def l2(x, y):
        return ml_apply(g.l2_00, [x, y])

    def l2m(x, a):
        return ml_apply(g.l2_01, [x, a])

    for i, j in iter_product(range(v.v0.dim), repeat=2):
        u, w = b0[i], b0[j]
        lhs = vec_sub(
            ml_apply(t.t0, [vec_sub(rho0_0(t0(u), w), rho0_0(t0(w), u))]),
            l2(t0(u), t0(w)),
        )
        defect = vec_sub(lhs, ml_apply(g.dk, [t2(u, w)]))
        if not vec_is_zero(defect):
            out.append(Violation("i", (i, j), defect))
    for p, j in iter_product(range(v.v1.dim), range(v.v0.dim)):
        m, w = b1[p], b0[j]
        lhs = vec_sub(
            ml_apply(t.t1, [vec_sub(rho1(t1(m), w), rho0_1(t0(w), m))]),
            vec_neg(l2m(t0(w), t1(m))),  # l2(T1 m, T0 w) = -l2(T0 w, T1 m)
        )
        defect = vec_sub(lhs, t2(ml_apply(v.dm, [m]), w))
        if not vec_is_zero(defect):
            out.append(Violation("ii", (p, j), defect))

    def induced_mul0(u, w):
        return rho0_0(t0(u), w)

    def induced_l3(u, w, z):
        return vec_neg(vec_add(rho1(t2(u, w), z), rho2(t0(u), t0(w), z)))

    for i, j, k in iter_product(range(v.v0.dim), repeat=3):
        vs = (b0[i], b0[j], b0[k])
        total = None
        rewritten = None
        for v1_, v2_, v3_ in (vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            term = l2m(t0(v1_), t2(v2_, v3_))
            term = vec_add(
                term,
                t2(v3_, vec_sub(rho0_0(t0(v1_), v2_), rho0_0(t0(v2_), v1_))),
            )
            term = vec_add(
                term,
                ml_apply(t.t1, [vec_add(rho1(t2(v2_, v3_), v1_), rho2(t0(v2_), t0(v3_), v1_))]),
            )
            total = term if total is None else vec_add(total, term)
            term2 = l2m(t0(v1_), t2(v2_, v3_))
            term2 = vec_add(
                term2, t2(v3_, vec_sub(induced_mul0(v1_, v2_), induced_mul0(v2_, v1_)))
            )
            term2 = vec_sub(term2, ml_apply(t.t1, [induced_l3(v1_, v2_, v3_)]))
            rewritten = term2 if rewritten is None else vec_add(rewritten, term2)
        tail = ml_apply(g.l3, [t0(vs[0]), t0(vs[1]), t0(vs[2])])
        total = vec_add(total, tail)
        rewritten = vec_add(rewritten, tail)
        if not vec_is_zero(total):
            out.append(Violation("iii", (i, j, k), total))
        if total != rewritten:
            out.append(
                Violation("iii-crosscheck", (i, j, k), vec_sub(total, rewritten), derived=True)
            )
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
            make_report([Violation("strict", (), (Fraction(1),))]),
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
    chain_ok = ml_compose_linear(t0, v.dm) == ml_compose_linear(g.dk, t1)
    return chain_ok and lie_o_operator_holds(t_flat, flat.bracket, rho_flat)


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
    for t0_entries in iter_product(values, repeat=n_t0):
        t0 = MultiMap((v.v0,), g.g0, tuple(t0_entries))
        for t1_entries in iter_product(values, repeat=n_t1):
            t1 = MultiMap((v.v1,), g.g1, tuple(t1_entries))
            for t2_entries in iter_product(values, repeat=len(pairs) * g.g1.dim):
                grid = {}
                for t, (i, j) in enumerate(pairs):
                    col = t2_entries[t * g.g1.dim : (t + 1) * g.g1.dim]
                    grid[(i, j)] = tuple(col)
                    grid[(j, i)] = tuple(-c for c in col)

                def t2_img(i, j):
                    return grid.get((i, j), (Fraction(0),) * g.g1.dim)

                t2 = MultiMap.build((v.v0, v.v0), g.g1, t2_img)
                cand = OOperator(ctx, t0, t1, t2)
                if validate_o(cand).ok:
                    yield cand
