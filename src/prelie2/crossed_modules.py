"""Crossed modules of pre-Lie algebras and the strict 2-term correspondence.

The redundant identities implied by the axioms are checked as well and
reported separately; a failure there with clean primary axioms indicates a
validator bug rather than bad data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .prelie_base import (
    LieAlgebra,
    PreLieAlgebra,
    PreLieRep,
    sub_adjacent,
    validate_lie,
    validate_prelie,
    validate_prelie_rep,
)
from .prelie2_core import PreLie2Algebra, is_strict, validate as validate_prelie2
from .report import InvalidStructureError, ValidationReport, Violation, make_report
from .scalar_tensor import (
    MultiMap,
    Space,
    basis_vector,
    block_multimap,
    direct_sum,
    ml_apply,
    vec_add,
    vec_is_zero,
    vec_sub,
)


@dataclass(frozen=True)
class PreLieCrossedModule:
    a0alg: PreLieAlgebra
    a1alg: PreLieAlgebra
    dm: MultiMap  # a1 -> a0
    rho: MultiMap  # a0 x a1 -> a1
    mu: MultiMap  # a0 x a1 -> a1


@dataclass(frozen=True)
class LieCrossedModule:
    h0: LieAlgebra
    h1: LieAlgebra
    dt: MultiMap  # h1 -> h0
    phi: MultiMap  # h0 x h1 -> h1


def validate_cm(cm: PreLieCrossedModule) -> ValidationReport:
    """All axioms, plus the two derived action identities as cross-checks."""
    out: list[Violation] = []
    out.extend(
        Violation("prelie-0." + v.condition, v.where, v.defect)
        for v in validate_prelie(cm.a0alg).violations
    )
    out.extend(
        Violation("prelie-1." + v.condition, v.where, v.defect)
        for v in validate_prelie(cm.a1alg).violations
    )
    out.extend(
        Violation("action." + v.condition, v.where, v.defect)
        for v in validate_prelie_rep(
            cm.a0alg, PreLieRep(cm.a1alg.space, cm.rho, cm.mu)
        ).violations
    )
    n0, n1 = cm.a0alg.space.dim, cm.a1alg.space.dim
    b0 = [basis_vector(cm.a0alg.space, i) for i in range(n0)]
    b1 = [basis_vector(cm.a1alg.space, p) for p in range(n1)]

    def d(m):
        return ml_apply(cm.dm, [m])

    def rho(u, m):
        return ml_apply(cm.rho, [u, m])

    def mu(u, m):
        return ml_apply(cm.mu, [u, m])

    def p0(x, y):
        return ml_apply(cm.a0alg.mul, [x, y])

    def p1(m, n):
        return ml_apply(cm.a1alg.mul, [m, n])

    for p, q in iter_product(range(n1), repeat=2):
        m, n = b1[p], b1[q]
        defect = vec_sub(d(p1(m, n)), p0(d(m), d(n)))
        if not vec_is_zero(defect):
            out.append(Violation("dM-hom", (p, q), defect))
    for i, p in iter_product(range(n0), range(n1)):
        u, m = b0[i], b1[p]
        d1 = vec_sub(d(rho(u, m)), p0(u, d(m)))
        if not vec_is_zero(d1):
            out.append(Violation("C1", (i, p), d1))
        d2 = vec_sub(d(mu(u, m)), p0(d(m), u))
        if not vec_is_zero(d2):
            out.append(Violation("C1", (i, n1 + p), d2))
    for p, q in iter_product(range(n1), repeat=2):
        m, n = b1[p], b1[q]
        d1 = vec_sub(rho(d(m), n), p1(m, n))
        if not vec_is_zero(d1):
            out.append(Violation("C2", (p, q), d1))
        d2 = vec_sub(mu(d(n), m), p1(m, n))
        if not vec_is_zero(d2):
            out.append(Violation("C2", (n1 + p, q), d2))
    # derived identities (consequences of C1/C2 and the action axioms)
    for i, p, q in iter_product(range(n0), range(n1), range(n1)):
        u, m, n = b0[i], b1[p], b1[q]
        lhs = rho(u, p1(m, n))
        rhs = vec_add(
            vec_sub(p1(rho(u, m), n), p1(mu(u, m), n)), p1(m, rho(u, n))
        )
        d1 = vec_sub(lhs, rhs)
        if not vec_is_zero(d1):
            out.append(Violation("crossed1", (i, p, q), d1, derived=True))
        lhs = mu(u, p1(m, n))
        rhs = vec_add(
            mu(u, p1(n, m)), vec_sub(p1(m, mu(u, n)), p1(n, mu(u, m)))
        )
        d2 = vec_sub(lhs, rhs)
        if not vec_is_zero(d2):
            out.append(Violation("crossed2", (i, p, q), d2, derived=True))
    return make_report(out)


def validate_lie_cm(cm: LieCrossedModule) -> ValidationReport:
    out: list[Violation] = []
    out.extend(
        Violation("lie-0." + v.condition, v.where, v.defect)
        for v in validate_lie(cm.h0).violations
    )
    out.extend(
        Violation("lie-1." + v.condition, v.where, v.defect)
        for v in validate_lie(cm.h1).violations
    )
    n0, n1 = cm.h0.space.dim, cm.h1.space.dim
    b0 = [basis_vector(cm.h0.space, i) for i in range(n0)]
    b1 = [basis_vector(cm.h1.space, p) for p in range(n1)]

    def dt(m):
        return ml_apply(cm.dt, [m])

    def phi(x, m):
        return ml_apply(cm.phi, [x, m])

    for p, q in iter_product(range(n1), repeat=2):
        m, n = b1[p], b1[q]
        defect = vec_sub(dt(cm.h1.brk(m, n)), cm.h0.brk(dt(m), dt(n)))
        if not vec_is_zero(defect):
            out.append(Violation("dt-hom", (p, q), defect))
    for i, j, p in iter_product(range(n0), range(n0), range(n1)):
        x, y, m = b0[i], b0[j], b1[p]
        defect = vec_sub(
            phi(cm.h0.brk(x, y), m), vec_sub(phi(x, phi(y, m)), phi(y, phi(x, m)))
        )
        if not vec_is_zero(defect):
            out.append(Violation("phi-action", (i, j, p), defect))
    for i, p, q in iter_product(range(n0), range(n1), range(n1)):
        x, m, n = b0[i], b1[p], b1[q]
        defect = vec_sub(
            phi(x, cm.h1.brk(m, n)),
            vec_add(cm.h1.brk(phi(x, m), n), cm.h1.brk(m, phi(x, n))),
        )
        if not vec_is_zero(defect):
            out.append(Violation("phi-derivation", (i, p, q), defect))
    for i, p in iter_product(range(n0), range(n1)):
        x, m = b0[i], b1[p]
        defect = vec_sub(dt(phi(x, m)), cm.h0.brk(x, dt(m)))
        if not vec_is_zero(defect):
            out.append(Violation("peiffer-1", (i, p), defect))
    for p, q in iter_product(range(n1), repeat=2):
        m, n = b1[p], b1[q]
        defect = vec_sub(phi(dt(m), n), cm.h1.brk(m, n))
        if not vec_is_zero(defect):
            out.append(Violation("peiffer-2", (p, q), defect))
    return make_report(out)


def to_strict_prelie2(cm: PreLieCrossedModule) -> PreLie2Algebra:
    """u·m = rho(u)m, m·u = mu(u)m, vanishing homotopy."""
    rep = validate_cm(cm)
    if not rep.ok:
        raise InvalidStructureError("to_strict_prelie2 needs a valid crossed module", rep)
    a0, a1 = cm.a0alg.space, cm.a1alg.space
    mul10 = MultiMap.build((a1, a0), a1, lambda p, i: cm.mu.image_of_basis(i, p))
    return PreLie2Algebra(
        a0,
        a1,
        cm.dm,
        cm.a0alg.mul,
        cm.rho,
        mul10,
        MultiMap.zero((a0, a0, a0), a1),
    )


def from_strict_prelie2(a: PreLie2Algebra) -> PreLieCrossedModule:
    """Recover the crossed module; the degree-1 product is m·n = (dM m)·n."""
    if not is_strict(a):
        raise InvalidStructureError(
            "from_strict_prelie2 needs a strict structure",
            make_report([Violation("strict", (), (next(c for c in a.l3.coeffs if c),))]),
        )
    rep = validate_prelie2(a)
    if not rep.ok:
        raise InvalidStructureError("from_strict_prelie2: structure invalid", rep)
    mul1 = MultiMap.build(
        (a.a1, a.a1),
        a.a1,
        lambda p, q: ml_apply(
            a.mul01, [a.dm.image_of_basis(p), basis_vector(a.a1, q)]
        ),
    )
    mu = MultiMap.build(
        (a.a0, a.a1), a.a1, lambda i, p: a.mul10.image_of_basis(p, i)
    )
    return PreLieCrossedModule(
        PreLieAlgebra(a.a0, a.mul00),
        PreLieAlgebra(a.a1, mul1),
        a.dm,
        a.mul01,
        mu,
    )


def direct_sum_prelie(cm: PreLieCrossedModule) -> PreLieAlgebra:
    """(u+m)·(v+n) = u·v + rho(u)n + mu(v)m + m·n on A0 ⊕ A1."""
    rep = validate_cm(cm)
    if not rep.ok:
        raise InvalidStructureError("direct_sum_prelie needs a valid crossed module", rep)
    a0, a1 = cm.a0alg.space, cm.a1alg.space
    total = direct_sum(f"{a0.label}(+){a1.label}", a0, a1)
    prod = block_multimap(
        (total, total),
        total,
        {
            (0, 0): (0, cm.a0alg.mul.image_of_basis),
            (0, 1): (1, cm.rho.image_of_basis),
            (1, 0): (1, lambda p, i: cm.mu.image_of_basis(i, p)),
            (1, 1): (1, cm.a1alg.mul.image_of_basis),
        },
    )
    return PreLieAlgebra(total.space, prod)


def sub_adjacent_crossed(cm: PreLieCrossedModule) -> LieCrossedModule:
    """Commutator algebras with the action rho - mu."""
    rep = validate_cm(cm)
    if not rep.ok:
        raise InvalidStructureError("sub_adjacent_crossed needs a valid crossed module", rep)
    phi = MultiMap.build(
        (cm.a0alg.space, cm.a1alg.space),
        cm.a1alg.space,
        lambda i, p: vec_sub(cm.rho.image_of_basis(i, p), cm.mu.image_of_basis(i, p)),
    )
    return LieCrossedModule(
        sub_adjacent(cm.a0alg), sub_adjacent(cm.a1alg), cm.dm, phi
    )


def ideal_crossed_module(a: PreLieAlgebra, ideal: tuple[int, ...]) -> PreLieCrossedModule:
    """The crossed module of an ideal spanned by basis indices, with the
    inclusion map and the restricted two-sided action."""
    rep = validate_prelie(a)
    if not rep.ok:
        raise InvalidStructureError("ideal_crossed_module needs a valid algebra", rep)
    n = a.space.dim
    sub = Space(len(ideal), a.space.label + "|ideal")
    pos = {g: t for t, g in enumerate(ideal)}

    def restrict(vec):
        if any(vec[j] != 0 for j in range(n) if j not in pos):
            raise InvalidStructureError(
                "span is not an ideal",
                make_report([Violation("ideal", tuple(ideal), tuple(vec))]),
            )
        return tuple(vec[g] for g in ideal)

    mul1 = MultiMap.build(
        (sub, sub), sub, lambda p, q: restrict(a.mul.image_of_basis(ideal[p], ideal[q]))
    )
    dm = MultiMap.build((sub,), a.space, lambda p: basis_vector(a.space, ideal[p]))
    rho = MultiMap.build(
        (a.space, sub), sub, lambda i, p: restrict(a.mul.image_of_basis(i, ideal[p]))
    )
    mu = MultiMap.build(
        (a.space, sub), sub, lambda i, p: restrict(a.mul.image_of_basis(ideal[p], i))
    )
    return PreLieCrossedModule(a, PreLieAlgebra(sub, mul1), dm, rho, mu)
