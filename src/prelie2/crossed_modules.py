"""Crossed modules of pre-Lie algebras and the strict 2-term correspondence.

The redundant identities implied by the axioms are checked as well and
reported separately; a failure there with clean primary axioms indicates a
validator bug rather than bad data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .identities import Condition, check, tensor
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
from .report import InvalidStructureError, ValidationReport, Violation, make_report, nonzero_entries
from .scalar_tensor import (
    MultiMap,
    Space,
    basis_vector,
    block_multimap,
    direct_sum,
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


def _prefixed(prefix: str, report: ValidationReport) -> ValidationReport:
    return make_report([Violation(prefix + v.condition, v.where, v.defect) for v in report.violations])


_CM = (
    Condition("dM-hom", "mn", "d(p1(m,n)) - p0(d(m),d(n))"),
    Condition("C1", "um", "d(rho(u,m)) - p0(u,d(m))"),
    Condition("C2", "mn", "rho(d(m),n) - p1(m,n)"),
    # derived identities (consequences of C1/C2 and the action axioms)
    Condition("crossed1", "umn", "rho(u,p1(m,n)) - p1(rho(u,m),n) + p1(mu(u,m),n) - p1(m,rho(u,n))", derived=True),
    Condition("crossed2", "umn", "mu(u,p1(m,n)) - mu(u,p1(n,m)) - p1(m,mu(u,n)) + p1(n,mu(u,m))", derived=True),
)


def validate_cm(cm: PreLieCrossedModule) -> ValidationReport:
    """All axioms, plus the two derived action identities as cross-checks."""
    n1 = cm.a1alg.space.dim
    # the mu halves of C1 and C2 are reported at (i, n1 + p) and (n1 + p, q)
    mu_halves = (
        Condition("C1", "um", "d(mu(u,m)) - p0(d(m),u)", shift=(0, n1)),
        Condition("C2", "mn", "mu(d(n),m) - p1(m,n)", shift=(n1, 0)),
    )
    tensors = {"d": cm.dm, "rho": cm.rho, "mu": cm.mu, "p0": cm.a0alg.mul, "p1": cm.a1alg.mul}
    action = validate_prelie_rep(cm.a0alg, PreLieRep(cm.a1alg.space, cm.rho, cm.mu))
    return (
        _prefixed("prelie-0.", validate_prelie(cm.a0alg))
        .merged(_prefixed("prelie-1.", validate_prelie(cm.a1alg)))
        .merged(_prefixed("action.", action))
        .merged(check(tensors, _CM + mu_halves))
    )


_LIE_CM = (
    Condition("dt-hom", "mn", "dt(b1(m,n)) - b0(dt(m),dt(n))"),
    Condition("phi-action", "xym", "phi(b0(x,y),m) - phi(x,phi(y,m)) + phi(y,phi(x,m))"),
    Condition("phi-derivation", "xmn", "phi(x,b1(m,n)) - b1(phi(x,m),n) - b1(m,phi(x,n))"),
    Condition("peiffer-1", "xm", "dt(phi(x,m)) - b0(x,dt(m))"),
    Condition("peiffer-2", "mn", "phi(dt(m),n) - b1(m,n)"),
)


def validate_lie_cm(cm: LieCrossedModule) -> ValidationReport:
    tensors = {"dt": cm.dt, "phi": cm.phi, "b0": cm.h0.bracket, "b1": cm.h1.bracket}
    return (
        _prefixed("lie-0.", validate_lie(cm.h0))
        .merged(_prefixed("lie-1.", validate_lie(cm.h1)))
        .merged(check(tensors, _LIE_CM))
    )


def to_strict_prelie2(cm: PreLieCrossedModule) -> PreLie2Algebra:
    """u·m = rho(u)m, m·u = mu(u)m, vanishing homotopy."""
    rep = validate_cm(cm)
    if not rep.ok:
        raise InvalidStructureError("to_strict_prelie2 needs a valid crossed module", rep)
    a0, a1 = cm.a0alg.space, cm.a1alg.space
    mul10 = tensor({"mu": cm.mu}, "mu", "mu(u,m)")
    return PreLie2Algebra(a0, a1, cm.dm, cm.a0alg.mul, cm.rho, mul10, MultiMap.zero((a0, a0, a0), a1))


def from_strict_prelie2(a: PreLie2Algebra) -> PreLieCrossedModule:
    """Recover the crossed module; the degree-1 product is m·n = (dM m)·n."""
    if not is_strict(a):
        raise InvalidStructureError("from_strict_prelie2 needs a strict structure", nonzero_entries("strict", a.l3))
    rep = validate_prelie2(a)
    if not rep.ok:
        raise InvalidStructureError("from_strict_prelie2: structure invalid", rep)
    t = {"d": a.dm, "m01": a.mul01, "m10": a.mul10}
    mul1 = tensor(t, "mn", "m01(d(m),n)")
    mu = tensor(t, "um", "m10(m,u)")
    return PreLieCrossedModule(PreLieAlgebra(a.a0, a.mul00), PreLieAlgebra(a.a1, mul1), a.dm, a.mul01, mu)


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
    phi = tensor({"rho": cm.rho, "mu": cm.mu}, "um", "rho(u,m) - mu(u,m)")
    return LieCrossedModule(sub_adjacent(cm.a0alg), sub_adjacent(cm.a1alg), cm.dm, phi)


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
