"""Representations of Lie 2-algebras, checked on V against the route through End(V).

``validate_rep`` states the conditions of a homomorphism into End(V) on V
itself, as its own table.  The reference here builds End(V), writes the
operators in its coordinates and runs ``validate_hom`` into it, as
``validate_rep`` once did, so it shares no table with ``validate_rep``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import block_sum, bumped, random_transport
from prelie2 import graded_spaces, lie2_core, prelie2_core
from prelie2.fixtures import prelie2_fixtures
from prelie2.graded_spaces import end_algebra
from prelie2.identities import tensor
from prelie2.lie2_core import Lie2Hom, from_prelie2, hom_from_prelie2hom, validate_hom, validate_rep
from prelie2.o_operators import OOperatorContext, validate_context
from prelie2.prelie2_core import PreLie2Hom
from prelie2.report import Violation, make_report
from prelie2.scalar_tensor import MultiMap, kernel_coordinates, ml_compose_linear

REP_LABELS = {"rep-chain", "rep-skew-f2", "rep-i", "rep-ii", "rep-iii", "rep-iv"}


def _flat(a0, a1):
    return tuple(a0.coeffs) + tuple(a1.coeffs)


def rep_as_end_hom(g, rep):
    """(rho0, rho1, rho2) in End(V) coordinates, with the rep-chain report;
    operators that fail the chain condition get zero coordinates."""
    end = end_algebra(rep.complex)
    v = rep.complex
    n0, n1 = v.v0.dim, v.v1.dim
    basis = [_flat(p0, p1) for p0, p1 in end.end0_pairs]
    bad = []
    coords0 = []
    for i in range(g.g0.dim):
        a0 = MultiMap.build((v.v0,), v.v0, lambda u, i=i: rep.rho0_0.image_of_basis(i, u))
        a1 = MultiMap.build((v.v1,), v.v1, lambda m, i=i: rep.rho0_1.image_of_basis(i, m))
        coords = kernel_coordinates(basis, end.end0_free, _flat(a0, a1))
        if coords is None:
            defect = ml_compose_linear(a0, v.dm) - ml_compose_linear(v.dm, a1)
            bad.append(Violation("rep-chain", (i,), defect.coeffs))
            coords = tuple([Fraction(0)] * len(basis))
        coords0.append(coords)

    def end1(phi):
        return tuple(phi.entry(i, j) for i in range(n0) for j in range(n1))

    f0 = MultiMap.build((g.g0,), end.lie2.g0, lambda i: coords0[i])
    f1 = MultiMap.build(
        (g.g1,),
        end.lie2.g1,
        lambda p: end1(MultiMap.build((v.v0,), v.v1, lambda u: rep.rho1.image_of_basis(p, u))),
    )
    f2 = MultiMap.build(
        (g.g0, g.g0),
        end.lie2.g1,
        lambda i, j: end1(MultiMap.build((v.v0,), v.v1, lambda u: rep.rho2.image_of_basis(i, j, u))),
    )
    return Lie2Hom(f0, f1, f2), end, make_report(bad)


def end_route_validate_rep(g, rep):
    """A representation as a homomorphism into End(V), checked as one."""
    hom, end, chain_report = rep_as_end_hom(g, rep)
    relabeled = [
        Violation("rep-" + v.condition, v.where, v.defect, v.derived) for v in validate_hom(hom, g, end.lie2).violations
    ]
    return chain_report.merged(make_report(relabeled))


def _sources():
    """Each prelie2 fixture and a few pairwise sums, among them the n0 = n1
    complexes FIX-C, FIX-D and FIX-C+FIX-D."""
    fx = prelie2_fixtures()
    out = dict(fx)
    for x, y in (("FIX-B", "FIX-E"), ("FIX-B", "FIX-OMEGA"), ("FIX-C", "FIX-D"), ("FIX-B", "FIX-C")):
        out[f"{x}+{y}"] = block_sum(fx[x], fx[y])
    return out


def _draws(rng, per_source):
    for name, a in _sources().items():
        for k in range(per_source[name]):
            g, rep = from_prelie2(random_transport(a, rng))
            bumps = rng.randint(0, 3)
            for _ in range(bumps):
                path = rng.choice(("rho0_0", "rho0_1", "rho1", "rho2"))
                rep = bumped(rep, path, rng, Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 3))))
            yield f"{name} #{k} ({bumps} bumps)", g, rep


def test_validate_rep_equals_the_route_through_end_algebra(rng):
    per_source = {name: 30 for name in prelie2_fixtures()}
    per_source.update({"FIX-B+FIX-E": 6, "FIX-B+FIX-OMEGA": 6, "FIX-C+FIX-D": 2, "FIX-B+FIX-C": 3})
    seen = set()
    invalid = 0
    for name, g, rep in _draws(rng, per_source):
        report = validate_rep(g, rep)
        assert repr(report) == repr(end_route_validate_rep(g, rep)), name
        seen |= set(report.conditions())
        invalid += not report.ok
    assert seen == REP_LABELS
    assert 0 < invalid < sum(per_source.values())


def _dense_6_4():
    fx = prelie2_fixtures()
    a = random_transport(block_sum(block_sum(fx["FIX-B"], fx["FIX-C"]), fx["FIX-E"]), random.Random(1))
    assert (a.a0.dim, a.a1.dim) == (6, 4)
    return from_prelie2(a)


def test_validate_rep_builds_no_end_algebra_and_checks_no_hom(monkeypatch):
    def refuse(*args):
        raise AssertionError("validate_rep must not route through End(V)")

    monkeypatch.setattr(graded_spaces, "end_algebra", refuse)
    monkeypatch.setattr(lie2_core, "end_algebra", refuse, raising=False)
    monkeypatch.setattr(lie2_core, "validate_hom", refuse)
    g, rep = _dense_6_4()
    assert validate_context(OOperatorContext(g, rep)).ok
    # a bumped rho0_0 fails (ii), whose defects are read in End0 coordinates
    broken = bumped(rep, "rho0_0", random.Random(2))
    assert "rep-ii" in validate_rep(g, broken).conditions()


# -- theta-twists: generated structures with dm != 0 and l3 != 0 ---------------
#
# For a valid A and any theta: A0 x A0 -> A1 there is exactly one A' for which
# (id, id, theta) is a homomorphism A -> A'; its products and l3 are read off
# the homomorphism conditions of prelie2_core, solved for the primed tensors.

# (iv) solved for l3', with the products of A'
TWIST_L3 = (
    "l3(u,v,w) - m01'(u,th(v,w)) + m01'(v,th(u,w)) - m10'(th(v,u),w) + m10'(th(u,v),w)"
    " + th(v,m00(u,w)) - th(u,m00(v,w)) + th(m00(u,v),w) - th(m00(v,u),w)"
)


def theta_twist(a, theta):
    t = {"d": a.dm, "m00": a.mul00, "m01": a.mul01, "m10": a.mul10, "l3": a.l3, "th": theta}
    mul00 = tensor(t, "uv", "m00(u,v) - d(th(u,v))")  # (ii)
    mul01 = tensor(t, "um", "m01(u,m) - th(u,d(m))")  # (iii-a)
    mul10 = tensor(t, "mu", "m10(m,u) - th(d(m),u)")  # (iii-b)
    l3 = tensor({**t, "m01'": mul01, "m10'": mul10}, "uvw", TWIST_L3)
    return replace(a, mul00=mul00, mul01=mul01, mul10=mul10, l3=l3)


@pytest.mark.parametrize("pair", [("FIX-B", "FIX-C"), ("FIX-C", "FIX-D"), ("FIX-B", "FIX-E"), ("FIX-E", "FIX-OMEGA")])
def test_theta_twists_are_valid_and_their_images_are_valid_reps(pair):
    fx = prelie2_fixtures()
    rng = random.Random("twist " + "+".join(pair))
    a = random_transport(block_sum(fx[pair[0]], fx[pair[1]]), rng)
    entries = a.a0.dim**2 * a.a1.dim
    theta = MultiMap((a.a0, a.a0), a.a1, tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(entries)))
    b = theta_twist(a, theta)
    f = PreLie2Hom(MultiMap.identity(a.a0), MultiMap.identity(a.a1), theta)
    assert prelie2_core.validate(b).ok
    assert prelie2_core.validate_hom(f, a, b).ok
    g, rep = from_prelie2(a)
    h, rep_b = from_prelie2(b)
    # FIX-C and FIX-D have dm = 0; every other sum here has dm != 0 with l3 != 0
    assert b.dm.is_zero() == (pair == ("FIX-C", "FIX-D"))
    assert not h.l3.is_zero() and not rep_b.rho2.is_zero()
    assert lie2_core.validate(h).ok
    assert validate_rep(h, rep_b).ok
    assert validate_hom(hom_from_prelie2hom(f, a, b), g, h).ok
