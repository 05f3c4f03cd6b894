from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import block_sum, random_fraction
from prelie2.fixtures import fix_a, fix_b, fix_c, fix_d, fix_omega, lift_prelie, prelie2_fixtures
from prelie2.graded_spaces import TwoTermComplex, end_algebra
from prelie2.identities import tensor
from prelie2.lie2_core import (
    Lie2Algebra,
    Lie2Hom,
    Lie2Rep,
    from_prelie2,
    hom_from_prelie2hom,
    is_strict_lie2,
    semidirect_lie_algebra,
    semidirect_strict,
    validate,
    validate_hom,
    validate_rep,
    zero_lie2,
)
from prelie2.prelie_base import sub_adjacent, validate_lie
from prelie2.prelie2_core import PreLie2Hom, identity_hom
from prelie2.report import InvalidStructureError
from prelie2.scalar_tensor import MultiMap, Space, basis_vector, ml_apply, ml_skew_in


def test_zero_lie2_valid():
    assert validate(zero_lie2(Space(2, "g0"), Space(2, "g1"))).ok


def test_end_algebra_output_valid():
    b = fix_b()
    e = end_algebra(TwoTermComplex(b.a0, b.a1, b.dm))
    assert validate(e.lie2).ok


def test_from_prelie2_valid_on_fixtures():
    for name, fx in prelie2_fixtures().items():
        g, rep = from_prelie2(fx)
        assert validate(g).ok, name
        assert validate_rep(g, rep).ok, name


def test_from_prelie2_zero():
    from prelie2.prelie2_core import zero_prelie2

    g, rep = from_prelie2(zero_prelie2(Space(2, "a0"), Space(1, "a1")))
    assert g.l2_00.is_zero() and g.l2_01.is_zero() and g.l3.is_zero()
    assert rep.rho0_0.is_zero() and rep.rho1.is_zero() and rep.rho2.is_zero()


def test_lifted_prelie_matches_sub_adjacent():
    a = fix_a()
    g, rep = from_prelie2(lift_prelie(a))
    sub = sub_adjacent(a)
    assert g.l2_00 == sub.bracket
    assert rep.rho0_0 == a.mul  # left multiplication


def test_from_prelie2_strictness_propagates():
    b = fix_b()
    g, rep = from_prelie2(b)
    assert g.l3.is_zero()
    assert rep.rho2.is_zero()


def test_homotopy_of_from_prelie2_totally_skew():
    om = fix_omega()
    g, _ = from_prelie2(om)
    # total skewness of the cyclic sum, given slot-(0,1) skewness of the input
    for a, b in ((0, 1), (1, 2), (0, 2)):
        assert ml_skew_in(g.l3, a, b)


def test_bracket_values_on_fix_b():
    b = fix_b()
    g, _ = from_prelie2(b)
    e1 = basis_vector(g.g0, 0)
    f1 = basis_vector(g.g1, 0)
    # l2(e1, f1) = e1*f1 - f1*e1 = f1
    assert ml_apply(g.l2_01, [e1, f1]) == f1


def test_hom_from_prelie2hom_identity_and_symmetric_f2():
    b = fix_b()
    ident = identity_hom(b)
    lifted = hom_from_prelie2hom(ident, b, b)
    assert lifted.f2.is_zero()
    sym = MultiMap.build(
        (b.a0, b.a0), b.a1, lambda i, j: (Fraction((i + 1) * (j + 1)),)
    )
    f = PreLie2Hom(ident.f0, ident.f1, sym)
    assert hom_from_prelie2hom(f, b, b).f2.is_zero()


def test_hom_from_prelie2hom_validates(rng):
    from prelie2.prelie2_core import validate_hom as validate_prehom
    from test_prelie2_core import hom_family, hom_family_b

    fx = fix_c()
    g, _ = from_prelie2(fx)
    for _ in range(3):
        f = hom_family(random_fraction(rng, 3) + 1, random_fraction(rng, 3) + 2)
        assert validate_prehom(f, fx, fx).ok
        lifted = hom_from_prelie2hom(f, fx, fx)
        assert validate_hom(lifted, g, g).ok
    b = fix_b()
    gb, _ = from_prelie2(b)
    for _ in range(3):
        f = hom_family_b(random_fraction(rng, 4) + 1)
        assert validate_prehom(f, b, b).ok
        assert validate_hom(hom_from_prelie2hom(f, b, b), gb, gb).ok


# -- semidirect products --------------------------------------------------------


def test_semidirect_with_zero_module_is_g():
    b = fix_b()
    g, rep = from_prelie2(b)
    v0, v1 = Space(0, "v0"), Space(0, "v1")
    empty = Lie2Rep(
        TwoTermComplex(v0, v1, MultiMap.zero((v1,), v0)),
        MultiMap.zero((g.g0, v0), v0),
        MultiMap.zero((g.g0, v1), v1),
        MultiMap.zero((g.g1, v0), v1),
        MultiMap.zero((g.g0, g.g0, v0), v1),
    )
    s = semidirect_strict(g, empty)
    assert s.g0.dim == g.g0.dim and s.g1.dim == g.g1.dim
    assert s.l2_00.coeffs == g.l2_00.coeffs
    assert s.dk.coeffs == g.dk.coeffs


def test_semidirect_abelian_with_zero_action():
    g = zero_lie2(Space(1, "g0"), Space(1, "g1"))
    v0, v1 = Space(2, "v0"), Space(1, "v1")
    rep = Lie2Rep(
        TwoTermComplex(v0, v1, MultiMap.zero((v1,), v0)),
        MultiMap.zero((g.g0, v0), v0),
        MultiMap.zero((g.g0, v1), v1),
        MultiMap.zero((g.g1, v0), v1),
        MultiMap.zero((g.g0, g.g0, v0), v1),
    )
    s = semidirect_strict(g, rep)
    assert validate(s).ok
    assert s.l2_00.is_zero()


def test_semidirect_of_fix_b_with_left_rep_valid():
    b = fix_b()
    g, rep = from_prelie2(b)
    s = semidirect_strict(g, rep)
    assert validate(s).ok
    assert is_strict_lie2(s)


def test_semidirect_rejects_nonstrict():
    om = fix_omega()
    g, rep = from_prelie2(om)
    with pytest.raises(InvalidStructureError) as info:
        semidirect_strict(g, rep)
    # the guard carries every nonzero entry of rho2 = -l3 of FIX-OMEGA
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.where, strict.defect) == ("strict-rep", (), (Fraction(-1), Fraction(1)))
    coeffs = [Fraction(0)] * len(g.l3.coeffs)
    coeffs[1], coeffs[6] = Fraction(2), Fraction(-3)
    with pytest.raises(InvalidStructureError) as info:
        semidirect_lie_algebra(replace(g, l3=MultiMap(g.l3.inputs, g.l3.output, tuple(coeffs))))
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.where, strict.defect) == ("strict", (), (Fraction(2), Fraction(-3)))


def test_flatten_g1_zero_gives_g0():
    a = fix_a()
    g, _ = from_prelie2(lift_prelie(a))
    flat = semidirect_lie_algebra(g)
    assert flat.space.dim == 2
    sub = sub_adjacent(a)
    assert flat.bracket.coeffs == sub.bracket.coeffs


def test_flatten_abelian():
    flat = semidirect_lie_algebra(zero_lie2(Space(2, "g0"), Space(2, "g1")))
    assert flat.bracket.is_zero()


def test_flatten_fix_b_jacobi_exhaustive():
    g, _ = from_prelie2(fix_b())
    flat = semidirect_lie_algebra(g)
    assert validate_lie(flat).ok
    n = flat.space.dim
    for i, j, k in product(range(n), repeat=3):
        x, y, z = (basis_vector(flat.space, t) for t in (i, j, k))
        total = tuple(
            a + b + c
            for a, b, c in zip(
                flat.brk(flat.brk(x, y), z),
                flat.brk(flat.brk(y, z), x),
                flat.brk(flat.brk(z, x), y),
            )
        )
        assert all(t == 0 for t in total)


# -- representation-as-hom checks -----------------------------------------------


def test_rep_chain_violation_detected():
    b = fix_b()
    g, rep = from_prelie2(b)
    broken = Lie2Rep(
        rep.complex,
        rep.rho0_0,
        MultiMap.build(
            (g.g0, rep.complex.v1),
            rep.complex.v1,
            lambda i, p: (Fraction(1 if i == 1 else 0) + rep.rho0_1.entry(i, p, 0),),
        ),
        rep.rho1,
        rep.rho2,
    )
    report = validate_rep(g, broken)
    assert not report.ok
    assert "rep-chain" in report.conditions()
    # the defect is a0∘dm - dm∘a1 of the failing operator, flattened over
    # (f_p, e_w); here a0 = 0, a1 = 1 and dm(f_0) = e_1
    v, i = rep.complex, 1
    expected = tuple(
        sum((v.dm.entry(p, u) * rep.rho0_0.entry(i, u, w) for u in range(v.v0.dim)), Fraction(0))
        - sum((broken.rho0_1.entry(i, p, r) * v.dm.entry(r, w) for r in range(v.v1.dim)), Fraction(0))
        for p in range(v.v1.dim)
        for w in range(v.v0.dim)
    )
    assert expected == (Fraction(0), Fraction(-1))
    chain = [x for x in report.violations if x.condition == "rep-chain"]
    assert [(x.where, x.defect) for x in chain] == [((i,), expected)]


def test_skeletal_heisenberg_with_volume_homotopy():
    # nonabelian bracket plus a nonzero totally-skew homotopy: the Jacobiator
    # identity's bracket-homotopy terms cancel pairwise instead of vanishing
    g0, g1 = Space(3, "g0"), Space(1, "g1")
    bracket = MultiMap.build(
        (g0, g0),
        g0,
        lambda i, j: tuple(
            Fraction(1) if (i, j, k) == (0, 1, 2) else Fraction(-1) if (i, j, k) == (1, 0, 2) else Fraction(0)
            for k in range(3)
        ),
    )
    sign = {
        (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1,
    }
    l3 = MultiMap.build(
        (g0, g0, g0), g1, lambda i, j, k: (Fraction(sign.get((i, j, k), 0)),)
    )
    g = Lie2Algebra(
        g0,
        g1,
        MultiMap.zero((g1,), g0),
        bracket,
        MultiMap.zero((g0, g1), g1),
        l3,
    )
    report = validate(g)
    assert report.ok
    # and a broken variant: a non-skew homotopy is reported
    bad_l3 = MultiMap.build(
        (g0, g0, g0), g1, lambda i, j, k: (Fraction(abs(sign.get((i, j, k), 0))),)
    )
    bad = Lie2Algebra(g0, g1, g.dk, bracket, g.l2_01, bad_l3)
    assert "skew-l3" in validate(bad).conditions()


def test_validate_hom_conditions_label_scaling_failure():
    b = fix_b()
    g, _ = from_prelie2(b)
    f = Lie2Hom(
        MultiMap.identity(g.g0).scaled(Fraction(2)),
        MultiMap.identity(g.g1).scaled(Fraction(2)),
        MultiMap.zero((g.g0, g.g0), g.g1),
    )
    report = validate_hom(f, g, g)
    assert not report.ok
    assert "ii" in report.conditions()


# The Chevalley-Eilenberg coboundary of a 2-cochain psi: g0 x g0 -> g1 for the
# action rho of g0 on g1, written out here rather than taken from a table
CE_COBOUNDARY = (
    "rho(x,psi(y,z)) - rho(y,psi(x,z)) + rho(z,psi(x,y))"
    " - psi(br(x,y),z) + psi(br(x,z),y) - psi(br(y,z),x)"
)


def _strict_c_plus_d() -> Lie2Algebra:
    g, _ = from_prelie2(block_sum(fix_c(), fix_d()))
    assert g.dk.is_zero() and is_strict_lie2(g) and not g.l2_01.is_zero()
    return g


def _ce_coboundary_of_random_skew(g: Lie2Algebra, rng) -> tuple[MultiMap, MultiMap]:
    raw = MultiMap((g.g0, g.g0), g.g1, tuple(random_fraction(rng) for _ in range(g.g0.dim**2 * g.g1.dim)))
    psi = tensor({"p": raw}, "xy", "p(x,y) - p(y,x)")
    return psi, tensor({"rho": g.l2_01, "br": g.l2_00, "psi": psi}, "xyz", CE_COBOUNDARY)


def test_iv_accepts_every_ce_coboundary_as_l3(rng):
    # with dk = 0 the conditions ask of l3 only that it be a skew CE 3-cocycle
    g = _strict_c_plus_d()
    for _ in range(5):
        _, d_psi = _ce_coboundary_of_random_skew(g, rng)
        assert not d_psi.is_zero()
        assert validate(replace(g, l3=d_psi)).ok


def test_hom_iv_accepts_the_twist_by_a_ce_coboundary(rng):
    # (id, id, psi) is a homomorphism from g to g with l3 = -d_CE psi
    g = _strict_c_plus_d()
    for _ in range(3):
        psi, d_psi = _ce_coboundary_of_random_skew(g, rng)
        f = Lie2Hom(MultiMap.identity(g.g0), MultiMap.identity(g.g1), psi)
        assert validate_hom(f, g, replace(g, l3=-d_psi)).ok
