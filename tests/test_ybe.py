import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_fraction
from test_prelie_base import combination
from prelie2.fixtures import (
    fix_a,
    fix_b,
    fix_b_context,
    fix_omega,
    lift_prelie,
    o_identity,
    o_negative_lower,
    o_negative_scaled,
    o_nontrivial,
    omega_algebra,
    prelie2_fixtures,
)
from prelie2.lie2_core import from_prelie2, validate_rep, zero_lie2
from prelie2.o_operators import OOperatorContext, validate_o
from prelie2.prelie_base import LieAlgebra, LieRep, standard_reps, sub_adjacent, validate_lie
from prelie2.report import InvalidStructureError
from prelie2.scalar_tensor import MultiMap, Space, basis_vector, kernel_of_rows, ml_apply, vec_sub
from prelie2.ybe import (
    Tensor2Element,
    a_astar_bridge,
    bridge_dm_solutions,
    canonical_solution,
    cybe_check,
    double_lie_algebra,
    dual_rep,
    flatten_strict,
    graded_cybe_check,
    is_lie_rep,
    o_operator_to_r,
    sigma,
    solution_from_o_operator,
    zero_matrix,
)


def abelian_lie(n=3) -> LieAlgebra:
    s = Space(n, "g")
    return LieAlgebra(s, MultiMap.zero((s, s), s))


def test_zero_r_is_solution():
    g = sub_adjacent(fix_a())
    r = Tensor2Element(g, zero_matrix(2))
    assert cybe_check(r).ok


def test_abelian_any_r_is_solution(rng):
    g = abelian_lie()
    grid = tuple(
        tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)) for _ in range(3)
    )
    assert cybe_check(Tensor2Element(g, grid)).ok


def test_sigma_is_an_involution(rng):
    g = abelian_lie(2)
    grid = tuple(
        tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2)
    )
    r = Tensor2Element(g, grid)
    assert sigma(sigma(r)) == r


def test_canonical_r_solves_in_the_double():
    # the antisymmetrized identity graph in g(A) ⋉ A* solves the equation
    a = fix_a()
    g = sub_adjacent(a)
    rep = LieRep(a.space, standard_reps(a)["left"].rho)
    assert is_lie_rep(g, rep)
    r = o_operator_to_r(MultiMap.identity(a.space), g, rep)
    assert cybe_check(r).ok
    n = a.space.dim
    for i in range(n):
        assert r.coeffs[i][n + i] == 1
        assert r.coeffs[n + i][i] == -1


def test_double_bracket_is_a_lie_algebra():
    a = fix_a()
    g = sub_adjacent(a)
    rep = LieRep(a.space, standard_reps(a)["left"].rho)
    dbl = double_lie_algebra(g, rep)
    assert validate_lie(dbl).ok


def test_operator_biconditional_both_directions():
    # the adjoint representation of the nonabelian 2-dim algebra: here the
    # operator identity genuinely cuts the space of linear maps
    from prelie2.o_operators import lie_o_operator_holds

    a = fix_a()
    g = sub_adjacent(a)
    ad = MultiMap.build(
        (g.space, g.space), g.space, lambda i, j: g.bracket.image_of_basis(i, j)
    )
    rep = LieRep(g.space, ad)
    assert is_lie_rep(g, rep)
    candidates = [
        MultiMap.zero((g.space,), g.space),
        MultiMap((g.space,), g.space, tuple(Fraction(c) for c in (0, 1, 0, 0))),
        MultiMap((g.space,), g.space, tuple(Fraction(c) for c in (1, 0, 0, 0))),
        MultiMap.identity(g.space),
        MultiMap((g.space,), g.space, tuple(Fraction(c) for c in (1, 0, 0, -1))),
    ]
    outcomes = set()
    for t in candidates:
        expected = lie_o_operator_holds(t, g.bracket, rep.rho)
        got = cybe_check(o_operator_to_r(t, g, rep)).ok
        assert got == expected
        outcomes.add(expected)
    assert outcomes == {True, False}  # both directions genuinely exercised


def test_graded_zero_solution():
    g, _ = from_prelie2(fix_b())
    flat, degrees = flatten_strict(g)
    n = flat.space.dim
    r = Tensor2Element(flat, zero_matrix(n), degrees)
    report = graded_cybe_check(r, zero_matrix(g.g1.dim), g)
    assert report.ok


def test_graded_support_violation_raises():
    g, _ = from_prelie2(fix_b())
    flat, degrees = flatten_strict(g)
    n = flat.space.dim
    grid = [[Fraction(0)] * n for _ in range(n)]
    grid[0][0] = Fraction(1)  # degree (0,0) entry
    r = Tensor2Element(flat, tuple(tuple(row) for row in grid), degrees)
    with pytest.raises(ValueError):
        graded_cybe_check(r, None, g)


def test_degenerate_abelian_symmetric_second_component():
    # abelian with zero differential: R = r, any symmetric frkr drops out
    g = zero_lie2(Space(1, "g0"), Space(2, "g1"))
    flat, degrees = flatten_strict(g)
    grid = [[Fraction(0)] * 3 for _ in range(3)]
    grid[0][1] = Fraction(2)
    grid[1][0] = Fraction(-2)
    r = Tensor2Element(flat, tuple(tuple(row) for row in grid), degrees)
    frkr = ((Fraction(1), Fraction(3)), (Fraction(3), Fraction(5)))
    report = graded_cybe_check(r, frkr, g)
    assert report.ok


def test_canonical_solution_fix_b():
    r, frkr, dbl = canonical_solution(fix_b())
    report = graded_cybe_check(r, frkr, dbl)
    assert report.skew_ok and report.cybe_ok and report.closedness_ok


def test_canonical_solution_matches_dual_basis_formula():
    b = fix_b()
    r, _, dbl = canonical_solution(b)
    n0, n1 = b.a0.dim, b.a1.dim
    off_g1 = n0 + n1  # layout: [A0 | A1*] then [A1 | A0*]
    off_v0d = n0 + n1 + n1
    n = 2 * (n0 + n1)
    expected = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n0):
        expected[i][off_v0d + i] = Fraction(1)
        expected[off_v0d + i][i] = Fraction(-1)
    for p in range(n1):
        expected[off_g1 + p][n0 + p] = Fraction(1)
        expected[n0 + p][off_g1 + p] = Fraction(-1)
    assert r.coeffs == tuple(tuple(row) for row in expected)


def test_canonical_solution_degenerate_case_reduces_to_lie_level():
    lifted = lift_prelie(fix_a())
    r, frkr, dbl = canonical_solution(lifted)
    assert graded_cybe_check(r, frkr, dbl).ok
    # flattened, the check is the ordinary equation in g(A) ⋉ A*
    flat, _ = flatten_strict(dbl)
    assert cybe_check(Tensor2Element(flat, r.coeffs)).ok
    a = fix_a()
    g = sub_adjacent(a)
    rep = LieRep(a.space, standard_reps(a)["left"].rho)
    plain = o_operator_to_r(MultiMap.identity(a.space), g, rep)
    assert plain.coeffs == r.coeffs


def test_canonical_solution_rejects_nonstrict():
    with pytest.raises(InvalidStructureError) as info:
        canonical_solution(fix_omega())
    # the guard carries every nonzero entry of l3
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.where, strict.defect) == ("strict", (), (Fraction(1), Fraction(-1)))


def test_strictness_guards_carry_the_nonzero_entries():
    # FIX-OMEGA's image has l3 = 0; its rho2 = -l3 of FIX-OMEGA has the entries -1, 1
    g, rep = from_prelie2(fix_omega())
    v = rep.complex
    with pytest.raises(InvalidStructureError) as info:
        dual_rep(g, rep)
    assert info.value.report.violations[0].defect == (Fraction(-1), Fraction(1))
    with pytest.raises(InvalidStructureError) as info:
        solution_from_o_operator(MultiMap.identity(v.v0), MultiMap.identity(v.v1), OOperatorContext(g, rep))
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.where, strict.defect) == ("strict", (), (Fraction(-1), Fraction(1)))
    strict_g = zero_lie2(Space(2, "g0"), Space(1, "g1"))
    coeffs = [Fraction(0)] * 8
    coeffs[1], coeffs[6] = Fraction(2), Fraction(-3)
    bad = replace(strict_g, l3=MultiMap(strict_g.l3.inputs, strict_g.g1, tuple(coeffs)))
    flat, degrees = flatten_strict(strict_g)
    with pytest.raises(InvalidStructureError) as info:
        graded_cybe_check(Tensor2Element(flat, zero_matrix(3), degrees), None, bad)
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.defect) == ("strict", (Fraction(2), Fraction(-3)))


def test_solution_biconditional_positive_and_negative():
    ctx = fix_b_context()
    positives = [o_identity(ctx), o_nontrivial()]
    negatives = [o_negative_scaled(), o_negative_lower()]
    for t in positives:
        assert validate_o(t).ok
        r, frkr, dbl = solution_from_o_operator(t.t0, t.t1, ctx)
        assert graded_cybe_check(r, frkr, dbl).ok
    for t in negatives:
        assert not validate_o(t).ok
        r, frkr, dbl = solution_from_o_operator(t.t0, t.t1, ctx)
        report = graded_cybe_check(r, frkr, dbl)
        assert not report.ok
        assert not report.closedness_ok  # the chain clause surfaces here


def test_solution_degree_bookkeeping():
    ctx = fix_b_context()
    t = o_identity(ctx)
    r, _, dbl = solution_from_o_operator(t.t0, t.t1, ctx)
    assert r.degrees is not None
    for i, j in product(range(len(r.degrees)), repeat=2):
        if r.degrees[i] == r.degrees[j]:
            assert r.coeffs[i][j] == 0


def test_dual_representation_validates():
    from prelie2.ybe import dual_rep

    g, rep = from_prelie2(fix_b())
    dual = dual_rep(g, rep)
    assert validate_rep(g, dual).ok


# -- the A ⊕ A* bridge ----------------------------------------------------------


def test_bridge_zero_connecting_map():
    a = fix_a()
    from prelie2.ybe import _dual_products

    dual, *_ = _dual_products(a)
    res = a_astar_bridge(a, MultiMap.zero((dual,), a.space))
    assert res["prelie2_report"].ok
    assert res["lie2_report"].ok
    assert res["dm_skew"]
    assert res["equivalence"]


def test_bridge_abelian_any_skew_map():
    s = Space(2, "a")
    from prelie2.prelie_base import PreLieAlgebra

    ab = PreLieAlgebra(s, MultiMap.zero((s, s), s))
    from prelie2.ybe import _dual_products

    dual, *_ = _dual_products(ab)
    dm = MultiMap(
        (dual,), s, (Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
    )
    res = a_astar_bridge(ab, dm)
    assert res["prelie2_report"].ok and res["lie2_report"].ok and res["equivalence"]


def test_bridge_solver_fix_a_only_zero():
    assert bridge_dm_solutions(fix_a()) == []


def test_bridge_rows_match_evaluation_on_unit_maps(rng):
    # each column is the skew map dm(xi_p) = e_q, dm(xi_q) = -e_p, p < q; each
    # equation is evaluated on it through ml_apply, one row per component; the
    # solver's maps are the kernel of that system, built into maps
    from prelie2.prelie_base import PreLieAlgebra
    from prelie2.ybe import _dual_products

    solved = 0
    for n, sparse in product((2, 3, 4), (False, True)):  # sparse products have nonzero solutions
        s = Space(n, "a")
        draws = (random_fraction(rng, 3) if not sparse or rng.random() < 0.05 else Fraction(0) for _ in range(n**3))
        a = PreLieAlgebra(s, MultiMap((s, s), s, tuple(draws)))
        dual, mul01, mul10, _ = _dual_products(a)
        ba = [basis_vector(s, i) for i in range(n)]
        bd = [basis_vector(dual, p) for p in range(n)]
        units = [
            MultiMap.build((dual,), s, lambda t, p=p, q=q: tuple(
                Fraction(int((t, c) == (p, q)) - int((t, c) == (q, p))) for c in range(n)
            ))
            for p in range(n) for q in range(p + 1, n)
        ]
        equations = []
        for i, p in product(range(n), repeat=2):
            equations.append(lambda dm, i=i, p=p: vec_sub(
                ml_apply(dm, [ml_apply(mul01, [ba[i], bd[p]])]), ml_apply(a.mul, [ba[i], ml_apply(dm, [bd[p]])])
            ))
            equations.append(lambda dm, i=i, p=p: vec_sub(
                ml_apply(dm, [ml_apply(mul10, [bd[p], ba[i]])]), ml_apply(a.mul, [ml_apply(dm, [bd[p]]), ba[i]])
            ))
        for p, q in product(range(n), repeat=2):
            equations.append(lambda dm, p=p, q=q: vec_sub(
                ml_apply(mul01, [ml_apply(dm, [bd[p]]), bd[q]]), ml_apply(mul10, [bd[p], ml_apply(dm, [bd[q]])])
            ))
        expected = []
        for eq in equations:
            defects = [eq(u) for u in units]
            expected += [[d[c] for d in defects] for c in range(n)]
        kernel = kernel_of_rows(expected, len(units))
        assert bridge_dm_solutions(a) == [combination(units, v) for v in kernel]
        solved += len(kernel)
    assert solved


def test_bridge_solver_mirror_algebra_nonzero():
    sols = bridge_dm_solutions(omega_algebra())
    assert len(sols) == 1
    dm = sols[0]
    assert not dm.is_zero()
    res = a_astar_bridge(omega_algebra(), dm)
    assert res["dm_skew"]
    assert res["prelie2_report"].ok and res["lie2_report"].ok
    assert res["equivalence"]


def test_bridge_corollary_r_matrix():
    # with a valid skew connecting map, the dual-basis r solves the graded
    # equations inside the bridge 2-algebra itself
    sols = bridge_dm_solutions(omega_algebra())
    res = a_astar_bridge(omega_algebra(), sols[0])
    g2 = res["lie2"]
    flat, degrees = flatten_strict(g2)
    n = omega_algebra().space.dim
    grid = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        grid[i][n + i] = Fraction(1)
        grid[n + i][i] = Fraction(-1)
    r = Tensor2Element(flat, tuple(tuple(row) for row in grid), degrees)
    assert graded_cybe_check(r, None, g2).ok


def test_bridge_equivalence_accounts_for_skewness():
    # a non-skew dm that breaks the 2-term axioms must not claim equivalence
    a = omega_algebra()
    from prelie2.ybe import _dual_products

    dual, *_ = _dual_products(a)
    dm = MultiMap(
        (dual,), a.space, (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    )
    res = a_astar_bridge(a, dm)
    assert not res["dm_skew"]
    # forward implication is all that is claimed without skewness
    assert res["equivalence"] == ((not res["prelie2_report"].ok) or res["lie2_report"].ok)


# -- cybe_check and is_lie_rep against loops written here ------------------------


def reference_cybe_check(r: Tensor2Element):
    """The structure-constant contraction as a dense loop over (k, l, m) and
    (p, q), as the checker once did."""
    from prelie2.report import Violation, make_report

    n = r.base.space.dim
    rc = r.coeffs
    c = {(p, q): r.base.bracket.image_of_basis(p, q) for p, q in product(range(n), repeat=2)}
    out = []
    for k, l, m in product(range(n), repeat=3):
        total = Fraction(0)
        for p, q in product(range(n), repeat=2):
            cpq = c[p, q]
            if cpq[k]:
                total += rc[p][l] * rc[q][m] * cpq[k]
            if cpq[l]:
                total += rc[k][p] * rc[q][m] * cpq[l]
            if cpq[m]:
                total += rc[k][p] * rc[l][q] * cpq[m]
        if total != 0:
            out.append(Violation("cybe", (k, l, m), (total,)))
    return make_report(out)


def strict_canonical_solutions():
    out = {name: canonical_solution(fx)[0] for name, fx in prelie2_fixtures().items() if fx.l3.is_zero()}
    out["FIX-A lifted"] = canonical_solution(lift_prelie(fix_a()))[0]
    return out


def test_cybe_check_matches_reference_loop_on_canonical_solutions_and_perturbations():
    rng = random.Random(20261018)
    failing, fractional = 0, False
    for name, r in strict_canonical_solutions().items():
        assert cybe_check(r) == reference_cybe_check(r), name
        assert cybe_check(r).ok, name
        n = r.base.space.dim
        for _ in range(4):
            grid = [list(row) for row in r.coeffs]
            for _ in range(rng.randint(1, 3)):
                k, l = rng.randrange(n), rng.randrange(n)
                grid[k][l] += random_fraction(rng, 3)
                fractional |= grid[k][l].denominator > 1
            bumped_r = Tensor2Element(r.base, tuple(tuple(row) for row in grid), r.degrees)
            report = cybe_check(bumped_r)
            assert report == reference_cybe_check(bumped_r), name
            failing += not report.ok
    assert failing >= 10 and fractional


def reference_is_lie_rep(g: LieAlgebra, rep: LieRep) -> bool:
    for i, j, u in product(range(g.space.dim), range(g.space.dim), range(rep.space.dim)):
        x, y, v = basis_vector(g.space, i), basis_vector(g.space, j), basis_vector(rep.space, u)
        lhs = ml_apply(rep.rho, [g.brk(x, y), v])
        rhs = vec_sub(
            ml_apply(rep.rho, [x, ml_apply(rep.rho, [y, v])]),
            ml_apply(rep.rho, [y, ml_apply(rep.rho, [x, v])]),
        )
        if lhs != rhs:
            return False
    return True


def test_is_lie_rep_matches_reference_loop_on_perturbed_reps():
    rng = random.Random(20261018)
    a = fix_a()
    g = sub_adjacent(a)
    base = [
        LieRep(a.space, standard_reps(a)["left"].rho),
        LieRep(g.space, g.bracket),
        LieRep(Space(2, "v"), MultiMap.zero((g.space, Space(2, "v")), Space(2, "v"))),
    ]
    outcomes = []
    for rep in base:
        assert is_lie_rep(g, rep) and reference_is_lie_rep(g, rep)
        for _ in range(6):
            coeffs = list(rep.rho.coeffs)
            coeffs[rng.randrange(len(coeffs))] += random_fraction(rng, 3)
            bumped_rep = LieRep(rep.space, MultiMap(rep.rho.inputs, rep.rho.output, tuple(coeffs)))
            expected = reference_is_lie_rep(g, bumped_rep)
            assert is_lie_rep(g, bumped_rep) == expected
            outcomes.append(expected)
    assert outcomes.count(False) >= 6 and True in outcomes
