from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import random_fraction
from prelie2.fixtures import fix_a, fix_a_bad, omega_algebra, omega_form
from prelie2.prelie_base import (
    Cochain,
    InvariantForm,
    PreLieAlgebra,
    SCALAR_LINE,
    PreLieRep,
    coboundary,
    cocycle_from_form,
    invariant_forms,
    skeletal_from_form,
    standard_reps,
    sub_adjacent,
    validate_cochain,
    validate_invariant_form,
    validate_lie,
    validate_prelie,
    validate_prelie_rep,
    zero_rep,
)
from prelie2.report import InvalidStructureError
from prelie2.scalar_tensor import MultiMap, Space, basis_vector, kernel_of_rows, ml_apply, vec_sub


def associator_oracle(a: PreLieAlgebra):
    """Exhaustive (x,y,z) = (y,x,z) check, written independently of the
    validator: raw index loops over the product table."""
    n = a.space.dim
    mul = a.mul
    for i, j, k in product(range(n), repeat=3):
        for out in range(n):
            lhs = sum(
                (mul.entry(i, j, t) * mul.entry(t, k, out) for t in range(n)),
                Fraction(0),
            ) - sum(
                (mul.entry(j, k, t) * mul.entry(i, t, out) for t in range(n)),
                Fraction(0),
            )
            rhs = sum(
                (mul.entry(j, i, t) * mul.entry(t, k, out) for t in range(n)),
                Fraction(0),
            ) - sum(
                (mul.entry(i, k, t) * mul.entry(j, t, out) for t in range(n)),
                Fraction(0),
            )
            if lhs != rhs:
                return (i, j, k)
    return None


def test_abelian_is_prelie():
    s = Space(3, "s")
    assert validate_prelie(PreLieAlgebra(s, MultiMap.zero((s, s), s))).ok


def test_fix_a_valid_against_oracle():
    a = fix_a()
    assert validate_prelie(a).ok
    assert associator_oracle(a) is None


def test_fix_a_bad_reports_witness_triple():
    bad = fix_a_bad()
    report = validate_prelie(bad)
    assert not report.ok
    assert associator_oracle(bad) is not None
    assert all(v.condition == "assoc-sym" for v in report.violations)
    assert associator_oracle(bad) in {v.where for v in report.violations}


def test_sub_adjacent_abelian():
    s = Space(2, "s")
    g = sub_adjacent(PreLieAlgebra(s, MultiMap.zero((s, s), s)))
    assert g.bracket.is_zero()


def test_sub_adjacent_fix_a_commutator():
    g = sub_adjacent(fix_a())
    e1, e2 = basis_vector(g.space, 0), basis_vector(g.space, 1)
    assert g.brk(e1, e2) == e2
    assert g.brk(e2, e1) == tuple(-x for x in e2)
    assert g.brk(e1, e1) == (Fraction(0),) * 2
    assert validate_lie(g).ok


def test_associative_algebra_gives_its_commutator():
    # 2x2 upper-triangular matrices: an associative (hence pre-Lie) product
    s = Space(3, "s")  # basis E11, E12, E22
    table = {
        (0, 0): 0,
        (0, 1): 1,
        (1, 2): 1,
        (2, 2): 2,
    }

    def img(i, j):
        out = [Fraction(0)] * 3
        if (i, j) in table:
            out[table[(i, j)]] = Fraction(1)
        return tuple(out)

    alg = PreLieAlgebra(s, MultiMap.build((s, s), s, img))
    assert validate_prelie(alg).ok
    g = sub_adjacent(alg)
    assert validate_lie(g).ok
    for i, j in product(range(3), repeat=2):
        expected = vec_sub(alg.mul.image_of_basis(i, j), alg.mul.image_of_basis(j, i))
        assert g.bracket.image_of_basis(i, j) == expected


def test_sub_adjacent_rejects_invalid():
    with pytest.raises(InvalidStructureError):
        sub_adjacent(fix_a_bad())


def test_standard_reps_abelian_all_zero():
    s = Space(2, "s")
    reps = standard_reps(PreLieAlgebra(s, MultiMap.zero((s, s), s)))
    for rep in reps.values():
        assert rep.rho.is_zero() and rep.mu.is_zero()


def test_left_rep_reads_from_table():
    a = fix_a()
    rep = standard_reps(a)["left"]
    e1 = basis_vector(a.space, 0)
    e2 = basis_vector(a.space, 1)
    assert ml_apply(rep.rho, [e1, e2]) == e2
    assert validate_prelie_rep(a, rep).ok


def test_dual_rep_is_transpose_negate():
    a = fix_a()
    rep = standard_reps(a)["dual"]
    n = a.space.dim
    # mu = -R*: matrix of mu(x) must be the transpose of R_x
    for i in range(n):
        for p, q in product(range(n), repeat=2):
            r_x_entry = a.mul.entry(q, i, p)  # (e_q . e_i) coefficient of e_p
            assert rep.mu.entry(i, p, q) == r_x_entry
    assert validate_prelie_rep(a, rep).ok


def test_dual_pairing_identity():
    # <(L*-R*)_x xi, y> = <xi, -[x, y]> on all basis elements
    a = fix_a()
    rep = standard_reps(a)["dual"]
    g = sub_adjacent(a)
    n = a.space.dim
    for i, p, q in product(range(n), repeat=3):
        lhs = rep.rho.entry(i, p, q)
        bracket = g.bracket.image_of_basis(i, q)
        assert lhs == -bracket[p]


def coboundary_oracle(w: Cochain, a: PreLieAlgebra, rep: PreLieRep, idx):
    """The four-sum formula expanded independently, one output tuple at a time."""
    n = w.n
    xs = [basis_vector(a.space, i) for i in idx]
    total = [Fraction(0)] * rep.space.dim

    def acc(vec, sign):
        for t, c in enumerate(vec):
            total[t] += sign * c

    for i in range(1, n + 1):
        sign = Fraction((-1) ** (i + 1))
        without = [xs[t] for t in range(n + 1) if t != i - 1]
        acc(ml_apply(rep.rho, [xs[i - 1], ml_apply(w.map, without)]), sign)
        head = [xs[t] for t in range(n) if t != i - 1]
        acc(ml_apply(rep.mu, [xs[n], ml_apply(w.map, head + [xs[i - 1]])]), sign)
        acc(ml_apply(w.map, head + [ml_apply(a.mul, [xs[i - 1], xs[n]])]), -sign)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sign = Fraction((-1) ** (i + j))
            br = vec_sub(
                ml_apply(a.mul, [xs[i - 1], xs[j - 1]]),
                ml_apply(a.mul, [xs[j - 1], xs[i - 1]]),
            )
            rest = [xs[t] for t in range(n + 1) if t not in (i - 1, j - 1)]
            acc(ml_apply(w.map, [br] + rest), sign)
    return tuple(total)


def _random_cochain(rng, a, rep, n):
    m = MultiMap.build(
        (a.space,) * n,
        rep.space,
        lambda *i: tuple(random_fraction(rng) for _ in range(rep.space.dim)),
    )
    return Cochain(n, m)


def test_coboundary_zero_and_abelian():
    a = fix_a()
    rep = standard_reps(a)["left"]
    zero1 = Cochain(1, MultiMap.zero((a.space,), rep.space))
    assert coboundary(zero1, a, rep).map.is_zero()
    s = Space(2, "s")
    ab = PreLieAlgebra(s, MultiMap.zero((s, s), s))
    zrep = zero_rep(ab, Space(1, "v"))
    w = Cochain(1, MultiMap.build((s,), zrep.space, lambda i: (Fraction(i + 1),)))
    assert coboundary(w, ab, zrep).map.is_zero()


def test_coboundary_matches_independent_expansion_and_dd_zero(rng):
    a = fix_a()
    for rep in standard_reps(a).values():
        for n in (1, 2):
            for _ in range(10):
                w = _random_cochain(rng, a, rep, n)
                dw = coboundary(w, a, rep)
                for idx in product(range(a.space.dim), repeat=n + 1):
                    assert dw.map.image_of_basis(*idx) == coboundary_oracle(
                        w, a, rep, idx
                    )
                assert validate_cochain(dw).ok
                assert coboundary(dw, a, rep).map.is_zero()


def test_invariant_form_solver_on_mirror_algebra():
    forms = invariant_forms(omega_algebra())
    assert len(forms) == 1
    om = forms[0]
    assert om.omega.entry(0, 1, 0) == 1
    assert validate_invariant_form(omega_algebra(), om).ok


def test_fix_a_admits_no_nonzero_invariant_form():
    forms = invariant_forms(fix_a())
    assert forms == []


def combination(units, coords):
    """sum_c coords[c] units[c], built with MultiMap arithmetic."""
    out = MultiMap.zero(units[0].inputs, units[0].output)
    for c, u in zip(coords, units, strict=True):
        out = out + u.scaled(c)
    return out


def test_invariance_rows_match_evaluation_on_unit_forms(rng):
    # each column is the skew form with omega(e_p, e_q) = 1, p < q; each row
    # evaluates omega([e_i, e_j], e_k) + omega(e_j, e_i.e_k) through ml_apply;
    # the solver's forms are the kernel of that system, built into maps
    solved = 0
    for n, sparse in product((2, 3, 4), (False, True)):  # sparse products have nonzero solutions
        s = Space(n, "a")
        draws = (random_fraction(rng, 3) if not sparse or rng.random() < 0.05 else Fraction(0) for _ in range(n**3))
        a = PreLieAlgebra(s, MultiMap((s, s), s, tuple(draws)))
        bas = [basis_vector(s, i) for i in range(n)]
        units = []
        for p, q in combinations(range(n), 2):
            units.append(MultiMap.build(
                (s, s), SCALAR_LINE, lambda i, j, p=p, q=q: (Fraction(int((i, j) == (p, q)) - int((i, j) == (q, p))),)
            ))
        expected = [
            [
                ml_apply(om, [vec_sub(a.product(bas[i], bas[j]), a.product(bas[j], bas[i])), bas[k]])[0]
                + ml_apply(om, [bas[j], a.product(bas[i], bas[k])])[0]
                for om in units
            ]
            for i, j, k in product(range(n), repeat=3)
        ]
        kernel = kernel_of_rows(expected, len(units))
        assert [f.omega for f in invariant_forms(a)] == [combination(units, v) for v in kernel]
        solved += len(kernel)
    assert solved


def test_invariantnew_consequence():
    alg = omega_algebra()
    om = omega_form()
    n = alg.space.dim
    for i, j, k in product(range(n), repeat=3):
        u, v, w = (basis_vector(alg.space, t) for t in (i, j, k))
        lhs = ml_apply(om.omega, [ml_apply(alg.mul, [u, v]), w])[0]
        rhs = ml_apply(om.omega, [u, ml_apply(alg.mul, [w, v])])[0]
        assert lhs == rhs


def test_cocycle_from_zero_form():
    alg = omega_algebra()
    zero = InvariantForm(MultiMap.zero((alg.space, alg.space), Space(1, "k")))
    phi = cocycle_from_form(alg, zero)
    assert phi.map.is_zero()


def test_cocycle_from_abelian_is_zero():
    s = Space(2, "s")
    ab = PreLieAlgebra(s, MultiMap.zero((s, s), s))
    om = InvariantForm(
        MultiMap(
            (s, s),
            Space(1, "k"),
            (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
        )
    )
    assert cocycle_from_form(ab, om).map.is_zero()


def test_cocycle_from_solved_form_is_closed():
    alg = omega_algebra()
    phi = cocycle_from_form(alg, omega_form())
    d = coboundary(phi, alg, zero_rep(alg, phi.map.output))
    assert d.map.is_zero()
    assert not phi.map.is_zero()


def test_non_invariant_form_rejected_with_witness():
    a = fix_a()
    om = InvariantForm(
        MultiMap(
            (a.space, a.space),
            Space(1, "k"),
            (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
        )
    )
    with pytest.raises(InvalidStructureError) as exc:
        cocycle_from_form(a, om)
    assert any(v.condition == "form-invariance" for v in exc.value.report.violations)


def test_skeletal_from_form_zero_form():
    alg = omega_algebra()
    zero = InvariantForm(MultiMap.zero((alg.space, alg.space), Space(1, "k")))
    built = skeletal_from_form(alg, zero)
    assert built.l3.is_zero()
    assert built.dm.is_zero()


def test_skeletal_from_form_induces_strict_bracket_level():
    from prelie2.lie2_core import from_prelie2

    built = skeletal_from_form(omega_algebra(), omega_form())
    assert not built.l3.is_zero()
    g, _ = from_prelie2(built)
    # the cyclic sum of the induced cocycle vanishes (the form is closed)
    assert g.l3.is_zero()
