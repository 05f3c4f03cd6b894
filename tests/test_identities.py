from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelie2.identities import Condition, check, parse_terms, rows, skew, tensor
from prelie2.lie2_core import Lie2Hom, validate_hom, zero_lie2
from prelie2.scalar_tensor import (
    DimensionMismatch,
    MultiMap,
    Space,
    _fraction_free_rref,
    basis_vector,
    ml_apply,
    vec_add,
    vec_neg,
    vec_sub,
)


def test_parse_terms():
    assert parse_terms("d(m01(u,m)) - m00(u, d(m))") == (
        (1, ("d", ("m01", "u", "m"))),
        (-1, ("m00", "u", ("d", "m"))),
    )
    assert parse_terms("-l3'(f0(x),y,z)") == ((-1, ("l3'", ("f0", "x"), "y", "z")),)
    for bad in ("d(m", "d(m) m00(u,v)", "d(,m)", "d(m)) + x", "+"):
        with pytest.raises(ValueError):
            parse_terms(bad)


def test_every_term_uses_each_variable_once():
    with pytest.raises(ValueError):
        Condition("bad", "xy", "m(x,y) - m(x,x)")
    with pytest.raises(ValueError):
        Condition("bad", "xy", "m(x,y) - d(x)")
    assert skew("s", "m", "xyz", 1, 2).terms == ((1, ("m", "x", "y", "z")), (1, ("m", "x", "z", "y")))


def test_dimension_checks_at_every_level():
    a, b = Space(2, "a"), Space(3, "b")
    mul = MultiMap.zero((a, a), a)
    with pytest.raises(DimensionMismatch):  # d(x) has 3 entries, mul's slot takes 2
        check({"mul": mul, "d": MultiMap.zero((a,), b)}, [Condition("c", "xy", "mul(d(x),y)")])
    with pytest.raises(DimensionMismatch):  # x fills a slot of dim 2 and one of dim 3
        check({"mul": mul, "e": MultiMap.zero((b, a), a)}, [Condition("c", "xy", "mul(x,y) - e(x,y)")])
    with pytest.raises(DimensionMismatch):
        check({"mul": mul}, [Condition("c", "x", "mul(x)")])
    g, h = zero_lie2(a, a), zero_lie2(b, a)
    f = Lie2Hom(MultiMap.identity(a), MultiMap.identity(a), MultiMap.zero((a, a), a))
    with pytest.raises(DimensionMismatch):  # f0 maps into a 2-dim space, h's bracket takes 3
        validate_hom(f, g, h)


def _by_basis_tuples(mul, d, n0, n1):
    """The defects of "mul(d(m),mul(x,y)) - mul(mul(d(m),x),y)" by ml_apply on every basis tuple."""
    out = []
    for p, i, j in product(range(n1), range(n0), range(n0)):
        m, x, y = basis_vector(n1, p), basis_vector(n0, i), basis_vector(n0, j)
        dm = ml_apply(d, [m])
        lhs = ml_apply(mul, [dm, ml_apply(mul, [x, y])])
        defect = vec_add(lhs, vec_neg(ml_apply(mul, [ml_apply(mul, [dm, x]), y])))
        if any(defect):
            out.append(("assoc", (p, i, j), defect))
    return out


sparse = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-2), Fraction(1, 3)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n0=st.integers(0, 3), n1=st.integers(0, 3))
def test_contraction_equals_evaluation_on_basis_tuples(data, n0, n1):
    a, b = Space(n0, "a"), Space(n1, "b")
    mul = MultiMap((a, a), a, tuple(data.draw(st.lists(sparse, min_size=n0**3, max_size=n0**3))))
    d = MultiMap((b,), a, tuple(data.draw(st.lists(sparse, min_size=n0 * n1, max_size=n0 * n1))))
    report = check({"mul": mul, "d": d}, [Condition("assoc", "mxy", "mul(d(m),mul(x,y)) - mul(mul(d(m),x),y)")])
    assert [(v.condition, v.where, v.defect) for v in report.violations] == _by_basis_tuples(mul, d, n0, n1)
    assert all(type(x) is Fraction for v in report.violations for x in v.defect)


mixed = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.one_of(st.integers(-4, 4), st.sampled_from([2**64 + 1, -(2**65) + 3, 3**47])),
        st.sampled_from([1, 2, 3, 5, 7, 12]),
    ),
)
MIXED = Condition("mixed", "mxy", "p(d(m),q(x,y)) - q(p(d(m),x),y) + r(m,x,y)")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n0=st.integers(1, 2), n1=st.integers(1, 2))
def test_terms_of_different_scales_are_summed_exactly(data, n0, n1):
    a, b = Space(n0, "a"), Space(n1, "b")

    def draw(inputs, output):
        size = output.dim
        for sp in inputs:
            size *= sp.dim
        return MultiMap(inputs, output, tuple(data.draw(st.lists(mixed, min_size=size, max_size=size))))

    p, q, r, d = draw((a, a), a), draw((a, a), a), draw((b, a, a), a), draw((b,), a)
    report = check({"p": p, "q": q, "r": r, "d": d}, [MIXED])
    expected = []
    for i, j, k in product(range(n1), range(n0), range(n0)):
        m, x, y = basis_vector(n1, i), basis_vector(n0, j), basis_vector(n0, k)
        dm = ml_apply(d, [m])
        lhs = vec_add(ml_apply(p, [dm, ml_apply(q, [x, y])]), ml_apply(r, [m, x, y]))
        defect = vec_add(lhs, vec_neg(ml_apply(q, [ml_apply(p, [dm, x]), y])))
        if any(defect):
            expected.append(("mixed", (i, j, k), defect))
    assert [(v.condition, v.where, v.defect) for v in report.violations] == expected
    assert all(
        type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        for v in report.violations
        for x in v.defect
    )


def _scaled_pair(h, k):
    """s(h(x)) - s(k(x)) with s = (1, 1): the terms' scales are those of h and k."""
    one, two = Space(1, "one"), Space(2, "two")
    tensors = {
        "s": MultiMap((two,), one, (Fraction(1), Fraction(1))),
        "h": MultiMap((one,), two, h),
        "k": MultiMap((one,), two, k),
    }
    return check(tensors, [Condition("c", "x", "s(h(x)) - s(k(x))")])


def test_terms_of_scales_two_and_three_cancel():
    assert _scaled_pair((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))).ok


def test_terms_of_scales_two_and_three_leave_a_sixth():
    report = _scaled_pair((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(0)))
    assert [(v.where, v.defect) for v in report.violations] == [((0,), (Fraction(1, 6),))]


TENSOR = "p(d(m),q(x,y)) - q(p(d(m),x),y) + r(m,x,y)"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n0=st.integers(0, 3), n1=st.integers(0, 3))
def test_tensor_equals_evaluation_on_basis_tuples(data, n0, n1):
    a, b, c = Space(n0, "a"), Space(n1, "b"), Space(n0, "c")

    def draw(inputs, output):
        size = len(MultiMap.zero(inputs, output).coeffs)
        return MultiMap(inputs, output, tuple(data.draw(st.lists(mixed, min_size=size, max_size=size))))

    p, q, r, d = draw((a, a), a), draw((c, a), a), draw((b, a, a), a), draw((b,), a)
    # slot order (y, m, x): not the order of appearance (m, x, y)
    got = tensor({"p": p, "q": q, "r": r, "d": d}, "ymx", TENSOR)

    def image(j, i, k):
        m, x, y = basis_vector(n1, i), basis_vector(n0, k), basis_vector(n0, j)
        dm = ml_apply(d, [m])
        lhs = vec_add(ml_apply(p, [dm, ml_apply(q, [x, y])]), ml_apply(r, [m, x, y]))
        return vec_add(lhs, vec_neg(ml_apply(q, [ml_apply(p, [dm, x]), y])))

    # x and y first fill the slots of q, which are labelled c and a; m that of d
    assert got == MultiMap.build((a, b, c), a, image)
    assert all(type(x) is Fraction for x in got.coeffs)


def test_tensor_of_zero_support_is_the_zero_map_on_the_right_spaces():
    a, b, c = Space(2, "a"), Space(3, "b"), Space(1, "c")
    tensors = {"h": MultiMap.zero((a, b), c), "k": MultiMap.zero((c,), b)}
    assert tensor(tensors, "yx", "k(h(x,y))") == MultiMap.zero((b, a), b)


def test_tensor_rejects_a_slot_mismatch():
    a, b = Space(2, "a"), Space(3, "b")
    mul, d = MultiMap.zero((a, a), a), MultiMap.zero((a,), b)
    with pytest.raises(DimensionMismatch):  # d(x) has 3 entries, mul's slot takes 2
        tensor({"mul": mul, "d": d}, "xy", "mul(d(x),y)")
    with pytest.raises(DimensionMismatch):  # x fills a slot of dim 2 and one of dim 3
        tensor({"mul": mul, "e": MultiMap.zero((b, a), a)}, "xy", "mul(x,y) - e(x,y)")
    with pytest.raises(DimensionMismatch):  # the terms have 2 and 3 entries
        tensor({"mul": mul, "f": MultiMap.zero((a, a), b)}, "xy", "mul(x,y) - f(x,y)")


# X: a -> b is the unknown, X = sum_c x_c E(c, -) with E(c, -) the unit map of
# flat coefficient c; the second table puts the unknown's variable last
SYSTEM = (
    Condition("f", "cuv", "E(c,mul(u,v)) - h(u,E(c,v))"),
    Condition("g", "uc", "E(c,u) - r(E(c,u))"),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n0=st.integers(0, 3), n1=st.integers(0, 3))
def test_rows_have_the_rref_of_the_system_evaluated_on_unit_unknowns(data, n0, n1):
    a, b = Space(n0, "a"), Space(n1, "b")

    def draw(inputs, output):
        size = len(MultiMap.zero(inputs, output).coeffs)
        return MultiMap(inputs, output, tuple(data.draw(st.lists(mixed, min_size=size, max_size=size))))

    mul, h, r = draw((a, a), a), draw((a, b), b), draw((b,), b)
    ncols = n0 * n1
    units = [MultiMap((a,), b, basis_vector(ncols, c)) for c in range(ncols)]
    embedding = MultiMap((Space(ncols, "c"), a), b, tuple(x for u in units for x in u.coeffs))
    got = rows({"E": embedding, "mul": mul, "h": h, "r": r}, SYSTEM, "c")

    ea, expected = [basis_vector(a, i) for i in range(n0)], []
    for u, v in product(range(n0), repeat=2):
        defects = [
            vec_sub(ml_apply(x, [ml_apply(mul, [ea[u], ea[v]])]), ml_apply(h, [ea[u], ml_apply(x, [ea[v]])]))
            for x in units
        ]
        expected += [[d[j] for d in defects] for j in range(n1)]
    for u in range(n0):
        defects = [vec_sub(ml_apply(x, [ea[u]]), ml_apply(r, [ml_apply(x, [ea[u]])])) for x in units]
        expected += [[d[j] for d in defects] for j in range(n1)]

    assert all(len(row) == ncols and any(row) for row in got)
    assert _fraction_free_rref(got, ncols) == _fraction_free_rref(expected, ncols)
