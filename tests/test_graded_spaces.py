from fractions import Fraction
from itertools import product

from prelie2.fixtures import fix_b
from prelie2.graded_spaces import ChainMap, TwoTermComplex, end_algebra, is_chain_map, zero_complex
from prelie2.lie2_core import validate as validate_lie2
from prelie2.scalar_tensor import (
    MultiMap,
    Space,
    kernel_coordinates,
    kernel_with_free_columns,
    ml_compose_linear,
    ml_skew_in,
    solve_in_span,
)


def line_complex(dim0, dim1, dm_entries=None):
    v0, v1 = Space(dim0, "v0"), Space(dim1, "v1")
    if dm_entries is None:
        dm = MultiMap.zero((v1,), v0)
    else:
        dm = MultiMap((v1,), v0, tuple(Fraction(c) for c in dm_entries))
    return TwoTermComplex(v0, v1, dm)


def test_end_of_line_with_no_degree_one():
    e = end_algebra(line_complex(1, 0))
    assert e.lie2.g0.dim == 1
    assert e.lie2.g1.dim == 0
    assert e.lie2.l2_00.is_zero()


def test_end_of_zero_differential():
    e = end_algebra(line_complex(1, 1))
    assert e.lie2.g0.dim == 2  # gl(1) ⊕ gl(1)
    assert e.lie2.g1.dim == 1
    assert e.lie2.dk.is_zero()


def test_end_of_identity_differential():
    e = end_algebra(line_complex(1, 1, [1]))
    assert e.lie2.g0.dim == 1
    (pair,) = e.end0_pairs
    assert pair[0].coeffs == pair[1].coeffs  # A0 = A1 on the line
    # delta(phi) = (dm∘phi, phi∘dm) = (phi, phi), i.e. phi times the basis pair
    assert e.lie2.dk.coeffs == (Fraction(1),)


def test_end_validates_on_fixture_complexes():
    b = fix_b()
    for v in (
        TwoTermComplex(b.a0, b.a1, b.dm),
        line_complex(2, 1, [0, 1]),
        line_complex(3, 2, [1, 0, 0, 0, 1, 0]),
        zero_complex(Space(2, "v0"), Space(2, "v1")),
    ):
        e = end_algebra(v)
        assert validate_lie2(e.lie2).ok
        assert ml_skew_in(e.lie2.l2_00, 0, 1) or e.lie2.g0.dim < 2


def test_end_bracket_antisymmetry_and_jacobi_on_basis():
    e = end_algebra(line_complex(2, 1, [0, 1]))
    report = validate_lie2(e.lie2)
    assert report.ok


def test_chain_map_identity():
    v = line_complex(2, 1, [0, 1])
    f = ChainMap(MultiMap.identity(v.v0), MultiMap.identity(v.v1))
    assert is_chain_map(f, v, v)


def test_chain_map_zero_target():
    v = zero_complex(Space(2, "v0"), Space(1, "v1"))
    w = zero_complex(Space(2, "w0"), Space(1, "w1"))
    f = ChainMap(
        MultiMap((v.v0,), w.v0, tuple(Fraction(c) for c in (1, 2, 3, 4))),
        MultiMap.zero((v.v1,), w.v1),
    )
    assert is_chain_map(f, v, w)


def test_inclusion_commutes_with_itself():
    b = fix_b()
    v = TwoTermComplex(b.a0, b.a1, b.dm)
    f = ChainMap(MultiMap.identity(v.v0), MultiMap.identity(v.v1))
    assert is_chain_map(f, v, v)


def test_non_chain_map_detected():
    v = line_complex(1, 1, [1])
    f = ChainMap(
        MultiMap.identity(v.v0),
        MultiMap((v.v1,), v.v1, (Fraction(2),)),
    )
    assert not is_chain_map(f, v, v)


def _flat(a0, a1):
    return tuple(a0.coeffs) + tuple(a1.coeffs)


def test_end_coordinates_match_solve_on_dense_differentials(rng):
    # dense differentials put the pivot columns of the commuting system before
    # its free columns, so a kernel vector's first nonzero entry is not its
    # coordinate column
    for n0, n1 in ((3, 2), (3, 3)):
        dm = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n0 * n1)]
        v = line_complex(n0, n1, dm)
        e = end_algebra(v)
        flat_pairs = [_flat(p0, p1) for p0, p1 in e.end0_pairs]
        assert any(
            next(c for c, x in enumerate(vec) if x) != fc
            for vec, fc in zip(flat_pairs, e.end0_free)
        )
        for t in range(e.lie2.g1.dim):
            phi = MultiMap.build(
                (v.v0,), v.v1, lambda i, t=t: tuple(Fraction(int(i * n1 + j == t)) for j in range(n1))
            )
            target = _flat(ml_compose_linear(v.dm, phi), ml_compose_linear(phi, v.dm))
            assert e.lie2.dk.image_of_basis(t) == solve_in_span(flat_pairs, target)
        for s, (a0, a1) in enumerate(e.end0_pairs):
            for t, (b0, b1) in enumerate(e.end0_pairs):
                comm0 = ml_compose_linear(a0, b0) - ml_compose_linear(b0, a0)
                comm1 = ml_compose_linear(a1, b1) - ml_compose_linear(b1, a1)
                expected = solve_in_span(flat_pairs, _flat(comm0, comm1))
                assert expected is not None
                assert e.lie2.l2_00.image_of_basis(s, t) == expected
                assert kernel_coordinates(flat_pairs, e.end0_free, _flat(comm0, comm1)) == expected
        # identity on V0 and zero on V1 does not commute with a nonzero dm
        outside = (MultiMap.identity(v.v0), MultiMap.zero((v.v1,), v.v1))
        assert solve_in_span(flat_pairs, _flat(*outside)) is None
        assert kernel_coordinates(flat_pairs, e.end0_free, _flat(*outside)) is None


def chain_loop_end0(v):
    """End0 pairs and free columns from the commuting system (A0∘dm)(f_p) =
    (dm∘A1)(f_p), component e_q, assembled row by row over (A0, A1) flattened."""
    n0, n1 = v.v0.dim, v.v1.dim
    nvars = n0 * n0 + n1 * n1
    rows = []
    for p, q in product(range(n1), range(n0)):
        row = [Fraction(0)] * nvars
        for i in range(n0):
            row[i * n0 + q] += v.dm.entry(p, i)
        for r in range(n1):
            row[n0 * n0 + p * n1 + r] -= v.dm.entry(r, q)
        rows.append(row)
    kernel, free = kernel_with_free_columns(rows, nvars)
    pairs = tuple(
        (MultiMap((v.v0,), v.v0, vec[: n0 * n0]), MultiMap((v.v1,), v.v1, vec[n0 * n0 :])) for vec in kernel
    )
    return pairs, tuple(free)


def test_end0_matches_the_chain_loop_on_random_complexes(rng):
    for n0, n1 in product(range(4), repeat=2):
        for _ in range(4):
            dm = [Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 1, 3))) for _ in range(n0 * n1)]
            v = line_complex(n0, n1, dm)
            e = end_algebra(v)
            assert (e.end0_pairs, e.end0_free) == chain_loop_end0(v)
