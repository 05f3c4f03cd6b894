"""Invariance under change of basis: an oracle that shares no formula with
any validator.

Each structure is moved along a random unimodular integer matrix on each of
its spaces.  Whether an identity holds does not depend on the basis, so the
set of failing conditions must not change, on valid structures and on
copies with one tensor entry bumped; and the functor to Lie 2-algebras must
commute with the move.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, block_sum, bumped, spaces_of, tensors_of, transport, unimodular
from prelie2.crossed_modules import validate_cm
from prelie2.fileio import read_file
from prelie2.fixtures import prelie2_fixtures
from prelie2.lie2_core import from_prelie2, validate as validate_lie2
from prelie2.prelie2_core import validate as validate_prelie2
from prelie2.prelie_base import Cochain, validate_cochain, validate_prelie, validate_prelie_rep
from prelie2.scalar_tensor import MultiMap, Space


def skew_cochain(n: int, dim: int, seed: int) -> Cochain:
    """A seeded n-cochain on a dim-space into a plane, skew in its first n-1 slots."""
    rng = random.Random(seed)
    a, v = Space(dim, "a"), Space(2, "v")
    values: dict = {}
    coeffs = []
    for idx in product(range(dim), repeat=n):
        head = idx[:-1]
        key = (tuple(sorted(head)), idx[-1])
        value = values.setdefault(key, tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)))
        sign = (-1) ** sum(x > y for x, y in combinations(head, 2))
        coeffs += [sign * c if len(set(head)) == len(head) else Fraction(0) for c in value]
    return Cochain(n, MultiMap((a,) * n, v, tuple(coeffs)))


# w(e0,e1,e0) = w(e1,e0,e0) = 1: fails skew-01 at (0,1,0) and (1,0,0)
REPEATED = Cochain(3, MultiMap((Space(2, "a"),) * 3, Space(1, "k"), tuple(map(Fraction, (0, 0, 1, 0, 1, 0, 0, 0)))))


def _prelie2() -> dict:
    base = prelie2_fixtures()
    sums = {f"{x}+{y}": block_sum(base[x], base[y]) for x, y in (("FIX-B", "FIX-C"), ("FIX-D", "FIX-OMEGA"))}
    return {**base, **sums}


@lru_cache(maxsize=None)
def structures() -> dict:
    """name -> (validator, the structure's parts, validated together)."""
    out = {}
    for name, a in _prelie2().items():
        out[name] = (validate_prelie2, (a,))
        out["T " + name] = (validate_lie2, (from_prelie2(a)[0],))
    out["fix_cm"] = (validate_cm, (read_file(FIXTURE_DIR / "fix_cm.json").structure(),))
    out["fix_a"] = (validate_prelie, (read_file(FIXTURE_DIR / "fix_a.json").structure(),))
    for fname in ("fix_rep_left", "fix_rep_dual"):
        out[fname] = (validate_prelie_rep, read_file(FIXTURE_DIR / f"{fname}.json").structure())
    for n, dim in ((3, 2), (3, 3), (4, 3)):
        out[f"cochain {n} {dim}"] = (validate_cochain, (skew_cochain(n, dim, seed=n * dim),))
    out["cochain repeated"] = (validate_cochain, (REPEATED,))
    return out


def _moves(parts, seed: int) -> dict:
    rng = random.Random(seed)
    spaces = {sp: None for part in parts for sp in spaces_of(part)}
    return {sp: unimodular(rng, sp.dim, steps=3 * sp.dim) for sp in spaces}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(structures())), seed=st.integers(0, 2**32), bump=st.booleans())
def test_failing_conditions_do_not_depend_on_the_basis(name, seed, bump):
    validator, parts = structures()[name]
    if bump:
        rng = random.Random(seed)
        k = rng.randrange(len(parts))
        path = rng.choice(sorted(tensors_of(parts[k])))
        parts = tuple(bumped(p, path, rng) if t == k else p for t, p in enumerate(parts))
    mats = _moves(parts, seed)
    moved = tuple(transport(p, mats) for p in parts)
    assert validator(*moved).conditions() == validator(*parts).conditions()


def test_failing_cochain_conditions_do_not_depend_on_the_basis_at_a_repeated_entry():
    # e0' = e0 + e1 moves the defect of REPEATED onto the repeated tuple (0, 0, 0)
    a = REPEATED.map.inputs[0]
    moved = transport(REPEATED, {a: ([[1, 0], [1, 1]], [[1, 0], [-1, 1]]), REPEATED.map.output: ([[1]], [[1]])})
    assert validate_cochain(moved).conditions() == validate_cochain(REPEATED).conditions() == ("skew-01",)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_prelie2())), seed=st.integers(0, 2**32))
def test_functor_to_lie2_commutes_with_the_basis(name, seed):
    a = structures()[name][1][0]
    mats = _moves((a,), seed)
    g, rep = from_prelie2(a)
    moved_g, moved_rep = from_prelie2(transport(a, mats))
    assert moved_g == transport(g, mats)
    assert moved_rep == transport(rep, mats)
