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
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, block_sum, bumped, spaces_of, tensors_of, transport, unimodular
from prelie2.crossed_modules import validate_cm
from prelie2.fileio import read_file
from prelie2.fixtures import prelie2_fixtures
from prelie2.lie2_core import from_prelie2, validate as validate_lie2
from prelie2.prelie2_core import validate as validate_prelie2
from prelie2.prelie_base import validate_prelie, validate_prelie_rep


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


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_prelie2())), seed=st.integers(0, 2**32))
def test_functor_to_lie2_commutes_with_the_basis(name, seed):
    a = structures()[name][1][0]
    mats = _moves((a,), seed)
    g, rep = from_prelie2(a)
    moved_g, moved_rep = from_prelie2(transport(a, mats))
    assert moved_g == transport(g, mats)
    assert moved_rep == transport(rep, mats)
