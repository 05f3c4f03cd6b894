"""Golden validation reports of every identity validator.

Pins the full report (condition, where, defect, derived) of twelve
validators on the shipped fixtures, on dense direct sums of them moved by a
seeded change of basis, and on seeded copies with one entry of one tensor
bumped; the hom validators run on identity homs, change-of-basis homs and
bumped copies.  The expected reports live in
``golden/validator_reports.json``; to rewrite them after an intended change,
run

    PYTHONPATH=src:tests python3 tests/test_validator_reports.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, block_sum, bumped, random_transport, spaces_of, tensors_of, transport, unimodular
from prelie2 import categorical, crossed_modules, lie2_core, prelie2_core, prelie_base
from prelie2.crossed_modules import ideal_crossed_module, sub_adjacent_crossed
from prelie2.fileio import read_file
from prelie2.fixtures import fix_a, fix_a_bad, fix_b_crossed_module, omega_algebra, omega_form, prelie2_fixtures
from prelie2.graded_spaces import TwoTermComplex, end_algebra
from prelie2.lie2_core import Lie2Hom, from_prelie2, hom_from_prelie2hom
from prelie2.prelie2_core import PreLie2Hom, identity_hom
from prelie2.prelie_base import (
    Cochain,
    PreLieAlgebra,
    invariant_forms,
    standard_reps,
    sub_adjacent,
)
from prelie2.scalar_tensor import MultiMap, Space, format_rational

GOLDEN = Path(__file__).resolve().parent / "golden" / "validator_reports.json"

# Every condition label each validator can emit; each must fail in some case.
LABELS = {
    "prelie2_core.validate": {"skew-l3", "a1", "a2", "a3", "b1", "b2", "b3", "c"},
    "prelie2_core.validate_hom": {"i", "ii", "iii-a", "iii-b", "iv"},
    "lie2_core.validate": {"skew-l2", "skew-l3", "i", "ii", "iii", "iv"},
    "lie2_core.validate_hom": {"skew-f2", "i", "ii", "iii", "iv"},
    "lie2_core.validate_rep": {"rep-chain", "rep-skew-f2", "rep-i", "rep-ii", "rep-iii", "rep-iv"},
    "prelie_base.validate_prelie": {"assoc-sym"},
    "prelie_base.validate_lie": {"antisym", "jacobi"},
    "prelie_base.validate_prelie_rep": {"rep-lie", "rep-mul"},
    "prelie_base.validate_cochain": {"skew-01", "skew-02", "skew-12"},
    "prelie_base.validate_invariant_form": {"form-skew", "form-invariance"},
    "crossed_modules.validate_cm": {
        "prelie-0.assoc-sym", "prelie-1.assoc-sym", "action.rep-lie", "action.rep-mul",
        "dM-hom", "C1", "C2", "crossed1", "crossed2",
    },
    "crossed_modules.validate_lie_cm": {
        "lie-0.antisym", "lie-0.jacobi", "lie-1.antisym", "lie-1.jacobi",
        "dt-hom", "phi-action", "phi-derivation", "peiffer-1", "peiffer-2",
    },
    "categorical.validate_cat": {"source", "target", "unit", "interchange-a", "interchange-b"},
}


def _rng(name: str) -> random.Random:
    return random.Random(name)


def _with_bumps(name: str, obj, paths=None) -> list[tuple[str, object]]:
    """``obj`` itself, then one copy per tensor path with one entry bumped."""
    paths = list(tensors_of(obj)) if paths is None else paths
    return [(name, obj)] + [(f"{name} bump {p}", bumped(obj, p, _rng(f"{name} {p}"))) for p in paths]


def _change_of_basis_map(q: list[list[int]], src: Space, dst: Space) -> MultiMap:
    """The linear map taking old coordinates to new ones (x -> q x)."""
    n = src.dim
    return MultiMap((src,), dst, tuple(Fraction(q[j][i]) for i in range(n) for j in range(n)))


def _basis_hom(name: str, a) -> tuple[object, PreLie2Hom]:
    """``a`` moved by a seeded change of basis, and the isomorphism onto it."""
    rng = _rng(f"hom {name}")
    mats = {sp: unimodular(rng, sp.dim) for sp in spaces_of(a)}
    f = PreLie2Hom(
        _change_of_basis_map(mats[a.a0][1], a.a0, a.a0),
        _change_of_basis_map(mats[a.a1][1], a.a1, a.a1),
        MultiMap.zero((a.a0, a.a0), a.a1),
    )
    return transport(a, mats), f


@lru_cache(maxsize=None)
def prelie2_structures() -> dict:
    base = prelie2_fixtures()
    out = dict(base)
    for x, y in (("FIX-B", "FIX-C"), ("FIX-C", "FIX-E"), ("FIX-D", "FIX-OMEGA"), ("FIX-OMEGA", "FIX-B")):
        name = f"{x}+{y}~"
        out[name] = random_transport(block_sum(base[x], base[y]), _rng(name))
    return out


def _prelie2_homs() -> list[tuple[str, tuple]]:
    cases = []
    for name, a in prelie2_structures().items():
        cases += [(f"{n} on {name}", (f, a, a)) for n, f in _with_bumps("id", identity_hom(a))]
        b, f = _basis_hom(name, a)
        cases += [(f"{n} to {name}~", (g, a, b)) for n, g in _with_bumps("basis", f)]
    return cases


def _lie2_structures() -> list[tuple[str, object]]:
    cases = []
    for name, a in prelie2_structures().items():
        cases += _with_bumps(f"T {name}", from_prelie2(a)[0])
    cases += _with_bumps("fix_double", read_file(FIXTURE_DIR / "fix_double.json").structure())
    for name in ("FIX-B", "FIX-C"):
        a = prelie2_fixtures()[name]
        cases += _with_bumps(f"End {name}", end_algebra(TwoTermComplex(a.a0, a.a1, a.dm)).lie2)
    return cases


def _lie2_homs() -> list[tuple[str, tuple]]:
    cases = []
    for name, a in prelie2_structures().items():
        g = from_prelie2(a)[0]
        ident = Lie2Hom(MultiMap.identity(g.g0), MultiMap.identity(g.g1), MultiMap.zero((g.g0, g.g0), g.g1))
        cases += [(f"{n} on T {name}", (f, g, g)) for n, f in _with_bumps("id", ident)]
        b, f = _basis_hom(name, a)
        h = from_prelie2(b)[0]
        cases += [(f"{n} to T {name}~", (k, g, h)) for n, k in _with_bumps("basis", hom_from_prelie2hom(f, a, b))]
    return cases


def _lie2_reps() -> list[tuple[str, tuple]]:
    cases = []
    base = prelie2_fixtures()
    contexts = dict(base)
    for name in ("FIX-B", "FIX-C", "FIX-OMEGA"):
        contexts[name + "~"] = random_transport(base[name], _rng("rep " + name))
    for name, a in contexts.items():
        g, rep = from_prelie2(a)
        paths = ["rho0_0", "rho0_1", "rho1", "rho2"] if name.endswith("~") or name == "FIX-OMEGA" else ["rho2"]
        cases += [(n, (g, r)) for n, r in _with_bumps(f"rep {name}", rep, paths)]
    return cases


def _prelie_algebras() -> list[tuple[str, PreLieAlgebra]]:
    line = Space(1, "k")
    unit = PreLieAlgebra(line, MultiMap((line, line), line, (Fraction(1),)))
    out = {"FIX-A": fix_a(), "FIX-A-bad": fix_a_bad(), "mirror": omega_algebra()}
    out["FIX-A+k~"] = random_transport(block_sum(fix_a(), unit), _rng("FIX-A+k"))
    out["FIX-A+mirror~"] = random_transport(block_sum(fix_a(), omega_algebra()), _rng("FIX-A+mirror"))
    out["mirror+mirror~"] = random_transport(block_sum(omega_algebra(), omega_algebra()), _rng("mirror+mirror"))
    return list(out.items())


def _valid_prelie_algebras() -> list[tuple[str, PreLieAlgebra]]:
    return [(n, a) for n, a in _prelie_algebras() if n != "FIX-A-bad"]


def _lie_algebras() -> list[tuple[str, object]]:
    cases = []
    for name, a in _valid_prelie_algebras():
        cases += _with_bumps(f"sub-adjacent {name}", sub_adjacent(a))
    return cases


def _prelie_reps() -> list[tuple[str, tuple]]:
    cases = []
    for name, a in _valid_prelie_algebras():
        for kind, rep in standard_reps(a).items():
            cases += [(n, (a, r)) for n, r in _with_bumps(f"{kind} {name}", rep, ["rho", "mu"])]
        cases += [(f"bump mul {name}", (bumped(a, "mul", _rng(name)), standard_reps(a)["left"]))]
    for fname in ("fix_rep_left.json", "fix_rep_dual.json"):
        cases.append((fname, read_file(FIXTURE_DIR / fname).structure()))
    return cases


def _cochains() -> list[tuple[str, Cochain]]:
    cases = [("fix_cochain", read_file(FIXTURE_DIR / "fix_cochain.json").structure())]
    for n, na, nv in ((1, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2), (4, 2, 1)):
        rng = _rng(f"cochain {n} {na} {nv}")
        a, v = Space(na, "a"), Space(nv, "v")
        zero = MultiMap.zero((a,) * n, v)
        coeffs = tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0) for _ in zero.coeffs)
        cases += _with_bumps(f"random {n} {na} {nv}", Cochain(n, MultiMap(zero.inputs, v, coeffs)))
    return cases


def _forms() -> list[tuple[str, tuple]]:
    cases = [(n, (omega_algebra(), f)) for n, f in _with_bumps("omega", omega_form())]
    for name, a in _valid_prelie_algebras():
        for t, form in enumerate(invariant_forms(a)):
            cases += [(n, (a, f)) for n, f in _with_bumps(f"form {t} {name}", form)]
    cases.append(("omega on FIX-A", (fix_a(), omega_form())))
    return cases


def _crossed_modules() -> list[tuple[str, object]]:
    b, e = fix_b_crossed_module(), ideal_crossed_module(omega_algebra(), (1,))
    out = {"FIX-B": b, "FIX-E": e, "fix_cm": read_file(FIXTURE_DIR / "fix_cm.json").structure()}
    out["FIX-B+E~"] = random_transport(block_sum(b, e), _rng("cm FIX-B+E"))
    out["FIX-E+E~"] = random_transport(block_sum(e, e), _rng("cm FIX-E+E"))
    cases = []
    for name, cm in out.items():
        cases += _with_bumps(name, cm)
    return cases


def _lie_crossed_modules() -> list[tuple[str, object]]:
    cases = []
    for name, cm in _crossed_modules():
        if " bump " not in name:
            cases += _with_bumps(f"sub-adjacent {name}", sub_adjacent_crossed(cm))
    return cases


def _cat_structures() -> list[tuple[str, object]]:
    cases = []
    for name, a in prelie2_structures().items():
        cases += _with_bumps(f"T {name}", categorical.functor_T(a), ["star_obj", "star_mor", "space.complex.dm"])
    return cases


def _cases() -> dict[str, list[tuple]]:
    return {
        "prelie2_core.validate": [
            (n, prelie2_core.validate, (a,))
            for name, s in prelie2_structures().items()
            for n, a in _with_bumps(name, s)
        ],
        "prelie2_core.validate_hom": [(n, prelie2_core.validate_hom, args) for n, args in _prelie2_homs()],
        "lie2_core.validate": [(n, lie2_core.validate, (g,)) for n, g in _lie2_structures()],
        "lie2_core.validate_hom": [(n, lie2_core.validate_hom, args) for n, args in _lie2_homs()],
        "lie2_core.validate_rep": [(n, lie2_core.validate_rep, args) for n, args in _lie2_reps()],
        "prelie_base.validate_prelie": [
            (n, prelie_base.validate_prelie, (a,))
            for name, s in _prelie_algebras()
            for n, a in _with_bumps(name, s)
        ],
        "prelie_base.validate_lie": [(n, prelie_base.validate_lie, (g,)) for n, g in _lie_algebras()],
        "prelie_base.validate_prelie_rep": [(n, prelie_base.validate_prelie_rep, args) for n, args in _prelie_reps()],
        "prelie_base.validate_cochain": [(n, prelie_base.validate_cochain, (w,)) for n, w in _cochains()],
        "prelie_base.validate_invariant_form": [
            (n, prelie_base.validate_invariant_form, args) for n, args in _forms()
        ],
        "crossed_modules.validate_cm": [(n, crossed_modules.validate_cm, (cm,)) for n, cm in _crossed_modules()],
        "crossed_modules.validate_lie_cm": [
            (n, crossed_modules.validate_lie_cm, (cm,)) for n, cm in _lie_crossed_modules()
        ],
        "categorical.validate_cat": [(n, categorical.validate_cat, (c,)) for n, c in _cat_structures()],
    }


def _observe(report) -> list:
    return [[v.condition, list(v.where), [format_rational(x) for x in v.defect], v.derived] for v in report.violations]


@lru_cache(maxsize=None)
def cases() -> dict:
    return _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_validator_and_case(golden):
    assert sorted(golden) == sorted(LABELS)
    for validator, entries in cases().items():
        names = [n for n, _, _ in entries]
        assert len(set(names)) == len(names), validator
        assert sorted(names) == sorted(golden[validator]), validator


@pytest.mark.parametrize("validator", sorted(LABELS))
def test_reports_match_golden(golden, validator):
    for name, fn, args in cases()[validator]:
        report = fn(*args)
        for v in report.violations:
            assert all(type(x) is Fraction for x in v.defect), (validator, name, v)
        assert _observe(report) == golden[validator][name], (validator, name)


@pytest.mark.parametrize("validator", sorted(LABELS))
def test_every_condition_fails_somewhere(golden, validator):
    seen = {v[0] for report in golden[validator].values() for v in report}
    assert seen == LABELS[validator]
    assert any(not report for report in golden[validator].values()), "no clean case"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {
        validator: {name: _observe(fn(*args)) for name, fn, args in entries}
        for validator, entries in cases().items()
    }
    lines = ["{"]
    for k, validator in enumerate(sorted(data)):
        lines.append(f" {json.dumps(validator)}: {{")
        items = sorted(data[validator].items())
        for t, (name, report) in enumerate(items):
            comma = "," if t + 1 < len(items) else ""
            lines.append(f"  {json.dumps(name)}: {json.dumps(report, separators=(',', ':'))}{comma}")
        lines.append(" }" + ("," if k + 1 < len(data) else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in data.values())} reports to {GOLDEN}")
