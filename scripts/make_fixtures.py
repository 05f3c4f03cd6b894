#!/usr/bin/env python3
"""Regenerate the shipped fixture corpus and its derivation transcript.

Everything derived (the invariant form, the nonzero operator triple, the
mutants' caught conditions) is computed here by the library's own solvers and
searches, then frozen into JSON files.  Run from the repository root:

    python3 scripts/make_fixtures.py           # rewrite fixtures/
    python3 scripts/make_fixtures.py --check   # exit 1 if fixtures/ is stale

``--check`` regenerates into a temporary directory and compares it byte for
byte with ``fixtures/``, writing nothing there.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prelie2 import crossed_modules, fixtures, o_operators, prelie2_core  # noqa: E402
from prelie2.fileio import StructureFile, file_from, serialize_document  # noqa: E402
from prelie2.prelie_base import (  # noqa: E402
    Cochain,
    invariant_forms,
    standard_reps,
    validate_prelie,
)
from prelie2.scalar_tensor import MultiMap  # noqa: E402

OUT = ROOT / "fixtures"


def generate(out: Path) -> list[str]:
    """Write the corpus and its transcript into ``out``; return the transcript."""
    transcript: list[str] = ["# Fixture corpus derivation transcript", ""]
    t = transcript

    def emit(sf: StructureFile, name: str):
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(serialize_document(sf), encoding="utf-8")
        transcript.append(f"- wrote `{name}` (kind={sf.kind}, label={sf.label})")

    a = fixtures.fix_a()
    emit(
        file_from("prelie", a, "FIX-A", "dim 2; e1*e1=e1, e1*e2=e2; validated exactly"),
        "fix_a.json",
    )
    t.append(f"  FIX-A associator-symmetry report empty: {validate_prelie(a).ok}")

    b = fixtures.fix_b()
    emit(
        file_from(
            "prelie2", b, "FIX-B", "strict; ideal span{e2} of FIX-A, inclusion differential"
        ),
        "fix_b.json",
    )

    mirror = fixtures.omega_algebra()
    forms = invariant_forms(mirror)
    t.append(
        f"  invariant-form solve on the mirror algebra: solution space dim {len(forms)}; "
        f"omega(e1,e2) = {forms[0].omega.entry(0, 1, 0)}"
    )
    om = fixtures.fix_omega()
    emit(
        file_from(
            "prelie2",
            om,
            "FIX-OMEGA",
            "skeletal; mirror algebra (e1*e1=e1, e2*e1=e2) with the solved skew "
            "invariant form; l3 = induced 3-cocycle",
        ),
        "fix_omega.json",
    )

    emit(
        file_from("prelie2", fixtures.fix_c(), "FIX-C", "skeletal; FIX-A on itself (left/right)"),
        "fix_c.json",
    )
    emit(
        file_from("prelie2", fixtures.fix_d(), "FIX-D", "skeletal; FIX-A on its dual"),
        "fix_d.json",
    )
    emit(
        file_from(
            "prelie2", fixtures.fix_e(), "FIX-E", "strict; ideal span{e2} of the mirror algebra"
        ),
        "fix_e.json",
    )

    cm = fixtures.fix_b_crossed_module()
    emit(
        file_from("crossed_module", cm, "FIX-B", "ideal example as a crossed module"),
        "fix_cm.json",
    )

    ctx = fixtures.fix_b_context()
    tid = fixtures.o_identity(ctx)
    emit(
        file_from("o_operator", tid, "O-ID", "identity triple on the FIX-B context"),
        "fix_o_id.json",
    )
    found = []
    for cand in o_operators.search_o_operators(ctx, bound=1):
        if not (cand.t0.is_zero() and cand.t1.is_zero()):
            ident = MultiMap.identity(ctx.complex.v0)
            if cand.t0.coeffs != ident.coeffs:
                found.append(cand)
    t.append(
        f"  exhaustive search over entries in [-1,1] on the FIX-B context: "
        f"{len(found)} nonzero non-identity triples; frozen fixture uses "
        f"T0 = [[1,1],[0,0]], T1 = 0, T2 = 0"
    )
    frozen = fixtures.o_nontrivial()
    assert any(
        c.t0.coeffs == frozen.t0.coeffs and c.t1.coeffs == frozen.t1.coeffs
        for c in found
    ), "frozen operator not found by the search"
    emit(
        file_from("o_operator", frozen, "O-N", "frozen from the exhaustive search"),
        "fix_o_n.json",
    )

    reps = standard_reps(a)
    emit(
        file_from("rep", (a, reps["left"]), "FIX-A-left", "regular representation"),
        "fix_rep_left.json",
    )
    emit(
        file_from("rep", (a, reps["dual"]), "FIX-A-dual", "dual regular representation"),
        "fix_rep_dual.json",
    )

    phi = Cochain(3, om.l3)
    emit(
        file_from("cochain", phi, "FIX-OMEGA-cocycle", "the induced 3-cocycle"),
        "fix_cochain.json",
    )

    from prelie2 import lie2_core, ybe

    r, frkr, dbl = ybe.canonical_solution(b)
    gr = ybe.graded_cybe_check(r, frkr, dbl)
    assert gr.ok
    emit(
        file_from("lie2", dbl, "FIX-B-double", "the semidirect double of FIX-B"),
        "fix_double.json",
    )
    emit(
        file_from(
            "rmatrix",
            {"g0": dbl.g0.dim, "g1": dbl.g1.dim, "r": r.coeffs, "frkr": frkr},
            "FIX-B-solution",
            "canonical identity-operator solution in the double",
        ),
        "fix_rmatrix.json",
    )

    # mutants: single constants changed so a named condition genuinely breaks
    t.append("")
    t.append("## Mutants (each verified to fail with the recorded conditions)")
    bad_a = file_from("prelie", fixtures.fix_a_bad(), "FIX-A-mutant", "e2*e1=e1 added")
    rep = validate_prelie(fixtures.fix_a_bad())
    assert not rep.ok
    emit(bad_a, "mutants/fix_a_mutant.json")
    t.append(f"  fix_a_mutant conditions: {list(rep.conditions())}")

    mutated = b.mul01.coeffs[:0] + tuple(
        c + 1 if i == 0 else c for i, c in enumerate(b.mul01.coeffs)
    )
    from prelie2.prelie2_core import PreLie2Algebra

    b_bad = PreLie2Algebra(
        b.a0, b.a1, b.dm, b.mul00, MultiMap(b.mul01.inputs, b.mul01.output, mutated), b.mul10, b.l3
    )
    rep = prelie2_core.validate(b_bad)
    assert not rep.ok
    emit(
        file_from("prelie2", b_bad, "FIX-B-mutant", "mul01[e1,f1] bumped by 1"),
        "mutants/fix_b_mutant.json",
    )
    t.append(f"  fix_b_mutant conditions: {list(rep.conditions())}")

    malformed = {
        "kind": "prelie",
        "dims": {"a": 1},
        "label": "malformed",
        "provenance": "denominator zero",
        "tensors": {"mul": [[["1/0"]]]},
    }
    (out / "mutants").mkdir(parents=True, exist_ok=True)
    (out / "mutants/malformed.json").write_text(
        json.dumps(malformed, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    t.append("- wrote `mutants/malformed.json` (rational '1/0'; schema error)")

    (out / "TRANSCRIPT.md").write_text("\n".join(transcript) + "\n", encoding="utf-8")
    return transcript


def differences(expected: Path, actual: Path) -> list[str]:
    """Relative paths of the files that differ in bytes or exist on one side only."""

    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    want, got = files(expected), files(actual)
    changed = {n for n in want & got if (expected / n).read_bytes() != (actual / n).read_bytes()}
    return sorted((want ^ got) | changed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the fixture corpus.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate into a temporary directory and exit 1 if any file differs from fixtures/",
    )
    args = parser.parse_args(argv)
    if not args.check:
        print("\n".join(generate(OUT)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp))
        stale = differences(OUT, Path(tmp))
    for name in stale:
        print(f"differs from a fresh regeneration: fixtures/{name}", file=sys.stderr)
    print(f"fixtures/: {len(stale)} stale file(s)" if stale else "fixtures/ is up to date")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
