"""Shows that no check is vacuous: each accepts a right output and rejects
deliberately wrong ones (a flipped kernel entry, a wrong exit code, ...).

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import exact as X
import workloads as W
from prelie2 import graded_spaces, o_operators, prelie2_core, prelie_base, scalar_tensor, ybe
from prelie2.report import ValidationReport, Violation
from prelie2.scalar_tensor import MultiMap, Space


class SelfTest:
    def __init__(self):
        self.failures = 0

    def accepts(self, name, fn):
        try:
            fn()
        except checks.Mismatch as exc:
            self.failures += 1
            print(f"FAIL  {name}: right output rejected ({exc})")
        else:
            print(f"ok    {name}: right output accepted")

    def rejects(self, name, fn):
        try:
            fn()
        except checks.Mismatch as exc:
            print(f"ok    {name}: rejected ({exc})")
        else:
            self.failures += 1
            print(f"FAIL  {name}: wrong output accepted")


def bumped(m: MultiMap, k: int = 0, by: Fraction = Fraction(1)) -> MultiMap:
    coeffs = list(m.coeffs)
    coeffs[k] += by
    return MultiMap(m.inputs, m.output, tuple(coeffs))


def main(root: Path) -> int:
    t = SelfTest()
    rng = random.Random(7)

    m = X.random_matrix(rng, 4, 6)
    vs = scalar_tensor.nullspace(W.linear(m))
    flipped = [tuple(v) for v in vs]
    flipped[0] = flipped[0][:1] + (flipped[0][1] + 1,) + flipped[0][2:]
    k = X.nullity(m, 6)
    t.accepts("kernel", lambda: checks.kernel(m, 6, vs, k))
    t.rejects("kernel with a flipped entry", lambda: checks.kernel(m, 6, flipped, k))
    t.rejects("kernel missing a vector", lambda: checks.kernel(m, 6, vs[1:], k))
    t.rejects("kernel with a repeated vector", lambda: checks.kernel(m, 6, [vs[0], vs[0]], k))

    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = scalar_tensor.invert_linear(W.linear(a))
    t.accepts("inverse", lambda: checks.inverse(a, inv))
    t.rejects("inverse with a flipped entry", lambda: checks.inverse(a, bumped(inv)))
    t.rejects("inverse reported singular", lambda: checks.inverse(a, None))

    dm = ((2, 2), [Fraction(1), Fraction(2), Fraction(0), Fraction(1)])
    v0, v1 = Space(2, "v0"), Space(2, "v1")
    end = graded_spaces.end_algebra(graded_spaces.TwoTermComplex(v0, v1, MultiMap((v1,), v0, tuple(dm[1]))))
    pairs = list(end.end0_pairs)
    k = X.nullity(*X.chain_endomorphism_rows(dm, 2, 2))
    t.accepts("End(V) basis", lambda: checks.end_pairs(dm, 2, 2, pairs, k))
    t.rejects("End(V) pair not commuting", lambda: checks.end_pairs(dm, 2, 2, [(bumped(pairs[0][0]), pairs[0][1])] + pairs[1:], k))
    t.rejects("End(V) basis missing a pair", lambda: checks.end_pairs(dm, 2, 2, pairs[1:], k))

    fx = W._fixtures(root)
    omega = W._prelie_part(fx["omega"])
    mul, n = omega["tensors"]["mul"], 2
    sp = Space(n, "a")
    alg = prelie_base.PreLieAlgebra(sp, MultiMap((sp, sp), sp, tuple(mul[1])))
    forms = prelie_base.invariant_forms(alg)
    not_skew = prelie_base.InvariantForm(bumped(forms[0].omega, 1))
    k = X.nullity(*X.invariance_rows(mul, n))
    t.accepts("invariant forms", lambda: checks.invariant_forms(mul, n, forms, k))
    t.rejects("form not skew", lambda: checks.invariant_forms(mul, n, [not_skew], k))
    t.rejects("forms missing one", lambda: checks.invariant_forms(mul, n, [], k))

    s4 = X.direct_sum([W._prelie_part(fx["e"]), omega])
    mul4 = s4["tensors"]["mul"]
    sp4 = Space(4, "a")
    maps = ybe.bridge_dm_solutions(prelie_base.PreLieAlgebra(sp4, MultiMap((sp4, sp4), sp4, tuple(mul4[1]))))
    k = X.nullity(*X.bridge_rows(mul4, 4))
    t.accepts("bridge maps", lambda: checks.bridge_maps(mul4, 4, maps, k))
    skewed = bumped(bumped(maps[0], 2), 8, Fraction(-1))  # entries (0, 2) and (2, 0), across the blocks
    t.rejects("bridge map breaking a condition", lambda: checks.bridge_maps(mul4, 4, [skewed] + maps[1:], k))
    t.rejects("bridge maps missing one", lambda: checks.bridge_maps(mul4, 4, maps[1:], k))

    s = fx["b"]
    t.accepts("valid report", lambda: checks.valid(prelie2_core.validate(W.to_prelie2(s))))
    bad = ValidationReport((Violation("a1", (0, 0), (Fraction(1),)),))
    t.rejects("valid structure reported invalid", lambda: checks.valid(bad))
    where, q, delta = (0, 1, 1), 0, Fraction(3)
    report = prelie2_core.validate(W.to_prelie2(X.break_l3_skew(s, where, q, delta)))
    t.accepts("mutant report", lambda: checks.skew_l3_mutant(report, where, [delta]))
    t.rejects("mutant with the wrong defect", lambda: checks.skew_l3_mutant(report, where, [delta + 1]))
    t.rejects("mutant at the wrong tuple", lambda: checks.skew_l3_mutant(report, (1, 0, 0), [delta]))
    t.rejects("mutant reported valid", lambda: checks.skew_l3_mutant(ValidationReport(), where, [delta]))

    label, (s, lie, rep, dm) = next(iter(W.load_search_contexts(root).items()))
    found = list(o_operators.search_o_operators(W.to_context(s), 1))
    expected = json.loads(W.COUNTS_FILE.read_text(encoding="utf-8"))[label]
    ident = next(f for f in found if f.t0.coeffs == MultiMap.identity(f.t0.inputs[0]).coeffs)
    outside = dataclasses.replace(ident, t0=ident.t0.scaled(Fraction(2)))
    broken = dataclasses.replace(ident, t1=bumped(ident.t1, by=Fraction(-1)))
    t.accepts("search results", lambda: checks.search_results(found, lie, rep, dm, expected))
    t.rejects("search without the identity", lambda: checks.search_results([f for f in found if f is not ident], lie, rep, dm, expected - 1))
    t.rejects("search with a repeat", lambda: checks.search_results(found + [ident], lie, rep, dm, expected + 1))
    t.rejects("search outside the grid", lambda: checks.search_results(found + [outside], lie, rep, dm, expected + 1))
    t.rejects("search result breaking the chain condition", lambda: checks.search_results(found + [broken], lie, rep, dm, expected + 1))
    t.rejects("search count off by one", lambda: checks.search_results(found, lie, rep, dm, expected + 1))

    with tempfile.TemporaryDirectory(dir=root / ".perfbench_out") as tmp:
        out = str(Path(tmp) / "lie2.json")
        verify = W.CliCommand(["verify", "fixtures/fix_b.json"], 0, "prelie2")
        report_cmd = W.CliCommand(["report", "fixtures/mutants/fix_b_mutant.json", "--format", "json"], 1, "prelie2")
        construct = W.CliCommand(["construct", "lie2", "fixtures/fix_b.json", "-o", out], 0, "prelie2", out, "lie2")
        res = W.in_process(verify.args)
        t.accepts("cli exit code", lambda: checks.cli_result(verify, *res))
        t.rejects("cli wrong exit code", lambda: checks.cli_result(dataclasses.replace(verify, expect_rc=1), *res))
        t.rejects("cli traceback", lambda: checks.cli_result(verify, res[0], res[1], "Traceback (most recent call last):"))
        rep_res = W.in_process(report_cmd.args)
        t.accepts("cli report", lambda: checks.cli_result(report_cmd, *rep_res))
        t.rejects("cli report saying ok", lambda: checks.cli_result(report_cmd, rep_res[0], rep_res[1].replace('"ok": false', '"ok": true'), rep_res[2]))
        con_res = W.in_process(construct.args)
        t.accepts("written file", lambda: checks.cli_result(construct, *con_res))
        t.rejects("written file of the wrong kind", lambda: checks.written(out, "prelie2"))
        text = Path(out).read_text(encoding="utf-8")
        Path(out).write_text(text.replace('"kind"', ' "kind"', 1), encoding="utf-8")
        t.rejects("written file not canonical", lambda: checks.written(out, "lie2"))
        Path(out).write_text(text.replace('"0"', '"0/2"', 1), encoding="utf-8")
        t.rejects("written file with a non-reduced rational", lambda: checks.written(out, "lie2"))

    print(f"{t.failures} failures")
    return 1 if t.failures else 0
