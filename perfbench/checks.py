"""Judges of the program's outputs.

Each check takes what the program returned and raises ``Mismatch`` when it
is wrong.  The verdicts come from the benchmark's own exact arithmetic in
``exact``; the program's objects are only read (``coeffs``, ``entry``,
``violations``), never asked to judge themselves.
"""

from __future__ import annotations

import json

import exact as X


class Mismatch(AssertionError):
    """An output of the program is wrong."""


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


def linear_matrix(f):
    """Matrix of a linear MultiMap: column i is the image of basis vector i."""
    n_in, n_out = f.inputs[0].dim, f.output.dim
    return [[f.entry(i, j) for i in range(n_in)] for j in range(n_out)]


def _independent(vectors, ncols) -> bool:
    return X.rank([list(v) for v in vectors], ncols) == len(vectors)


# -- exact-solve ------------------------------------------------------------------


# ``nullity`` is the benchmark's own count for the same system; the caller
# computes it once per input, since the inputs do not change between rounds.


def kernel(m, ncols, vectors, nullity):
    for v in vectors:
        expect(all(sum((a * x for a, x in zip(row, v)), X.ZERO) == 0 for row in m), "vector not in the kernel")
    expect(len(vectors) == nullity, f"{len(vectors)} kernel vectors, nullity is {nullity}")
    expect(_independent(vectors, ncols), "kernel vectors are dependent")


def inverse(m, g):
    expect(g is not None, "invertible matrix reported singular")
    expect(X.matmul(m, linear_matrix(g)) == X.identity(len(m)), "product with the inverse is not the identity")


def end_pairs(dm, n0, n1, pairs, nullity):
    flat = []
    for a0, a1 in pairs:
        expect(X.commutes_with_differential(dm, n0, n1, list(a0.coeffs), list(a1.coeffs)), "End(V) pair does not commute with the differential")
        flat.append(list(a0.coeffs) + list(a1.coeffs))
    expect(len(pairs) == nullity, f"End0 has {len(pairs)} basis pairs, expected {nullity}")
    expect(_independent(flat, n0 * n0 + n1 * n1), "End0 basis pairs are dependent")


def invariant_forms(mul, n, forms, nullity):
    mats = [[[f.omega.entry(i, j, 0) for j in range(n)] for i in range(n)] for f in forms]
    for om in mats:
        expect(X.form_is_invariant(mul, n, om), "form is not skew and invariant")
    expect(len(forms) == nullity, f"{len(forms)} forms, expected {nullity}")
    expect(_independent([[om[i][j] for i in range(n) for j in range(i + 1, n)] for om in mats], n * (n - 1) // 2), "forms are dependent")


def bridge_maps(mul, n, maps, nullity):
    mats = [[[d.entry(p, q) for q in range(n)] for p in range(n)] for d in maps]
    for dm in mats:
        expect(all(dm[p][q] == -dm[q][p] for p in range(n) for q in range(n)), "connecting map is not skew")
        expect(not X.bridge_defects(mul, n, dm), "connecting map breaks a bridge condition")
    expect(len(maps) == nullity, f"{len(maps)} connecting maps, expected {nullity}")
    expect(_independent([[dm[p][q] for p in range(n) for q in range(p + 1, n)] for dm in mats], n * (n - 1) // 2), "connecting maps are dependent")


# -- verify-dense -----------------------------------------------------------------


def valid(report):
    expect(report.ok, f"valid structure reported invalid: {report.conditions()}")


def skew_l3_mutant(report, where, defect):
    expect(not report.ok, "mutant reported valid")
    hits = [v for v in report.violations if v.condition == "skew-l3" and tuple(v.where) == tuple(where)]
    expect(len(hits) == 1, f"no skew-l3 violation at {where}")
    expect(list(hits[0].defect) == list(defect), f"skew-l3 defect {hits[0].defect}, expected {defect}")


# -- o-search ---------------------------------------------------------------------


def search_results(found, lie, rep, dm, expected_count, bound=1):
    keys = []
    nv0 = dm[0][1]
    grid = {X.Fraction(k) for k in range(-bound, bound + 1)}
    for t in found:
        t0 = (t.t0.inputs[0].dim, t.t0.output.dim), list(t.t0.coeffs)
        t1 = (t.t1.inputs[0].dim, t.t1.output.dim), list(t.t1.coeffs)
        t2 = (nv0, nv0, t.t2.output.dim), list(t.t2.coeffs)
        expect(all(c in grid for c in t0[1] + t1[1] + t2[1]), "operator outside the search grid")
        expect(not X.o_operator_defects(lie, rep, dm, t0, t1, t2), "operator breaks a defining condition")
        keys.append((tuple(t0[1]), tuple(t1[1]), tuple(t2[1])))
    expect(len(set(keys)) == len(keys), "search returned an operator twice")
    expect(len(keys) == expected_count, f"search found {len(keys)} operators, expected {expected_count}")
    ng0, ng1 = lie["dims"]["g0"], lie["dims"]["g1"]
    nv1 = dm[0][0]
    zero = (tuple([X.ZERO] * (nv0 * ng0)), tuple([X.ZERO] * (nv1 * ng1)), tuple([X.ZERO] * (nv0 * nv0 * ng1)))
    ident = (tuple(X.ONE if i == j else X.ZERO for i in range(nv0) for j in range(ng0)),
             tuple(X.ONE if i == j else X.ZERO for i in range(nv1) for j in range(ng1)), zero[2])
    expect(zero in keys, "zero operator not found")
    expect(ident in keys, "identity operator not found")


# -- cli-corpus -------------------------------------------------------------------


def cli_result(cmd, rc, out, err):
    """``cmd`` carries the expected exit code and what to look for."""
    expect("Traceback" not in err, f"traceback from {cmd.args}")
    expect(rc == cmd.expect_rc, f"exit {rc} from {cmd.args}, expected {cmd.expect_rc}")
    if cmd.args[0] == "verify" and rc in (0, 1):
        expect(out.startswith("OK" if rc == 0 else "INVALID"), f"verify printed {out[:40]!r}")
    if cmd.args[0] == "report" and rc in (0, 1):
        doc = json.loads(out)
        expect(doc["ok"] is (rc == 0) and doc["kind"] == cmd.kind, f"report JSON disagrees: {out[:80]!r}")
    if cmd.args[0] == "construct" and rc == 0:
        written(cmd.out_path, cmd.out_kind)


def written(path, kind):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    expect(doc["kind"] == kind, f"{path} has kind {doc['kind']}, expected {kind}")
    expect(X.canonical_text(doc) == text, f"{path} does not re-serialize byte-identically")
    leaves = []
    X.walk_leaves(doc["tensors"], leaves)
    expect(all(X.rational_text(X.parse_rational(s)) == s for s in leaves), f"{path} holds a non-reduced rational")
