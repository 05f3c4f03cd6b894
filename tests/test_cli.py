import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import block_sum
from prelie2.cli import main
from prelie2.fileio import (
    KINDS,
    MAX_COCHAIN_ARITY,
    SchemaError,
    file_from,
    parse_document,
    read_file,
    serialize_document,
    write_file,
)
from prelie2.fixtures import fix_c, fix_d
from prelie2.prelie2_core import classify_skeletal
from prelie2.prelie_base import Cochain, coboundary
from prelie2.scalar_tensor import MultiMap, basis_vector, vec_neg, zero_vector


def run(*argv) -> int:
    return main(list(argv))


def run_in_subprocess(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a traceback or exit code is seen as a user sees it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "prelie2.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


ALL_FIXTURES = [
    "fix_a.json",
    "fix_b.json",
    "fix_omega.json",
    "fix_c.json",
    "fix_d.json",
    "fix_e.json",
    "fix_cm.json",
    "fix_o_id.json",
    "fix_o_n.json",
    "fix_rep_left.json",
    "fix_rep_dual.json",
    "fix_cochain.json",
]

# more digits than the interpreter converts to an int by default (4300)
LONG_DIGITS = "1" * 5000

# ALL_FIXTURES plus the semidirect double of FIX-B and its r-matrix
SHIPPED = ALL_FIXTURES + ["fix_double.json", "fix_rmatrix.json"]


def test_corpus_verifies(fixture_dir):
    for name in ALL_FIXTURES:
        assert run("verify", str(fixture_dir / name)) == 0, name


def test_serialization_round_trip_byte_exact(fixture_dir):
    for name in SHIPPED:
        path = fixture_dir / name
        text = path.read_text(encoding="utf-8")
        sf = parse_document(text)
        assert serialize_document(sf) == text, name
        back = file_from(sf.kind, sf.structure(), sf.label, sf.provenance)
        assert serialize_document(back) == text, name


def test_mutants_fail_with_exit_one(fixture_dir, capsys):
    assert run("verify", str(fixture_dir / "mutants/fix_a_mutant.json")) == 1
    out = capsys.readouterr().out
    assert "assoc-sym" in out
    assert run("verify", str(fixture_dir / "mutants/fix_b_mutant.json")) == 1
    out = capsys.readouterr().out
    assert "condition=a1" in out


def test_malformed_rational_exits_two(fixture_dir, capsys):
    assert run("verify", str(fixture_dir / "mutants/malformed.json")) == 2


def test_missing_file_exits_two(tmp_path):
    assert run("verify", str(tmp_path / "nope.json")) == 2


def test_expect_flag_and_o_operator_alias(fixture_dir):
    assert run("verify", "--o-operator", str(fixture_dir / "fix_o_id.json")) == 0
    assert run("verify", "--o-operator", str(fixture_dir / "fix_a.json")) == 2
    assert run("verify", "--expect", "prelie", str(fixture_dir / "fix_a.json")) == 0


def test_construct_lie2_then_verify(fixture_dir, tmp_path):
    out = tmp_path / "lie2.json"
    assert run("construct", "lie2", str(fixture_dir / "fix_b.json"), "-o", str(out)) == 0
    assert run("verify", str(out)) == 0
    assert read_file(out).kind == "lie2"


def test_construct_lie2_on_a_theta_twisted_sum(tmp_path):
    # FIX-C+D with l3 - δθ, θ(e0, e3) = -θ(e3, e0) = f0, is valid; its Lie image
    # has l3 a nonzero CE 3-cocycle
    a = block_sum(fix_c(), fix_d())
    algebra, rep, _ = classify_skeletal(a)
    f0 = basis_vector(a.a1, 0)
    theta = MultiMap.build(
        (a.a0, a.a0), a.a1, lambda i, j: f0 if (i, j) == (0, 3) else vec_neg(f0) if (i, j) == (3, 0) else zero_vector(a.a1)
    )
    twisted = replace(a, l3=a.l3 - coboundary(Cochain(2, theta), algebra, rep).map)
    path, out = tmp_path / "twisted.json", tmp_path / "lie2.json"
    write_file(path, file_from("prelie2", twisted))
    assert run("verify", str(path)) == 0
    assert run("construct", "lie2", str(path), "-o", str(out)) == 0
    assert run("verify", str(out)) == 0
    assert not read_file(out).structure().l3.is_zero()


def test_construct_crossed_module_round_trip_byte_identical(fixture_dir, tmp_path):
    cm = tmp_path / "cm.json"
    back = tmp_path / "back.json"
    assert run("construct", "crossed-module", str(fixture_dir / "fix_b.json"), "-o", str(cm)) == 0
    assert run("construct", "prelie2", str(cm), "-o", str(back)) == 0
    assert back.read_bytes() == (fixture_dir / "fix_b.json").read_bytes()


def test_construct_cybe_solution_passes_check(fixture_dir, tmp_path):
    dbl = tmp_path / "double.json"
    rmat = tmp_path / "r.json"
    assert run("construct", "double", str(fixture_dir / "fix_b.json"), "-o", str(dbl)) == 0
    assert run("construct", "cybe-solution", str(fixture_dir / "fix_b.json"), "-o", str(rmat)) == 0
    assert run("cybe-check", str(dbl), str(rmat)) == 0


def test_construct_ungraded_solution_from_prelie(fixture_dir, tmp_path):
    dbl = tmp_path / "double.json"
    rmat = tmp_path / "r.json"
    assert run("construct", "double", str(fixture_dir / "fix_a.json"), "-o", str(dbl)) == 0
    assert run("construct", "cybe-solution", str(fixture_dir / "fix_a.json"), "-o", str(rmat)) == 0
    assert run("cybe-check", str(dbl), str(rmat)) == 0


def test_cybe_check_rejects_broken_r(fixture_dir, tmp_path):
    dbl = tmp_path / "double.json"
    rmat = tmp_path / "r.json"
    run("construct", "double", str(fixture_dir / "fix_b.json"), "-o", str(dbl))
    run("construct", "cybe-solution", str(fixture_dir / "fix_b.json"), "-o", str(rmat))
    doc = json.loads(rmat.read_text())
    # scale one entry: destroys skewness of the pair
    doc["tensors"]["r"][0][4] = "5"
    rmat.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert run("cybe-check", str(dbl), str(rmat)) == 1


def test_construct_end_algebra_and_semidirect(fixture_dir, tmp_path):
    end = tmp_path / "end.json"
    assert run("construct", "end-algebra", str(fixture_dir / "fix_b.json"), "-o", str(end)) == 0
    assert run("verify", str(end)) == 0
    g = tmp_path / "g.json"
    flat = tmp_path / "flat.json"
    assert run("construct", "lie2", str(fixture_dir / "fix_b.json"), "-o", str(g)) == 0
    assert run("construct", "semidirect-lie", str(g), "-o", str(flat)) == 0
    assert run("verify", str(flat)) == 0
    assert read_file(flat).dims["g1"] == 0


def test_construct_skeletal_from_mirror(tmp_path, fixture_dir):
    mirror = tmp_path / "mirror.json"
    doc = json.loads((fixture_dir / "fix_a.json").read_text())
    doc["tensors"]["mul"] = [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]]
    doc["label"] = "mirror"
    mirror.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "skeletal.json"
    assert run("construct", "skeletal", str(mirror), "-o", str(out)) == 0
    assert run("verify", str(out)) == 0
    built = read_file(out).structure()
    assert not built.l3.is_zero()


def test_construct_rejects_wrong_kind(fixture_dir, tmp_path):
    out = tmp_path / "x.json"
    assert run("construct", "lie2", str(fixture_dir / "fix_a.json"), "-o", str(out)) == 2


def test_construct_invalid_input_exits_one(fixture_dir, tmp_path):
    out = tmp_path / "x.json"
    code = run(
        "construct", "lie2", str(fixture_dir / "mutants/fix_b_mutant.json"), "-o", str(out)
    )
    assert code == 1
    assert not out.exists()


def test_roundtrip_command(fixture_dir, capsys):
    assert run("roundtrip", str(fixture_dir / "fix_b.json")) == 0
    assert run("roundtrip", str(fixture_dir / "fix_omega.json")) == 0


def test_roundtrip_corrupted_homotopy_names_stage(tmp_path, fixture_dir, capsys):
    doc = json.loads((fixture_dir / "fix_omega.json").read_text())
    doc["tensors"]["l3"][0][0][0][0] = "7"  # breaks skewness of the homotopy
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert run("roundtrip", str(bad)) == 1
    out = capsys.readouterr().out
    assert "stage=validate-input" in out


def test_report_text_and_json(fixture_dir, capsys):
    assert run("report", str(fixture_dir / "fix_b.json")) == 0
    capsys.readouterr()
    assert run("report", "--format", "json", str(fixture_dir / "mutants/fix_b_mutant.json")) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["violations"][0]["condition"] == "a1"


def test_parse_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"kind": "prelie", "dims": {"a": 2}, "tensors": {"mul": [[["1"]]]}}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"kind": "nope", "dims": {}, "tensors": {}}))
    with pytest.raises(SchemaError):
        parse_document("not json")
    with pytest.raises(SchemaError):  # a bool is not a dimension
        parse_document(json.dumps({"kind": "prelie", "dims": {"a": True}, "tensors": {"mul": [[["1"]]]}}))
    with pytest.raises(SchemaError):  # ARABIC-INDIC DIGIT ONE is not an ASCII digit
        parse_document(json.dumps({"kind": "prelie", "dims": {"a": 1}, "tensors": {"mul": [[["\u0661"]]]}}))
    for literal in (LONG_DIGITS, "1/" + LONG_DIGITS):  # past the int-string digit limit
        with pytest.raises(SchemaError):
            parse_document(json.dumps({"kind": "prelie", "dims": {"a": 1}, "tensors": {"mul": [[[literal]]]}}))
    with pytest.raises(SchemaError):  # the same digits as a bare JSON number
        parse_document('{"kind": "prelie", "dims": {"a": 1}, "tensors": {"mul": [[[%s]]]}}' % LONG_DIGITS)


def test_overlong_rational_exits_two_without_traceback(tmp_path):
    path = tmp_path / "long.json"
    doc = {"kind": "prelie", "dims": {"a": 1}, "label": "x", "provenance": "x", "tensors": {"mul": [[[LONG_DIGITS]]]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_in_subprocess("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "too long" in proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,  # past the JSON decoder's nesting limit
        # decodes, but nests a tensor past the recursion limit of the schema checks
        json.dumps({"kind": "prelie", "dims": {"a": 1}, "tensors": {"mul": json.loads("[" * 900 + "]" * 900)}}),
    ],
    ids=["unclosed", "deep-tensor"],
)
def test_deeply_nested_json_exits_two_without_traceback(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    proc = run_in_subprocess("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nested too deeply" in proc.stderr


@pytest.mark.parametrize("arity", [MAX_COCHAIN_ARITY + 1, 600, 10**7])
def test_cochain_arity_past_the_bound_exits_two_without_traceback(tmp_path, arity):
    path = tmp_path / "wide.json"
    doc = {"kind": "cochain", "dims": {"a": 0, "arity": arity, "v": 1}, "tensors": {"map": []}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    proc = run_in_subprocess("verify", str(path))
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"at most {MAX_COCHAIN_ARITY}" in proc.stderr


def test_rmatrix_schema_round_trip(tmp_path):
    r = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    sf = file_from("rmatrix", {"g0": 1, "g1": 1, "r": r, "frkr": [[Fraction(2)]]}, label="toy")
    text = serialize_document(sf)
    again = parse_document(text)
    assert serialize_document(again) == text
    data = again.structure()
    assert data["r"][0][1] == 1 and data["frkr"][0][0] == 2


def test_stale_workers_env_var_is_ignored(fixture_dir, monkeypatch, capsys):
    # a leftover PRELIE2_WORKERS setting must neither change nor break validation
    monkeypatch.setenv("PRELIE2_WORKERS", "abc")
    assert run("verify", str(fixture_dir / "fix_b.json")) == 0
    assert run("verify", str(fixture_dir / "mutants/fix_b_mutant.json")) == 1


def _edit(data, doc: dict) -> str:
    """``doc`` with one drawn edit, as the text of a file."""
    edit = data.draw(st.sampled_from(["drop", "dim", "entry", "kind", "truncate"]))
    if edit == "drop":
        owner = data.draw(st.sampled_from([doc, doc["dims"], doc["tensors"]]))
        del owner[data.draw(st.sampled_from(sorted(owner)))]
    elif edit == "dim":
        key = data.draw(st.sampled_from(sorted(doc["dims"])))
        doc["dims"][key] += data.draw(st.sampled_from([-1, 1]))
    elif edit == "entry":
        node = doc["tensors"][data.draw(st.sampled_from(sorted(doc["tensors"])))]
        while node and isinstance(node[0], list):
            node = node[data.draw(st.integers(0, len(node) - 1))]
        if node:  # a wrong value, malformed literals, a bool, a nested list, an overlong literal
            entry = data.draw(st.sampled_from(["7", "1/0", "x", "1.5", "", True, [["1"]], LONG_DIGITS]))
            node[data.draw(st.integers(0, len(node) - 1))] = entry
    elif edit == "kind":
        doc["kind"] = data.draw(st.sampled_from([k for k in KINDS if k != doc["kind"]]))
    text = json.dumps(doc)
    if edit == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(SHIPPED))
def test_edited_fixtures_exit_zero_one_or_two(data, name, fixture_dir, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(_edit(data, json.loads((fixture_dir / name).read_text())), encoding="utf-8")
    for argv in (["verify", str(path)], ["report", str(path), "--format", "json"]):
        start = time.perf_counter()
        assert run(*argv) in (0, 1, 2)
        assert time.perf_counter() - start < 5
