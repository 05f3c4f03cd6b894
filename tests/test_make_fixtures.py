"""The shipped corpus is what ``scripts/make_fixtures.py`` regenerates.

The generator runs the invariant-form solve and the operator search, so a
change to the exact linear algebra or to how those systems are assembled that
moves any output shows here as a stale file.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"


def _script_module():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_finds_the_corpus_up_to_date():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_differences_names_changed_missing_and_extra_files(tmp_path):
    expected, actual = tmp_path / "expected", tmp_path / "actual"
    for root in (expected, actual):
        (root / "sub").mkdir(parents=True)
        (root / "same.json").write_bytes(b"{}\n")
        (root / "sub" / "changed.json").write_bytes(b"1\n")
    (actual / "sub" / "changed.json").write_bytes(b"2\n")
    (expected / "only_expected.md").write_bytes(b"")
    (actual / "only_actual.json").write_bytes(b"")
    assert _script_module().differences(expected, actual) == [
        "only_actual.json",
        "only_expected.md",
        "sub/changed.json",
    ]
    assert _script_module().differences(expected, expected) == []
