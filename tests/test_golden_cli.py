"""Golden CLI outputs over the shipped corpus.

Pins the exact bytes ``construct`` writes for every (target, fixture) pair the
CLI accepts, and the stdout of ``verify`` and ``report --format json`` for
every file under ``fixtures/``.  A refactor that keeps the library's behaviour
keeps these byte-identical.  The expected values live in
``golden/cli_outputs.json``; to rewrite them after an intended change, run

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from prelie2.cli import _TARGET_KINDS, main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"


def _files() -> list[str]:
    return sorted(p.relative_to(FIXTURE_DIR).as_posix() for p in FIXTURE_DIR.rglob("*.json"))


def _kind(name: str) -> str | None:
    try:
        return json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8")).get("kind")
    except ValueError:
        return None


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _construct(target: str, name: str) -> tuple[int, str | None]:
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "out.json"
        code, _ = _run("construct", target, str(FIXTURE_DIR / name), "-o", str(dest))
        return code, dest.read_text(encoding="utf-8") if dest.exists() else None


def _cases() -> list[tuple[str, tuple[str, ...]]]:
    cases = []
    for name in _files():
        cases.append((f"verify {name}", ("verify", name)))
        cases.append((f"report-json {name}", ("report", name)))
    shipped = [n for n in _files() if "/" not in n]
    for target, kinds in sorted(_TARGET_KINDS.items()):
        for name in shipped:
            if _kind(name) in kinds:
                cases.append((f"construct {target} {name}", ("construct", target, name)))
    return cases


def _observe(args: tuple[str, ...]) -> dict:
    if args[0] == "verify":
        code, out = _run("verify", str(FIXTURE_DIR / args[1]))
    elif args[0] == "report":
        code, out = _run("report", "--format", "json", str(FIXTURE_DIR / args[1]))
    else:
        code, out = _construct(args[1], args[2])
    return {"exit": code, "output": out}


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, _ in CASES)


@pytest.mark.parametrize("key,args", CASES, ids=[key for key, _ in CASES])
def test_cli_output_matches_golden(golden, key, args):
    assert _observe(args) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {key: _observe(args) for key, args in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
