"""The four workloads: inputs built from a seed, operations, and their checks.

Each builder returns a ``Workload``: a fixed list of operations that makes
one round, and a warm-up.  An operation's ``run`` calls into ``prelie2``
through module attributes looked up at call time, so the traced run's
wrappers see every call; its ``check`` judges the result with the
benchmark's own code (``checks`` and ``exact``).
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
import exact as X
from prelie2 import graded_spaces, lie2_core, o_operators, prelie2_core, prelie_base, scalar_tensor, ybe
from prelie2.graded_spaces import TwoTermComplex
from prelie2.lie2_core import Lie2Algebra, Lie2Rep
from prelie2.prelie2_core import PreLie2Algebra
from prelie2.prelie_base import PreLieAlgebra
from prelie2.scalar_tensor import MultiMap, Space

PRELIE2_FIXTURES = ("b", "c", "d", "e", "omega")
SEARCH_CONTEXTS = {"FIX-B": "fix_b.json", "FIX-E": "fix_e.json", "FIX-OMEGA": "fix_omega.json"}
COUNTS_FILE = Path(__file__).resolve().parent / "expected_counts.json"


@dataclass
class Op:
    name: str
    run: Callable[..., Any]
    check: Callable[[Any], None]
    # A long operation that yields partial results takes a callback to call
    # between them, so that the reference is sampled all through it and a
    # brief change of the machine's speed between operations cannot set the
    # unit of a whole run.
    interleaved: bool = False


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]
    peak_rss_kb: Callable[[], int] | None = None  # None: this process


# -- plain structures -> prelie2 objects ------------------------------------------


def _spaces(dims, labels):
    return {k: Space(dims[k], labels[k]) for k in dims}


def _mm(t, spaces):
    return MultiMap(tuple(spaces[:-1]), spaces[-1], tuple(t[1]))


def to_prelie2(s) -> PreLie2Algebra:
    sp = _spaces(s["dims"], {"a0": "a0", "a1": "a1"})
    t = {n: _mm(s["tensors"][n], [sp[x] for x in slots]) for n, slots in X.SCHEMAS["prelie2"].items()}
    return PreLie2Algebra(sp["a0"], sp["a1"], t["dm"], t["mul00"], t["mul01"], t["mul10"], t["l3"])


def to_lie2(s) -> Lie2Algebra:
    sp = _spaces(s["dims"], {"g0": "g0", "g1": "g1"})
    t = {n: _mm(s["tensors"][n], [sp[x] for x in slots]) for n, slots in X.SCHEMAS["lie2"].items()}
    return Lie2Algebra(sp["g0"], sp["g1"], t["dk"], t["l2_00"], t["l2_01"], t["l3"])


def to_context(a):
    """The functor image of ``a`` acting on ``a``'s own complex."""
    g = to_lie2(X.lie2_image(a))
    v = to_prelie2(a)
    rep = X.left_rep(a)
    g0, g1, v0, v1 = g.g0, g.g1, v.a0, v.a1
    rho = Lie2Rep(
        TwoTermComplex(v0, v1, v.dm),
        _mm(rep["rho0_0"], [g0, v0, v0]),
        _mm(rep["rho0_1"], [g0, v1, v1]),
        _mm(rep["rho1"], [g1, v0, v1]),
        _mm(rep["rho2"], [g0, g0, v0, v1]),
    )
    return o_operators.OOperatorContext(g, rho)


def identity_operator(ctx):
    v, g = ctx.complex, ctx.algebra
    return o_operators.OOperator(
        ctx,
        MultiMap((v.v0,), g.g0, MultiMap.identity(v.v0).coeffs),
        MultiMap((v.v1,), g.g1, MultiMap.identity(v.v1).coeffs),
        MultiMap.zero((v.v0, v.v0), g.g1),
    )


def linear(m):
    """A linear MultiMap whose column i (image of basis vector i) is m[.][i]."""
    nrows, ncols = len(m), len(m[0])
    return MultiMap((Space(ncols, "x"),), Space(nrows, "y"), tuple(m[j][i] for i in range(ncols) for j in range(nrows)))


def _fixtures(root):
    return {n: X.read_structure(root / "fixtures" / f"fix_{n}.json") for n in PRELIE2_FIXTURES}


def _prelie_part(s):
    """The degree-0 pre-Lie algebra of a 2-term structure with dm = 0 or l3 = 0."""
    return {"kind": "prelie", "dims": {"a": s["dims"]["a0"]}, "tensors": {"mul": s["tensors"]["mul00"]}}


# -- verify-dense -----------------------------------------------------------------

# Direct sums transported along a random dense change of basis on each
# degree, all of dims (4,3): six without FIX-OMEGA (two sums of each of
# three kinds, in different bases) and the two with it, whose l3 makes
# them dearer.  The median operation is then a validation of one of the
# six, a median over six random changes of basis rather than the cost of
# one, and not a pick between two kinds of cost.  Images of the first four
# are validated too.  A dense (6,4) structure takes 2 to 4.5 s and would
# make a round so long that one or two rounds fill a run.
DENSE_SUMS = (
    ("b", "c"), ("c", "e"), ("b", "d"), ("d", "e"), ("b", "c"), ("c", "e"), ("d", "omega"), ("c", "omega"),
)
IMAGES = 4
# Contexts of O-operators stay small: validate_context builds End(V).
CONTEXT_FIXTURES = ("b", "c", "omega")


def verify_dense(root: Path, seed: int, outdir: Path, replay: bool) -> Workload:
    rng = random.Random(seed)
    fx = _fixtures(root)
    ops = []
    for k, combo in enumerate(DENSE_SUMS):
        s = X.random_transport(rng, X.direct_sum([fx[c] for c in combo]))
        name = f"{'+'.join(combo)} #{k}"
        ops.append(Op(f"prelie2 {name}", lambda a=to_prelie2(s): prelie2_core.validate(a), checks.valid))
        if k < IMAGES:
            g = to_lie2(X.lie2_image(s))
            ops.append(Op(f"lie2 image {name}", lambda g=g: lie2_core.validate(g), checks.valid))
        n0, n1 = s["dims"]["a0"], s["dims"]["a1"]
        i, j = rng.sample(range(n0), 2)
        where, q = (i, j, rng.randrange(n0)), rng.randrange(n1)
        delta = Fraction(rng.choice((-2, -1, 1, 2)))
        mutant = to_prelie2(X.break_l3_skew(s, where, q, delta))
        defect = [delta if k == q else X.ZERO for k in range(n1)]
        ops.append(Op(
            f"prelie2 mutant {name}",
            lambda m=mutant: prelie2_core.validate(m),
            lambda r, w=where, d=defect: checks.skew_l3_mutant(r, w, d),
        ))
    for name in CONTEXT_FIXTURES:
        ctx = to_context(X.random_transport(rng, fx[name]))
        t = identity_operator(ctx)

        def verify_o(ctx=ctx, t=t):
            return o_operators.validate_context(ctx).merged(o_operators.validate_o(t))

        ops.append(Op(f"o-operator identity {name}", verify_o, checks.valid))

    def warmup():
        # One call of each kind on FIX-B, so the interpreter has specialized
        # the code before the first timed operation.
        s = fx["b"]
        prelie2_core.validate(to_prelie2(s))
        prelie2_core.validate(to_prelie2(X.break_l3_skew(s, (0, 1, 0), 0, X.ONE)))
        lie2_core.validate(to_lie2(X.lie2_image(s)))
        ctx = to_context(s)
        o_operators.validate_context(ctx).merged(o_operators.validate_o(identity_operator(ctx)))

    return Workload(ops, warmup)


# -- exact-solve ------------------------------------------------------------------

# Eleven inversions of one size make up the middle of the operation times,
# with as many cheaper operations below them (kernels) as dearer ones above
# (End(V), forms, bridge maps).  An inversion's cost varies little from
# matrix to matrix; a kernel's varies by a quarter with entries in [-1, 1]
# and fivefold with entries in [-3, 3].
KERNEL_COLUMNS = (14,) * 6 + (20,) * 6  # rows = columns - 2, entries in [-1, 1]
INVERT_SIZES = (10,) * 11  # entries in [-3, 3]
END_DIMS = ((3, 2), (3, 3), (2, 3), (3, 3))
# Degree-0 parts of the shipped fixtures; each sum is pre-Lie.
ALGEBRA_SUMS = (("a", "b", "omega"), ("c", "e", "omega"), ("a", "c", "e"), ("b", "e", "omega"))
# Row additions in a change of basis of an algebra.  Dense changes of basis
# make the elimination's growth, and so the cost of one solve, vary
# threefold from seed to seed; with three the cost varies by a tenth.
ALGEBRA_SHEARS = 3


def once(fn, *args):
    """A zero-argument function computing ``fn(*args)`` on its first call only."""
    return functools.cache(functools.partial(fn, *args))


def _nonzero(rng, lo, hi):
    return Fraction(rng.choice([k for k in range(lo, hi + 1) if k]))


def exact_solve(root: Path, seed: int, outdir: Path, replay: bool) -> Workload:
    rng = random.Random(seed)
    ops = []
    for ncols in KERNEL_COLUMNS:
        m = X.random_matrix(rng, ncols - 2, ncols, -1, 1)
        nullity = once(X.nullity, m, ncols)
        ops.append(Op(
            f"nullspace {ncols - 2}x{ncols}",
            lambda f=linear(m): scalar_tensor.nullspace(f),
            lambda vs, m=m, n=ncols, k=nullity: checks.kernel(m, n, vs, k()),
        ))
    for n in INVERT_SIZES:
        m = X.random_matrix(rng, n, n)
        while X.rank(m, n) < n:
            m = X.random_matrix(rng, n, n)
        ops.append(Op(f"invert {n}x{n}", lambda f=linear(m): scalar_tensor.invert_linear(f), lambda g, m=m: checks.inverse(m, g)))
    for n0, n1 in END_DIMS:
        dm = ((n1, n0), [_nonzero(rng, -2, 2) for _ in range(n1 * n0)])
        v0, v1 = Space(n0, "v0"), Space(n1, "v1")
        cx = TwoTermComplex(v0, v1, MultiMap((v1,), v0, tuple(dm[1])))
        nullity = once(lambda dm=dm, n0=n0, n1=n1: X.nullity(*X.chain_endomorphism_rows(dm, n0, n1)))
        ops.append(Op(
            f"end_algebra ({n0},{n1})",
            lambda cx=cx: graded_spaces.end_algebra(cx),
            lambda e, dm=dm, n0=n0, n1=n1, k=nullity: checks.end_pairs(dm, n0, n1, e.end0_pairs, k()),
        ))
    fx = _fixtures(root)
    algebras = {n: _prelie_part(s) for n, s in fx.items()}
    algebras["a"] = X.read_structure(root / "fixtures" / "fix_a.json")
    for combo in ALGEBRA_SUMS:
        s = X.direct_sum([algebras[c] for c in combo])
        s = X.transport(s, {"a": X.shears(rng, s["dims"]["a"], ALGEBRA_SHEARS)})
        n, mul = s["dims"]["a"], s["tensors"]["mul"]
        if X.prelie_assoc_defects(s):
            raise RuntimeError("generated algebra is not pre-Lie")
        sp = Space(n, "a")
        alg = PreLieAlgebra(sp, MultiMap((sp, sp), sp, tuple(mul[1])))
        name = "+".join(combo)
        forms = once(lambda mul=mul, n=n: X.nullity(*X.invariance_rows(mul, n)))
        maps = once(lambda mul=mul, n=n: X.nullity(*X.bridge_rows(mul, n)))
        ops.append(Op(
            f"invariant_forms {name}",
            lambda alg=alg: prelie_base.invariant_forms(alg),
            lambda fs, mul=mul, n=n, k=forms: checks.invariant_forms(mul, n, fs, k()),
        ))
        ops.append(Op(
            f"bridge_dm_solutions {name}",
            lambda alg=alg: ybe.bridge_dm_solutions(alg),
            lambda ds, mul=mul, n=n, k=maps: checks.bridge_maps(mul, n, ds, k()),
        ))
    def warmup():
        # One small call of each kind, so the interpreter has specialized the
        # code before the first timed operation.
        small = random.Random(0)
        scalar_tensor.nullspace(linear(X.random_matrix(small, 8, 10, -1, 1)))
        scalar_tensor.invert_linear(linear([[X.ONE, X.ONE], [X.ZERO, X.ONE]]))
        v0, v1 = Space(2, "v0"), Space(2, "v1")
        graded_spaces.end_algebra(TwoTermComplex(v0, v1, MultiMap((v1,), v0, (X.ONE, X.ONE, X.ZERO, X.ONE))))
        mul = algebras["omega"]["tensors"]["mul"]
        sp = Space(2, "a")
        alg = PreLieAlgebra(sp, MultiMap((sp, sp), sp, tuple(mul[1])))
        prelie_base.invariant_forms(alg)
        ybe.bridge_dm_solutions(alg)

    return Workload(ops, warmup)


# -- o-search ---------------------------------------------------------------------


def load_search_contexts(root: Path):
    out = {}
    for label, fname in SEARCH_CONTEXTS.items():
        s = X.read_structure(root / "fixtures" / fname)
        out[label] = (s, X.lie2_image(s), X.left_rep(s), s["tensors"]["dm"])
    return out


def recompute_counts(root: Path) -> dict:
    """Operators on each context's bound-1 grid, found by the benchmark's own check."""
    counts = {}
    for label, (_s, lie, rep, dm) in load_search_contexts(root).items():
        counts[label] = sum(1 for c in X.o_search_grid(lie, dm) if not X.o_operator_defects(lie, rep, dm, *c))
    return counts


def o_search(root: Path, seed: int, outdir: Path, replay: bool) -> Workload:
    with open(COUNTS_FILE, encoding="utf-8") as fh:
        expected = json.load(fh)
    contexts = list(load_search_contexts(root).items())
    random.Random(seed).shuffle(contexts)
    ops = []
    for label, (s, lie, rep, dm) in contexts:

        def search(between, ctx=to_context(s)):
            found = []
            for t in o_operators.search_o_operators(ctx, 1):
                found.append(t)
                between()
            return found

        ops.append(Op(
            f"search {label}",
            search,
            lambda found, lie=lie, rep=rep, dm=dm, n=expected[label]: checks.search_results(found, lie, rep, dm, n),
            interleaved=True,
        ))
    t = identity_operator(to_context(contexts[0][1][0]))
    return Workload(ops, lambda: o_operators.validate_o(t))


# -- cli-corpus -------------------------------------------------------------------

OUT_KIND = {
    "lie2": "lie2", "crossed-module": "crossed_module", "prelie2": "prelie2", "skeletal": "prelie2",
    "double": "lie2", "cybe-solution": "rmatrix", "end-algebra": "lie2", "semidirect-lie": "lie2",
}
TARGET_KINDS = {
    "lie2": {"prelie2"}, "crossed-module": {"prelie2"}, "prelie2": {"crossed_module"}, "skeletal": {"prelie"},
    "double": {"prelie", "prelie2"}, "cybe-solution": {"prelie", "prelie2"}, "end-algebra": {"prelie2", "lie2"},
    "semidirect-lie": {"lie2"},
}


@dataclass
class CliCommand:
    args: list
    expect_rc: int
    kind: str | None = None
    out_path: str | None = None
    out_kind: str | None = None


def _file_facts(path: Path) -> dict:
    """What the benchmark's own reading of a corpus file says about it.

    Files of kind prelie and prelie2 are judged by the benchmark's own
    checks of their identities.  The other kinds have no mutant in the
    corpus: each is the image of a valid fixture under a construction the
    paper proves valid (the crossed module, the cocycle, the double, the
    operators, the representations), so they count as valid.
    """
    raw = json.loads(path.read_text(encoding="utf-8"))
    try:
        s = X.read_structure(path)
    except X.Malformed:
        return {"kind": raw["kind"], "malformed": True}
    facts = {"kind": s["kind"], "malformed": False, "valid": True, "strict": True, "forms": 0}
    if s["kind"] == "prelie":
        facts["valid"] = not X.prelie_assoc_defects(s)
        facts["forms"] = X.nullity(*X.invariance_rows(s["tensors"]["mul"], s["dims"]["a"]))
    elif s["kind"] == "prelie2":
        facts["valid"] = not X.prelie2_defects(s)
    if "l3" in s["tensors"]:
        facts["strict"] = not any(s["tensors"]["l3"][1])
    return facts


def _construct_rc(target: str, f: dict) -> int:
    """Exit code of ``construct target`` implied by the file's properties."""
    if target == "end-algebra":
        return 0  # End(V) of any complex is a strict Lie 2-algebra
    if not f["valid"]:
        return 1
    if target == "skeletal":
        return 0 if f["forms"] > 0 else 1
    if target in ("crossed-module", "semidirect-lie") or (target in ("double", "cybe-solution") and f["kind"] == "prelie2"):
        return 0 if f["strict"] else 1
    return 0


def corpus_commands(root: Path, outdir: Path, seed: int) -> list[CliCommand]:
    files = sorted((root / "fixtures").glob("*.json")) + sorted((root / "fixtures" / "mutants").glob("*.json"))
    cmds = []
    pairs = []
    for path in files:
        rel = str(path.relative_to(root))
        f = _file_facts(path)
        kind = f["kind"]
        bad = 2 if f["malformed"] else None
        ok_rc = bad if bad is not None else (0 if f["valid"] else 1)
        cmds.append(CliCommand(["verify", rel], ok_rc, kind))
        cmds.append(CliCommand(["report", rel, "--format", "json"], ok_rc, kind))
        if kind == "prelie2":
            cmds.append(CliCommand(["roundtrip", rel], ok_rc, kind))
        for target, kinds in TARGET_KINDS.items():
            if kind in kinds:
                out = str(outdir / f"{target}-{path.stem}.json")
                rc = bad if bad is not None else _construct_rc(target, f)
                cmds.append(CliCommand(["construct", target, rel, "-o", out], rc, kind, out, OUT_KIND[target]))
        if bad is None and f["valid"] and f["strict"] and kind in ("prelie", "prelie2"):
            pairs.append(path.stem)
    random.Random(seed).shuffle(cmds)
    # Each constructed double and r-matrix pair must pass cybe-check; these
    # run after the constructions that write them.
    cmds.append(CliCommand(["cybe-check", "fixtures/fix_double.json", "fixtures/fix_rmatrix.json"], 0))
    for stem in pairs:
        cmds.append(CliCommand(["cybe-check", str(outdir / f"double-{stem}.json"), str(outdir / f"cybe-solution-{stem}.json")], 0))
    return cmds


def child_env(root: Path) -> dict:
    """The environment of a child: the checkout's src/ first, and no
    PRELIE2_WORKERS, so an inherited setting cannot change the code path."""
    env = {k: v for k, v in os.environ.items() if k != "PRELIE2_WORKERS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliRunner:
    """Runs a command in a fresh interpreter and keeps its peak memory."""

    def __init__(self, root: Path, outdir: Path):
        self.root, self.outdir = root, outdir
        self.env = child_env(root)
        self.max_rss_kb = 0

    def __call__(self, args):
        with tempfile.TemporaryFile(dir=self.outdir) as out, tempfile.TemporaryFile(dir=self.outdir) as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "prelie2.cli", *args], cwd=self.root, env=self.env, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()


def in_process(args):
    """Replay a command through ``cli.main`` in this process."""
    from prelie2 import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, out.getvalue(), err.getvalue()


def cli_corpus(root: Path, seed: int, outdir: Path, replay: bool) -> Workload:
    runner = CliRunner(root, outdir)
    call = in_process if replay else runner
    ops = []
    for cmd in corpus_commands(root, outdir, seed):
        def check(result, cmd=cmd):
            checks.cli_result(cmd, *result)

        ops.append(Op(" ".join(cmd.args[:2]), lambda args=cmd.args: call(args), check))

    def warmup():
        # Compiles bytecode for the fresh interpreters; the result is discarded.
        call(["verify", "fixtures/fix_b.json"])
        runner.max_rss_kb = 0

    return Workload(ops, warmup, None if replay else (lambda: runner.max_rss_kb))


BUILDERS = {
    "cli-corpus": cli_corpus,
    "verify-dense": verify_dense,
    "exact-solve": exact_solve,
    "o-search": o_search,
}
