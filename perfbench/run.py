"""Benchmark of the prelie2 checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --recompute-counts   # rewrite expected_counts.json
    python3 perfbench/run.py --selftest           # every check rejects a wrong output

With ``--trace 0`` it runs whole rounds of the workload's operations until
``--seconds`` have passed and prints the end-to-end metrics; with
``--trace 1`` it runs one round untraced and one traced and prints the
per-layer metrics.  The last line of standard output is one JSON object.
See README.md for the workloads, the unit ``ref`` and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-corpus", "verify-dense", "exact-solve", "o-search")
SETUP_PROBES = 3
IMPORT_PROBES = 7


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def require_checkout():
    for needed in (SRC / "prelie2" / "__init__.py", ROOT / "fixtures"):
        if not needed.exists():
            fail(f"{needed} is missing; run this from a prelie2 checkout")


def import_program():
    """Import prelie2 from the checkout's src/, never an installed copy."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import prelie2

    if Path(prelie2.__file__).resolve().parent != SRC / "prelie2":
        fail(f"imported prelie2 from {prelie2.__file__}, not from {SRC}")


def setup(workload: str, seed: int, outdir: Path, replay: bool):
    """Import, build the inputs, warm up: everything before the first timed operation."""
    import_program()
    import workloads

    w = workloads.BUILDERS[workload](ROOT, seed, outdir, replay)
    w.warmup()
    return w


def probe_setup_s(workload: str, seed: int) -> float:
    """Median wall time of fresh processes doing the set-up, start to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail("set-up probe failed")
    return statistics.median(times)


class Measurement:
    """Operation times, the ref clock beside them, and the checks' verdicts."""

    def __init__(self):
        from refclock import RefClock

        self.clock = RefClock()
        self.ops: list[tuple[int, float, float]] = []  # (round, midpoint, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_s = 0.0  # time spent judging outputs, not measuring

    def run_round(self, w, rnd: int):
        import checks

        paused = [0.0]

        def between():
            """Sample the reference inside an operation, off its clock."""
            t = time.perf_counter()
            self.clock.catch_up()
            paused[0] += time.perf_counter() - t

        for op in w.ops:
            self.clock.catch_up()
            self.attempted += 1
            paused[0] = 0.0
            t0 = time.perf_counter()
            try:
                result = op.run(between) if op.interleaved else op.run()
            except Exception as exc:  # an operation that raises counts as failed
                self.failed += 1
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            self.ops.append((rnd, (t0 + t1) / 2, t1 - t0 - paused[0]))
            try:
                op.check(result)
            except (checks.Mismatch, ValueError, KeyError) as exc:
                self.errors.append(f"{op.name}: {exc}")
            self.check_s += time.perf_counter() - t1
        self.clock.catch_up()
        self.clock.sample()

    def in_ref(self):
        return [(rnd, dt / self.clock.at(mid)) for rnd, mid, dt in self.ops]

    def totals(self):
        per_round: dict[int, float] = {}
        for rnd, r in self.in_ref():
            per_round[rnd] = per_round.get(rnd, 0.0) + r
        return per_round


def untraced(args, outdir: Path) -> dict:
    setup_s = probe_setup_s(args.workload, args.seed)
    w = setup(args.workload, args.seed, outdir, replay=False)
    m = Measurement()
    for _ in range(5):
        m.clock.sample()
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start - m.check_s < args.seconds:
        m.run_round(w, rnd)
        rnd += 1
    rss_kb = w.peak_rss_kb() if w.peak_rss_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = m.in_ref()
    raw_totals: dict[int, float] = {}
    for r, _mid, dt in m.ops:
        raw_totals[r] = raw_totals.get(r, 0.0) + dt
    print(
        f"rounds={rnd} ops/round={len(w.ops)} raw: total_s={statistics.median(raw_totals.values()):.4f} "
        f"op_p50_s={statistics.median(dt for *_, dt in m.ops):.4f} "
        f"ref_ms={statistics.median(dt for _, dt in m.clock.samples) * 1000:.3f} ref_samples={len(m.clock.samples)}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "total_ref": (statistics.median(m.totals().values()), "ref"),
        "op_p50_ref": (statistics.median(r for _, r in ops), "ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return result(m, metrics)


def import_ms() -> float:
    """Fresh-interpreter ``import prelie2.cli`` minus a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_run(code):
        times = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return (median_run("import prelie2.cli") - median_run("pass")) * 1000


def traced(args, outdir: Path) -> dict:
    w = setup(args.workload, args.seed, outdir, replay=args.workload == "cli-corpus")
    import tracing

    m = Measurement()
    for _ in range(5):
        m.clock.sample()
    m.run_round(w, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m.run_round(w, 1)
    finally:
        tracer.uninstall()
    totals = m.totals()
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["trace.overhead_ref"] = (totals.get(1, 0.0) - totals.get(0, 0.0), "ref")
    tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
    return result(m, metrics)


def result(m: Measurement, metrics: dict) -> dict:
    for line in m.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    failed_checks = len(m.errors) - m.failed
    return {
        "correct": failed_checks == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--recompute-counts", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    require_checkout()
    # Neither this process nor a child may inherit a setting that changes
    # the code path being measured.
    os.environ.pop("PRELIE2_WORKERS", None)

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    if args.recompute_counts or args.selftest:
        import_program()
        if args.recompute_counts:
            import workloads

            counts = workloads.recompute_counts(ROOT)
            workloads.COUNTS_FILE.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(json.dumps(counts, sort_keys=True))
        else:
            import selftest

            sys.exit(selftest.main(ROOT))
        return
    if args.workload is None:
        parser.error("--workload is required")
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, outdir, replay=False)
            print("ready", flush=True)
            return
        res = traced(args, outdir) if args.trace else untraced(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
