"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``prelie2`` module,
in every module namespace that holds them, with wrappers that record a span
(name, start, end, parent) per call; ``ml_apply`` and ``MultiMap.build``
are only counted, since they run millions of times.  Spans stay in memory
and are written out when the run ends.  Only the traced run imports this
module.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import prelie2
from prelie2 import (
    categorical,
    cli,
    crossed_modules,
    fileio,
    graded_spaces,
    lie2_core,
    o_operators,
    prelie2_core,
    prelie_base,
    scalar_tensor,
    ybe,
)

SPANNED_MODULES = (cli, fileio, prelie2_core, lie2_core, o_operators, prelie_base, crossed_modules, categorical, graded_spaces, ybe)
VALIDATOR_MODULES = ("prelie2_core", "lie2_core", "o_operators", "prelie_base", "crossed_modules", "categorical")
LINALG = ("kernel_of_rows", "nullspace", "solve_in_span", "invert_linear")
SEARCH = "o_operators.search_o_operators"

# Self time of these spans, summed, gives each per-layer time metric.  A
# span's self time excludes the spans of other layers nested in it; the
# spans of functions outside every layer count towards their caller.
TIME_METRICS = {
    "fileio.parse_ms": ("fileio.read_file", "fileio.parse_document"),
    "fileio.serialize_ms": ("fileio.write_file", "fileio.serialize_document"),
    "validators.prelie2_s": ("prelie2_core.validate",),
    "validators.lie2_s": ("lie2_core.validate",),
    "validators.rep_s": (
        "lie2_core.validate_rep", "lie2_core.rep_as_end_hom", "lie2_core.validate_hom", "o_operators.validate_context",
    ),
    "validators.o_s": ("o_operators.validate_o",),
    "linalg.kernel_s": ("scalar_tensor.kernel_of_rows", "scalar_tensor.nullspace"),
    "linalg.solve_s": ("scalar_tensor.solve_in_span",),
    "linalg.invert_s": ("scalar_tensor.invert_linear",),
    "constructions.end_algebra_s": ("graded_spaces.end_algebra",),
    "constructions.invariant_forms_s": ("prelie_base.invariant_forms",),
    "constructions.bridge_s": ("ybe.bridge_dm_solutions",),
    "constructions.from_prelie2_s": ("lie2_core.from_prelie2",),
}
UNITS = {"ms": 1000.0, "s": 1.0}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent id, start, end)
        self.stack: list[list] = []  # [id, name, start, time in nested layer spans]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts = {"ml_apply": 0, "build": 0, "candidates": 0, "searches": 0}
        self.restore: list[tuple] = []
        self.next_id = 0
        self.layer = {n: metric for metric, names in TIME_METRICS.items() for n in names}

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str):
        self.calls[name] += 1
        if name == SEARCH:
            self.counts["searches"] += 1
        elif name == "o_operators.validate_o" and any(f[1] == SEARCH for f in self.stack):
            self.counts["candidates"] += 1
        self.next_id += 1
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        sid, name, start, nested = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if name in self.layer:
            self.self_time[name] += dur - nested
            nested = dur
        if parent is not None:
            parent[3] += nested
        self.spans.append((sid, name, parent[0] if parent else None, start, end))

    def _spanned(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in every prelie2 module that holds it."""
        for module in (prelie2, scalar_tensor, *SPANNED_MODULES):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        targets = []
        for module in SPANNED_MODULES:
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    targets.append((f"{_short(module)}.{attr}", fn))
        targets += [(f"scalar_tensor.{attr}", getattr(scalar_tensor, attr)) for attr in LINALG]
        for name, fn in targets:
            module, func = name.split(".")
            if name not in self.layer and module in VALIDATOR_MODULES and func.startswith("validate"):
                self.layer[name] = "validators.other_s"
            self._replace_everywhere(fn, self._spanned(name, fn))
        self._replace_everywhere(scalar_tensor.ml_apply, self._counted("ml_apply", scalar_tensor.ml_apply))
        build = vars(scalar_tensor.MultiMap)["build"]
        self.restore.append((scalar_tensor.MultiMap, "build", build))
        scalar_tensor.MultiMap.build = staticmethod(self._counted("build", build.__func__))

    def uninstall(self):
        for obj, attr, value in reversed(self.restore):
            setattr(obj, attr, value)
        self.restore.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric in (*TIME_METRICS, "validators.other_s"):
            unit = metric.rsplit("_", 1)[-1]
            names = [n for n, m in self.layer.items() if m == metric]
            out[metric] = (sum(self.self_time[n] for n in names) * UNITS[unit], unit)
        validators = [n for n in self.layer if n.split(".")[1].startswith("validate")]
        out["validators.calls"] = (sum(self.calls[n] for n in validators), "count")
        out["tensor.ml_apply_calls"] = (self.counts["ml_apply"], "count")
        out["tensor.build_calls"] = (self.counts["build"], "count")
        out["linalg.solve_calls"] = (self.calls["scalar_tensor.solve_in_span"], "count")
        searches = self.counts["searches"]
        out["search.candidates"] = (self.counts["candidates"] / searches if searches else 0, "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "start": start, "end": end}) + "\n")
