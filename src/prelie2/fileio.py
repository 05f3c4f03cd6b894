"""Structure files: one JSON document per structure, rationals as strings.

Canonical serialization sorts keys and writes reduced fractions, so a
parse/serialize round trip is byte-exact.  Tensor nesting is one level per
input slot plus the output axis; an axis of dimension zero appears as the
empty list at its level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .crossed_modules import PreLieCrossedModule
from .graded_spaces import TwoTermComplex
from .lie2_core import Lie2Algebra, Lie2Rep
from .o_operators import OOperator, OOperatorContext
from .prelie_base import Cochain, PreLieAlgebra, PreLieRep
from .prelie2_core import PreLie2Algebra
from .scalar_tensor import (
    MultiMap,
    RationalFormatError,
    Space,
    format_rational,
    parse_rational,
)


class SchemaError(ValueError):
    """Malformed document: bad JSON, wrong shapes, or bad rationals."""


@dataclass(frozen=True)
class StructureFile:
    kind: str
    dims: dict[str, int]
    tensors: dict[str, Any]  # nested lists of Fraction
    label: str = ""
    provenance: str = ""

    def structure(self):
        spaces = {key: Space(dim, key) for key, dim in self.dims.items()}
        maps = {}
        for name, node in self.tensors.items():
            *inputs, output = _slot_spaces(self.kind, name, self.dims)
            maps[name] = MultiMap(tuple(inputs), output, tuple(_flatten(node)))
        return _CONSTRUCTORS[self.kind](spaces, maps)


def _flatten(node) -> list[Fraction]:
    if isinstance(node, list):
        out: list[Fraction] = []
        for item in node:
            out.extend(_flatten(item))
        return out
    return [node]


def _check_shape(node, shape: tuple[int, ...], path: str):
    if not shape:
        raise SchemaError(f"{path}: over-nested tensor")
    if not isinstance(node, list) or len(node) != shape[0]:
        got = len(node) if isinstance(node, list) else type(node).__name__
        raise SchemaError(f"{path}: expected {shape[0]} entries, got {got}")
    if len(shape) == 1:
        for i, leaf in enumerate(node):
            if not isinstance(leaf, Fraction):
                raise SchemaError(f"{path}[{i}]: expected a rational string")
        return
    for i, sub in enumerate(node):
        _check_shape(sub, shape[1:], f"{path}[{i}]")


def _parse_rationals(node, path: str):
    if isinstance(node, list):
        return [_parse_rationals(item, f"{path}[{i}]") for i, item in enumerate(node)]
    if isinstance(node, str):
        try:
            return parse_rational(node)
        except RationalFormatError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}: tensor entries must be rational strings")


def _emit_rationals(node):
    if isinstance(node, list):
        return [_emit_rationals(item) for item in node]
    return format_rational(node)


# kind -> tensor name -> (where the structure keeps it, its slots: the inputs,
# then the output).  A slot names a dims key; "g0+g1" is the direct sum.
_LIE2 = {
    "dk": ("dk", ("g1", "g0")),
    "l2_00": ("l2_00", ("g0", "g0", "g0")),
    "l2_01": ("l2_01", ("g0", "g1", "g1")),
    "l3": ("l3", ("g0", "g0", "g0", "g1")),
}

_SCHEMAS: dict[str, dict[str, tuple[str, tuple[str, ...]]]] = {
    "prelie": {"mul": ("mul", ("a", "a", "a"))},
    "prelie2": {
        "dm": ("dm", ("a1", "a0")),
        "mul00": ("mul00", ("a0", "a0", "a0")),
        "mul01": ("mul01", ("a0", "a1", "a1")),
        "mul10": ("mul10", ("a1", "a0", "a1")),
        "l3": ("l3", ("a0", "a0", "a0", "a1")),
    },
    "lie2": _LIE2,
    "crossed_module": {
        "mul0": ("a0alg.mul", ("a0", "a0", "a0")),
        "mul1": ("a1alg.mul", ("a1", "a1", "a1")),
        "dm": ("dm", ("a1", "a0")),
        "rho": ("rho", ("a0", "a1", "a1")),
        "mu": ("mu", ("a0", "a1", "a1")),
    },
    "o_operator": {
        **{name: ("context.algebra." + path, slots) for name, (path, slots) in _LIE2.items()},
        "dm": ("context.complex.dm", ("v1", "v0")),
        "rho0_0": ("context.rep.rho0_0", ("g0", "v0", "v0")),
        "rho0_1": ("context.rep.rho0_1", ("g0", "v1", "v1")),
        "rho1": ("context.rep.rho1", ("g1", "v0", "v1")),
        "rho2": ("context.rep.rho2", ("g0", "g0", "v0", "v1")),
        "t0": ("t0", ("v0", "g0")),
        "t1": ("t1", ("v1", "g1")),
        "t2": ("t2", ("v0", "v0", "g1")),
    },
    "rmatrix": {"r": ("r", ("g0+g1", "g0+g1")), "frkr": ("frkr", ("g1", "g1"))},
    "rep": {
        "mul": ("0.mul", ("a", "a", "a")),
        "rho": ("1.rho", ("a", "v", "v")),
        "mu": ("1.mu", ("a", "v", "v")),
    },
    "cochain": {"map": ("map", ("a", "v"))},  # one "a" slot per unit of dims.arity
}

KINDS = tuple(_SCHEMAS)

# The library's cochains have arity at most 4.  Checking skewness takes
# arity squared conditions even when the cochain is empty (dims.a = 0).
MAX_COCHAIN_ARITY = 8


def _dim_keys(kind: str) -> list[str]:
    slots = [slot for _, slot_keys in _SCHEMAS[kind].values() for slot in slot_keys]
    keys = sorted({k for slot in slots for k in slot.split("+")})
    return keys + ["arity"] if kind == "cochain" else keys


def _slot_keys(kind: str, name: str, dims: dict[str, int]) -> tuple[str, ...]:
    if kind == "cochain":
        return ("a",) * dims["arity"] + ("v",)
    return _SCHEMAS[kind][name][1]


def _slot_spaces(kind: str, name: str, dims: dict[str, int]) -> tuple[Space, ...]:
    return tuple(
        Space(sum(dims[k] for k in slot.split("+")), slot) for slot in _slot_keys(kind, name, dims)
    )


def parse_document(text: str) -> StructureFile:
    try:
        return _parse_document(text)
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise SchemaError("document nested too deeply") from None


def _parse_document(text: str) -> StructureFile:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or a number past the int-string digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind: {kind!r}")
    dims = doc.get("dims")
    if not isinstance(dims, dict):
        raise SchemaError("missing dims object")
    keys = _dim_keys(kind)
    for key in keys:
        if type(dims.get(key)) is not int or dims[key] < 0:  # bool is not a dimension
            raise SchemaError(f"dims.{key} must be a non-negative integer")
    extra = set(dims) - set(keys)
    if extra:
        raise SchemaError(f"unexpected dims keys: {sorted(extra)}")
    if kind == "cochain" and dims["arity"] > MAX_COCHAIN_ARITY:
        raise SchemaError(f"dims.arity must be at most {MAX_COCHAIN_ARITY}")
    raw_tensors = doc.get("tensors")
    if not isinstance(raw_tensors, dict):
        raise SchemaError("missing tensors object")
    tensors = {
        name: _parse_rationals(node, f"tensors.{name}")
        for name, node in raw_tensors.items()
    }
    label = doc.get("label", "")
    provenance = doc.get("provenance", "")
    if not isinstance(label, str) or not isinstance(provenance, str):
        raise SchemaError("label and provenance must be strings")
    sf = StructureFile(kind, dict(dims), tensors, label, provenance)
    _validate_shapes(sf)
    return sf


def _validate_shapes(sf: StructureFile):
    schema = _SCHEMAS[sf.kind]
    expected = set(schema) - ({"frkr"} if sf.kind == "rmatrix" else set())  # frkr optional
    names = set(sf.tensors)
    if not expected <= names:
        raise SchemaError(f"missing tensors: {sorted(expected - names)}")
    if not names <= set(schema):
        raise SchemaError(f"unexpected tensors: {sorted(names - set(schema))}")
    for name in sorted(names):
        shape = tuple(sp.dim for sp in _slot_spaces(sf.kind, name, sf.dims))
        _check_shape_or_empty(sf.tensors[name], shape, f"tensors.{name}")


def _check_shape_or_empty(node, shape: tuple[int, ...], path: str):
    # an axis of dimension zero truncates the nesting at that level
    for level, d in enumerate(shape):
        if d == 0:
            _check_prefix(node, shape[:level], path)
            return
    _check_shape(node, shape, path)


def _check_prefix(node, prefix: tuple[int, ...], path: str):
    if not prefix:
        if node != []:
            raise SchemaError(f"{path}: expected [] on a zero-dimensional axis")
        return
    if not isinstance(node, list) or len(node) != prefix[0]:
        raise SchemaError(f"{path}: expected {prefix[0]} entries")
    for i, sub in enumerate(node):
        _check_prefix(sub, prefix[1:], f"{path}[{i}]")


def serialize_document(sf: StructureFile) -> str:
    doc = {
        "kind": sf.kind,
        "dims": dict(sorted(sf.dims.items())),
        "label": sf.label,
        "provenance": sf.provenance,
        "tensors": {
            name: _emit_rationals(node) for name, node in sorted(sf.tensors.items())
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_file(path) -> StructureFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def write_file(path, sf: StructureFile):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(sf))


# -- structure <-> file ---------------------------------------------------------


def _lie2(s, m) -> Lie2Algebra:
    return Lie2Algebra(s["g0"], s["g1"], m["dk"], m["l2_00"], m["l2_01"], m["l3"])


def _o_operator(s, m) -> OOperator:
    complex_ = TwoTermComplex(s["v0"], s["v1"], m["dm"])
    rep = Lie2Rep(complex_, m["rho0_0"], m["rho0_1"], m["rho1"], m["rho2"])
    return OOperator(OOperatorContext(_lie2(s, m), rep), m["t0"], m["t1"], m["t2"])


def _rows(m: MultiMap) -> tuple:
    return tuple(m.image_of_basis(i) for i in range(m.inputs[0].dim))


# kind -> (spaces by dims key, MultiMaps by tensor name) -> structure
_CONSTRUCTORS = {
    "prelie": lambda s, m: PreLieAlgebra(s["a"], m["mul"]),
    "prelie2": lambda s, m: PreLie2Algebra(
        s["a0"], s["a1"], m["dm"], m["mul00"], m["mul01"], m["mul10"], m["l3"]
    ),
    "lie2": _lie2,
    "crossed_module": lambda s, m: PreLieCrossedModule(
        PreLieAlgebra(s["a0"], m["mul0"]),
        PreLieAlgebra(s["a1"], m["mul1"]),
        m["dm"],
        m["rho"],
        m["mu"],
    ),
    "o_operator": _o_operator,
    "rmatrix": lambda s, m: {
        "g0": s["g0"].dim,
        "g1": s["g1"].dim,
        "r": _rows(m["r"]),
        "frkr": _rows(m["frkr"]) if "frkr" in m else None,
    },
    "rep": lambda s, m: (PreLieAlgebra(s["a"], m["mul"]), PreLieRep(s["v"], m["rho"], m["mu"])),
    "cochain": lambda s, m: Cochain(m["map"].arity, m["map"]),
}


def _field(obj, path: str):
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


def file_from(kind: str, obj, label: str = "", provenance: str = "") -> StructureFile:
    """The file whose ``structure()`` is ``obj``: the inverse of parsing."""
    if kind == "rmatrix":  # rows of rationals; frkr may be None
        tensors = {
            name: [list(row) for row in obj[name]] for name in _SCHEMAS[kind] if obj[name] is not None
        }
        return StructureFile(kind, {"g0": obj["g0"], "g1": obj["g1"]}, tensors, label, provenance)
    dims = {"arity": obj.n, "a": 0} if kind == "cochain" else {}  # arity 0 has no "a" slot
    tensors = {}
    for name, (path, _) in _SCHEMAS[kind].items():
        m = _field(obj, path)
        dims.update(zip(_slot_keys(kind, name, dims), (sp.dim for sp in m.inputs + (m.output,))))
        tensors[name] = m.as_nested()
    return StructureFile(kind, dims, tensors, label, provenance)
