"""Multilinear identities, evaluated by sparse contraction.

A condition is a signed sum of terms, written as text such as
``"d(m01(u,m)) - m00(u,d(m))"``.  A name followed by an argument list
applies the tensor of that name; a bare name is a basis variable.  Each
term uses every declared variable exactly once.  The condition's defect at
a basis tuple is the sum of its terms on the basis vectors the tuple names.
It is computed by contracting the nonzero entries of each tensor, so the
cost follows the nonzero entries and not the number of basis tuples.  One
``Violation`` is reported per basis tuple with a nonzero defect.  The same
signed sum, taken at every basis tuple, is also how a construction builds a
tensor (``tensor``), and how a solver writes the linear system that a table
puts on an unknown map (``rows``).

The contraction runs over Python ints: each tensor's entries are read as
numerators over the lcm of their denominators, a value carries the product
of the lcms of the tensors it applies as its scale, and a condition's terms
are brought to one common scale before they are summed.  Only a nonzero
defect is turned back into ``Fraction``s.

Only the work that depends on the tensors is done per call.  A
``Condition`` is compiled once, when it is made: each term's sign, its
shape, its variables and their permutation to ``variables`` are kept.  A
tensor is scaled to integers once per ``MultiMap`` object
(``MultiMap.scaled_support``), so repeated checks of the same maps, as in
an operator search, reuse it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from math import lcm, prod
from typing import Mapping, Sequence

from .report import ValidationReport, Violation, make_report
from .scalar_tensor import ZERO, DimensionMismatch, MultiMap, Space

Term = tuple[int, tuple]  # (sign, (tensor name, *arguments)); an argument is a name or a tuple

_TOKEN = re.compile(r"[A-Za-z_][\w']*|\S")


def parse_terms(text: str) -> tuple[Term, ...]:
    """The signed terms of ``text``; only the first sign may be left out."""
    tokens = _TOKEN.findall(text) + [""]
    pos = 0

    def take(*expected: str) -> str:
        nonlocal pos
        tok = tokens[pos]
        if expected and tok not in expected:
            raise ValueError(f"{text!r}: expected {' or '.join(expected)}, got {tok!r}")
        pos += 1
        return tok

    def expr():
        name = take()
        if not (name[:1].isalpha() or name[:1] == "_"):
            raise ValueError(f"{text!r}: expected a name, got {name!r}")
        if tokens[pos] != "(":
            return name
        take("(")
        args = [expr()]
        while take(",", ")") == ",":
            args.append(expr())
        return (name, *args)

    terms = []
    while tokens[pos]:
        sign = "+"
        if terms or tokens[pos] in ("+", "-"):
            sign = take("+", "-")
        terms.append((-1 if sign == "-" else 1, expr()))
    return tuple(terms)


def _shape(expr, names: list[str]):
    """``expr`` with every variable replaced by None; the names are appended
    to ``names`` in order of appearance.  Terms of one shape share a value."""
    if isinstance(expr, str):
        names.append(expr)
        return None
    return (expr[0], *(_shape(arg, names) for arg in expr[1:]))


@dataclass(frozen=True)
class Condition:
    label: str
    variables: Sequence[str]  # in the order of ``where``
    identity: str  # the signed sum that must vanish
    shift: tuple[int, ...] = ()  # added to ``where`` entry by entry
    derived: bool = False
    terms: tuple[Term, ...] = field(init=False, repr=False, compare=False)
    # per term: (sign, shape, its variables in order of appearance, the
    # position in that order of each of ``variables``)
    plan: tuple[tuple[int, tuple, tuple[str, ...], tuple[int, ...]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = parse_terms(self.identity)
        plan = []
        for sign, expr in terms:
            names: list[str] = []
            shape = _shape(expr, names)
            if sorted(names) != sorted(self.variables):
                raise ValueError(f"{self.label}: every term must use each of {tuple(self.variables)} once")
            plan.append((sign, shape, tuple(names), tuple(names.index(v) for v in self.variables)))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "plan", tuple(plan))


def skew(label: str, tensor: str, variables: Sequence[str], a: int, b: int) -> Condition:
    """``tensor`` changes sign when its slots ``a`` and ``b`` are swapped."""
    swapped = list(variables)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    return Condition(label, variables, f"{tensor}({','.join(variables)}) + {tensor}({','.join(swapped)})")


def _evaluate(expr: tuple, tensors: Mapping[str, MultiMap], memo: dict):
    """(slot space of each variable, {assignment: {j: numerator}}, output
    space, scale) of an expression shape; an assignment lists the basis
    indices of the variables in order of appearance, and each value is its
    numerator over the scale."""
    if expr in memo:
        return memo[expr]
    name, *args = expr
    m = tensors[name]
    if len(args) != m.arity:
        raise DimensionMismatch(f"{name} takes {m.arity} arguments, got {len(args)}")
    rows, scale = m.scaled_support
    spaces: list[Space] = []
    by_out = []  # per slot: basis index -> [(assignment, value)]
    for slot, (arg, sp) in enumerate(zip(args, m.inputs)):
        if arg is None:
            spaces.append(sp)
            by_out.append([[((i,), 1)] for i in range(sp.dim)])
            continue
        sub_spaces, values, out, sub_scale = _evaluate(arg, tensors, memo)
        n = out.dim
        if n != sp.dim:
            raise DimensionMismatch(f"argument {slot} of {name} has {n} entries, expected {sp.dim}", slot=slot)
        spaces += sub_spaces
        scale *= sub_scale
        lists: list[list] = [[] for _ in range(n)]
        for assign, vec in values.items():
            for j, x in vec.items():
                if x:
                    lists[j].append((assign, x))
        by_out.append(lists)
    values: dict[tuple[int, ...], dict[int, int]] = {}
    for idx, row in rows:
        for combo in iter_product(*(by_out[s][i] for s, i in enumerate(idx))):
            assign, w = (), 1
            for a, x in combo:
                assign += a
                w *= x
            vec = values.setdefault(assign, {})
            for j, c in row:
                vec[j] = vec.get(j, 0) + w * c
    memo[expr] = spaces, values, m.output, scale
    return memo[expr]


def _summed(cond: Condition, tensors: Mapping[str, MultiMap], memo: dict):
    """(the space of each of ``cond.variables``, the output space,
    {basis tuple of the variables: {j: numerator}}, common scale) of the
    signed sum ``cond.identity``.  A variable takes the space of the first
    slot it fills; the slots it fills and the terms' outputs must agree in
    dimension."""
    spaces: dict[str, Space] = {}
    terms = []
    output = None
    for sign, shape, names, perm in cond.plan:
        arg_spaces, values, out, scale = _evaluate(shape, tensors, memo)
        for v, sp in zip(names, arg_spaces):
            if spaces.setdefault(v, sp).dim != sp.dim:
                raise DimensionMismatch(f"{cond.label}: {v} fills slots of dimension {spaces[v].dim} and {sp.dim}")
        if output is None:
            output = out
        elif out.dim != output.dim:
            raise DimensionMismatch(f"{cond.label}: terms have {output.dim} and {out.dim} entries")
        terms.append((sign, perm, values, scale))
    common = lcm(*(scale for *_, scale in terms))
    total: dict[tuple[int, ...], dict[int, int]] = {}
    for sign, perm, values, scale in terms:
        factor = sign * (common // scale)
        for assign, vec in values.items():
            acc = total.setdefault(tuple(assign[k] for k in perm), {})
            for j, x in vec.items():
                acc[j] = acc.get(j, 0) + factor * x
    return [spaces[v] for v in cond.variables], output, total, common


def check(tensors: Mapping[str, MultiMap], conditions: Sequence[Condition]) -> ValidationReport:
    """Evaluate every condition on every basis tuple of its variables."""
    memo: dict[tuple, tuple] = {}  # expression shape -> its value
    out: list[Violation] = []
    for cond in conditions:
        _, output, total, common = _summed(cond, tensors, memo)
        shift = cond.shift or (0,) * len(cond.variables)
        for where in sorted(total):
            vec = total[where]
            if any(vec.values()):
                where = tuple(i + s for i, s in zip(where, shift))
                defect = tuple(Fraction(vec.get(j, 0), common) for j in range(output.dim))
                out.append(Violation(cond.label, where, defect, cond.derived))
    return make_report(out)


def tensor(tensors: Mapping[str, MultiMap], variables: Sequence[str], expression: str) -> MultiMap:
    """The multilinear map whose value at each basis tuple of ``variables``,
    in that slot order, is the signed sum ``expression``.  Each input space
    is that of the first slot its variable fills, and the output space that
    of the first term."""
    inputs, output, total, common = _summed(Condition(expression, variables, expression), tensors, {})
    zero = (Fraction(0),) * output.dim
    coeffs: list[Fraction] = []
    for where in iter_product(*(range(sp.dim) for sp in inputs)):
        vec = total.get(where)
        coeffs.extend(zero if vec is None else (Fraction(vec.get(j, 0), common) for j in range(output.dim)))
    return MultiMap(tuple(inputs), output, tuple(coeffs))


def rows(tensors: Mapping[str, MultiMap], conditions: Sequence[Condition], unknown: str) -> list[list[Fraction]]:
    """The linear system that ``conditions`` put on a map X = sum_c x_c E(c, ...),
    where E is a fixed embedding tensor and the variable ``unknown`` fills its
    first slot.  Every term uses ``unknown`` once, so each is linear in the
    coordinates x_c.  There is one row per basis tuple of the other variables
    and output component, in sorted order, and one column per basis index of
    ``unknown``; rows that would be zero are left out."""
    memo: dict[tuple, tuple] = {}
    out: list[list[Fraction]] = []
    for cond in conditions:
        spaces, _, total, common = _summed(cond, tensors, memo)
        k = list(cond.variables).index(unknown)
        by_row: dict[tuple, list[Fraction]] = {}
        for where, vec in total.items():
            rest = where[:k] + where[k + 1 :]
            for j, x in vec.items():
                if x:
                    by_row.setdefault((rest, j), [ZERO] * spaces[k].dim)[where[k]] = Fraction(x, common)
        out += (by_row[key] for key in sorted(by_row))
    return out


def solution(embedding: MultiMap, coords: Sequence[Fraction]) -> MultiMap:
    """The map sum_c coords[c] E(c, ...) that a kernel vector of ``rows``
    stands for, E being the embedding the unknown was written with."""
    inputs = embedding.inputs[1:]
    block = embedding.output.dim * prod(sp.dim for sp in inputs)
    coeffs = [ZERO] * block
    for c, x in enumerate(coords):
        if x:
            for t, e in enumerate(embedding.coeffs[c * block : (c + 1) * block]):
                if e:
                    coeffs[t] += x * e
    return MultiMap(inputs, embedding.output, tuple(coeffs))
