"""Exact rational scalars, based vector spaces, and dense multilinear maps.

Everything upstream (products, brackets, homotopies, actions) is stored as a
:class:`MultiMap`: a dense array of rationals indexed by one basis index per
input slot plus one output index.  All arithmetic is exact, so every identity
check in the higher modules is a bit-exact equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")  # ASCII digits only


class RationalFormatError(ValueError):
    """Malformed rational literal (bad syntax or zero denominator)."""


class DimensionMismatch(ValueError):
    """An argument does not fit the declared space of its slot."""

    def __init__(self, message: str, slot: int | None = None):
        super().__init__(message)
        self.slot = slot


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p".  The denominator must be a positive integer."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise RationalFormatError(f"not a rational literal: {text!r}")
    s = text.strip()
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or "1")
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise RationalFormatError(f"rational literal too long: {len(s)} characters") from None
    if q == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(p, q)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Space:
    """A based finite-dimensional vector space, known only by dimension."""

    dim: int
    label: str = "?"

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"negative dimension: {self.dim}")


def zero_vector(space: Space | int) -> Vector:
    n = space.dim if isinstance(space, Space) else space
    return (ZERO,) * n


def basis_vector(space: Space | int, i: int) -> Vector:
    n = space.dim if isinstance(space, Space) else space
    return tuple(ONE if j == i else ZERO for j in range(n))


def basis_vectors(space: Space | int) -> tuple[Vector, ...]:
    n = space.dim if isinstance(space, Space) else space
    return tuple(basis_vector(n, i) for i in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class MultiMap:
    """Dense multilinear map between based spaces, exact coefficients.

    ``coeffs`` is indexed by ``(i_1, ..., i_k, j)`` flattened row-major:
    the coefficient of output basis vector ``j`` in the image of the input
    basis tuple ``(i_1, ..., i_k)``.  Arity 1 is a linear map, arity 0 a
    constant vector.
    """

    inputs: tuple[Space, ...]
    output: Space
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.output.dim
        for sp in self.inputs:
            expected *= sp.dim
        if len(self.coeffs) != expected:
            raise DimensionMismatch(
                f"coefficient array has {len(self.coeffs)} entries, expected {expected}"
            )

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @cached_property
    def scaled_support(self) -> tuple[tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...], int]:
        """The nonzero entries grouped by input basis tuple, as pairs
        (basis tuple, ((j, numerator), ...)) over the lcm of the entries'
        denominators, and that lcm.  Computed once per object: the value is
        kept in the instance dict, outside the fields that equality, hash and
        repr read."""
        n = self.output.dim
        nonzero = [(p, c) for p, c in enumerate(self.coeffs) if c]
        d = lcm(*(c.denominator for _, c in nonzero))
        rows: dict[int, list[tuple[int, int]]] = {}
        for p, c in nonzero:
            rows.setdefault(p // n, []).append((p % n, c.numerator * (d // c.denominator)))
        keys = list(iter_product(*(range(sp.dim) for sp in self.inputs)))
        return tuple((keys[k], tuple(row)) for k, row in rows.items()), d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(inputs: Sequence[Space], output: Space) -> MultiMap:
        size = output.dim
        for sp in inputs:
            size *= sp.dim
        return MultiMap(tuple(inputs), output, (ZERO,) * size)

    @staticmethod
    def identity(space: Space) -> MultiMap:
        coeffs = [ZERO] * (space.dim * space.dim)
        for i in range(space.dim):
            coeffs[i * space.dim + i] = ONE
        return MultiMap((space,), space, tuple(coeffs))

    @staticmethod
    def build(
        inputs: Sequence[Space], output: Space, image: Callable[..., Iterable[Fraction]]
    ) -> MultiMap:
        """Assemble from a function giving the image vector of each basis tuple."""
        inputs = tuple(inputs)
        coeffs: list[Fraction] = []
        for idx in iter_product(*(range(sp.dim) for sp in inputs)):
            vec = tuple(image(*idx))
            if len(vec) != output.dim:
                raise DimensionMismatch(
                    f"image at {idx} has {len(vec)} entries, expected {output.dim}"
                )
            coeffs.extend(vec)
        return MultiMap(inputs, output, tuple(coeffs))

    # -- indexing ----------------------------------------------------------

    def _offset(self, idx: tuple[int, ...]) -> int:
        flat = 0
        for sp, i in zip(self.inputs, idx, strict=True):
            flat = flat * sp.dim + i
        return flat * self.output.dim

    def entry(self, *index: int) -> Fraction:
        *idx, j = index
        return self.coeffs[self._offset(tuple(idx)) + j]

    def image_of_basis(self, *idx: int) -> Vector:
        base = self._offset(idx)
        return self.coeffs[base : base + self.output.dim]

    # -- algebra -----------------------------------------------------------

    def _check_signature(self, other: MultiMap):
        if self.inputs != other.inputs or self.output != other.output:
            raise DimensionMismatch("maps have different signatures")

    def __add__(self, other: MultiMap) -> MultiMap:
        self._check_signature(other)
        return MultiMap(
            self.inputs, self.output, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: MultiMap) -> MultiMap:
        self._check_signature(other)
        return MultiMap(
            self.inputs, self.output, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> MultiMap:
        return MultiMap(self.inputs, self.output, tuple(-a for a in self.coeffs))

    def scaled(self, c: Fraction) -> MultiMap:
        return MultiMap(self.inputs, self.output, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_nested(self) -> list:
        """Nested-list view with one nesting level per input plus the output."""

        def nest(shape: tuple[int, ...], flat: Sequence[Fraction]) -> list:
            if not shape:
                return list(flat)
            step = len(flat) // shape[0] if shape[0] else 0
            return [nest(shape[1:], flat[k * step : (k + 1) * step]) for k in range(shape[0])]

        shape = tuple(sp.dim for sp in self.inputs) + (self.output.dim,)
        if 0 in shape:
            return nest(shape[:-1], [])
        return nest(shape[:-1], self.coeffs) if self.inputs else list(self.coeffs)


@dataclass(frozen=True)
class DirectSum:
    """``space`` with the bases of ``parts`` laid end to end, in order."""

    space: Space
    parts: tuple[Space, ...]


def direct_sum(label: str, *parts: Space) -> DirectSum:
    return DirectSum(Space(sum(p.dim for p in parts), label), parts)


def block_multimap(
    inputs: Sequence[DirectSum],
    output: DirectSum,
    blocks: Mapping[tuple[int, ...], tuple[int, Callable[..., Iterable[Fraction]]]],
) -> MultiMap:
    """Assemble a map between direct sums from its nonzero blocks.

    ``blocks`` maps the summand numbers of the input slots to ``(k, image)``:
    ``image`` takes the basis indices within those summands and gives a
    vector of output summand ``k``.  Absent blocks are zero.
    """
    where = [[(b, i) for b, p in enumerate(s.parts) for i in range(p.dim)] for s in inputs]
    offsets = [0]
    for p in output.parts:
        offsets.append(offsets[-1] + p.dim)

    def image(*idx):
        located = [where[k][i] for k, i in enumerate(idx)]
        vec = [ZERO] * output.space.dim
        block = blocks.get(tuple(b for b, _ in located))
        if block is not None:
            k, part_image = block
            vec[offsets[k] : offsets[k + 1]] = part_image(*(i for _, i in located))
        return vec

    return MultiMap.build([s.space for s in inputs], output.space, image)


def ml_apply(m: MultiMap, args: Sequence[Vector]) -> Vector:
    """Evaluate a multilinear map on coefficient vectors, exactly."""
    if len(args) != m.arity:
        raise DimensionMismatch(f"expected {m.arity} arguments, got {len(args)}")
    for k, (a, sp) in enumerate(zip(args, m.inputs)):
        if len(a) != sp.dim:
            raise DimensionMismatch(
                f"argument {k} has {len(a)} entries, expected {sp.dim}", slot=k
            )
    dout = m.output.dim
    out = [ZERO] * dout
    supports = [tuple(i for i, c in enumerate(a) if c != 0) for a in args]
    for idx in iter_product(*supports):
        w = ONE
        for k, i in enumerate(idx):
            w *= args[k][i]
        base = m._offset(idx)
        for j in range(dout):
            c = m.coeffs[base + j]
            if c:
                out[j] += w * c
    return tuple(out)


def ml_compose_linear(f: MultiMap, g: MultiMap) -> MultiMap:
    """Matrix product f∘g of two linear maps (apply g first), summed over
    the nonzero entries of g and f."""
    if f.arity != 1 or g.arity != 1:
        raise DimensionMismatch("composition is defined for linear maps only")
    if g.output != f.inputs[0]:
        raise DimensionMismatch(
            f"output of g ({g.output.dim}) does not match input of f ({f.inputs[0].dim})"
        )
    nb, nc = g.output.dim, f.output.dim
    fc, gc = f.coeffs, g.coeffs
    out = [ZERO] * (g.inputs[0].dim * nc)
    for a in range(g.inputs[0].dim):
        base = a * nc
        for b in range(nb):
            x = gc[a * nb + b]
            if x:
                for c in range(nc):
                    y = fc[b * nc + c]
                    if y:
                        out[base + c] += x * y
    return MultiMap(g.inputs, f.output, tuple(out))


def ml_skew_in(m: MultiMap, slot_a: int, slot_b: int) -> bool:
    """True iff swapping the two slots negates every coefficient."""
    k = m.arity
    if not (0 <= slot_a < k and 0 <= slot_b < k) or slot_a == slot_b:
        raise ValueError(f"invalid slot pair ({slot_a}, {slot_b}) for arity {k}")
    if m.inputs[slot_a].dim != m.inputs[slot_b].dim:
        raise DimensionMismatch(
            f"slots {slot_a} and {slot_b} have different dimensions", slot=slot_b
        )
    for idx in iter_product(*(range(sp.dim) for sp in m.inputs)):
        swapped = list(idx)
        swapped[slot_a], swapped[slot_b] = swapped[slot_b], swapped[slot_a]
        a = m.image_of_basis(*idx)
        b = m.image_of_basis(*tuple(swapped))
        if any(x != -y for x, y in zip(a, b)):
            return False
    return True


# -- exact linear algebra ---------------------------------------------------


def _fraction_free_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Bareiss fraction-free elimination.

    Each row is scaled to integers by the lcm of its denominators.  Below
    each pivot, rows are eliminated with the exact division
    ``(p*a - q*b) // prev`` by the previous pivot (Bareiss 1968, Math. Comp.
    22:565-578), so every entry is a minor of the scaled matrix and stays
    within the Hadamard bound.  Back substitution at the end gives ``den``
    times the RREF in integers, ``den`` being the last pivot (Cramer's
    rule), and the division by ``den`` makes the pivots 1.  Deterministic:
    pivots are chosen scanning columns left to right, rows top to bottom.
    Returns the nonzero rows of the RREF and the pivot columns.
    """
    mat: list[list[int]] = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (scale // x.denominator) for x in row])
    mat = [row for row in mat if any(row)]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot_row = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        p = top[c]
        below = []
        for row in mat[r + 1 :]:
            q = row[c]
            row = [(p * a - q * b) // prev for a, b in zip(row, top)]
            if any(row):  # a zero row stays zero and is never a pivot
                below.append(row)
        mat[r + 1 :] = below
        prev = p
        pivots.append(c)
    den = prev
    scaled: list[list[int]] = [[]] * len(pivots)  # den * RREF, filled bottom row first
    for r in reversed(range(len(pivots))):
        row = mat[r]
        acc = [den * a for a in row]
        for s in range(r + 1, len(pivots)):
            f = row[pivots[s]]
            if f:
                acc = [a - f * b for a, b in zip(acc, scaled[s])]
        p = row[pivots[r]]
        scaled[r] = [a // p for a in acc]
    rref = [[Fraction(a, den) if a else ZERO for a in row] for row in scaled]
    return rref, pivots


def kernel_with_free_columns(
    rows: list[list[Fraction]], ncols: int
) -> tuple[list[Vector], list[int]]:
    """Kernel basis of the homogeneous system, with the free column of each
    basis vector: vector ``s`` is 1 at ``free[s]`` and 0 at the other free
    columns."""
    rref, pivots = _fraction_free_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis, free


def kernel_of_rows(rows: list[list[Fraction]], ncols: int) -> list[Vector]:
    """Basis of the solution space of the homogeneous system given by rows."""
    return kernel_with_free_columns(rows, ncols)[0]


def kernel_coordinates(
    basis: Sequence[Vector], free: Sequence[int], target: Vector
) -> Vector | None:
    """Coordinates of ``target`` in a basis from :func:`kernel_with_free_columns`,
    or None when it lies outside the span.

    The coordinates are the entries of ``target`` at the free columns;
    recombining the basis with them gives ``target`` back exactly when it
    lies in the span.
    """
    coords = tuple(target[c] for c in free)
    combo = [ZERO] * len(target)
    for c, v in zip(coords, basis):
        if c:
            for t, x in enumerate(v):
                if x:
                    combo[t] += c * x
    return coords if all(x == y for x, y in zip(combo, target, strict=True)) else None


def nullspace(f: MultiMap) -> list[Vector]:
    """Exact basis of ker(f) for a linear map, ordered by free column."""
    if f.arity != 1:
        raise DimensionMismatch("nullspace is defined for linear maps only")
    n_in, n_out = f.inputs[0].dim, f.output.dim
    rows = [[f.entry(i, j) for i in range(n_in)] for j in range(n_out)]
    return kernel_of_rows(rows, n_in)


def solve_in_span(vectors: Sequence[Vector], target: Vector) -> Vector | None:
    """Coordinates of ``target`` in the span of ``vectors``, or None.

    When the vectors are dependent the solution with free coordinates set to
    zero is returned.
    """
    n = len(target)
    k = len(vectors)
    if k == 0:
        return () if vec_is_zero(target) else None
    rows = [[vectors[c][r] for c in range(k)] + [target[r]] for r in range(n)]
    rref, pivots = _fraction_free_rref(rows, k + 1)
    if k in pivots:
        return None
    coords = [ZERO] * k
    for r, pc in enumerate(pivots):
        coords[pc] = rref[r][k]
    return tuple(coords)


def invert_linear(f: MultiMap) -> MultiMap | None:
    """Exact inverse of a square linear map, or None if singular.

    One elimination of ``[M | I]``, where column ``i`` of ``M`` is the image
    of basis vector ``i``; its RREF is ``[I | M^-1]`` exactly when ``M`` is
    invertible.
    """
    if f.arity != 1 or f.inputs[0].dim != f.output.dim:
        raise DimensionMismatch("inverse needs a square linear map")
    src, dst = f.inputs[0], f.output
    n = dst.dim
    rows = [[f.entry(c, r) for c in range(n)] + list(basis_vector(n, r)) for r in range(n)]
    rref, pivots = _fraction_free_rref(rows, 2 * n)
    if pivots != list(range(n)):
        return None
    return MultiMap.build((dst,), src, lambda j: tuple(row[n + j] for row in rref))
