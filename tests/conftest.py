from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240531)


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


# -- generic transport, direct sums and bumps of structures --------------------
#
# These act on any structure dataclass field by field, knowing only that a
# MultiMap's slots are Spaces: a change of basis is chosen per Space, and a
# direct sum pairs the Spaces of two structures slot by slot.  They share no
# formula with any validator.


def unimodular(rng: random.Random, n: int, steps: int = 6) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant ±1 and its integer inverse,
    built from row additions with multipliers in {-2, -1, 1, 2} and swaps."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(steps if n > 1 else 0):
        r, s = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            p[r], p[s] = p[s], p[r]
            for row in q:
                row[r], row[s] = row[s], row[r]
            continue
        c = rng.choice((-2, -1, 1, 2))
        p[r] = [x + c * y for x, y in zip(p[r], p[s])]  # E p with E = I + c e_rs
        for row in q:  # q E^-1 with E^-1 = I - c e_rs
            row[s] -= c * row[r]
    return p, q


def _mode_product(coeffs: list, shape: list[int], axis: int, mat) -> list:
    """new[.., i, ..] = sum_a mat[i][a] * old[.., a, ..] along one axis."""
    n = shape[axis]
    inner = 1
    for d in shape[axis + 1 :]:
        inner *= d
    out = [Fraction(0)] * len(coeffs)
    for base in range(0, len(coeffs), n * inner):
        for i in range(n):
            for a in range(n):
                c = mat[i][a]
                if c:
                    for t in range(inner):
                        out[base + i * inner + t] += c * coeffs[base + a * inner + t]
    return out


def spaces_of(obj) -> list:
    """Every Space a structure's tensors use, in field order."""
    found: list = []
    for m in tensors_of(obj).values():
        for sp in (*m.inputs, m.output):
            if sp not in found:
                found.append(sp)
    return found


def tensors_of(obj, prefix: str = "") -> dict:
    """Dotted field path -> MultiMap, through nested dataclasses."""
    from dataclasses import fields, is_dataclass

    from prelie2.scalar_tensor import MultiMap

    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, MultiMap):
            out[prefix + f.name] = value
        elif is_dataclass(value):
            out.update(tensors_of(value, prefix + f.name + "."))
    return out


def map_tensors(obj, fn, prefix: str = ""):
    """A copy of ``obj`` with each MultiMap m at dotted path p replaced by fn(p, m)."""
    from dataclasses import fields, is_dataclass, replace

    from prelie2.scalar_tensor import MultiMap

    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, MultiMap):
            changes[f.name] = fn(prefix + f.name, value)
        elif is_dataclass(value):
            changes[f.name] = map_tensors(value, fn, prefix + f.name + ".")
    return replace(obj, **changes)


def transport(obj, mats: dict):
    """Change of basis: ``mats[space] = (p, q)`` with q = p^-1; the columns of
    p are the new basis vectors in old coordinates."""

    def move(_, m):
        from prelie2.scalar_tensor import MultiMap

        shape = [sp.dim for sp in m.inputs] + [m.output.dim]
        coeffs = list(m.coeffs)
        for axis, sp in enumerate(m.inputs):
            p = mats[sp][0]
            coeffs = _mode_product(coeffs, shape, axis, [list(col) for col in zip(*p)])
        coeffs = _mode_product(coeffs, shape, len(m.inputs), mats[m.output][1])
        return MultiMap(m.inputs, m.output, tuple(coeffs))

    return map_tensors(obj, move)


def random_transport(obj, rng: random.Random):
    return transport(obj, {sp: unimodular(rng, sp.dim) for sp in spaces_of(obj)})


def block_sum(a, b):
    """Direct sum of two structures of one type: every tensor block-diagonal."""
    from dataclasses import fields, is_dataclass, replace

    from prelie2.scalar_tensor import MultiMap, Space

    def summed(sa, sb):
        return Space(sa.dim + sb.dim, f"{sa.label}+{sb.label}")

    def go(x, y):
        changes = {}
        for f in fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if isinstance(u, MultiMap):
                changes[f.name] = tensor_sum(u, v)
            elif isinstance(u, Space):
                changes[f.name] = summed(u, v)
            elif is_dataclass(u):
                changes[f.name] = go(u, v)
            elif u != v:
                raise ValueError(f"field {f.name} differs: {u} != {v}")
        return replace(x, **changes)

    def tensor_sum(u, v):
        slots = [*zip(u.inputs, v.inputs), (u.output, v.output)]
        spaces = [summed(sa, sb) for sa, sb in slots]
        coeffs = [Fraction(0)] * len(MultiMap.zero(spaces[:-1], spaces[-1]).coeffs)
        for part, shift in ((u, [0] * len(slots)), (v, [sa.dim for sa, _ in slots])):
            dims = [sp.dim for sp in (*part.inputs, part.output)]
            for flat, c in enumerate(part.coeffs):
                if c:
                    idx, rest = [], flat
                    for d in reversed(dims):
                        idx.append(rest % d)
                        rest //= d
                    pos = 0
                    for k, i in enumerate(reversed(idx)):
                        pos = pos * spaces[k].dim + i + shift[k]
                    coeffs[pos] = c
        return MultiMap(tuple(spaces[:-1]), spaces[-1], tuple(coeffs))

    return go(a, b)


def bumped(obj, path: str, rng: random.Random, delta: Fraction = Fraction(1)):
    """A copy of ``obj`` with one seeded entry of the tensor at ``path`` moved by delta."""
    from prelie2.scalar_tensor import MultiMap

    def bump(p, m):
        if p != path or not m.coeffs:
            return m
        k = rng.randrange(len(m.coeffs))
        coeffs = list(m.coeffs)
        coeffs[k] += delta
        return MultiMap(m.inputs, m.output, tuple(coeffs))

    return map_tensors(obj, bump)
