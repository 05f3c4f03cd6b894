"""The unit ``ref``: a fixed pure-Python exact-rational computation.

Operation times are divided by the duration of this computation, measured
between operations, so a figure in ``ref`` follows the speed the machine
has at that moment.  It never calls ``prelie2``, but it does what the
program does most: it evaluates a bilinear product stored as a flat tuple
of Fractions on coefficient vectors and compares both sides of an identity.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from itertools import product

import exact as X

SAMPLE_EVERY_S = 0.2  # one sample per this much time spent in operations
MAX_BURST = 10  # samples taken at once after a long operation
WINDOW_S = 15.0  # samples within this distance of an operation normalize it

# The 2 x 2 matrices in the basis P^-1 E, with P integer of determinant 1:
# column k of P is the k-th basis matrix in the units E11, E12, E21, E22.
_P = ((1, 1, 0, 1), (0, 1, 1, -1), (1, 0, 1, 1), (1, 1, 1, 0))


def _structure_constants() -> tuple[Fraction, ...]:
    """mul[(i*4 + j)*4 + q]: coordinate q of (basis i)(basis j)."""
    inv = X.inverse([[Fraction(x) for x in row] for row in _P])

    def mat(k):
        return [[Fraction(_P[2 * r + c][k]) for c in range(2)] for r in range(2)]

    out = []
    for i, j in product(range(4), repeat=2):
        ab = [x for row in X.matmul(mat(i), mat(j)) for x in row]
        out.extend(sum((inv[q][e] * ab[e] for e in range(4)), Fraction(0)) for q in range(4))
    return tuple(out)


_MUL = _structure_constants()


def _apply(x, y):
    """Bilinear product on coefficient vectors, iterating over supports."""
    out = [Fraction(0)] * 4
    for (i, a), (j, b) in product([(i, a) for i, a in enumerate(x) if a], [(j, b) for j, b in enumerate(y) if b]):
        w = a * b
        base = (i * 4 + j) * 4
        for q in range(4):
            c = _MUL[base + q]
            if c:
                out[q] += w * c
    return tuple(out)


def reference_computation() -> int:
    """Check associativity of the 2 x 2 matrices on every triple of basis
    vectors; returns how many triples fail, which must be 0."""
    vecs = [tuple(Fraction(int(q == k)) for q in range(4)) for k in range(4)]
    bad = 0
    for x, y, z in product(vecs, repeat=3):
        if _apply(_apply(x, y), z) != _apply(x, _apply(y, z)):
            bad += 1
    return bad


class RefClock:
    """Samples the reference computation between operations.

    A single sample varies by tens of percent on a shared machine, so an
    operation is divided by the median of every sample taken within
    ``WINDOW_S`` of it: long enough to be steady, short against the drift
    of minutes this unit is meant to cancel.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time taken, seconds)
        self.last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        total = reference_computation()
        t1 = time.perf_counter()
        if total != 0:
            raise RuntimeError(f"reference computation found {total} non-associative triples")
        self.samples.append((t1, t1 - t0))
        self.last = t1

    def catch_up(self):
        """One sample per SAMPLE_EVERY_S since the last one, at most MAX_BURST."""
        due = int((time.perf_counter() - self.last) / SAMPLE_EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def at(self, t: float) -> float:
        """The unit ``ref`` in seconds around time ``t``."""
        return statistics.median(dt for ts, dt in self.samples if abs(ts - t) <= WINDOW_S)
