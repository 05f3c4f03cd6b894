"""2-term complexes, chain maps, and the strict endomorphism 2-algebra.

The degree-0 endomorphisms of a complex V1 -> V0 are the chain-commuting
pairs (A0, A1); a concrete basis is computed by solving the commuting
condition exactly, so downstream tensors over End are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .identities import Condition, rows, solution
from .scalar_tensor import (
    ONE,
    ZERO,
    MultiMap,
    Space,
    Vector,
    kernel_coordinates,
    kernel_with_free_columns,
    ml_compose_linear,
)


@dataclass(frozen=True)
class TwoTermComplex:
    v0: Space
    v1: Space
    dm: MultiMap  # v1 -> v0

    def __post_init__(self):
        if self.dm.inputs != (self.v1,) or self.dm.output != self.v0:
            raise ValueError("differential must map V1 to V0")


@dataclass(frozen=True)
class ChainMap:
    f0: MultiMap  # v0 -> v0'
    f1: MultiMap  # v1 -> v1'


def zero_complex(v0: Space, v1: Space) -> TwoTermComplex:
    return TwoTermComplex(v0, v1, MultiMap.zero((v1,), v0))


def is_chain_map(f: ChainMap, src: TwoTermComplex, dst: TwoTermComplex) -> bool:
    return ml_compose_linear(f.f0, src.dm) == ml_compose_linear(dst.dm, f.f1)


@dataclass(frozen=True)
class EndAlgebra:
    """End(V) with its computed degree-0 basis and embedding data.

    ``end0_free`` holds the free column of each End0 basis pair in the
    commuting system, so coordinates need no solve.
    """

    complex: TwoTermComplex
    lie2: "object"  # Lie2Algebra; typed loosely to avoid an import cycle
    end0_pairs: tuple[tuple[MultiMap, MultiMap], ...]
    end0_free: tuple[int, ...]


def _flatten_pair(a0: MultiMap, a1: MultiMap) -> Vector:
    return tuple(a0.coeffs) + tuple(a1.coeffs)


def _unit_entries(units: Space, sp: Space, offset: int) -> MultiMap:
    """E(c, -) for c in ``units``: the unit endomorphism of ``sp`` whose flat
    coefficient c - offset is 1, or zero when c lies outside that range."""
    size = sp.dim * sp.dim
    coeffs = [ZERO] * (units.dim * size)
    for t in range(size):
        coeffs[(offset + t) * size + t] = ONE
    return MultiMap((units, sp), sp, tuple(coeffs))


# A = sum_c x_c (E0(c, -), E1(c, -)) commutes with dm
_CHAIN = (Condition("chain", "cy", "E0(c,dm(y)) - dm(E1(c,y))"),)


def end0_kernel(v: TwoTermComplex) -> tuple[MultiMap, MultiMap, list[Vector], list[int]]:
    """The unit entries E0, E1 of End(V0) ⊕ End(V1), and the kernel of the
    chain-commuting system over their flat coefficients (A0 then A1,
    row-major) with the free column of each kernel vector.  A pair in End0
    has its End0 coordinates at those free columns."""
    n0, n1 = v.v0.dim, v.v1.dim
    units = Space(n0 * n0 + n1 * n1, f"End({v.v0.label})+End({v.v1.label})")
    e0, e1 = _unit_entries(units, v.v0, 0), _unit_entries(units, v.v1, n0 * n0)
    kernel, free = kernel_with_free_columns(rows({"E0": e0, "E1": e1, "dm": v.dm}, _CHAIN, "c"), units.dim)
    return e0, e1, kernel, free


def end_algebra(v: TwoTermComplex) -> EndAlgebra:
    """The strict 2-algebra of endomorphisms of a 2-term complex.

    Degree 0 is the chain-commuting pairs with basis from an exact kernel
    computation, degree 1 is Hom(V0, V1), the differential is
    phi -> (dm∘phi, phi∘dm) and the bracket the graded commutator.
    """
    from fractions import Fraction

    from .lie2_core import Lie2Algebra

    n0, n1 = v.v0.dim, v.v1.dim
    e0, e1, kernel, free = end0_kernel(v)
    pairs = tuple((solution(e0, vec), solution(e1, vec)) for vec in kernel)
    g0 = Space(len(pairs), f"End0({v.v1.label}->{v.v0.label})")
    g1 = Space(n0 * n1, f"End1({v.v0.label}->{v.v1.label})")

    def end1_map(t: int) -> MultiMap:
        coords = tuple(
            Fraction(1) if s == t else Fraction(0) for s in range(n0 * n1)
        )
        return MultiMap.build(
            (v.v0,), v.v1, lambda i: tuple(coords[i * n1 + j] for j in range(n1))
        )

    end1_maps = [end1_map(t) for t in range(n0 * n1)]

    def coords_of_pair(a0: MultiMap, a1: MultiMap) -> Vector:
        coords = kernel_coordinates(kernel, free, _flatten_pair(a0, a1))
        if coords is None:
            raise ValueError("element does not lie in End0")
        return coords

    def dk_img(t: int) -> Vector:
        phi = end1_maps[t]
        return coords_of_pair(ml_compose_linear(v.dm, phi), ml_compose_linear(phi, v.dm))

    dk = MultiMap.build((g1,), g0, dk_img)

    def comm(f: MultiMap, g: MultiMap) -> MultiMap:
        return ml_compose_linear(f, g) - ml_compose_linear(g, f)

    def l2_00_img(s: int, t: int) -> Vector:
        (a0, a1), (b0, b1) = pairs[s], pairs[t]
        return coords_of_pair(comm(a0, b0), comm(a1, b1))

    l2_00 = MultiMap.build((g0, g0), g0, l2_00_img) if pairs else MultiMap.zero((g0, g0), g0)

    def l2_01_img(s: int, t: int) -> Vector:
        a0, a1 = pairs[s]
        phi = end1_maps[t]
        bracket = ml_compose_linear(a1, phi) - ml_compose_linear(phi, a0)
        return tuple(bracket.entry(i, j) for i in range(n0) for j in range(n1))

    l2_01 = MultiMap.build((g0, g1), g1, l2_01_img)
    l3 = MultiMap.zero((g0, g0, g0), g1)
    lie2 = Lie2Algebra(g0, g1, dk, l2_00, l2_01, l3)
    return EndAlgebra(v, lie2, pairs, tuple(free))
