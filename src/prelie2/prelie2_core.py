"""2-term pre-Lie structures: axioms, homomorphisms, skeletal classification.

Tensor slots follow the written order of the defining identities: ``mul10``
realizes m·u (degree-1 argument first), and ``l3`` is skew in its first two
slots only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .identities import Condition, check, skew
from .prelie_base import Cochain, PreLieAlgebra, PreLieRep, coboundary, validate_prelie, validate_prelie_rep
from .report import InvalidStructureError, ValidationReport, Violation, make_report, nonzero_entries
from .scalar_tensor import (
    MultiMap,
    Space,
    ml_apply,
    ml_compose_linear,
    vec_add,
    vec_is_zero,
)


@dataclass(frozen=True)
class PreLie2Algebra:
    a0: Space
    a1: Space
    dm: MultiMap  # a1 -> a0
    mul00: MultiMap  # a0 x a0 -> a0
    mul01: MultiMap  # a0 x a1 -> a1
    mul10: MultiMap  # a1 x a0 -> a1
    l3: MultiMap  # a0 x a0 x a0 -> a1


@dataclass(frozen=True)
class PreLie2Hom:
    f0: MultiMap  # a0 -> a0'
    f1: MultiMap  # a1 -> a1'
    f2: MultiMap  # a0 x a0 -> a1'


def zero_prelie2(a0: Space, a1: Space) -> PreLie2Algebra:
    return PreLie2Algebra(
        a0,
        a1,
        MultiMap.zero((a1,), a0),
        MultiMap.zero((a0, a0), a0),
        MultiMap.zero((a0, a1), a1),
        MultiMap.zero((a1, a0), a1),
        MultiMap.zero((a0, a0, a0), a1),
    )


def is_skeletal(a: PreLie2Algebra) -> bool:
    return a.dm.is_zero()


def is_strict(a: PreLie2Algebra) -> bool:
    return a.l3.is_zero()


def _named(a: PreLie2Algebra, prime: str = "") -> dict[str, MultiMap]:
    tensors = {"d": a.dm, "m00": a.mul00, "m01": a.mul01, "m10": a.mul10, "l3": a.l3}
    return {name + prime: m for name, m in tensors.items()}


_AXIOMS = (
    skew("skew-l3", "l3", "uvw", 0, 1),
    Condition("a1", "um", "d(m01(u,m)) - m00(u,d(m))"),
    Condition("a2", "mu", "d(m10(m,u)) - m00(d(m),u)"),
    Condition("a3", "mn", "m01(d(m),n) - m10(m,d(n))"),
    # x.(y.z) - (x.y).z - y.(x.z) + (y.x).z = dM l3(x, y, z), then with z in degree 1
    Condition("b1", "uvw", "m00(u,m00(v,w)) - m00(m00(u,v),w) - m00(v,m00(u,w)) + m00(m00(v,u),w) - d(l3(u,v,w))"),
    Condition("b2", "uvm", "m01(u,m01(v,m)) - m01(m00(u,v),m) - m01(v,m01(u,m)) + m01(m00(v,u),m) - l3(u,v,d(m))"),
    # m.(v.w) - (m.v).w - v.(m.w) + (v.m).w = l3(dm m, v, w)
    Condition("b3", "mvw", "m10(m,m00(v,w)) - m10(m10(m,v),w) - m01(v,m10(m,w)) + m10(m01(v,m),w) - l3(d(m),v,w)"),
    Condition(
        "c",
        "wxyz",
        "m01(w,l3(x,y,z)) - m01(x,l3(w,y,z)) + m01(y,l3(w,x,z))"
        " + m10(l3(x,y,w),z) - m10(l3(w,y,x),z) + m10(l3(w,x,y),z)"
        " - l3(x,y,m00(w,z)) + l3(w,y,m00(x,z)) - l3(w,x,m00(y,z))"
        " - l3(m00(w,x),y,z) + l3(m00(x,w),y,z) + l3(m00(w,y),x,z)"
        " - l3(m00(y,w),x,z) - l3(m00(x,y),w,z) + l3(m00(y,x),w,z)",
    ),
)


def validate(a: PreLie2Algebra) -> ValidationReport:
    """Evaluate the seven condition families on every basis tuple."""
    return check(_named(a), _AXIOMS)


# Tensors of the target structure carry a prime.
_HOM_CONDITIONS = (
    Condition("i", "m", "f0(d(m)) - d'(f1(m))"),
    Condition("ii", "uv", "f0(m00(u,v)) - m00'(f0(u),f0(v)) - d'(f2(u,v))"),
    Condition("iii-a", "um", "f1(m01(u,m)) - m01'(f0(u),f1(m)) - f2(u,d(m))"),
    Condition("iii-b", "mu", "f1(m10(m,u)) - m10'(f1(m),f0(u)) - f2(d(m),u)"),
    Condition(
        "iv",
        "uvw",
        "m01'(f0(u),f2(v,w)) - m01'(f0(v),f2(u,w)) + m10'(f2(v,u),f0(w)) - m10'(f2(u,v),f0(w))"
        " - f2(v,m00(u,w)) + f2(u,m00(v,w)) - f2(m00(u,v),w) + f2(m00(v,u),w)"
        " + l3'(f0(u),f0(v),f0(w)) - f1(l3(u,v,w))",
    ),
)


def validate_hom(f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra) -> ValidationReport:
    """Homomorphism conditions (i)-(iv); the final l3' argument is F0(w)."""
    return check({**_named(a), **_named(b, "'"), "f0": f.f0, "f1": f.f1, "f2": f.f2}, _HOM_CONDITIONS)


def identity_hom(a: PreLie2Algebra) -> PreLie2Hom:
    return PreLie2Hom(
        MultiMap.identity(a.a0), MultiMap.identity(a.a1), MultiMap.zero((a.a0, a.a0), a.a1)
    )


def compose_hom(g: PreLie2Hom, f: PreLie2Hom) -> PreLie2Hom:
    """(GF)_2(u, v) = G_2(F_0 u, F_0 v) + G_1(F_2(u, v))."""
    f0 = ml_compose_linear(g.f0, f.f0)
    f1 = ml_compose_linear(g.f1, f.f1)
    src = f.f2.inputs

    def f2(i, j):
        u = f.f0.image_of_basis(i)
        v = f.f0.image_of_basis(j)
        return vec_add(
            ml_apply(g.f2, [u, v]), ml_apply(g.f1, [f.f2.image_of_basis(i, j)])
        )

    return PreLie2Hom(f0, f1, MultiMap.build(src, g.f2.output, f2))


def build_skeletal(a: PreLieAlgebra, rep: PreLieRep, l3: Cochain) -> PreLie2Algebra:
    """Assemble the skeletal structure attached to a (algebra, rep, 3-cocycle)
    triple; the cocycle condition is enforced before assembly."""
    rep_a = validate_prelie(a)
    if not rep_a.ok:
        raise InvalidStructureError("build_skeletal: algebra invalid", rep_a)
    rep_r = validate_prelie_rep(a, rep)
    if not rep_r.ok:
        raise InvalidStructureError("build_skeletal: representation invalid", rep_r)
    if l3.n != 3 or l3.map.output != rep.space:
        raise InvalidStructureError("build_skeletal: cochain must be 3-ary into V", make_report([]))
    d = coboundary(l3, a, rep)
    if not d.map.is_zero():
        bad = next(
            idx
            for idx in iter_product(*(range(sp.dim) for sp in d.map.inputs))
            if not vec_is_zero(d.map.image_of_basis(*idx))
        )
        raise InvalidStructureError(
            "build_skeletal: cochain is not closed",
            make_report([Violation("cocycle", bad, d.map.image_of_basis(*bad))]),
        )
    a0, a1 = a.space, rep.space
    mul10 = MultiMap.build((a1, a0), a1, lambda p, i: rep.mu.image_of_basis(i, p))
    structure = PreLie2Algebra(
        a0, a1, MultiMap.zero((a1,), a0), a.mul, rep.rho, mul10, l3.map
    )
    rep_s = validate(structure)
    if not rep_s.ok:
        raise InvalidStructureError("build_skeletal: assembled structure invalid", rep_s)
    return structure


def classify_skeletal(a: PreLie2Algebra) -> tuple[PreLieAlgebra, PreLieRep, Cochain]:
    """Inverse of build_skeletal: extract the (algebra, rep, cocycle) triple."""
    if not is_skeletal(a):
        raise InvalidStructureError("classify_skeletal needs dM = 0", nonzero_entries("skeletal", a.dm))
    rep = validate(a)
    if not rep.ok:
        raise InvalidStructureError("classify_skeletal: structure invalid", rep)
    algebra = PreLieAlgebra(a.a0, a.mul00)
    mu = MultiMap.build((a.a0, a.a1), a.a1, lambda i, p: a.mul10.image_of_basis(p, i))
    return algebra, PreLieRep(a.a1, a.mul01, mu), Cochain(3, a.l3)
