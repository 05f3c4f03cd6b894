"""2-term pre-Lie structures: axioms, homomorphisms, skeletal classification.

Tensor slots follow the written order of the defining identities: ``mul10``
realizes m·u (degree-1 argument first), and ``l3`` is skew in its first two
slots only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .identities import Condition, check, skew, tensor
from .prelie_base import Cochain, PreLieAlgebra, PreLieRep, coboundary, validate_prelie, validate_prelie_rep
from .report import InvalidStructureError, ValidationReport, make_report, nonzero_entries
from .scalar_tensor import MultiMap, Space, ml_compose_linear


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
    f2 = tensor({"g1": g.f1, "g2": g.f2, "f0": f.f0, "f2": f.f2}, "uv", "g2(f0(u),f0(v)) + g1(f2(u,v))")
    return PreLie2Hom(ml_compose_linear(g.f0, f.f0), ml_compose_linear(g.f1, f.f1), f2)


_COCYCLE = (Condition("cocycle", "uvwx", "d(u,v,w,x)"),)


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
    closed = check({"d": coboundary(l3, a, rep).map}, _COCYCLE)
    if not closed.ok:
        raise InvalidStructureError("build_skeletal: cochain is not closed", closed)
    a0, a1 = a.space, rep.space
    mul10 = tensor({"mu": rep.mu}, "mu", "mu(u,m)")
    structure = PreLie2Algebra(a0, a1, MultiMap.zero((a1,), a0), a.mul, rep.rho, mul10, l3.map)
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
    mu = tensor({"m10": a.mul10}, "um", "m10(m,u)")
    return algebra, PreLieRep(a.a1, a.mul01, mu), Cochain(3, a.l3)
