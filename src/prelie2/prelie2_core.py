"""2-term pre-Lie structures: axioms, homomorphisms, skeletal classification.

Tensor slots follow the written order of the defining identities: ``mul10``
realizes m·u (degree-1 argument first), and ``l3`` is skew in its first two
slots only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .prelie_base import Cochain, PreLieAlgebra, PreLieRep, coboundary, validate_prelie, validate_prelie_rep
from .report import InvalidStructureError, ValidationReport, Violation, make_report
from .scalar_tensor import (
    MultiMap,
    Space,
    Vector,
    basis_vector,
    ml_apply,
    ml_compose_linear,
    vec_add,
    vec_is_zero,
    vec_sub,
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


class _Eval:
    """Evaluation helpers over a structure, on arbitrary coefficient vectors."""

    def __init__(self, a: PreLie2Algebra):
        self.a = a
        self.b0 = [basis_vector(a.a0, i) for i in range(a.a0.dim)]
        self.b1 = [basis_vector(a.a1, p) for p in range(a.a1.dim)]

    def d(self, m: Vector) -> Vector:
        return ml_apply(self.a.dm, [m])

    def m00(self, u, v):
        return ml_apply(self.a.mul00, [u, v])

    def m01(self, u, m):
        return ml_apply(self.a.mul01, [u, m])

    def m10(self, m, u):
        return ml_apply(self.a.mul10, [m, u])

    def l3(self, u, v, w):
        return ml_apply(self.a.l3, [u, v, w])


def _cond_skew(ev: _Eval) -> list[Violation]:
    a = ev.a
    out = []
    n0 = a.a0.dim
    for i, j, k in iter_product(range(n0), repeat=3):
        defect = vec_add(a.l3.image_of_basis(i, j, k), a.l3.image_of_basis(j, i, k))
        if not vec_is_zero(defect):
            out.append(Violation("skew-l3", (i, j, k), defect))
    return out


def _cond_a(ev: _Eval) -> list[Violation]:
    a, out = ev.a, []
    for i in range(a.a0.dim):
        for p in range(a.a1.dim):
            v, m = ev.b0[i], ev.b1[p]
            d1 = vec_sub(ev.d(ev.m01(v, m)), ev.m00(v, ev.d(m)))
            if not vec_is_zero(d1):
                out.append(Violation("a1", (i, p), d1))
            d2 = vec_sub(ev.d(ev.m10(m, v)), ev.m00(ev.d(m), v))
            if not vec_is_zero(d2):
                out.append(Violation("a2", (p, i), d2))
    for p, q in iter_product(range(a.a1.dim), repeat=2):
        m, n = ev.b1[p], ev.b1[q]
        d3 = vec_sub(ev.m01(ev.d(m), n), ev.m10(m, ev.d(n)))
        if not vec_is_zero(d3):
            out.append(Violation("a3", (p, q), d3))
    return out


def _b_combo(ev: _Eval, x, y, z, mul_out, mul_in):
    """x.(y.z) - (x.y).z - y.(x.z) + (y.x).z with the given outer/inner products."""
    return vec_add(
        vec_sub(mul_out(x, mul_in(y, z)), mul_in(ev.m00(x, y), z)),
        vec_sub(mul_in(ev.m00(y, x), z), mul_out(y, mul_in(x, z))),
    )


def _cond_b(ev: _Eval) -> list[Violation]:
    a, out = ev.a, []
    n0, n1 = a.a0.dim, a.a1.dim
    for i, j, k in iter_product(range(n0), repeat=3):
        u, v, w = ev.b0[i], ev.b0[j], ev.b0[k]
        lhs = _b_combo(ev, u, v, w, ev.m00, ev.m00)
        defect = vec_sub(lhs, ev.d(ev.l3(u, v, w)))
        if not vec_is_zero(defect):
            out.append(Violation("b1", (i, j, k), defect))
    for i, j, p in iter_product(range(n0), range(n0), range(n1)):
        u, v, m = ev.b0[i], ev.b0[j], ev.b1[p]
        lhs = _b_combo(ev, u, v, m, ev.m01, ev.m01)
        defect = vec_sub(lhs, ev.l3(u, v, ev.d(m)))
        if not vec_is_zero(defect):
            out.append(Violation("b2", (i, j, p), defect))
    for p, j, k in iter_product(range(n1), range(n0), range(n0)):
        m, v, w = ev.b1[p], ev.b0[j], ev.b0[k]
        # m.(v.w) - (m.v).w - v.(m.w) + (v.m).w = l3(dm m, v, w)
        lhs = vec_add(
            vec_sub(ev.m10(m, ev.m00(v, w)), ev.m10(ev.m10(m, v), w)),
            vec_sub(ev.m10(ev.m01(v, m), w), ev.m01(v, ev.m10(m, w))),
        )
        defect = vec_sub(lhs, ev.l3(ev.d(m), v, w))
        if not vec_is_zero(defect):
            out.append(Violation("b3", (p, j, k), defect))
    return out


def _cond_c(ev: _Eval) -> list[Violation]:
    a, out = ev.a, []
    n0 = a.a0.dim
    for i0, i1, i2, i3 in iter_product(range(n0), repeat=4):
        v0, v1, v2, v3 = (ev.b0[t] for t in (i0, i1, i2, i3))
        total = ev.m01(v0, ev.l3(v1, v2, v3))
        total = vec_sub(total, ev.m01(v1, ev.l3(v0, v2, v3)))
        total = vec_add(total, ev.m01(v2, ev.l3(v0, v1, v3)))
        total = vec_add(total, ev.m10(ev.l3(v1, v2, v0), v3))
        total = vec_sub(total, ev.m10(ev.l3(v0, v2, v1), v3))
        total = vec_add(total, ev.m10(ev.l3(v0, v1, v2), v3))
        total = vec_sub(total, ev.l3(v1, v2, ev.m00(v0, v3)))
        total = vec_add(total, ev.l3(v0, v2, ev.m00(v1, v3)))
        total = vec_sub(total, ev.l3(v0, v1, ev.m00(v2, v3)))
        total = vec_sub(total, ev.l3(vec_sub(ev.m00(v0, v1), ev.m00(v1, v0)), v2, v3))
        total = vec_add(total, ev.l3(vec_sub(ev.m00(v0, v2), ev.m00(v2, v0)), v1, v3))
        total = vec_sub(total, ev.l3(vec_sub(ev.m00(v1, v2), ev.m00(v2, v1)), v0, v3))
        if not vec_is_zero(total):
            out.append(Violation("c", (i0, i1, i2, i3), total))
    return out


def validate(a: PreLie2Algebra) -> ValidationReport:
    """Evaluate the seven condition families on every basis tuple."""
    ev = _Eval(a)
    families = (_cond_skew, _cond_a, _cond_b, _cond_c)
    return make_report([v for family in families for v in family(ev)])


def validate_hom(f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra) -> ValidationReport:
    """Homomorphism conditions (i)-(iv); the final l3' argument is F0(w)."""
    eva, evb = _Eval(a), _Eval(b)

    def f0(u):
        return ml_apply(f.f0, [u])

    def f1(m):
        return ml_apply(f.f1, [m])

    def f2(u, v):
        return ml_apply(f.f2, [u, v])

    out: list[Violation] = []
    n0, n1 = a.a0.dim, a.a1.dim
    for p in range(n1):
        m = eva.b1[p]
        defect = vec_sub(f0(eva.d(m)), evb.d(f1(m)))
        if not vec_is_zero(defect):
            out.append(Violation("i", (p,), defect))
    for i, j in iter_product(range(n0), repeat=2):
        u, v = eva.b0[i], eva.b0[j]
        defect = vec_sub(
            vec_sub(f0(eva.m00(u, v)), evb.m00(f0(u), f0(v))), evb.d(f2(u, v))
        )
        if not vec_is_zero(defect):
            out.append(Violation("ii", (i, j), defect))
    for i, p in iter_product(range(n0), range(n1)):
        u, m = eva.b0[i], eva.b1[p]
        d1 = vec_sub(
            vec_sub(f1(eva.m01(u, m)), evb.m01(f0(u), f1(m))), f2(u, eva.d(m))
        )
        if not vec_is_zero(d1):
            out.append(Violation("iii-a", (i, p), d1))
        d2 = vec_sub(
            vec_sub(f1(eva.m10(m, u)), evb.m10(f1(m), f0(u))), f2(eva.d(m), u)
        )
        if not vec_is_zero(d2):
            out.append(Violation("iii-b", (p, i), d2))
    for i, j, k in iter_product(range(n0), repeat=3):
        u, v, w = eva.b0[i], eva.b0[j], eva.b0[k]
        total = evb.m01(f0(u), f2(v, w))
        total = vec_sub(total, evb.m01(f0(v), f2(u, w)))
        total = vec_add(total, evb.m10(f2(v, u), f0(w)))
        total = vec_sub(total, evb.m10(f2(u, v), f0(w)))
        total = vec_sub(total, f2(v, eva.m00(u, w)))
        total = vec_add(total, f2(u, eva.m00(v, w)))
        total = vec_sub(total, f2(eva.m00(u, v), w))
        total = vec_add(total, f2(eva.m00(v, u), w))
        total = vec_add(total, evb.l3(f0(u), f0(v), f0(w)))
        total = vec_sub(total, f1(eva.l3(u, v, w)))
        if not vec_is_zero(total):
            out.append(Violation("iv", (i, j, k), total))
    return make_report(out)


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
        raise InvalidStructureError(
            "classify_skeletal needs dM = 0",
            make_report([Violation("skeletal", (), (next(c for c in a.dm.coeffs if c),))]),
        )
    rep = validate(a)
    if not rep.ok:
        raise InvalidStructureError("classify_skeletal: structure invalid", rep)
    algebra = PreLieAlgebra(a.a0, a.mul00)
    mu = MultiMap.build((a.a0, a.a1), a.a1, lambda i, p: a.mul10.image_of_basis(p, i))
    return algebra, PreLieRep(a.a1, a.mul01, mu), Cochain(3, a.l3)
