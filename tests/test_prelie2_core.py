from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_fraction
from prelie2 import prelie2_core
from prelie2.fixtures import fix_a, fix_b, fix_c, fix_omega, prelie2_fixtures
from prelie2.prelie_base import Cochain, standard_reps
from prelie2.prelie2_core import (
    PreLie2Algebra,
    PreLie2Hom,
    build_skeletal,
    classify_skeletal,
    compose_hom,
    identity_hom,
    is_skeletal,
    is_strict,
    validate,
    validate_hom,
    zero_prelie2,
)
from prelie2.report import InvalidStructureError
from prelie2.scalar_tensor import MultiMap, Space, basis_vector, ml_apply, vec_add, vec_sub


def condition_oracle(a: PreLie2Algebra) -> bool:
    """All Def-style families expanded independently on arbitrary vectors."""
    b0 = [basis_vector(a.a0, i) for i in range(a.a0.dim)]
    b1 = [basis_vector(a.a1, p) for p in range(a.a1.dim)]
    d = lambda m: ml_apply(a.dm, [m])
    p00 = lambda x, y: ml_apply(a.mul00, [x, y])
    p01 = lambda x, m: ml_apply(a.mul01, [x, m])
    p10 = lambda m, x: ml_apply(a.mul10, [m, x])
    l3 = lambda x, y, z: ml_apply(a.l3, [x, y, z])
    zero0 = (Fraction(0),) * a.a0.dim
    zero1 = (Fraction(0),) * a.a1.dim
    for v, m in product(b0, b1):
        if d(p01(v, m)) != p00(v, d(m)):
            return False
        if d(p10(m, v)) != p00(d(m), v):
            return False
    for m, n in product(b1, b1):
        if p01(d(m), n) != p10(m, d(n)):
            return False
    for x, y, z in product(b0, repeat=3):
        lhs = vec_sub(
            vec_sub(p00(x, p00(y, z)), p00(p00(x, y), z)),
            vec_sub(p00(y, p00(x, z)), p00(p00(y, x), z)),
        )
        if lhs != d(l3(x, y, z)):
            return False
    for x, y, m in product(b0, b0, b1):
        lhs = vec_sub(
            vec_sub(p01(x, p01(y, m)), p01(p00(x, y), m)),
            vec_sub(p01(y, p01(x, m)), p01(p00(y, x), m)),
        )
        if lhs != l3(x, y, d(m)):
            return False
    for m, y, z in product(b1, b0, b0):
        lhs = vec_sub(
            vec_sub(p10(m, p00(y, z)), p10(p10(m, y), z)),
            vec_sub(p01(y, p10(m, z)), p10(p01(y, m), z)),
        )
        if lhs != l3(d(m), y, z):
            return False
    for v0, v1, v2, v3 in product(b0, repeat=4):
        total = zero1
        for vec in (
            p01(v0, l3(v1, v2, v3)),
            tuple(-x for x in p01(v1, l3(v0, v2, v3))),
            p01(v2, l3(v0, v1, v3)),
            p10(l3(v1, v2, v0), v3),
            tuple(-x for x in p10(l3(v0, v2, v1), v3)),
            p10(l3(v0, v1, v2), v3),
            tuple(-x for x in l3(v1, v2, p00(v0, v3))),
            l3(v0, v2, p00(v1, v3)),
            tuple(-x for x in l3(v0, v1, p00(v2, v3))),
            tuple(-x for x in l3(vec_sub(p00(v0, v1), p00(v1, v0)), v2, v3)),
            l3(vec_sub(p00(v0, v2), p00(v2, v0)), v1, v3),
            tuple(-x for x in l3(vec_sub(p00(v1, v2), p00(v2, v1)), v0, v3)),
        ):
            total = vec_add(total, vec)
        if total != zero1:
            return False
    return True


def test_zero_structure_valid():
    assert validate(zero_prelie2(Space(2, "a0"), Space(2, "a1"))).ok


def test_fixtures_valid_against_oracle():
    for name, fx in prelie2_fixtures().items():
        assert validate(fx).ok, name
        assert condition_oracle(fx), name


def test_doubled_differential_of_strict_ideal_structure_stays_valid():
    # scaling the differential of a strict structure is still a structure:
    # the a-family is linear in it and the b-family right sides vanish
    b = fix_b()
    doubled = PreLie2Algebra(
        b.a0, b.a1, b.dm.scaled(Fraction(2)), b.mul00, b.mul01, b.mul10, b.l3
    )
    assert validate(doubled).ok
    assert condition_oracle(doubled)


def test_perturbed_action_detected_with_witness():
    b = fix_b()
    bumped = list(b.mul01.coeffs)
    bumped[0] += 1
    mutant = PreLie2Algebra(
        b.a0, b.a1, b.dm, b.mul00, MultiMap(b.mul01.inputs, b.mul01.output, tuple(bumped)), b.mul10, b.l3
    )
    report = validate(mutant)
    assert not report.ok
    assert not condition_oracle(mutant)
    assert report.violations[0].condition == "a1"
    assert report.violations[0].where == (0, 0)


def test_validation_report_ordering_deterministic():
    b = fix_b()
    bumped = list(b.l3.coeffs)
    bumped[0] += 1  # breaks l3 skewness and condition families at once
    mutant = PreLie2Algebra(
        b.a0, b.a1, b.dm, b.mul00, b.mul01, b.mul10, MultiMap(b.l3.inputs, b.l3.output, tuple(bumped))
    )
    ordered = [(v.condition, v.where) for v in validate(mutant).violations]
    assert ordered == sorted(ordered)


def test_is_skeletal_is_strict():
    z = zero_prelie2(Space(1, "a0"), Space(1, "a1"))
    assert is_skeletal(z) and is_strict(z)
    b = fix_b()
    assert is_strict(b) and not is_skeletal(b)
    om = fix_omega()
    assert is_skeletal(om) and not is_strict(om)


# -- homomorphisms -------------------------------------------------------------


def test_identity_hom_valid():
    for fx in prelie2_fixtures().values():
        assert validate_hom(identity_hom(fx), fx, fx).ok


def test_zero_hom_valid_between_zero_targets():
    z = zero_prelie2(Space(2, "a0"), Space(1, "a1"))
    f = PreLie2Hom(
        MultiMap.zero((z.a0,), z.a0),
        MultiMap.zero((z.a1,), z.a1),
        MultiMap.zero((z.a0, z.a0), z.a1),
    )
    assert validate_hom(f, z, z).ok


def test_scaling_hom_fails_quadratic_condition():
    b = fix_b()
    f = PreLie2Hom(
        MultiMap.identity(b.a0).scaled(Fraction(2)),
        MultiMap.identity(b.a1).scaled(Fraction(2)),
        MultiMap.zero((b.a0, b.a0), b.a1),
    )
    report = validate_hom(f, b, b)
    assert not report.ok
    assert "ii" in report.conditions()


def hom_family(c: Fraction, a: Fraction) -> PreLie2Hom:
    """Endomorphisms of the skeletal self-action structure: F0 = diag(1, c),
    F1 = diag(a, a*c), F2 = 0."""
    fx = fix_c()
    f0 = MultiMap(
        (fx.a0,), fx.a0, (Fraction(1), Fraction(0), Fraction(0), c)
    )
    f1 = MultiMap((fx.a1,), fx.a1, (a, Fraction(0), Fraction(0), a * c))
    return PreLie2Hom(f0, f1, MultiMap.zero((fx.a0, fx.a0), fx.a1))


def hom_family_b(c: Fraction) -> PreLie2Hom:
    """Endomorphisms of the strict ideal structure: the chain condition ties
    the degree-1 scale to the e2-eigenvalue of F0."""
    fx = fix_b()
    f0 = MultiMap((fx.a0,), fx.a0, (Fraction(1), Fraction(0), Fraction(0), c))
    f1 = MultiMap((fx.a1,), fx.a1, (c,))
    return PreLie2Hom(f0, f1, MultiMap.zero((fx.a0, fx.a0), fx.a1))


def test_hom_family_b_valid_and_composes_associatively(rng):
    fx = fix_b()
    homs = [hom_family_b(random_fraction(rng, 4) + 1) for _ in range(3)]
    for f in homs:
        assert validate_hom(f, fx, fx).ok
    h, g, f = homs
    assert compose_hom(compose_hom(h, g), f) == compose_hom(h, compose_hom(g, f))


def test_hom_family_members_valid():
    fx = fix_c()
    for c, a in ((Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-1)), (Fraction(5), Fraction(7))):
        assert validate_hom(hom_family(c, a), fx, fx).ok


def test_compose_identity_laws():
    fx = fix_c()
    f = hom_family(Fraction(2), Fraction(3))
    ident = identity_hom(fx)
    assert compose_hom(ident, f) == f
    assert compose_hom(f, ident) == f


def test_compose_associative_on_random_triples(rng):
    fx = fix_c()
    triples = [
        tuple(hom_family(random_fraction(rng, 3) + 1, random_fraction(rng, 3) + 2) for _ in range(3))
        for _ in range(3)
    ]
    for h, g, f in triples:
        assert compose_hom(compose_hom(h, g), f) == compose_hom(h, compose_hom(g, f))
        assert validate_hom(compose_hom(h, g), fx, fx).ok


def test_compose_f2_formula_against_expansion(rng):
    # nonzero F2 exercised through a skeletal structure with zero actions
    om = fix_omega()
    def rand_hom():
        f2 = MultiMap.build(
            (om.a0, om.a0),
            om.a1,
            lambda i, j: (random_fraction(rng),),
        )
        return PreLie2Hom(MultiMap.identity(om.a0), MultiMap.identity(om.a1), f2)

    g, f = rand_hom(), rand_hom()
    gf = compose_hom(g, f)
    for i, j in product(range(om.a0.dim), repeat=2):
        u = f.f0.image_of_basis(i)
        v = f.f0.image_of_basis(j)
        expected = vec_add(
            ml_apply(g.f2, [u, v]), ml_apply(g.f1, [f.f2.image_of_basis(i, j)])
        )
        assert gf.f2.image_of_basis(i, j) == expected


# -- skeletal classification ----------------------------------------------------


def test_build_skeletal_with_left_rep():
    a = fix_a()
    rep = standard_reps(a)["left"]
    zero3 = Cochain(3, MultiMap.zero((a.space,) * 3, rep.space))
    built = build_skeletal(a, rep, zero3)
    assert validate(built).ok
    assert is_skeletal(built)


def test_build_skeletal_abelian_any_skew_l3():
    s = Space(2, "a0")
    from prelie2.prelie_base import PreLieAlgebra, zero_rep

    ab = PreLieAlgebra(s, MultiMap.zero((s, s), s))
    v = Space(1, "a1")
    rep = zero_rep(ab, v)
    skew = MultiMap.build(
        (s, s, s),
        v,
        lambda i, j, k: (Fraction(1) if (i, j) == (0, 1) else Fraction(-1) if (i, j) == (1, 0) else Fraction(0),),
    )
    built = build_skeletal(ab, rep, Cochain(3, skew))
    assert validate(built).ok


def test_build_skeletal_rejects_non_cocycle():
    # over a 2-dim algebra every 3-cochain is closed (the coboundary target
    # has three skew slots on two basis vectors), so use dim 3
    from prelie2.prelie_base import PreLieAlgebra, coboundary

    s = Space(3, "s")  # upper-triangular 2x2 matrices: E11, E12, E22
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}

    def img(i, j):
        out = [Fraction(0)] * 3
        if (i, j) in table:
            out[table[(i, j)]] = Fraction(1)
        return tuple(out)

    alg = PreLieAlgebra(s, MultiMap.build((s, s), s, img))
    rep = standard_reps(alg)["left"]
    non_cocycle = None
    for support in product(range(3), repeat=3):
        i, j, k = support
        if i >= j:
            continue
        skew = MultiMap.build(
            (s,) * 3,
            rep.space,
            lambda x, y, z: tuple(
                Fraction(1) if (x, y, z, t) == (i, j, k, 0)
                else Fraction(-1) if (x, y, z, t) == (j, i, k, 0)
                else Fraction(0)
                for t in range(3)
            ),
        )
        if not coboundary(Cochain(3, skew), alg, rep).map.is_zero():
            non_cocycle = Cochain(3, skew)
            break
    assert non_cocycle is not None
    with pytest.raises(InvalidStructureError) as exc:
        build_skeletal(alg, rep, non_cocycle)
    d = coboundary(non_cocycle, alg, rep).map
    nonzero = [(idx, d.image_of_basis(*idx)) for idx in product(range(3), repeat=4) if any(d.image_of_basis(*idx))]
    assert [(v.condition, v.where, v.defect) for v in exc.value.report.violations] == [
        ("cocycle", idx, image) for idx, image in nonzero
    ]


def test_classify_round_trips():
    from prelie2.fixtures import fix_d

    for fx in (fix_omega(), fix_c(), fix_d()):
        algebra, rep, l3 = classify_skeletal(fx)
        assert build_skeletal(algebra, rep, l3) == fx


def test_classify_zero_structure():
    z = zero_prelie2(Space(2, "a0"), Space(1, "a1"))
    algebra, rep, l3 = classify_skeletal(z)
    assert algebra.mul.is_zero() and rep.rho.is_zero() and rep.mu.is_zero() and l3.map.is_zero()


def test_classify_rejects_non_skeletal():
    b = fix_b()
    with pytest.raises(InvalidStructureError):
        classify_skeletal(b)
    # the guard carries every nonzero entry of dM
    with pytest.raises(InvalidStructureError) as info:
        classify_skeletal(replace(b, dm=MultiMap(b.dm.inputs, b.dm.output, (Fraction(2), Fraction(-3)))))
    (skeletal,) = info.value.report.violations
    assert (skeletal.condition, skeletal.where, skeletal.defect) == ("skeletal", (), (Fraction(2), Fraction(-3)))


# -- a dim-3 family where the homotopy condition does real cancellation ----------


def triangular_algebra():
    from prelie2.prelie_base import PreLieAlgebra

    s = Space(3, "a")
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}

    def img(i, j):
        out = [Fraction(0)] * 3
        if (i, j) in table:
            out[table[(i, j)]] = Fraction(1)
        return tuple(out)

    return PreLieAlgebra(s, MultiMap.build((s, s), s, img))


def triangular_cocycles():
    """Exact kernel of the coboundary on skew 3-cochains for the triangular
    algebra with its regular representation."""
    from prelie2.prelie_base import coboundary
    from prelie2.scalar_tensor import kernel_of_rows

    alg = triangular_algebra()
    rep = standard_reps(alg)["left"]
    s = alg.space
    params = [
        (i, j, k, t)
        for i in range(3)
        for j in range(3)
        if i < j
        for k in range(3)
        for t in range(3)
    ]

    def cochain_of(coords) -> Cochain:
        grid = {}
        for c, (i, j, k, t) in zip(coords, params):
            grid.setdefault((i, j, k), [Fraction(0)] * 3)[t] += c
            grid.setdefault((j, i, k), [Fraction(0)] * 3)[t] -= c
        return Cochain(
            3,
            MultiMap.build(
                (s,) * 3,
                rep.space,
                lambda i, j, k: tuple(grid.get((i, j, k), [Fraction(0)] * 3)),
            ),
        )

    unit = []
    for p in range(len(params)):
        coords = [Fraction(0)] * len(params)
        coords[p] = Fraction(1)
        unit.append(coboundary(cochain_of(coords), alg, rep).map)
    rows = [[u.coeffs[flat] for u in unit] for flat in range(len(unit[0].coeffs))]
    return alg, rep, [cochain_of(coords) for coords in kernel_of_rows(rows, len(params))]


def test_dim3_skeletal_family_exercises_homotopy_condition():
    alg, rep, cocycles = triangular_cocycles()
    assert len(cocycles) == 18
    cyclic_nonzero = 0
    for w in cocycles:
        built = build_skeletal(alg, rep, w)
        assert validate(built).ok
        assert condition_oracle(built)
        from prelie2.lie2_core import from_prelie2

        g, _ = from_prelie2(built)
        if not g.l3.is_zero():
            cyclic_nonzero += 1
    assert cyclic_nonzero > 0  # the homotopy terms genuinely cancel, not vanish


def test_dim3_non_cocycle_breaks_homotopy_condition():
    alg, rep, cocycles = triangular_cocycles()
    from prelie2.prelie_base import coboundary

    s = alg.space
    # a skew unit cochain outside the kernel (the cocycle space is 18 of 27)
    non_cocycle = None
    for i, j, k, t in ((0, 1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 0), (1, 2, 2, 1)):
        w = Cochain(
            3,
            MultiMap.build(
                (s,) * 3,
                rep.space,
                lambda x, y, z: tuple(
                    Fraction(1)
                    if (x, y, z, u) == (i, j, k, t)
                    else Fraction(-1)
                    if (x, y, z, u) == (j, i, k, t)
                    else Fraction(0)
                    for u in range(3)
                ),
            ),
        )
        if not coboundary(w, alg, rep).map.is_zero():
            non_cocycle = w
            break
    assert non_cocycle is not None
    mul10 = MultiMap.build(
        (rep.space, s), rep.space, lambda p, i: rep.mu.image_of_basis(i, p)
    )
    direct = PreLie2Algebra(
        s,
        rep.space,
        MultiMap.zero((rep.space,), s),
        alg.mul,
        rep.rho,
        mul10,
        non_cocycle.map,
    )
    report = validate(direct)
    assert not report.ok
    assert "c" in report.conditions()
