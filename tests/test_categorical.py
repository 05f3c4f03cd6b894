import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_fraction
from prelie2.categorical import (
    CatPreLie2,
    alpha_iso,
    functor_S,
    functor_T,
    hom_S,
    hom_T,
    rebase_cat,
    split_presentation,
    validate_cat,
)
from prelie2.fixtures import fix_b, fix_c, fix_omega, prelie2_fixtures
from prelie2.prelie2_core import (
    PreLie2Algebra,
    identity_hom,
    validate_hom,
    zero_prelie2,
)
from prelie2.report import InvalidStructureError
from prelie2.scalar_tensor import MultiMap, Space, basis_vector, ml_apply, vec_add


def test_functor_t_zero_structure():
    z = zero_prelie2(Space(2, "a0"), Space(1, "a1"))
    c = functor_T(z)
    assert c.star_obj.is_zero()
    assert c.star_mor.is_zero()
    assert c.jac.is_zero()
    assert validate_cat(c).ok


def test_functor_t_star_mor_expansion():
    b = fix_b()
    c = functor_T(b)
    sp = c.space
    n0, n1 = b.a0.dim, b.a1.dim
    for i, p, j, q in product(range(n0), range(n1), range(n0), range(n1)):
        u = basis_vector(b.a0, i)
        m = basis_vector(b.a1, p)
        v = basis_vector(b.a0, j)
        n = basis_vector(b.a1, q)
        f = tuple(u) + tuple(m)
        g = tuple(v) + tuple(n)
        got = ml_apply(c.star_mor, [f, g])
        obj = ml_apply(b.mul00, [u, v])
        ker = vec_add(
            vec_add(ml_apply(b.mul01, [u, n]), ml_apply(b.mul10, [m, v])),
            ml_apply(b.mul01, [ml_apply(b.dm, [m]), n]),
        )
        assert got == tuple(obj) + tuple(ker)


def test_functor_t_jac_from_omega():
    om = fix_omega()
    c = functor_T(om)
    assert c.jac == om.l3
    assert not c.jac.is_zero()


def test_bilinear_functor_laws_on_fixtures():
    for name, fx in prelie2_fixtures().items():
        c = functor_T(fx)
        report = validate_cat(c)
        assert report.ok, name
        sp = c.space
        # 1_u * 1_v = 1_{u*v}
        for i, j in product(range(fx.a0.dim), repeat=2):
            u = basis_vector(fx.a0, i)
            v = basis_vector(fx.a0, j)
            prod = ml_apply(c.star_mor, [sp.embed0(u), sp.embed0(v)])
            assert prod == sp.embed0(ml_apply(c.star_obj, [u, v]))
        # m * n = 1_{dM m} * n
        for p, q in product(range(fx.a1.dim), repeat=2):
            m = basis_vector(fx.a1, p)
            n = basis_vector(fx.a1, q)
            lhs = ml_apply(c.star_mor, [sp.embed1(m), sp.embed1(n)])
            rhs = ml_apply(
                c.star_mor, [sp.embed0(ml_apply(fx.dm, [m])), sp.embed1(n)]
            )
            assert lhs == rhs


def test_s_after_t_identity_on_objects():
    for name, fx in prelie2_fixtures().items():
        assert functor_S(functor_T(fx)) == fx, name


def permuted_and_sheared(c):
    """``c`` rebased along the cycle of test_alpha_on_permuted_presentation
    and along the shear of test_alpha_on_sheared_presentation, widened to
    any dimension: the last basis vector gains components 1, 2, ... along
    the others."""
    nm = c.space.mor.dim
    perm = [nm - 1] + list(range(nm - 1))
    permuted = MultiMap.build((c.space.mor,), c.space.mor, lambda i: basis_vector(nm, perm[i]))
    last = tuple(Fraction(j + 1) for j in range(nm - 1)) + (Fraction(1),)
    sheared = MultiMap.build((c.space.mor,), c.space.mor, lambda i: basis_vector(nm, i) if i < nm - 1 else last)
    return rebase_cat(c, permuted), rebase_cat(c, sheared)


def test_t_after_s_identity_on_split_presentations():
    # once S(C) exists, T(S(C)) is C on the nose; alpha_iso relies on this
    # and does not recompute it
    for name, fx in prelie2_fixtures().items():
        c = functor_T(fx)
        assert functor_T(functor_S(c)) == c, name
        for raw in permuted_and_sheared(c):
            split, _ = split_presentation(raw)
            assert functor_T(functor_S(split)) == split, name


def test_functor_s_detects_broken_functoriality():
    b = fix_b()
    c = functor_T(b)
    bumped = list(c.star_mor.coeffs)
    bumped[-1] += 1
    broken = CatPreLie2(
        c.space,
        c.star_obj,
        MultiMap(c.star_mor.inputs, c.star_mor.output, tuple(bumped)),
        c.jac,
    )
    with pytest.raises(InvalidStructureError):
        functor_S(broken)


def test_hom_round_trips():
    from test_prelie2_core import hom_family

    fx = fix_c()
    c = functor_T(fx)
    ident = identity_hom(fx)
    assert hom_S(hom_T(ident, fx, fx), c, c) == ident
    f = hom_family(Fraction(3), Fraction(5))
    assert validate_hom(f, fx, fx).ok
    assert hom_S(hom_T(f, fx, fx), c, c) == f


def test_hom_round_trip_zero_f2(rng):
    om = fix_omega()
    c = functor_T(om)
    from prelie2.prelie2_core import PreLie2Hom

    f2 = MultiMap.build(
        (om.a0, om.a0), om.a1, lambda i, j: (random_fraction(rng),)
    )
    f = PreLie2Hom(MultiMap.identity(om.a0), MultiMap.identity(om.a1), f2)
    assert hom_S(hom_T(f, om, om), c, c) == f


def test_alpha_identity_on_split():
    for fx in (fix_b(), fix_omega()):
        c = functor_T(fx)
        iso = alpha_iso(c)
        assert iso.ok
        assert iso.alpha0 == MultiMap.identity(c.space.obj)
        assert iso.alpha1 == MultiMap.identity(c.space.mor)


def test_alpha_on_permuted_presentation():
    c = functor_T(fix_b())
    nm = c.space.mor.dim
    perm = [nm - 1] + list(range(nm - 1))  # cycle mixing object/kernel parts
    w = MultiMap.build(
        (c.space.mor,), c.space.mor, lambda i: basis_vector(nm, perm[i])
    )
    raw = rebase_cat(c, w)
    iso = alpha_iso(raw)
    assert iso.ok
    assert iso.alpha1 != MultiMap.identity(c.space.mor)
    # the split round trip recovers a structure isomorphic to the original
    a2 = functor_S(iso.split)
    assert (a2.a0.dim, a2.a1.dim) == (2, 1)


def test_alpha_on_sheared_presentation():
    # a non-permutation change of basis (unit vectors get kernel components)
    c = functor_T(fix_b())
    nm = c.space.mor.dim
    grid = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(2), Fraction(1)],
    ]
    w = MultiMap.build((c.space.mor,), c.space.mor, lambda i: tuple(grid[i]))
    raw = rebase_cat(c, w)
    iso = alpha_iso(raw)
    assert iso.ok


def reference_alpha_loops(split, alpha1, c):
    """alpha-star and alpha-jac evaluated on basis vectors one map
    application at a time, as the comparison once did."""
    from prelie2.report import Violation
    from prelie2.scalar_tensor import vec_is_zero, vec_sub

    out = []
    nm = split.space.mor.dim
    for i, j in product(range(nm), repeat=2):
        f, g = basis_vector(nm, i), basis_vector(nm, j)
        lhs = ml_apply(alpha1, [ml_apply(split.star_mor, [f, g])])
        defect = vec_sub(lhs, ml_apply(c.star_mor, [ml_apply(alpha1, [f]), ml_apply(alpha1, [g])]))
        if not vec_is_zero(defect):
            out.append(Violation("alpha-star", (i, j), defect))
    star = split.star_obj
    for i, j, k in product(range(c.obj.dim), repeat=3):
        u, v, w = (basis_vector(c.obj, x) for x in (i, j, k))
        assoc = vec_sub(ml_apply(star, [ml_apply(star, [u, v]), w]), ml_apply(star, [u, ml_apply(star, [v, w])]))
        j_split = tuple(assoc) + tuple(split.jac.image_of_basis(i, j, k))
        defect = vec_sub(ml_apply(alpha1, [j_split]), c.jac.image_of_basis(i, j, k))
        if not vec_is_zero(defect):
            out.append(Violation("alpha-jac", (i, j, k), defect))
    return out


def test_alpha_star_and_jac_match_reference_loops_on_perturbed_comparisons(monkeypatch, rng):
    # a true comparison passes both checks by construction, so each draw
    # hands alpha_iso a comparison map with two entries moved
    from prelie2 import categorical

    reached = set()
    for fx in (fix_b(), fix_omega()):
        c = functor_T(fx)
        nm = c.space.mor.dim
        w = MultiMap.build((c.space.mor,), c.space.mor, lambda i: basis_vector(nm, (i + 1) % nm))
        raw = rebase_cat(c, w)
        split, alpha1 = split_presentation(raw)
        for _ in range(6):
            coeffs = list(alpha1.coeffs)
            for _ in range(2):
                coeffs[rng.randrange(len(coeffs))] += random_fraction(rng, 3) or 1
            bumped = MultiMap(alpha1.inputs, alpha1.output, tuple(coeffs))
            monkeypatch.setattr(categorical, "split_presentation", lambda _, b=bumped: (split, b))
            found = [v for v in alpha_iso(raw).report.violations if v.condition in ("alpha-star", "alpha-jac")]
            assert found == sorted(reference_alpha_loops(split, bumped, raw), key=lambda v: (v.condition, v.where))
            reached.update(v.condition for v in found)
    assert reached == {"alpha-star", "alpha-jac"}


def test_unit_guards_carry_the_nonzero_entries():
    # s∘(2·unit) − id = t∘(2·unit) − id = id on the 2-dim object space
    c = functor_T(fix_b())
    nm = c.space.mor.dim
    w = MultiMap.build((c.space.mor,), c.space.mor, lambda i: basis_vector(nm, (i + 1) % nm))
    raw = rebase_cat(c, w)
    with pytest.raises(InvalidStructureError) as exc:
        split_presentation(dataclasses.replace(raw, unit=raw.unit.scaled(2)))
    assert [(v.condition, v.where, v.defect) for v in exc.value.report.violations] == [
        ("s-unit", (), (Fraction(1), Fraction(1))),
        ("t-unit", (), (Fraction(1), Fraction(1))),
    ]


def test_jac_source_reports_every_triple_with_the_wrong_object_part():
    # adding unit(e_0) to J at two triples moves the object part of split J by e_0 there
    c = functor_T(fix_b())
    nm = c.space.mor.dim
    w = MultiMap.build((c.space.mor,), c.space.mor, lambda i: basis_vector(nm, (i + 1) % nm))
    raw = rebase_cat(c, w)
    wrong = ((0, 1, 1), (1, 0, 1))
    shift = raw.unit.image_of_basis(0)
    bump = MultiMap.build(raw.jac.inputs, raw.jac.output, lambda *idx: shift if idx in wrong else (0,) * nm)
    with pytest.raises(InvalidStructureError) as exc:
        split_presentation(dataclasses.replace(raw, jac=raw.jac + bump))
    assert [(v.condition, v.where, v.defect) for v in exc.value.report.violations] == [
        ("jac-source", (0, 1, 1), (Fraction(1), Fraction(0))),
        ("jac-source", (1, 0, 1), (Fraction(1), Fraction(0))),
    ]


def test_coherence_certified_through_extraction():
    # condition (c) of the extracted structure certifies the pasting diagram
    om = fix_omega()
    c = functor_T(om)
    extracted = functor_S(c)
    from prelie2.prelie2_core import validate

    assert validate(extracted).ok
