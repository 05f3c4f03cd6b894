"""Every construction against a reference written here: the closure code
that built it one basis tuple at a time, through ``ml_apply``, before the
identity engine built it.  The comparisons are of whole MultiMaps, space
labels included, on the shipped fixtures, on seeded changes of basis of
them, and on inputs chosen so that no coefficient is special.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import FIXTURE_DIR, random_transport, spaces_of, transport, unimodular
from prelie2.categorical import (
    CatHom,
    CatPreLie2,
    RawCatPreLie2,
    TwoVectorSpace,
    functor_S,
    functor_T,
    hom_S,
    hom_T,
    rebase_cat,
    split_presentation,
)
from prelie2.crossed_modules import (
    LieCrossedModule,
    PreLieCrossedModule,
    from_strict_prelie2,
    ideal_crossed_module,
    sub_adjacent_crossed,
    to_strict_prelie2,
)
from prelie2.fileio import read_file
from prelie2.fixtures import fix_a, fix_b_context, o_identity, o_nontrivial, omega_algebra, omega_form, prelie2_fixtures
from prelie2.lie2_core import Lie2Algebra, Lie2Hom, Lie2Rep, from_prelie2, hom_from_prelie2hom
from prelie2.o_operators import OOperator, OOperatorContext, induced_prelie2
from prelie2.prelie2_core import (
    PreLie2Algebra,
    PreLie2Hom,
    build_skeletal,
    classify_skeletal,
    compose_hom,
    is_skeletal,
    is_strict,
)
from prelie2.prelie_base import (
    Cochain,
    InvariantForm,
    LieAlgebra,
    PreLieAlgebra,
    PreLieRep,
    coboundary,
    cocycle_from_form,
    standard_reps,
    sub_adjacent,
    zero_rep,
)
from prelie2.graded_spaces import TwoTermComplex
from prelie2.scalar_tensor import (
    MultiMap,
    Space,
    basis_vector,
    invert_linear,
    ml_apply,
    ml_compose_linear,
    nullspace,
    vec_add,
    vec_neg,
    vec_sub,
    zero_vector,
)

from test_o_operators import dim3_operators  # noqa: F401  (a module fixture)

SEEDS = (1, 2, 3)


def mixed_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 7, 12)))


def random_map(rng: random.Random, inputs, output) -> MultiMap:
    size = MultiMap.zero(inputs, output).coeffs
    return MultiMap(tuple(inputs), output, tuple(mixed_fraction(rng) for _ in size))


# -- the references ---------------------------------------------------------------


def ref_from_prelie2(a: PreLie2Algebra):
    g0, g1 = a.a0, a.a1
    l2_00 = MultiMap.build(
        (g0, g0), g0, lambda i, j: vec_sub(a.mul00.image_of_basis(i, j), a.mul00.image_of_basis(j, i))
    )
    l2_01 = MultiMap.build(
        (g0, g1), g1, lambda i, p: vec_sub(a.mul01.image_of_basis(i, p), a.mul10.image_of_basis(p, i))
    )
    l3 = MultiMap.build(
        (g0, g0, g0),
        g1,
        lambda i, j, k: vec_add(
            a.l3.image_of_basis(i, j, k), vec_add(a.l3.image_of_basis(j, k, i), a.l3.image_of_basis(k, i, j))
        ),
    )
    rho2 = MultiMap.build((g0, g0, g0), g1, lambda i, j, k: vec_neg(a.l3.image_of_basis(i, j, k)))
    return Lie2Algebra(g0, g1, a.dm, l2_00, l2_01, l3), Lie2Rep(
        TwoTermComplex(a.a0, a.a1, a.dm), a.mul00, a.mul01, a.mul10, rho2
    )


def ref_hom_from_prelie2hom(f: PreLie2Hom) -> Lie2Hom:
    f2 = MultiMap.build(
        f.f2.inputs, f.f2.output, lambda i, j: vec_sub(f.f2.image_of_basis(i, j), f.f2.image_of_basis(j, i))
    )
    return Lie2Hom(f.f0, f.f1, f2)


def ref_induced_prelie2(t: OOperator) -> PreLie2Algebra:
    v, r = t.context.complex, t.context.rep

    def t0(i):
        return ml_apply(t.t0, [basis_vector(v.v0, i)])

    mul00 = MultiMap.build(
        (v.v0, v.v0), v.v0, lambda i, j: ml_apply(r.rho0_0, [t0(i), basis_vector(v.v0, j)])
    )
    mul01 = MultiMap.build(
        (v.v0, v.v1), v.v1, lambda i, p: ml_apply(r.rho0_1, [t0(i), basis_vector(v.v1, p)])
    )
    mul10 = MultiMap.build(
        (v.v1, v.v0),
        v.v1,
        lambda p, i: ml_apply(r.rho1, [ml_apply(t.t1, [basis_vector(v.v1, p)]), basis_vector(v.v0, i)]),
    )
    l3 = MultiMap.build(
        (v.v0, v.v0, v.v0),
        v.v1,
        lambda i, j, k: vec_neg(
            vec_add(
                ml_apply(r.rho1, [t.t2.image_of_basis(i, j), basis_vector(v.v0, k)]),
                ml_apply(r.rho2, [t0(i), t0(j), basis_vector(v.v0, k)]),
            )
        ),
    )
    return PreLie2Algebra(v.v0, v.v1, v.dm, mul00, mul01, mul10, l3)


def ref_compose_hom(g: PreLie2Hom, f: PreLie2Hom) -> PreLie2Hom:
    def f2(i, j):
        u, v = f.f0.image_of_basis(i), f.f0.image_of_basis(j)
        return vec_add(ml_apply(g.f2, [u, v]), ml_apply(g.f1, [f.f2.image_of_basis(i, j)]))

    return PreLie2Hom(
        ml_compose_linear(g.f0, f.f0), ml_compose_linear(g.f1, f.f1), MultiMap.build(f.f2.inputs, g.f2.output, f2)
    )


def ref_build_skeletal(a: PreLieAlgebra, rep: PreLieRep, l3: Cochain) -> PreLie2Algebra:
    a0, a1 = a.space, rep.space
    mul10 = MultiMap.build((a1, a0), a1, lambda p, i: rep.mu.image_of_basis(i, p))
    return PreLie2Algebra(a0, a1, MultiMap.zero((a1,), a0), a.mul, rep.rho, mul10, l3.map)


def ref_classify_skeletal(a: PreLie2Algebra):
    mu = MultiMap.build((a.a0, a.a1), a.a1, lambda i, p: a.mul10.image_of_basis(p, i))
    return PreLieAlgebra(a.a0, a.mul00), PreLieRep(a.a1, a.mul01, mu), Cochain(3, a.l3)


def ref_sub_adjacent(a: PreLieAlgebra) -> LieAlgebra:
    bracket = MultiMap.build(
        (a.space, a.space), a.space, lambda i, j: vec_sub(a.mul.image_of_basis(i, j), a.mul.image_of_basis(j, i))
    )
    return LieAlgebra(a.space, bracket)


def ref_left_mu(a: PreLieAlgebra) -> MultiMap:
    return MultiMap.build((a.space, a.space), a.space, lambda i, j: a.mul.image_of_basis(j, i))


def ref_coboundary(w: Cochain, a: PreLieAlgebra, rep: PreLieRep) -> Cochain:
    n = w.n

    def d_image(*idx):
        xs = [basis_vector(a.space, i) for i in idx]
        total = zero_vector(rep.space)
        for i in range(1, n + 1):
            sign = 1 if (i + 1) % 2 == 0 else -1
            rest = xs[: i - 1] + xs[i : n + 1]
            term = ml_apply(rep.rho, [xs[i - 1], ml_apply(w.map, rest)])
            total = vec_add(total, term if sign > 0 else vec_neg(term))
            head = xs[: i - 1] + xs[i:n]
            term = ml_apply(rep.mu, [xs[n], ml_apply(w.map, head + [xs[i - 1]])])
            total = vec_add(total, term if sign > 0 else vec_neg(term))
            term = ml_apply(w.map, head + [ml_apply(a.mul, [xs[i - 1], xs[n]])])
            total = vec_add(total, vec_neg(term) if sign > 0 else term)
        for i, j in combinations(range(1, n + 1), 2):
            sign = 1 if (i + j) % 2 == 0 else -1
            bracket = vec_sub(ml_apply(a.mul, [xs[i - 1], xs[j - 1]]), ml_apply(a.mul, [xs[j - 1], xs[i - 1]]))
            rest = [xs[k] for k in range(n + 1) if k not in (i - 1, j - 1)]
            term = ml_apply(w.map, [bracket] + rest)
            total = vec_add(total, term if sign > 0 else vec_neg(term))
        return total

    return Cochain(n + 1, MultiMap.build((a.space,) * (n + 1), rep.space, d_image))


def ref_cocycle_from_form(a: PreLieAlgebra, form: InvariantForm) -> Cochain:
    def phi(i, j, k):
        u, v, w = (basis_vector(a.space, t) for t in (i, j, k))
        commutator = vec_sub(ml_apply(a.mul, [u, v]), ml_apply(a.mul, [v, u]))
        return ml_apply(form.omega, [commutator, w])

    return Cochain(3, MultiMap.build((a.space,) * 3, form.omega.output, phi))


def ref_to_strict_prelie2(cm: PreLieCrossedModule) -> PreLie2Algebra:
    a0, a1 = cm.a0alg.space, cm.a1alg.space
    mul10 = MultiMap.build((a1, a0), a1, lambda p, i: cm.mu.image_of_basis(i, p))
    return PreLie2Algebra(a0, a1, cm.dm, cm.a0alg.mul, cm.rho, mul10, MultiMap.zero((a0, a0, a0), a1))


def ref_from_strict_prelie2(a: PreLie2Algebra) -> PreLieCrossedModule:
    mul1 = MultiMap.build(
        (a.a1, a.a1), a.a1, lambda p, q: ml_apply(a.mul01, [a.dm.image_of_basis(p), basis_vector(a.a1, q)])
    )
    mu = MultiMap.build((a.a0, a.a1), a.a1, lambda i, p: a.mul10.image_of_basis(p, i))
    return PreLieCrossedModule(PreLieAlgebra(a.a0, a.mul00), PreLieAlgebra(a.a1, mul1), a.dm, a.mul01, mu)


def ref_sub_adjacent_crossed(cm: PreLieCrossedModule) -> LieCrossedModule:
    phi = MultiMap.build(
        (cm.a0alg.space, cm.a1alg.space),
        cm.a1alg.space,
        lambda i, p: vec_sub(cm.rho.image_of_basis(i, p), cm.mu.image_of_basis(i, p)),
    )
    return LieCrossedModule(ref_sub_adjacent(cm.a0alg), ref_sub_adjacent(cm.a1alg), cm.dm, phi)


def _target(sp, f):
    return vec_add(sp.proj0(f), ml_apply(sp.complex.dm, [sp.proj1(f)]))


def ref_functor_T(a: PreLie2Algebra) -> CatPreLie2:
    sp = TwoVectorSpace(TwoTermComplex(a.a0, a.a1, a.dm))
    n0 = a.a0.dim

    def star_mor_img(i, j):
        u = basis_vector(a.a0, i) if i < n0 else zero_vector(a.a0)
        m = basis_vector(a.a1, i - n0) if i >= n0 else zero_vector(a.a1)
        v = basis_vector(a.a0, j) if j < n0 else zero_vector(a.a0)
        n = basis_vector(a.a1, j - n0) if j >= n0 else zero_vector(a.a1)
        ker = vec_add(
            vec_add(ml_apply(a.mul01, [u, n]), ml_apply(a.mul10, [m, v])),
            ml_apply(a.mul01, [ml_apply(a.dm, [m]), n]),
        )
        return tuple(ml_apply(a.mul00, [u, v])) + tuple(ker)

    return CatPreLie2(sp, a.mul00, MultiMap.build((sp.mor, sp.mor), sp.mor, star_mor_img), a.l3)


def ref_functor_S(c: CatPreLie2) -> PreLie2Algebra:
    sp = c.space
    v0, v1 = sp.complex.v0, sp.complex.v1

    def product(f, g):
        return sp.proj1(ml_apply(c.star_mor, [f, g]))

    mul01 = MultiMap.build(
        (v0, v1), v1, lambda i, p: product(sp.embed0(basis_vector(v0, i)), sp.embed1(basis_vector(v1, p)))
    )
    mul10 = MultiMap.build(
        (v1, v0), v1, lambda p, i: product(sp.embed1(basis_vector(v1, p)), sp.embed0(basis_vector(v0, i)))
    )
    return PreLie2Algebra(v0, v1, sp.complex.dm, c.star_obj, mul01, mul10, c.jac)


def ref_hom_T(f: PreLie2Hom, a: PreLie2Algebra, b: PreLie2Algebra) -> CatHom:
    spa, spb = functor_T(a).space, functor_T(b).space
    n0a = a.a0.dim

    def phi1_img(i):
        if i < n0a:
            return spb.embed0(f.f0.image_of_basis(i))
        return spb.embed1(f.f1.image_of_basis(i - n0a))

    def phi2_img(i, j):
        u, v = f.f0.image_of_basis(i), f.f0.image_of_basis(j)
        return tuple(ml_apply(b.mul00, [u, v])) + tuple(f.f2.image_of_basis(i, j))

    return CatHom(
        f.f0,
        MultiMap.build((spa.mor,), spb.mor, phi1_img),
        MultiMap.build((a.a0, a.a0), spb.mor, phi2_img),
    )


def ref_hom_S(phi: CatHom, c: CatPreLie2, d: CatPreLie2) -> PreLie2Hom:
    spc, spd = c.space, d.space
    v1c = spc.complex.v1
    f1 = MultiMap.build(
        (v1c,), spd.complex.v1, lambda p: spd.proj1(ml_apply(phi.phi1, [spc.embed1(basis_vector(v1c, p))]))
    )
    f2 = MultiMap.build(phi.phi2.inputs, spd.complex.v1, lambda i, j: spd.proj1(phi.phi2.image_of_basis(i, j)))
    return PreLie2Hom(phi.phi0, f1, f2)


def ref_split_presentation(raw: RawCatPreLie2):
    """The split structure and alpha1, or the first triple where the
    associator isomorphism has the wrong source."""
    kernel = nullspace(raw.smap)
    v1 = Space(len(kernel), raw.obj.label + "ker")
    dm = MultiMap.build((v1,), raw.obj, lambda p: ml_apply(raw.tmap, [kernel[p]]))
    sp = TwoVectorSpace(TwoTermComplex(raw.obj, v1, dm))
    alpha1 = MultiMap.build(
        (sp.mor,), raw.mor, lambda i: raw.unit.image_of_basis(i) if i < raw.obj.dim else kernel[i - raw.obj.dim]
    )
    alpha1_inv = invert_linear(alpha1)
    star_mor = MultiMap.build(
        (sp.mor, sp.mor),
        sp.mor,
        lambda i, j: ml_apply(
            alpha1_inv, [ml_apply(raw.star_mor, [alpha1.image_of_basis(i), alpha1.image_of_basis(j)])]
        ),
    )
    wrong = []

    def jac_img(i, j, k):
        split_j = ml_apply(alpha1_inv, [raw.jac.image_of_basis(i, j, k)])
        u, v, w = (basis_vector(raw.obj, x) for x in (i, j, k))
        assoc = vec_sub(
            ml_apply(raw.star_obj, [ml_apply(raw.star_obj, [u, v]), w]),
            ml_apply(raw.star_obj, [u, ml_apply(raw.star_obj, [v, w])]),
        )
        if sp.proj0(split_j) != tuple(assoc):
            wrong.append(((i, j, k), vec_sub(sp.proj0(split_j), assoc)))
        return sp.proj1(split_j)

    jac = MultiMap.build((raw.obj,) * 3, v1, jac_img)
    return CatPreLie2(sp, raw.star_obj, star_mor, jac), alpha1, wrong


def ref_rebase_cat(c: CatPreLie2, w: MultiMap) -> RawCatPreLie2:
    sp = c.space
    w_inv = invert_linear(w)
    mor = w.output
    smap = MultiMap.build((mor,), sp.obj, lambda i: sp.proj0(w_inv.image_of_basis(i)))
    tmap = MultiMap.build((mor,), sp.obj, lambda i: _target(sp, w_inv.image_of_basis(i)))
    unit = MultiMap.build((sp.obj,), mor, lambda i: ml_apply(w, [sp.embed0(basis_vector(sp.obj, i))]))
    star_mor = MultiMap.build(
        (mor, mor),
        mor,
        lambda i, j: ml_apply(w, [ml_apply(c.star_mor, [w_inv.image_of_basis(i), w_inv.image_of_basis(j)])]),
    )

    def jac_img(i, j, k):
        u, v, x = (basis_vector(sp.obj, y) for y in (i, j, k))
        assoc = vec_sub(
            ml_apply(c.star_obj, [ml_apply(c.star_obj, [u, v]), x]),
            ml_apply(c.star_obj, [u, ml_apply(c.star_obj, [v, x])]),
        )
        return ml_apply(w, [tuple(assoc) + tuple(c.jac.image_of_basis(i, j, k))])

    jac = MultiMap.build((sp.obj,) * 3, mor, jac_img)
    return RawCatPreLie2(sp.obj, mor, smap, tmap, unit, c.star_obj, star_mor, jac)


# -- the inputs -------------------------------------------------------------------


def prelie2_cases() -> dict[str, PreLie2Algebra]:
    """The shipped fixtures and seeded changes of basis of each."""
    out = {}
    for name, a in prelie2_fixtures().items():
        out[name] = a
        for seed in SEEDS:
            out[f"{name} moved {seed}"] = random_transport(a, random.Random(seed))
    return out


CASES = prelie2_cases()


def crossed_module_cases() -> dict[str, PreLieCrossedModule]:
    base = {
        "fix_cm": read_file(FIXTURE_DIR / "fix_cm.json").structure(),
        "omega ideal": ideal_crossed_module(omega_algebra(), (1,)),
    }
    out = dict(base)
    for name, cm in base.items():
        for seed in SEEDS:
            out[f"{name} moved {seed}"] = random_transport(cm, random.Random(seed))
    return out


def change_of_basis(a: PreLie2Algebra, seed: int):
    """The moved copy b of ``a`` and homs f: a -> b, g: b -> a whose linear
    parts are the change of basis and whose F2 are drawn with mixed
    denominators."""
    rng = random.Random(seed)
    mats = {sp: unimodular(rng, sp.dim) for sp in spaces_of(a)}
    b = transport(a, mats)

    def linear(sp, mat):
        return MultiMap((sp,), sp, tuple(Fraction(mat[j][i]) for i in range(sp.dim) for j in range(sp.dim)))

    # a vector with old coordinates x has new coordinates q x
    f = PreLie2Hom(linear(a.a0, mats[a.a0][1]), linear(a.a1, mats[a.a1][1]), random_map(rng, (a.a0, a.a0), a.a1))
    g = PreLie2Hom(linear(a.a0, mats[a.a0][0]), linear(a.a1, mats[a.a1][0]), random_map(rng, (a.a0, a.a0), a.a1))
    return b, f, g


def sheared(c: CatPreLie2, seed: int) -> MultiMap:
    """A unimodular change of the morphism basis that is not a permutation."""
    rng = random.Random(seed)
    n = c.space.mor.dim
    while True:
        p, _ = unimodular(rng, n, steps=2 * n)
        if any(x not in (0, 1) for row in p for x in row):
            return MultiMap((c.space.mor,), c.space.mor, tuple(Fraction(p[j][i]) for i in range(n) for j in range(n)))


# -- the comparisons --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CASES))
def test_functor_to_lie2_matches_reference(name):
    a = CASES[name]
    assert from_prelie2(a) == ref_from_prelie2(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_categorical_functors_match_reference(name):
    a = CASES[name]
    c = functor_T(a)
    assert c == ref_functor_T(a)
    assert functor_S(c) == ref_functor_S(c)


@pytest.mark.parametrize("name", sorted(prelie2_fixtures()))
def test_homs_match_reference_on_changes_of_basis(name):
    a = prelie2_fixtures()[name]
    for seed in SEEDS:
        b, f, g = change_of_basis(a, seed)
        assert hom_from_prelie2hom(f, a, b) == ref_hom_from_prelie2hom(f)
        assert compose_hom(g, f) == ref_compose_hom(g, f)
        assert compose_hom(f, g) == ref_compose_hom(f, g)
        phi = hom_T(f, a, b)
        assert phi == ref_hom_T(f, a, b)
        ca, cb = functor_T(a), functor_T(b)
        assert hom_S(phi, ca, cb) == ref_hom_S(phi, ca, cb)
        rng = random.Random(seed)
        phi1 = random_map(rng, phi.phi1.inputs, phi.phi1.output)
        noisy = CatHom(phi.phi0, phi1, random_map(rng, phi.phi2.inputs, phi.phi2.output))
        assert hom_S(noisy, ca, cb) == ref_hom_S(noisy, ca, cb)


@pytest.mark.parametrize("name", sorted(n for n, a in CASES.items() if is_skeletal(a)))
def test_skeletal_classification_matches_reference(name):
    a = CASES[name]
    triple = classify_skeletal(a)
    assert triple == ref_classify_skeletal(a)
    assert build_skeletal(*triple) == ref_build_skeletal(*triple)


@pytest.mark.parametrize("name", sorted(n for n, a in CASES.items() if is_strict(a)))
def test_strict_structure_to_crossed_module_matches_reference(name):
    a = CASES[name]
    assert from_strict_prelie2(a) == ref_from_strict_prelie2(a)


@pytest.mark.parametrize("name", sorted(crossed_module_cases()))
def test_crossed_module_constructions_match_reference(name):
    cm = crossed_module_cases()[name]
    assert to_strict_prelie2(cm) == ref_to_strict_prelie2(cm)
    assert sub_adjacent_crossed(cm) == ref_sub_adjacent_crossed(cm)


def test_prelie_constructions_match_reference():
    alg, form = omega_algebra(), omega_form()
    pairs = [(fix_a(), None), (alg, form)]
    for seed in SEEDS:
        rng = random.Random(seed)
        mats = {sp: unimodular(rng, sp.dim) for sp in (fix_a().space, alg.space, form.omega.output)}
        pairs += [(transport(fix_a(), mats), None), (transport(alg, mats), transport(form, mats))]
    for a, form in pairs:
        assert sub_adjacent(a) == ref_sub_adjacent(a)
        assert standard_reps(a)["left"].mu == ref_left_mu(a)
        if form is not None:
            assert cocycle_from_form(a, form) == ref_cocycle_from_form(a, form)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_coboundary_matches_reference(n):
    rng = random.Random(n)
    a = fix_a()
    reps = [*standard_reps(a).values(), zero_rep(a, Space(2, "v"))]
    for rep in reps:
        for _ in range(2):
            w = Cochain(n, random_map(rng, (a.space,) * n, rep.space))
            assert coboundary(w, a, rep) == ref_coboundary(w, a, rep)


def o_operator_cases(operators) -> list[OOperator]:
    cases = [o_nontrivial(), o_identity(fix_b_context())]
    for a in prelie2_fixtures().values():
        cases.append(o_identity(OOperatorContext(*from_prelie2(a))))
    return cases + list(operators)


def test_induced_prelie2_matches_reference(dim3_operators):
    _, operators = dim3_operators
    assert all(not t.t2.is_zero() for t in operators)
    for t in o_operator_cases(operators):
        assert induced_prelie2(t) == ref_induced_prelie2(t)


@pytest.mark.parametrize("name", sorted(prelie2_fixtures()))
def test_presentations_match_reference_on_sheared_bases(name):
    c = functor_T(prelie2_fixtures()[name])
    for seed in SEEDS:
        w = sheared(c, seed)
        raw = rebase_cat(c, w)
        assert raw == ref_rebase_cat(c, w)
        split, alpha1 = split_presentation(raw)
        ref_split, ref_alpha1, wrong = ref_split_presentation(raw)
        assert wrong == []
        assert (split, alpha1) == (ref_split, ref_alpha1)
        # a split presentation that is not T of anything: its star_mor is drawn at random
        noisy = replace(raw, star_mor=random_map(random.Random(seed), raw.star_mor.inputs, raw.star_mor.output))
        assert split_presentation(noisy) == ref_split_presentation(noisy)[:2]
