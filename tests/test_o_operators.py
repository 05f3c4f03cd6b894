import random
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from itertools import product

import pytest

from prelie2 import o_operators
from prelie2.fixtures import (
    fix_b,
    fix_b_context,
    fix_e,
    fix_omega,
    o_identity,
    o_negative_lower,
    o_negative_scaled,
    o_nontrivial,
    prelie2_fixtures,
)
from prelie2.lie2_core import from_prelie2, validate_hom
from prelie2.o_operators import (
    OOperator,
    OOperatorContext,
    flatten_check,
    induced_hom,
    induced_prelie2,
    search_o_operators,
    validate_context,
    validate_o,
)
from prelie2.prelie2_core import validate as validate_prelie2
from prelie2.report import InvalidStructureError, Violation, make_report
from prelie2.scalar_tensor import MultiMap, basis_vector, ml_apply, vec_add, vec_is_zero, vec_neg, vec_sub


def test_zero_operator_valid():
    ctx = fix_b_context()
    v, g = ctx.complex, ctx.algebra
    t = OOperator(
        ctx,
        MultiMap.zero((v.v0,), g.g0),
        MultiMap.zero((v.v1,), g.g1),
        MultiMap.zero((v.v0, v.v0), g.g1),
    )
    assert validate_o(t).ok


def test_identity_operator_valid_on_every_fixture():
    for name, fx in prelie2_fixtures().items():
        g, rep = from_prelie2(fx)
        ctx = OOperatorContext(g, rep)
        assert validate_context(ctx).ok, name
        t = o_identity(ctx)
        assert validate_o(t).ok, name


def test_scaled_mismatch_fails_with_chain_witness():
    report = validate_o(o_negative_scaled())
    assert not report.ok
    # the failure is the chain-map clause: T0∘dm = 2*dm while dk∘T1 = dm
    assert report.conditions() == ("chain",)
    assert report.violations[0].where == (0,)


def test_induced_structure_reproduces_source():
    for name, fx in prelie2_fixtures().items():
        g, rep = from_prelie2(fx)
        t = o_identity(OOperatorContext(g, rep))
        assert induced_prelie2(t) == fx, name


def test_induced_structure_of_nontrivial_operator_valid():
    t = o_nontrivial()
    assert validate_o(t).ok
    induced = induced_prelie2(t)
    assert validate_prelie2(induced).ok
    assert not induced.mul00.is_zero()


def test_strict_context_gives_strict_output():
    t = o_nontrivial()
    induced = induced_prelie2(t)
    assert induced.l3.is_zero()


def test_induced_hom_validates():
    for t in (o_identity(fix_b_context()), o_nontrivial()):
        induced = induced_prelie2(t)
        gv, _ = from_prelie2(induced)
        hom = induced_hom(t)
        assert validate_hom(hom, gv, t.context.algebra).ok


def test_induced_hom_identity_case():
    t = o_identity(fix_b_context())
    hom = induced_hom(t)
    assert hom.f0 == t.t0 and hom.f1 == t.t1
    assert hom.f2.is_zero()


def test_induced_rejects_invalid():
    with pytest.raises(InvalidStructureError):
        induced_prelie2(o_negative_scaled())


def test_flatten_check_zero_and_identity():
    ctx = fix_b_context()
    v, g = ctx.complex, ctx.algebra
    assert flatten_check(
        MultiMap.zero((v.v0,), g.g0), MultiMap.zero((v.v1,), g.g1), ctx
    )
    t = o_identity(ctx)
    assert flatten_check(t.t0, t.t1, ctx)


def test_flatten_check_detects_chain_break():
    t = o_negative_lower()
    assert not flatten_check(t.t0, t.t1, ctx := t.context)
    # and the graded validator agrees
    assert not validate_o(t).ok


def test_flatten_equivalence_both_directions():
    ctx = fix_b_context()
    cases = [
        o_identity(ctx),
        o_nontrivial(),
        o_negative_scaled(),
        o_negative_lower(),
    ]
    for t in cases:
        strict_t = OOperator(
            t.context, t.t0, t.t1, MultiMap.zero(t.t2.inputs, t.t2.output)
        )
        assert validate_o(strict_t).ok == flatten_check(t.t0, t.t1, t.context)


def test_flatten_rejects_nonstrict_context():
    g, rep = from_prelie2(fix_omega())
    ctx = OOperatorContext(g, rep)
    v = ctx.complex
    with pytest.raises(InvalidStructureError) as info:
        flatten_check(
            MultiMap.zero((v.v0,), g.g0), MultiMap.zero((v.v1,), g.g1), ctx
        )
    # the defect lists the nonzero l3 entries, then the nonzero rho2 entries:
    # here l3 = 0 and rho2(e1, e2, e1) = -rho2(e2, e1, e1) = -1
    (strict,) = info.value.report.violations
    assert (strict.condition, strict.where) == ("strict", ())
    assert strict.defect == (Fraction(-1), Fraction(1))


def test_search_recovers_frozen_fixture_and_structure_of_solutions():
    ctx = fix_b_context()
    found = list(search_o_operators(ctx, bound=1))
    frozen = o_nontrivial()
    assert any(
        c.t0.coeffs == frozen.t0.coeffs
        and c.t1.coeffs == frozen.t1.coeffs
        and c.t2.coeffs == frozen.t2.coeffs
        for c in found
    )
    # on this context the chain clause pins T0 lower row to (0, T1) and T2 to 0
    for c in found:
        assert c.t0.entry(1, 0) == 0
        assert c.t0.entry(1, 1) == c.t1.entry(0, 0)
        assert c.t2.is_zero()


def test_identity_on_homotopy_nontrivial_fixture():
    # the identity triple also works where the homotopy is nonzero
    g, rep = from_prelie2(fix_omega())
    t = o_identity(OOperatorContext(g, rep))
    assert validate_o(t).ok
    assert induced_prelie2(t) == fix_omega()


@pytest.fixture(scope="module")
def dim3_operators():
    """The dim-3 skeletal structure built from a nonzero triangular cocycle,
    and the identity pair (T0, T1) on its context with each T2 of an exact
    kernel basis of the skew T2 components that keep (iii)."""
    from test_prelie2_core import triangular_cocycles
    from prelie2.prelie2_core import build_skeletal
    from prelie2.scalar_tensor import kernel_of_rows

    alg, rep, cocycles = triangular_cocycles()
    w = next(c for c in cocycles if not c.map.is_zero())
    built = build_skeletal(alg, rep, w)
    g, grep = from_prelie2(built)
    ctx = OOperatorContext(g, grep)
    v = ctx.complex
    ident0 = MultiMap((v.v0,), g.g0, MultiMap.identity(v.v0).coeffs)
    ident1 = MultiMap((v.v1,), g.g1, MultiMap.identity(v.v1).coeffs)
    pairs = [(i, j) for i in range(3) for j in range(3) if i < j]
    params = [(p, b) for p in range(len(pairs)) for b in range(3)]

    def t2_of(coords):
        grid = {}
        for c, (p, b) in zip(coords, params):
            i, j = pairs[p]
            grid.setdefault((i, j), [0] * 3)[b] += c
            grid.setdefault((j, i), [0] * 3)[b] -= c
        return MultiMap.build(
            (v.v0, v.v0),
            g.g1,
            lambda i, j: tuple(Fraction(x) for x in grid.get((i, j), [0] * 3)),
        )

    # with T0 = T1 = id the triple's defect is linear in T2 (the base point
    # T2 = 0 is a valid operator), so the valid T2 form an exact kernel
    assert validate_o(OOperator(ctx, ident0, ident1, t2_of([0] * len(params)))).ok
    probe = list(product(range(3), repeat=3))

    def defect_vector(t2):
        report = validate_o(OOperator(ctx, ident0, ident1, t2))
        by_tuple = {x.where: x.defect for x in report.violations if x.condition == "iii"}
        out = []
        for idx in probe:
            out.extend(by_tuple.get(idx, (0,) * 3))
        return out

    unit_defects = []
    for t in range(len(params)):
        coords = [0] * len(params)
        coords[t] = 1
        unit_defects.append(defect_vector(t2_of(coords)))
    rows = [
        [unit_defects[t][r] for t in range(len(params))]
        for r in range(len(unit_defects[0]))
    ]
    kernel = kernel_of_rows([[Fraction(x) for x in row] for row in rows], len(params))
    return built, [OOperator(ctx, ident0, ident1, t2_of(coords)) for coords in kernel]


def test_nonzero_t2_operators_exist_and_induce_new_homotopy(dim3_operators):
    """On the dim-3 skeletal context the identity pair admits a 6-parameter
    space of valid skew T2 components, found by an exact linear solve; each
    one shifts the induced homotopy through the rho1 term."""
    from prelie2.prelie2_core import validate as validate_p2

    built, operators = dim3_operators
    assert len(operators) == 6
    exercised_rho1_term = False
    for cand in operators:
        assert not cand.t2.is_zero()
        assert validate_o(cand).ok
        induced = induced_prelie2(cand)
        assert validate_p2(induced).ok
        if induced.l3 != built.l3:
            exercised_rho1_term = True
    assert exercised_rho1_term


# -- the search and the reports against references written here ---------------

SEARCH_CONTEXTS = {"FIX-B": fix_b, "FIX-E": fix_e, "FIX-OMEGA": fix_omega}


def context_of(make) -> OOperatorContext:
    return OOperatorContext(*from_prelie2(make()))


@pytest.fixture(scope="module")
def searched():
    """Each context with the operators its bound-1 search yields, in order."""
    out = {}
    for name, make in SEARCH_CONTEXTS.items():
        ctx = context_of(make)
        out[name] = (ctx, list(search_o_operators(ctx, 1)))
    return out


def key(t: OOperator):
    return t.t0.coeffs, t.t1.coeffs, t.t2.coeffs


def full_grid(ctx: OOperatorContext, bound: int = 1):
    """Every triple with entries in [-bound, bound] and T2 skew, in
    lexicographic order of the free entries of (T0, T1, T2); T2 is free
    above the diagonal."""
    v, g = ctx.complex, ctx.algebra
    n0, d1 = v.v0.dim, g.g1.dim
    values = [Fraction(k) for k in range(-bound, bound + 1)]
    upper = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
    t2s = []
    for free in product(values, repeat=len(upper) * d1):
        coeffs = [Fraction(0)] * (n0 * n0 * d1)
        for s, (i, j) in enumerate(upper):
            for b in range(d1):
                coeffs[(i * n0 + j) * d1 + b] = free[s * d1 + b]
                coeffs[(j * n0 + i) * d1 + b] = -free[s * d1 + b]
        t2s.append(MultiMap((v.v0, v.v0), g.g1, tuple(coeffs)))
    for e0 in product(values, repeat=n0 * g.g0.dim):
        for e1 in product(values, repeat=v.v1.dim * d1):
            for t2 in t2s:
                yield OOperator(ctx, MultiMap((v.v0,), g.g0, e0), MultiMap((v.v1,), g.g1, e1), t2)


def test_search_counts(searched):
    counts = {name: len(found) for name, (_, found) in searched.items()}
    assert counts == {"FIX-B": 27, "FIX-E": 21, "FIX-OMEGA": 189}


def renewed(obj):
    """``obj`` with every map in it, however deep, a new object equal to the old."""
    if isinstance(obj, MultiMap):
        return replace(obj)
    parts = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return replace(obj, **{name: renewed(part) for name, part in parts.items() if is_dataclass(part)})


def test_search_scales_each_checked_tensor_once(monkeypatch):
    """A tensor keeps its integer support, so a search scales each tensor
    object it checks once: the context's nine maps, and each T0, T1 and T2
    of the grid that reaches validate_o, not twelve maps per candidate."""
    support = vars(MultiMap)["scaled_support"]
    scale, computed = support.func, []
    monkeypatch.setattr(support, "func", lambda m: computed.append(m) or scale(m))
    real_check, checked = o_operators.check, {}

    def recording_check(tensors, conditions):
        checked.update((id(m), m) for m in tensors.values())
        return real_check(tensors, conditions)

    monkeypatch.setattr(o_operators, "check", recording_check)
    counts = {}
    for name, make in SEARCH_CONTEXTS.items():
        ctx = renewed(context_of(make))  # dk and dm become two objects, neither scaled yet
        computed.clear()
        checked.clear()
        assert len(list(search_o_operators(ctx, 1))) == {"FIX-B": 27, "FIX-E": 21, "FIX-OMEGA": 189}[name]
        assert len({id(m) for m in computed}) == len(computed) == len(checked), name
        counts[name] = len(computed)
    assert counts == {"FIX-B": 42, "FIX-E": 42, "FIX-OMEGA": 96}

    # the kept support is not a field: equality, hash and repr ignore it
    t = o_identity(ctx)
    assert "scaled_support" not in vars(t.t0)
    copy = replace(t.t0)
    assert (t.t0, hash(t.t0), repr(t.t0)) == (copy, hash(copy), repr(copy))
    assert validate_o(t).ok and "scaled_support" in vars(t.t0)
    for other in (copy, replace(t.t0)):
        assert "scaled_support" not in vars(other)
        assert (t.t0, hash(t.t0), repr(t.t0)) == (other, hash(other), repr(other))


@pytest.mark.parametrize("name", ["FIX-B", "FIX-OMEGA"])
def test_search_yields_the_valid_part_of_the_full_grid_in_order(searched, name):
    ctx, found = searched[name]
    expected = [key(c) for c in full_grid(ctx) if validate_o(c).ok]
    assert [key(c) for c in found] == expected


def reference_validate_o(t: OOperator):
    """The chain, skew-t2 and (i)-(iii) loops evaluated on basis vectors one
    map application at a time, as the validator once did."""
    ctx = t.context
    g, rep, v = ctx.algebra, ctx.rep, ctx.complex
    out = []
    b0 = [basis_vector(v.v0, i) for i in range(v.v0.dim)]
    b1 = [basis_vector(v.v1, p) for p in range(v.v1.dim)]

    def t0(u):
        return ml_apply(t.t0, [u])

    def t1(m):
        return ml_apply(t.t1, [m])

    def t2(u, w):
        return ml_apply(t.t2, [u, w])

    def rho0_0(x, u):
        return ml_apply(rep.rho0_0, [x, u])

    for p in range(v.v1.dim):
        img = vec_sub(t0(ml_apply(v.dm, [b1[p]])), ml_apply(g.dk, [t1(b1[p])]))
        if not vec_is_zero(img):
            out.append(Violation("chain", (p,), img))
    for i, j in product(range(v.v0.dim), repeat=2):
        defect = vec_add(t2(b0[i], b0[j]), t2(b0[j], b0[i]))
        if not vec_is_zero(defect):
            out.append(Violation("skew-t2", (i, j), defect))
    for i, j in product(range(v.v0.dim), repeat=2):
        u, w = b0[i], b0[j]
        lhs = vec_sub(t0(vec_sub(rho0_0(t0(u), w), rho0_0(t0(w), u))), ml_apply(g.l2_00, [t0(u), t0(w)]))
        defect = vec_sub(lhs, ml_apply(g.dk, [t2(u, w)]))
        if not vec_is_zero(defect):
            out.append(Violation("i", (i, j), defect))
    for p, j in product(range(v.v1.dim), range(v.v0.dim)):
        m, w = b1[p], b0[j]
        lhs = vec_sub(
            t1(vec_sub(ml_apply(rep.rho1, [t1(m), w]), ml_apply(rep.rho0_1, [t0(w), m]))),
            vec_neg(ml_apply(g.l2_01, [t0(w), t1(m)])),  # l2(T1 m, T0 w) = -l2(T0 w, T1 m)
        )
        defect = vec_sub(lhs, t2(ml_apply(v.dm, [m]), w))
        if not vec_is_zero(defect):
            out.append(Violation("ii", (p, j), defect))
    for i, j, k in product(range(v.v0.dim), repeat=3):
        vs = (b0[i], b0[j], b0[k])
        total = ml_apply(g.l3, [t0(vs[0]), t0(vs[1]), t0(vs[2])])
        for x, y, z in (vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            total = vec_add(total, ml_apply(g.l2_01, [t0(x), t2(y, z)]))
            total = vec_add(total, t2(z, vec_sub(rho0_0(t0(x), y), rho0_0(t0(y), x))))
            total = vec_add(total, t1(vec_add(ml_apply(rep.rho1, [t2(y, z), x]), ml_apply(rep.rho2, [t0(y), t0(z), x]))))
        if not vec_is_zero(total):
            out.append(Violation("iii", (i, j, k), total))
    return make_report(out)


def test_validate_o_matches_reference_loops_on_random_triples(dim3_operators):
    rng = random.Random(20261018)

    def entries(n):
        return tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))

    def skew_entries(n0, d1):
        coeffs = [Fraction(0)] * (n0 * n0 * d1)
        for i, j, b in product(range(n0), range(n0), range(d1)):
            if i < j:
                coeffs[(i * n0 + j) * d1 + b] = Fraction(rng.randint(-2, 2))
                coeffs[(j * n0 + i) * d1 + b] = -coeffs[(i * n0 + j) * d1 + b]
        return tuple(coeffs)

    # the dim-2 contexts take any T2; on them (iii) fails only for a T2 that
    # is not skew, so the skeletal dim-3 context takes skew T2 draws
    draws = [(context_of(make), 34, False) for make in SEARCH_CONTEXTS.values()]
    draws.append((dim3_operators[1][0].context, 12, True))
    reports, skew_reports = [], []
    for ctx, count, skew_t2 in draws:
        v, g = ctx.complex, ctx.algebra
        for _ in range(count):
            t = OOperator(
                ctx,
                MultiMap((v.v0,), g.g0, entries(v.v0.dim * g.g0.dim)),
                MultiMap((v.v1,), g.g1, entries(v.v1.dim * g.g1.dim)),
                MultiMap(
                    (v.v0, v.v0),
                    g.g1,
                    skew_entries(v.v0.dim, g.g1.dim) if skew_t2 else entries(v.v0.dim**2 * g.g1.dim),
                ),
            )
            report = validate_o(t)
            assert report == reference_validate_o(t)
            reports.append(report)
            if "skew-t2" not in report.conditions():
                skew_reports.append(report)
    # the draws reach every condition family, and (iii) with a skew T2
    assert {c for r in reports for c in r.conditions()} == {"chain", "skew-t2", "i", "ii", "iii"}
    assert any("iii" in r.conditions() for r in skew_reports)


def iii_via_induced_products(t: OOperator):
    """Condition (iii) rewritten through the induced 2-term products:
    rho0(T0 u)w is u·w, and T1 of the rho1 and rho2 terms is minus T1 of
    the induced homotopy l3.  Yields ((i, j, k), value) per basis triple."""
    induced = induced_prelie2(t)
    g, v = t.context.algebra, t.context.complex
    b0 = [basis_vector(v.v0, i) for i in range(v.v0.dim)]

    def t0(u):
        return ml_apply(t.t0, [u])

    def t2(u, w):
        return ml_apply(t.t2, [u, w])

    def mul(u, w):
        return ml_apply(induced.mul00, [u, w])

    for i, j, k in product(range(v.v0.dim), repeat=3):
        vs = (b0[i], b0[j], b0[k])
        total = ml_apply(g.l3, [t0(vs[0]), t0(vs[1]), t0(vs[2])])
        for x, y, z in (vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            total = vec_add(total, ml_apply(g.l2_01, [t0(x), t2(y, z)]))
            total = vec_add(total, t2(z, vec_sub(mul(x, y), mul(y, x))))
            total = vec_sub(total, ml_apply(t.t1, [ml_apply(induced.l3, [x, y, z])]))
        yield (i, j, k), total


def test_iii_rewritten_with_induced_products_vanishes(searched, dim3_operators):
    operators = [t for _, found in searched.values() for t in found]
    operators.append(o_identity(context_of(fix_omega)))
    # with dim V0 = 2 and T2 skew, the T2 and homotopy terms of (iii) cancel
    # over the rotations on their own; on dim V0 = 3 they do not
    operators.extend(dim3_operators[1])
    for t in operators:
        for where, value in iii_via_induced_products(t):
            assert vec_is_zero(value), (key(t), where)
