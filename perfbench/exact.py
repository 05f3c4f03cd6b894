"""The benchmark's own exact arithmetic: inputs and oracles in plain Fraction.

Nothing here imports ``prelie2``.  A tensor is a pair ``(shape, flat)``:
``shape`` lists one dimension per input slot and then the output dimension,
``flat`` holds the coefficients row-major, in the layout of the structure
files (the entry at ``[i1]...[ik][j]`` is the coefficient of output basis
vector ``j`` in the image of the input tuple).  Structures are dictionaries
``{"kind", "dims", "tensors"}`` with tensors stored that way.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

ZERO, ONE = Fraction(0), Fraction(1)

# Slots of every tensor, output last, named by the dims they run over.
SCHEMAS = {
    "prelie": {"mul": ("a", "a", "a")},
    "prelie2": {
        "dm": ("a1", "a0"),
        "mul00": ("a0", "a0", "a0"),
        "mul01": ("a0", "a1", "a1"),
        "mul10": ("a1", "a0", "a1"),
        "l3": ("a0", "a0", "a0", "a1"),
    },
    "lie2": {
        "dk": ("g1", "g0"),
        "l2_00": ("g0", "g0", "g0"),
        "l2_01": ("g0", "g1", "g1"),
        "l3": ("g0", "g0", "g0", "g1"),
    },
}


class Malformed(ValueError):
    """A structure file the benchmark's own reader refuses."""


# -- structure files ------------------------------------------------------------


def parse_rational(text) -> Fraction:
    if not isinstance(text, str):
        raise Malformed(f"not a rational string: {text!r}")
    num, _, den = text.partition("/")
    if not num.lstrip("+-").isdigit() or (den and not den.isdigit()):
        raise Malformed(f"not a rational literal: {text!r}")
    if den and int(den) == 0:
        raise Malformed(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den) if den else 1)


def _flatten(node, out):
    if isinstance(node, list):
        for item in node:
            _flatten(item, out)
    else:
        out.append(parse_rational(node))
    return out


def walk_leaves(node, out):
    """Collect the leaves of nested lists and dictionaries."""
    items = node.values() if isinstance(node, dict) else node if isinstance(node, list) else None
    if items is None:
        out.append(node)
    else:
        for item in items:
            walk_leaves(item, out)
    return out


def read_structure(path) -> dict:
    """Read a structure file into flat tensors; raises Malformed."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    tensors = {name: _flatten(node, []) for name, node in doc["tensors"].items()}
    schema = SCHEMAS.get(doc["kind"], {})
    out = {}
    for name, flat in tensors.items():
        shape = tuple(doc["dims"][s] for s in schema[name]) if name in schema else None
        out[name] = (shape, flat)
    return {"kind": doc["kind"], "dims": dict(doc["dims"]), "tensors": out}


def canonical_text(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- dense tensors --------------------------------------------------------------


def size(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def zeros(shape):
    return (tuple(shape), [ZERO] * size(shape))


def offset(shape, idx) -> int:
    flat = 0
    for d, i in zip(shape, idx):
        flat = flat * d + i
    return flat


def entry(t, *idx) -> Fraction:
    shape, flat = t
    return flat[offset(shape, idx)]


def image(t, *idx) -> list:
    """Output vector of an input basis tuple."""
    shape, flat = t
    base = offset(shape[:-1], idx) * shape[-1]
    return flat[base : base + shape[-1]]


def mode_product(t, axis: int, m):
    """Contract axis ``axis`` of ``t`` with matrix ``m``: new[..i..] = sum_a m[i][a] t[..a..]."""
    shape, flat = t
    rows = len(m)
    new_shape = shape[:axis] + (rows,) + shape[axis + 1 :]
    outer = size(shape[:axis])
    inner = size(shape[axis + 1 :])
    d = shape[axis]
    out = [ZERO] * size(new_shape)
    for o in range(outer):
        for i in range(rows):
            mi = m[i]
            for a in range(d):
                c = mi[a]
                if not c:
                    continue
                src = (o * d + a) * inner
                dst = (o * rows + i) * inner
                for s in range(inner):
                    x = flat[src + s]
                    if x:
                        out[dst + s] += c * x
    return (new_shape, out)


# -- matrices -------------------------------------------------------------------


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]) if m else 0)]


def matmul(a, b):
    inner = len(b)
    ncols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(ncols)] for i in range(len(a))]


def rref(rows, ncols):
    """Gauss-Jordan over Fraction; returns (reduced rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[: len(pivots)], pivots


def rank(rows, ncols) -> int:
    distinct = {tuple(r) for r in rows if any(r)}
    return len(rref(sorted(distinct), ncols)[1])


def nullity(rows, ncols) -> int:
    return ncols - rank(rows, ncols)


def inverse(m):
    n = len(m)
    red, piv = rref([list(row) + e for row, e in zip(m, identity(n))], 2 * n)
    if piv[:n] != list(range(n)) or len(piv) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in red[:n]]


def random_matrix(rng: random.Random, nrows, ncols, lo=-3, hi=3):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]


def unimodular(rng: random.Random, n: int):
    """A random dense integer matrix of determinant +-1 and its inverse.

    It is P L U with P a permutation and L, U unitriangular with every
    off-diagonal entry in {-2, -1, 1, 2}, so every seed gives a dense matrix
    with entries of the same order.  (With entries in {-1, 1}, cancellation
    leaves a transported structure with between half and all of its
    possible nonzeros, depending on the seed.)
    """
    entries = (-2, -1, 1, 2)
    low = [[ONE if i == j else (Fraction(rng.choice(entries)) if j < i else ZERO) for j in range(n)] for i in range(n)]
    up = [[ONE if i == j else (Fraction(rng.choice(entries)) if j > i else ZERO) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    m = [row for row in matmul(low, up)]
    m = [m[p] for p in perm]
    return m, inverse(m)


# -- structures: direct sum, change of basis, functor image -------------------


def direct_sum(parts: list[dict]) -> dict:
    """Block-diagonal sum of structures of one kind."""
    kind = parts[0]["kind"]
    schema = SCHEMAS[kind]
    dims = {k: sum(p["dims"][k] for p in parts) for k in parts[0]["dims"]}
    tensors = {}
    for name, slots in schema.items():
        shape = tuple(dims[s] for s in slots)
        shape_, flat = zeros(shape)
        start = {k: 0 for k in dims}
        for p in parts:
            pshape, pflat = p["tensors"][name]
            for idx in product(*(range(d) for d in pshape)):
                x = pflat[offset(pshape, idx)]
                if x:
                    flat[offset(shape, tuple(start[s] + i for s, i in zip(slots, idx)))] = x
            for k in dims:
                start[k] += p["dims"][k]
        tensors[name] = (shape_, flat)
    return {"kind": kind, "dims": dims, "tensors": tensors}


def transport(s: dict, bases: dict) -> dict:
    """The isomorphic structure in a new basis.

    ``bases[k] = (P, P_inv)``: column ``i`` of ``P`` is the new ``i``-th
    basis vector of the space ``k`` in old coordinates.  Each map M becomes
    P_out^-1 . M . (P_1 x ... x P_k).
    """
    out = {}
    for name, slots in SCHEMAS[s["kind"]].items():
        t = s["tensors"][name]
        for axis, sp in enumerate(slots[:-1]):
            t = mode_product(t, axis, transpose(bases[sp][0]))
        t = mode_product(t, len(slots) - 1, bases[slots[-1]][1])
        out[name] = t
    return {"kind": s["kind"], "dims": dict(s["dims"]), "tensors": out}


def lie2_image(a: dict) -> dict:
    """The functor to Lie 2-algebras: antisymmetrized bracket, cyclic l3."""
    n0, n1 = a["dims"]["a0"], a["dims"]["a1"]
    t = a["tensors"]
    l2_00 = zeros((n0, n0, n0))
    l2_01 = zeros((n0, n1, n1))
    l3 = zeros((n0, n0, n0, n1))
    for i, j in product(range(n0), repeat=2):
        for q in range(n0):
            l2_00[1][offset(l2_00[0], (i, j, q))] = entry(t["mul00"], i, j, q) - entry(t["mul00"], j, i, q)
    for i, p in product(range(n0), range(n1)):
        for q in range(n1):
            l2_01[1][offset(l2_01[0], (i, p, q))] = entry(t["mul01"], i, p, q) - entry(t["mul10"], p, i, q)
    for i, j, k in product(range(n0), repeat=3):
        for q in range(n1):
            l3[1][offset(l3[0], (i, j, k, q))] = (
                entry(t["l3"], i, j, k, q) + entry(t["l3"], j, k, i, q) + entry(t["l3"], k, i, j, q)
            )
    return {
        "kind": "lie2",
        "dims": {"g0": n0, "g1": n1},
        "tensors": {"dk": t["dm"], "l2_00": l2_00, "l2_01": l2_01, "l3": l3},
    }


def left_rep(a: dict) -> dict:
    """The representation of the image on the structure's own complex."""
    t = a["tensors"]
    shape, flat = t["l3"]
    return {
        "rho0_0": t["mul00"],
        "rho0_1": t["mul01"],
        "rho1": t["mul10"],
        "rho2": (shape, [-x for x in flat]),
    }


def break_l3_skew(a: dict, where: tuple, q: int, delta: Fraction) -> dict:
    """Add ``delta`` to one l3 coefficient only, so skewness fails at ``where``."""
    shape, flat = a["tensors"]["l3"]
    flat = list(flat)
    flat[offset(shape, where + (q,))] += delta
    tensors = dict(a["tensors"], l3=(shape, flat))
    return {"kind": a["kind"], "dims": dict(a["dims"]), "tensors": tensors}


def shears(rng: random.Random, n: int, steps: int):
    """A random integer matrix of determinant +-1 and its inverse: ``steps``
    row additions with multiplier -1 or 1, then a row permutation."""
    m = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        m[i] = [x + sign * y for x, y in zip(m[i], m[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    m = [m[p] for p in perm]
    return m, inverse(m)


def random_transport(rng: random.Random, s: dict) -> dict:
    """``s`` in a random dense basis of every space (see ``unimodular``)."""
    return transport(s, {k: unimodular(rng, d) for k, d in sorted(s["dims"].items())})


# -- oracles --------------------------------------------------------------------


def prelie_assoc_defects(a: dict) -> list:
    """Basis triples where (x, y, z) = (x.y).z - x.(y.z) is not symmetric in x, y."""
    n = a["dims"]["a"]
    mul = a["tensors"]["mul"]

    def prod(u, v):
        return apply(mul, u, v)

    e = identity(n)
    bad = []
    for i, j, k in product(range(n), repeat=3):
        lhs = [x - y for x, y in zip(prod(prod(e[i], e[j]), e[k]), prod(e[i], prod(e[j], e[k])))]
        rhs = [x - y for x, y in zip(prod(prod(e[j], e[i]), e[k]), prod(e[j], prod(e[i], e[k])))]
        if lhs != rhs:
            bad.append((i, j, k))
    return bad


def invariance_rows(mul, n):
    """Linear system on skew forms w (coordinates w(e_i, e_j), i < j):
    w([x, y], z) + w(y, x.z) = 0 on basis triples, [x, y] = x.y - y.x."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    col = {p: c for c, p in enumerate(pairs)}

    def add(row, u, v, coeff):
        if u < v:
            row[col[(u, v)]] += coeff
        elif u > v:
            row[col[(v, u)]] -= coeff

    rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [ZERO] * len(pairs)
        for q in range(n):
            c = entry(mul, i, j, q) - entry(mul, j, i, q)
            if c:
                add(row, q, k, c)
            c = entry(mul, i, k, q)
            if c:
                add(row, j, q, c)
        rows.append(row)
    return rows, len(pairs)


def form_is_invariant(mul, n, omega) -> bool:
    """``omega`` is an n x n matrix; skew and invariant."""
    for i, j in product(range(n), repeat=2):
        if omega[i][j] != -omega[j][i]:
            return False
    for i, j, k in product(range(n), repeat=3):
        total = ZERO
        for q in range(n):
            total += (entry(mul, i, j, q) - entry(mul, j, i, q)) * omega[q][k]
            total += entry(mul, i, k, q) * omega[j][q]
        if total:
            return False
    return True


def bridge_values(mul, n, dm_entries) -> list:
    """Every component of the three compatibility conditions of a connecting
    map dm: A* -> A given by its nonzero entries ``(p, q, value)``, the
    q-th coordinate of the image of the p-th dual basis vector.

    On A*, x.xi = ad*_x xi and xi.x = -R*_x xi; in dual coordinates
    ad(i, p, q) = mul(q, i, p) - mul(i, q, p) and nr(p, i, q) = mul(q, i, p).
    The conditions are dm(x.xi) = x.dm(xi), dm(xi.x) = dm(xi).x and
    dm(xi).eta = xi.dm(eta).
    """

    def m(i, j, q):
        return entry(mul, i, j, q)

    def ad(i, p, q):
        return m(q, i, p) - m(i, q, p)

    def nr(p, i, q):
        return m(q, i, p)

    by_row = {p: [] for p in range(n)}
    by_col = {q: [] for q in range(n)}
    for p, q, v in dm_entries:
        by_row[p].append((q, v))
        by_col[q].append((p, v))
    vals = []
    for i, p in product(range(n), repeat=2):
        for q in range(n):
            lhs = sum((ad(i, p, r) * v for r, v in by_col[q]), ZERO)
            vals.append(lhs - sum((v * m(i, j, q) for j, v in by_row[p]), ZERO))
        for q in range(n):
            lhs = sum((nr(p, i, r) * v for r, v in by_col[q]), ZERO)
            vals.append(lhs - sum((v * m(j, i, q) for j, v in by_row[p]), ZERO))
    for p, q in product(range(n), repeat=2):
        for r in range(n):
            lhs = sum((v * ad(j, q, r) for j, v in by_row[p]), ZERO)
            vals.append(lhs - sum((v * nr(p, j, r) for j, v in by_row[q]), ZERO))
    return vals


def bridge_defects(mul, n, dm) -> bool:
    """True when the dense connecting map ``dm`` breaks a condition."""
    entries = [(p, q, dm[p][q]) for p in range(n) for q in range(n) if dm[p][q]]
    return any(bridge_values(mul, n, entries))


def bridge_rows(mul, n):
    """The bridge conditions as a linear system on skew dm (coordinates p < q)."""
    params = [(p, q) for p in range(n) for q in range(p + 1, n)]
    cols = [bridge_values(mul, n, [(p, q, ONE), (q, p, -ONE)]) for p, q in params]
    return transpose(cols), len(params)


def chain_endomorphism_rows(dm, n0, n1):
    """Pairs (A0, A1), flattened row-major and concatenated, with A0 dm = dm A1.

    ``dm`` is the (n1, n0) tensor of the differential V1 -> V0.  A pair is
    stored as the coefficients of the two linear maps in structure-file
    layout, entry [i][j] the j-th coordinate of the image of e_i.
    """
    nvars = n0 * n0 + n1 * n1
    rows = []
    for p, q in product(range(n1), range(n0)):
        row = [ZERO] * nvars
        for i in range(n0):
            row[i * n0 + q] += entry(dm, p, i)
        for r in range(n1):
            row[n0 * n0 + p * n1 + r] -= entry(dm, r, q)
        rows.append(row)
    return rows, nvars


def commutes_with_differential(dm, n0, n1, a0, a1) -> bool:
    """A0(dm(f_p)) == dm(A1(f_p)) for every basis vector f_p of V1."""
    for p in range(n1):
        lhs = [sum((entry(dm, p, i) * a0[i * n0 + q] for i in range(n0)), ZERO) for q in range(n0)]
        rhs = [sum((a1[p * n1 + r] * entry(dm, r, q) for r in range(n1)), ZERO) for q in range(n0)]
        if lhs != rhs:
            return False
    return True


# -- 2-term structures evaluated on coefficient vectors ------------------------


def apply(t, *args) -> list:
    """Evaluate a multilinear tensor on coefficient vectors."""
    shape, flat = t
    out = [ZERO] * shape[-1]
    supports = [[(i, c) for i, c in enumerate(a) if c] for a in args]
    for combo in product(*supports):
        w = ONE
        idx = []
        for i, c in combo:
            w *= c
            idx.append(i)
        for q, c in enumerate(image(t, *idx)):
            if c:
                out[q] += w * c
    return out


def add(*vs) -> list:
    return [sum(xs, ZERO) for xs in zip(*vs)]


def neg(v) -> list:
    return [-x for x in v]


def is_zero(v) -> bool:
    return not any(v)


def prelie2_defects(a: dict) -> list:
    """Condition families of a 2-term pre-Lie structure that fail.

    mul10 takes its degree-1 argument first; l3 is skew in its first two
    slots; (b) and (c) are the homotopy pre-Lie identities.
    """
    n0, n1 = a["dims"]["a0"], a["dims"]["a1"]
    t = a["tensors"]
    e0, e1 = identity(n0), identity(n1)

    def d(m):
        return apply(t["dm"], m)

    def m00(u, v):
        return apply(t["mul00"], u, v)

    def m01(u, m):
        return apply(t["mul01"], u, m)

    def m10(m, u):
        return apply(t["mul10"], m, u)

    def l3(u, v, w):
        return apply(t["l3"], u, v, w)

    def assoc_defect(x, y, z, outer, inner):
        # x.(y.z) - (x.y).z - y.(x.z) + (y.x).z
        return add(outer(x, inner(y, z)), neg(inner(m00(x, y), z)), neg(outer(y, inner(x, z))), inner(m00(y, x), z))

    bad = set()
    for u, v, w in product(e0, repeat=3):
        if not is_zero(add(l3(u, v, w), l3(v, u, w))):
            bad.add("skew-l3")
        if not is_zero(add(assoc_defect(u, v, w, m00, m00), neg(d(l3(u, v, w))))):
            bad.add("b1")
    for u, m in product(e0, e1):
        if d(m01(u, m)) != m00(u, d(m)):
            bad.add("a1")
        if d(m10(m, u)) != m00(d(m), u):
            bad.add("a2")
    for m, n in product(e1, repeat=2):
        if m01(d(m), n) != m10(m, d(n)):
            bad.add("a3")
    for u, v, m in product(e0, e0, e1):
        if not is_zero(add(assoc_defect(u, v, m, m01, m01), neg(l3(u, v, d(m))))):
            bad.add("b2")
    for m, v, w in product(e1, e0, e0):
        lhs = add(m10(m, m00(v, w)), neg(m10(m10(m, v), w)), m10(m01(v, m), w), neg(m01(v, m10(m, w))))
        if not is_zero(add(lhs, neg(l3(d(m), v, w)))):
            bad.add("b3")
    for v0, v1, v2, v3 in product(e0, repeat=4):
        def br(x, y):
            return add(m00(x, y), neg(m00(y, x)))

        total = add(
            m01(v0, l3(v1, v2, v3)), neg(m01(v1, l3(v0, v2, v3))), m01(v2, l3(v0, v1, v3)),
            m10(l3(v1, v2, v0), v3), neg(m10(l3(v0, v2, v1), v3)), m10(l3(v0, v1, v2), v3),
            neg(l3(v1, v2, m00(v0, v3))), l3(v0, v2, m00(v1, v3)), neg(l3(v0, v1, m00(v2, v3))),
            neg(l3(br(v0, v1), v2, v3)), l3(br(v0, v2), v1, v3), neg(l3(br(v1, v2), v0, v3)),
        )
        if not is_zero(total):
            bad.add("c")
    return sorted(bad)


def o_operator_defects(lie: dict, rep: dict, dm, t0, t1, t2) -> list:
    """Conditions of an operator (T0, T1, T2) relative to a representation.

    ``lie`` is a Lie 2-algebra, ``rep`` its action on the complex with
    differential ``dm``; T0: V0 -> g0, T1: V1 -> g1, T2: V0 x V0 -> g1.
    """
    g = lie["tensors"]
    nv0, nv1 = dm[0][1], dm[0][0]
    e0, e1 = identity(nv0), identity(nv1)

    def T0(u):
        return apply(t0, u)

    def T1(m):
        return apply(t1, m)

    def T2(u, w):
        return apply(t2, u, w)

    def r00(x, u):
        return apply(rep["rho0_0"], x, u)

    bad = set()
    for m in e1:
        if T0(apply(dm, m)) != apply(g["dk"], T1(m)):
            bad.add("chain")
    for u, w in product(e0, repeat=2):
        if not is_zero(add(T2(u, w), T2(w, u))):
            bad.add("skew-t2")
        lhs = add(T0(add(r00(T0(u), w), neg(r00(T0(w), u)))), neg(apply(g["l2_00"], T0(u), T0(w))))
        if lhs != apply(g["dk"], T2(u, w)):
            bad.add("i")
    for m, w in product(e1, e0):
        lhs = add(T1(add(apply(rep["rho1"], T1(m), w), neg(apply(rep["rho0_1"], T0(w), m)))), apply(g["l2_01"], T0(w), T1(m)))
        if lhs != T2(apply(dm, m), w):
            bad.add("ii")
    for vs in product(e0, repeat=3):
        total = apply(g["l3"], T0(vs[0]), T0(vs[1]), T0(vs[2]))
        for a, b, c in (vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            total = add(
                total,
                apply(g["l2_01"], T0(a), T2(b, c)),
                T2(c, add(r00(T0(a), b), neg(r00(T0(b), a)))),
                T1(add(apply(rep["rho1"], T2(b, c), a), apply(rep["rho2"], T0(b), T0(c), a))),
            )
        if not is_zero(total):
            bad.add("iii")
    return sorted(bad)


def o_search_grid(lie: dict, dm, bound: int = 1):
    """Every (T0, T1, T2) with entries in [-bound, bound] and T2 skew."""
    ng0, ng1 = lie["dims"]["g0"], lie["dims"]["g1"]
    nv0, nv1 = dm[0][1], dm[0][0]
    values = [Fraction(k) for k in range(-bound, bound + 1)]
    pairs = [(i, j) for i in range(nv0) for j in range(i + 1, nv0)]
    for c0 in product(values, repeat=nv0 * ng0):
        for c1 in product(values, repeat=nv1 * ng1):
            for c2 in product(values, repeat=len(pairs) * ng1):
                flat = [ZERO] * (nv0 * nv0 * ng1)
                for s, (i, j) in enumerate(pairs):
                    for q in range(ng1):
                        flat[(i * nv0 + j) * ng1 + q] = c2[s * ng1 + q]
                        flat[(j * nv0 + i) * ng1 + q] = -c2[s * ng1 + q]
                yield ((nv0, ng0), list(c0)), ((nv1, ng1), list(c1)), ((nv0, nv0, ng1), flat)
