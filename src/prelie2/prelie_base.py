"""Ordinary pre-Lie algebras: representations, cohomology, invariant forms.

The coboundary operator follows the displayed four-sum formula verbatim; the
`d∘d = 0` property tests are the arbiter for its sign conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .identities import Condition, check, rows, skew, solution, tensor
from .report import InvalidStructureError, ValidationReport, make_report, nonzero_entries
from .scalar_tensor import ONE, ZERO, MultiMap, Space, Vector, kernel_of_rows, ml_apply

SCALAR_LINE = Space(1, "k")


@dataclass(frozen=True)
class PreLieAlgebra:
    """A based algebra whose associator is symmetric in the first two slots."""

    space: Space
    mul: MultiMap  # space x space -> space

    def product(self, x: Vector, y: Vector) -> Vector:
        return ml_apply(self.mul, [x, y])


@dataclass(frozen=True)
class LieAlgebra:
    space: Space
    bracket: MultiMap  # space x space -> space

    def brk(self, x: Vector, y: Vector) -> Vector:
        return ml_apply(self.bracket, [x, y])


@dataclass(frozen=True)
class PreLieRep:
    """A representation (rho, mu) of a pre-Lie algebra on V."""

    space: Space
    rho: MultiMap  # A x V -> V
    mu: MultiMap  # A x V -> V


@dataclass(frozen=True)
class LieRep:
    space: Space
    rho: MultiMap  # g x V -> V


@dataclass(frozen=True)
class Cochain:
    """n-linear map A x ... x A -> V, skew in the first n-1 slots."""

    n: int
    map: MultiMap

    def __post_init__(self):
        if self.map.arity != self.n:
            raise ValueError(f"arity mismatch: declared {self.n}, map has {self.map.arity}")


@dataclass(frozen=True)
class InvariantForm:
    """Skew bilinear form compatible with the product (values in a line)."""

    omega: MultiMap  # A x A -> 1-dim space

    def value(self, x: Vector, y: Vector) -> Fraction:
        return ml_apply(self.omega, [x, y])[0]


# -- validators --------------------------------------------------------------


_ASSOC_SYM = (
    Condition("assoc-sym", "xyz", "mul(mul(x,y),z) - mul(x,mul(y,z)) - mul(mul(y,x),z) + mul(y,mul(x,z))"),
)


def validate_prelie(a: PreLieAlgebra) -> ValidationReport:
    """Check associator symmetry (x,y,z) = (y,x,z) on every basis triple."""
    return check({"mul": a.mul}, _ASSOC_SYM)


_LIE = (
    skew("antisym", "br", "xy", 0, 1),
    Condition("jacobi", "xyz", "br(br(x,y),z) + br(br(y,z),x) + br(br(z,x),y)"),
)


def validate_lie(g: LieAlgebra) -> ValidationReport:
    return check({"br": g.bracket}, _LIE)


_PRELIE_REP = (
    Condition("rep-lie", "xyv", "rho(mul(x,y),v) - rho(mul(y,x),v) - rho(x,rho(y,v)) + rho(y,rho(x,v))"),
    Condition("rep-mul", "xyv", "rho(x,mu(y,v)) - mu(y,rho(x,v)) - mu(mul(x,y),v) + mu(y,mu(x,v))"),
)


def validate_prelie_rep(a: PreLieAlgebra, rep: PreLieRep) -> ValidationReport:
    """rho must represent the sub-adjacent bracket; (rho, mu) must satisfy
    rho(x)mu(y) - mu(y)rho(x) = mu(x.y) - mu(y)mu(x)."""
    return check({"mul": a.mul, "rho": rep.rho, "mu": rep.mu}, _PRELIE_REP)


def validate_cochain(w: Cochain) -> ValidationReport:
    """Skewness in the first n-1 slots (pairwise swaps suffice; a nonzero
    image at a repeated entry fails the swap of those two slots)."""
    xs = [f"x{k}" for k in range(w.n)]
    pairs = combinations(range(max(w.n - 1, 0)), 2)
    return check({"w": w.map}, [skew(f"skew-{a}{b}", "w", xs, a, b) for a, b in pairs])


_FORM = (
    skew("form-skew", "om", "xy", 0, 1),
    Condition("form-invariance", "uvw", "om(mul(u,v),w) - om(mul(v,u),w) + om(v,mul(u,w))"),
)


def validate_invariant_form(a: PreLieAlgebra, form: InvariantForm) -> ValidationReport:
    return check({"mul": a.mul, "om": form.omega}, _FORM)


# -- constructions -----------------------------------------------------------


def sub_adjacent(a: PreLieAlgebra) -> LieAlgebra:
    """Commutator Lie algebra of a valid pre-Lie algebra."""
    rep = validate_prelie(a)
    if not rep.ok:
        raise InvalidStructureError("sub_adjacent needs a valid pre-Lie algebra", rep)
    return LieAlgebra(a.space, tensor({"mul": a.mul}, "xy", "mul(x,y) - mul(y,x)"))


def dual_regular_rep(a: PreLieAlgebra) -> PreLieRep:
    """(A*; ad*, -R*) on dual bases, with no validation:
    <ad*_x xi, y> = -<xi, [x, y]> and <-R*_x xi, y> = <xi, y.x>."""
    n = a.space.dim
    dual = Space(n, a.space.label + "*")
    m = a.mul.entry
    ad_star = MultiMap.build((a.space, dual), dual, lambda i, p: tuple(m(q, i, p) - m(i, q, p) for q in range(n)))
    neg_r_star = MultiMap.build((a.space, dual), dual, lambda i, p: tuple(m(q, i, p) for q in range(n)))
    return PreLieRep(dual, ad_star, neg_r_star)


def standard_reps(a: PreLieAlgebra) -> dict[str, PreLieRep]:
    """The regular representation (A; L, R) and its dual (A*; L*-R*, -R*)."""
    rep = validate_prelie(a)
    if not rep.ok:
        raise InvalidStructureError("standard_reps needs a valid pre-Lie algebra", rep)
    left_mu = tensor({"mul": a.mul}, "xy", "mul(y,x)")
    return {"left": PreLieRep(a.space, a.mul, left_mu), "dual": dual_regular_rep(a)}


def zero_rep(a: PreLieAlgebra, v: Space) -> PreLieRep:
    return PreLieRep(
        v, MultiMap.zero((a.space, v), v), MultiMap.zero((a.space, v), v)
    )


def coboundary(w: Cochain, a: PreLieAlgebra, rep: PreLieRep) -> Cochain:
    """The four-sum coboundary d: C^n -> C^(n+1)."""
    n = w.n
    if tuple(w.map.inputs) != (a.space,) * n or w.map.output != rep.space:
        raise InvalidStructureError(
            "cochain signature does not match (A, rep)", make_report([])
        )
    if n == 0:  # every sum is empty
        return Cochain(1, MultiMap.zero((a.space,), rep.space))

    def w_of(*args: str) -> str:
        return f"w({','.join(args)})"

    xs = [f"x{k}" for k in range(1, n + 2)]  # x_1 ... x_{n+1}
    last = xs[n]
    terms = []
    for i, x in enumerate(xs[:n], 1):
        plus, minus = ("+", "-") if i % 2 else ("-", "+")
        rest = xs[: i - 1] + xs[i:]  # drop x_i, keep x_{n+1} last
        terms += [f"{plus} rho({x},{w_of(*rest)})", f"{plus} mu({last},{w_of(*rest[:-1], x)})"]
        terms.append(f"{minus} {w_of(*rest[:-1], f'mul({x},{last})')}")
    for i, j in combinations(range(n), 2):
        plus, minus = ("+", "-") if (i + j) % 2 == 0 else ("-", "+")
        rest = [x for k, x in enumerate(xs) if k not in (i, j)]
        terms += [f"{plus} {w_of(f'mul({xs[i]},{xs[j]})', *rest)}", f"{minus} {w_of(f'mul({xs[j]},{xs[i]})', *rest)}"]
    tensors = {"rho": rep.rho, "mu": rep.mu, "mul": a.mul, "w": w.map}
    return Cochain(n + 1, tensor(tensors, xs, " ".join(terms)))


def cocycle_from_form(a: PreLieAlgebra, form: InvariantForm) -> Cochain:
    """The 3-cochain phi(u,v,w) = omega(u.v - v.u, w); closed when omega is
    invariant (values in the scalar line with the trivial action)."""
    inv = validate_invariant_form(a, form)
    if not inv.ok:
        raise InvalidStructureError("form is not skew-invariant", inv)

    cochain = Cochain(3, tensor({"mul": a.mul, "om": form.omega}, "uvw", "om(mul(u,v),w) - om(mul(v,u),w)"))
    d = coboundary(cochain, a, zero_rep(a, form.omega.output))
    if not d.map.is_zero():
        raise InvalidStructureError("induced 3-cochain is not closed", nonzero_entries("cocycle", d.map))
    return cochain


def skew_units(n: int) -> tuple[Fraction, ...]:
    """The flat coefficients of the skew units e_p∧e_q, one per pair p < q in
    order, over the slots (pair, p, q): unit k is 1 at (p, q) and -1 at (q, p)."""
    pairs = list(combinations(range(n), 2))
    coeffs = [ZERO] * (len(pairs) * n * n)
    for k, (p, q) in enumerate(pairs):
        coeffs[(k * n + p) * n + q] = ONE
        coeffs[(k * n + q) * n + p] = -ONE
    return tuple(coeffs)


# P(c, -, -) is the c-th skew unit form
_INVARIANCE = (Condition("form-invariance", "cuvw", "P(c,mul(u,v),w) - P(c,mul(v,u),w) + P(c,v,mul(u,w))"),)


def invariant_forms(a: PreLieAlgebra) -> list[InvariantForm]:
    """Exact solve of the invariance system over the skew bilinear forms."""
    n = a.space.dim
    pairs = Space(n * (n - 1) // 2, "pairs")
    units = MultiMap((pairs, a.space, a.space), SCALAR_LINE, skew_units(n))
    system = rows({"P": units, "mul": a.mul}, _INVARIANCE, "c")
    return [InvariantForm(solution(units, coords)) for coords in kernel_of_rows(system, pairs.dim)]


def skeletal_from_form(a: PreLieAlgebra, form: InvariantForm):
    """Skeletal 2-term structure on A ⊕ k with homotopy the induced 3-cocycle."""
    from .prelie2_core import build_skeletal

    phi = cocycle_from_form(a, form)
    return build_skeletal(a, zero_rep(a, form.omega.output), phi)
