"""Validation reports shared by every axiom checker."""

from __future__ import annotations

from dataclasses import dataclass

from .scalar_tensor import MultiMap, Vector


@dataclass(frozen=True)
class Violation:
    """One failed identity: the condition label, the basis tuple, lhs - rhs."""

    condition: str
    where: tuple[int, ...]
    defect: Vector
    derived: bool = False  # redundant cross-check rather than a primary axiom


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> tuple[str, ...]:
        return tuple(sorted({v.condition for v in self.violations}))

    def merged(self, other: ValidationReport) -> ValidationReport:
        return make_report(list(self.violations) + list(other.violations))


def make_report(violations: list[Violation]) -> ValidationReport:
    ordered = sorted(violations, key=lambda v: (v.condition, v.where))
    return ValidationReport(tuple(ordered))


def nonzero_entries(label: str, *maps: MultiMap) -> ValidationReport:
    """One violation at (): the nonzero entries of ``maps``, row-major, one
    map after the other.  Guards use it for tensors that must vanish."""
    return make_report([Violation(label, (), tuple(c for m in maps for c in m.coeffs if c))])


class InvalidStructureError(ValueError):
    """Raised when an operation requires a valid structure and got violations."""

    def __init__(self, what: str, report: ValidationReport):
        labels = ", ".join(report.conditions()) or "unspecified"
        super().__init__(f"{what}: violated conditions [{labels}]")
        self.report = report
        self.what = what
