"""Validation reports: per-family instance counts plus every failed instance.

Validators compare the two sides of each law instance in their own loops
over the tables, record a failing instance with `ValidationReport.fail`,
building its subjects and printed sides only then, and count each family
once with `tally`. Reports are deterministic: failures and counts are sorted
before rendering, so the same structure produces byte-identical text
regardless of instance generation order.

`Check` and `run_checks` are the former reference evaluator: a list of
(family, subjects, thunk) instances evaluated in order. No validator and no
test evaluates them; they stay only because the bench's layer list
(bench/spans.py, LAYERS) names `report.run_checks`, and go with that entry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import AxiomFailure

MISSING = "<missing>"


@dataclass(frozen=True)
class AxiomInstance:
    """One checked law instance: the family tag, the identifiers that
    instantiate it, and the two sides that were compared."""

    family: str
    subjects: tuple[str, ...]
    lhs: str
    rhs: str

    def key(self) -> tuple:
        return (self.family, self.subjects)

    def render(self) -> str:
        subj = ",".join(self.subjects)
        return f"fail {self.family} @ {subj} : {self.lhs} != {self.rhs}"


# An instance check: (family, subjects, thunk); the thunk returns the two
# identifiers (or None) to compare.
Check = tuple[str, tuple[str, ...], Callable[[], tuple[Optional[str], Optional[str]]]]


@dataclass
class ValidationReport:
    structure: str
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[AxiomInstance] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def total_checked(self) -> int:
        return sum(self.counts.values())

    def count(self, family: str, n: int = 1) -> None:
        self.counts[family] = self.counts.get(family, 0) + n

    def check(self, family: str, subjects: tuple[str, ...], lhs, rhs) -> bool:
        """Count one instance of a family and record it as failed unless both
        sides are present and equal; return whether it passed."""
        self.counts[family] = self.counts.get(family, 0) + 1
        if lhs is None or rhs is None or lhs != rhs:
            self.fail(family, subjects, lhs, rhs)
            return False
        return True

    def fail(self, family: str, subjects: tuple[str, ...], lhs, rhs) -> None:
        self.failures.append(
            AxiomInstance(family, subjects, lhs if lhs is not None else MISSING,
                          rhs if rhs is not None else MISSING))

    def has_failure(self, family: str, subjects: tuple[str, ...]) -> bool:
        return any(f.family == family and f.subjects == subjects for f in self.failures)

    def merge(self, other: "ValidationReport") -> None:
        for fam, n in other.counts.items():
            self.count(fam, n)
        self.failures.extend(other.failures)

    def merge_prefixed(self, other: "ValidationReport", prefix: str) -> None:
        for fam, n in other.counts.items():
            self.count(prefix + fam, n)
        for inst in other.failures:
            self.failures.append(AxiomInstance(prefix + inst.family, inst.subjects,
                                               inst.lhs, inst.rhs))

    def require_pass(self, name: str, command: str) -> None:
        """Raise AxiomFailure (exit 1) unless every instance passed: command
        needs an input named name that passes validation."""
        if self.failures:
            raise AxiomFailure(f"{name}: validation fails "
                               f"{len(self.failures)} instances; {command} needs one that passes")

    def finish(self) -> "ValidationReport":
        self.failures.sort(key=AxiomInstance.key)
        return self

    def render(self) -> str:
        lines = [f"report {self.structure}", f"status {'PASS' if self.ok else 'FAIL'}"]
        for fam in sorted(self.counts):
            lines.append(f"checked {fam} = {self.counts[fam]}")
        for inst in sorted(self.failures, key=AxiomInstance.key):
            lines.append(inst.render())
        lines.append(f"total-checked = {self.total_checked()}")
        lines.append(f"total-failed = {len(self.failures)}")
        return "\n".join(lines) + "\n"


def tally(report: ValidationReport, counts: dict[str, int]) -> None:
    """Count the instances of each family; a family with none gets no line."""
    for family, n in counts.items():
        if n:
            report.count(family, n)


def run_checks(structure: str, checks: Iterable[Check]) -> ValidationReport:
    """Evaluate instance checks in order into a sorted report (the reference
    evaluator)."""
    report = ValidationReport(structure)
    for family, subjects, thunk in checks:
        lhs, rhs = thunk()
        report.check(family, subjects, lhs, rhs)
    return report.finish()
