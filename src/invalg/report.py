"""Check reports: named residuals, tolerances, pass/fail, deterministic serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    seed: Optional[int]
    max_residual: float
    tolerance: float
    passed: bool
    worst_input: object = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_input": self.worst_input,
        }


@dataclass
class Report:
    results: list = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    def __getitem__(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self) -> list:
        return [r.name for r in self.results]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                "%-28s %s  max_residual=%s  tolerance=%s  samples=%d"
                % (r.name, status, repr(r.max_residual), repr(r.tolerance), r.samples)
            )
        lines.append("overall: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["name,passed,max_residual,tolerance,samples,seed"]
        for r in self.results:
            lines.append(
                "%s,%s,%s,%s,%d,%s"
                % (
                    r.name,
                    "true" if r.passed else "false",
                    repr(r.max_residual),
                    repr(r.tolerance),
                    r.samples,
                    "" if r.seed is None else str(r.seed),
                )
            )
        return "\n".join(lines)


def _rank(r: float) -> float:
    """Sort key of a residual: a non-finite one (NaN included) ranks above
    every finite one."""
    return r if math.isfinite(r) else math.inf


def worst_of(residuals: Iterable[float]) -> float:
    """The worst of some residuals: the largest, or the first non-finite one,
    so that a NaN never hides behind a number; 0.0 when there are none."""
    return max(residuals, key=_rank, default=0.0)


def run_check(
    name: str,
    inputs: list,
    evaluate: Callable[[object], float],
    tolerance: float,
    seed: Optional[int],
    serialize: Callable[[object], object] = None,
) -> CheckResult:
    """Evaluate a residual over pre-drawn inputs and fold into a CheckResult.

    The worst case is the lowest-index maximizer, with a non-finite residual
    (NaN included) ranking above every finite one, so it fails the check.  A
    sample whose evaluation raises ValueError or ArithmeticError (a guard
    meeting NaN, a singular solve) counts as a NaN residual: it fails this
    check instead of aborting the report.
    """
    if not inputs:
        return CheckResult(name, 0, seed, 0.0, tolerance, True, None)

    def residual(x) -> float:
        try:
            return evaluate(x)
        except (ValueError, ArithmeticError):
            return math.nan

    residuals = [residual(x) for x in inputs]
    worst_idx = max(range(len(residuals)), key=lambda i: _rank(residuals[i]))
    worst = residuals[worst_idx]
    worst_input = None
    if serialize is not None:
        worst_input = serialize(inputs[worst_idx])
    return CheckResult(
        name=name,
        samples=len(inputs),
        seed=seed,
        max_residual=float(worst),
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
        worst_input=worst_input,
    )
