"""Check reports: named residuals, tolerances, pass/fail, deterministic serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        lines = ["%-28s %s  max_residual=%r  tolerance=%r  samples=%d"
                 % (r.name, "pass" if r.passed else "FAIL", r.max_residual, r.tolerance, r.samples)
                 for r in self.results]
        lines.append("overall: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["name,passed,max_residual,tolerance,samples,seed"]
        for r in self.results:
            lines.append("%s,%s,%r,%r,%d,%s" % (r.name, "true" if r.passed else "false",
                                                r.max_residual, r.tolerance, r.samples,
                                                "" if r.seed is None else r.seed))
        return "\n".join(lines)


def _rank(r: float) -> float:
    """Sort key of a residual: a non-finite one (NaN included) ranks above
    every finite one."""
    return r if math.isfinite(r) else math.inf


def _passes(residual: float, tolerance: float) -> bool:
    """A residual passes its check only when it is finite and at most the
    tolerance, so an inf residual fails even an inf tolerance."""
    return bool(math.isfinite(residual) and residual <= tolerance)


def worst_of(residuals: Iterable) -> object:
    """The worst of some residuals: the largest, or the first non-finite one,
    so that a NaN never hides behind a number; 0.0 when there are none.
    Residuals given as arrays of one entry per sample are compared sample by
    sample, and the result is that array of worst parts."""
    parts = [np.asarray(r, dtype=float) for r in residuals]
    if not parts:
        return 0.0
    stack = np.stack(np.broadcast_arrays(*parts))
    pick = np.where(np.isfinite(stack), stack, np.inf).argmax(axis=0)
    worst = np.take_along_axis(stack, pick[None], axis=0)[0]
    return float(worst) if worst.ndim == 0 else worst


def quiet() -> np.errstate:
    """Silence numpy's overflow and invalid-value warnings: an inf or NaN
    residual already fails its check."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _residuals(count: int, evaluate: Callable[[slice], object]) -> list:
    """The residual of every sample of a batch, from evaluate(rows), which
    gives the residuals of the samples the slice rows selects.  If the whole
    batch raises ValueError or ArithmeticError (a guard meeting NaN, a
    singular solve), the same evaluator runs again on one-sample slices, and
    a sample that raises on its own counts as a NaN residual."""

    def one(i: int) -> float:
        try:
            return float(np.reshape(evaluate(slice(i, i + 1)), -1)[0])
        except (ValueError, ArithmeticError):
            return math.nan

    try:
        values = evaluate(slice(None))
    except (ValueError, ArithmeticError):
        values = [one(i) for i in range(count)]
    return np.broadcast_to(np.asarray(values, dtype=float), (count,)).tolist()


def _fold(name: str, count: int, evaluate: Callable[[slice], object], tolerance: float,
          seed: Optional[int], serialize: Callable[[int], object] = None) -> CheckResult:
    """Evaluate a residual over a batch of count pre-drawn samples and fold
    it into a CheckResult; serialize(i) describes sample i.

    The worst case is the lowest-index maximizer, with a non-finite residual
    (NaN included) ranking above every finite one, so it fails the check
    whatever the tolerance.
    See _residuals for a batch that raises.  numpy's overflow warnings are
    silenced while the residuals are computed.
    """
    if not count:
        return CheckResult(name, 0, seed, 0.0, tolerance, True, None)
    with quiet():
        residuals = _residuals(count, evaluate)
        worst_idx = max(range(count), key=lambda i: _rank(residuals[i]))
        worst_input = None if serialize is None else serialize(worst_idx)
    worst = float(residuals[worst_idx])
    return CheckResult(name, count, seed, worst, tolerance, _passes(worst, tolerance),
                       worst_input)


def run_check(name: str, inputs: list, evaluate: Callable[[object], float], tolerance: float,
              seed: Optional[int], serialize: Callable[[object], object] = None) -> CheckResult:
    """Evaluate a residual over pre-drawn inputs, one at a time, and fold
    into a CheckResult as _fold does: a sample whose evaluation raises
    ValueError or ArithmeticError counts as a NaN residual."""
    inputs = list(inputs)
    return _fold(name, len(inputs), lambda rows: [evaluate(x) for x in inputs[rows]],
                 tolerance, seed, None if serialize is None else lambda i: serialize(inputs[i]))
