"""Check reports: named residuals, tolerances, pass/fail, deterministic serialization."""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Optional

import numpy as np


class FixtureError(ValueError):
    """Anything wrong with an input file or flag value; maps to exit code 2."""


class _Frozen:
    """Base of the value classes: each __init__ fills vars(self) once, and
    assigning or deleting an attribute afterwards raises AttributeError, so
    whatever a class caches from its fields stays true."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)


class _Value(_Frozen):
    """A _Frozen class that compares and hashes as the tuple of its fields,
    the constructor arguments that _fields names."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class CheckResult(_Value):
    _fields = ("name", "samples", "seed", "max_residual", "tolerance", "passed", "worst_input")

    def __init__(self, name: str, samples: int, seed: Optional[int], max_residual: float,
                 tolerance: float, passed: bool, worst_input: object = None):
        self.__dict__.update(name=name, samples=samples, seed=seed, max_residual=max_residual,
                             tolerance=tolerance, passed=passed, worst_input=worst_input)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


class Report:
    def __init__(self, results: list = None):
        self.results = [] if results is None else results

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.results == other.results

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


def _passes(residual: float, tolerance: float) -> bool:
    """A residual passes its check only when it is finite and at most the
    tolerance, so an inf residual fails even an inf tolerance."""
    return bool(math.isfinite(residual) and residual <= tolerance)


def _judged(report: Report, overrides) -> Report:
    """report with the rows that overrides names re-judged: each override is
    "NAME=VALUE", a finite nonnegative tolerance for the row called NAME.
    The fold picks a row's worst residual without looking at its tolerance,
    so this is the report the suite gives with that tolerance."""
    tolerances = {}
    for item in overrides or []:
        name, sep, value = item.partition("=")
        try:
            tol = float(value) if sep and name else math.nan
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol >= 0):
            raise FixtureError("--tolerance expects name=value with a finite value >= 0, "
                               "got %r" % item)
        tolerances[name.strip()] = tol
    unknown = sorted(set(tolerances) - set(report.names()))
    if unknown:
        raise FixtureError("--tolerance names no check of this report: %s" % ", ".join(unknown))
    return Report([CheckResult(r.name, r.samples, r.seed, r.max_residual, tolerances[r.name],
                               _passes(r.max_residual, tolerances[r.name]), r.worst_input)
                   if r.name in tolerances else r for r in report.results])


def _worst_index(stack: np.ndarray) -> np.ndarray:
    """Index along the first axis of the worst residual: the largest, with a
    non-finite one (NaN included) ranking above every finite one, and the
    lowest index winning a tie."""
    return np.where(np.isfinite(stack), stack, np.inf).argmax(axis=0)


def worst_of(residuals: Iterable) -> object:
    """The worst of some residuals: the largest, or the first non-finite one,
    so that a NaN never hides behind a number; 0.0 when there are none.
    Residuals given as arrays of one entry per sample are compared sample by
    sample, and the result is that array of worst parts.  An array given
    whole is its first axis of parts, as iterating it gives, and is ranked
    as one stack without converting its entries one by one."""
    if isinstance(residuals, np.ndarray) and residuals.ndim:
        stack = residuals.astype(float, copy=False)
    else:
        parts = [np.asarray(r, dtype=float) for r in residuals]
        stack = np.stack(np.broadcast_arrays(*parts)) if parts else np.empty(0)
    if not len(stack):
        return 0.0
    worst = np.take_along_axis(stack, _worst_index(stack)[None], axis=0)[0]
    return float(worst) if worst.ndim == 0 else worst


def quiet() -> np.errstate:
    """Silence numpy's overflow and invalid-value warnings: an inf or NaN
    residual already fails its check."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _residuals(count: int, evaluate: Callable[[slice], object]) -> np.ndarray:
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
    values = np.asarray(values, dtype=float)
    return values if values.shape == (count,) else np.broadcast_to(values, (count,))


def _fold(name: str, count: int, evaluate: Callable[[slice], object], tolerance: float,
          seed: Optional[int], serialize: Callable[[int], object] = None) -> CheckResult:
    """Evaluate a residual over a batch of count pre-drawn samples and fold
    it into a CheckResult; serialize(i) describes sample i.

    The worst sample is picked by worst_of's rule (_worst_index), so a
    non-finite residual fails the check whatever the tolerance.
    See _residuals for a batch that raises.  numpy's overflow warnings are
    silenced while the residuals are computed.
    """
    if not count:
        return CheckResult(name, 0, seed, 0.0, tolerance, True, None)
    with quiet():
        residuals = _residuals(count, evaluate)
        worst_idx = int(_worst_index(residuals))
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
