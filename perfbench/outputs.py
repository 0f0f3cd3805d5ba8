"""Output gate: decides whether one job of a benchmark pass failed.

A job fails when any of these holds:

* the command exits with a code other than 0;
* its JSON report is missing or unreadable, or any check in it has
  ``passed: false``;
* any check has a non-finite ``max_residual``.  This is read from the report
  itself, so it does not depend on how ``run_check`` folds residuals;
* a check the reference lists is missing, or ran on fewer samples;
* recovered structure constants differ from the reference by more than
  CONSTANT_TOL;
* a transport CSV differs from the reference CSV by more than CSV_ATOL +
  CSV_RTOL * |reference| in any entry, or has another shape;
* its output bytes differ from those of the first pass of the same run.
"""

from __future__ import annotations

import json
import math

# Residual digits may change legitimately across commits (another summation
# order, a batched evaluation); an error of the integrator itself is far larger.
CSV_ATOL = 1e-10
CSV_RTOL = 1e-9
CONSTANT_TOL = 1e-9


def report_of(stdout: str):
    """The check report inside a job's JSON output, or None."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if isinstance(doc, dict) and isinstance(doc.get("report"), dict):
        doc = doc["report"]
    if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
        return None
    return doc


def report_failures(report, expected) -> list:
    """Reasons a parsed report fails; expected lists [name, samples] pairs."""
    if report is None:
        return ["no JSON report on stdout"]
    reasons = []
    seen = {}
    for check in report["checks"]:
        name = check.get("name")
        seen[name] = check.get("samples", 0)
        if check.get("passed") is not True:
            reasons.append("check %s did not pass" % name)
        residual = check.get("max_residual")
        if not isinstance(residual, (int, float)) or not math.isfinite(residual):
            reasons.append("check %s has non-finite max_residual %r" % (name, residual))
    for name, samples in expected:
        if name not in seen:
            reasons.append("check %s is missing" % name)
        elif seen[name] < samples:
            reasons.append("check %s ran %s samples, expected %d" % (name, seen[name], samples))
    return reasons


def constants_failures(stdout: str, expected) -> list:
    """Compare recovered structure constants with the reference entries."""
    try:
        got = json.loads(stdout)["constants"]
    except (ValueError, KeyError, TypeError):
        return ["no structure constants in the output"]

    def table(entries):
        out = {}
        for e in entries:
            for term in e["terms"]:
                key = (e["i"], e["j"], e["k"], tuple(term["exponents"]))
                out[key] = out.get(key, 0.0) + term["coeff"]
        return out

    got, want = table(got), table(expected)
    worst = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)),
                default=0.0)
    if not worst <= CONSTANT_TOL:
        return ["structure constants differ from the reference by %r" % worst]
    return []


def parse_csv(text: str) -> list:
    return [[float(x) for x in line.split(",")] for line in text.splitlines() if line]


def csv_failures(text: str, reference: str) -> list:
    """Compare a transport CSV with its reference, entry by entry."""
    try:
        got = parse_csv(text)
    except ValueError:
        return ["transport CSV is not numeric"]
    want = parse_csv(reference)
    if [len(r) for r in got] != [len(r) for r in want]:
        return ["transport CSV has shape %d rows, reference %d rows"
                % (len(got), len(want))]
    worst = 0.0
    for row, ref_row in zip(got, want):
        for x, r in zip(row, ref_row):
            excess = abs(x - r) - (CSV_ATOL + CSV_RTOL * abs(r))
            if not excess <= worst:
                worst = excess if math.isfinite(excess) else math.inf
    if worst > 0.0:
        return ["transport CSV is %r beyond tolerance of the reference" % worst]
    return []


def job_failures(exit_code: int, outputs: dict, first_outputs, expected_checks,
                 expected_constants=None, csv_reference=None) -> list:
    """All reasons one job failed; an empty list means it passed.

    outputs maps "stdout" (and "csv" for a transport) to the text produced;
    first_outputs is the same job's outputs in the run's first pass, or None
    in that pass itself.
    """
    reasons = []
    if exit_code != 0:
        reasons.append("exit code %r" % (exit_code,))
    stdout = outputs["stdout"]
    reasons += report_failures(report_of(stdout), expected_checks)
    if expected_constants is not None:
        reasons += constants_failures(stdout, expected_constants)
    if csv_reference is not None:
        reasons += csv_failures(outputs.get("csv", ""), csv_reference)
    if first_outputs is not None and outputs != first_outputs:
        reasons.append("output bytes differ from the first pass")
    return reasons
