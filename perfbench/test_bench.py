"""Tests of the benchmark's output gate, tracer and speed gauge.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import math
import time

import pytest

from outputs import csv_failures, job_failures, report_failures, report_of
import gauge
from run import Job, Runner, import_checkout, jobs_for, load_refs
from spans import Tracer


def report_json(*checks, passed=True):
    return json.dumps({"passed": passed, "checks": [
        {"name": name, "samples": samples, "seed": 1, "max_residual": residual,
         "tolerance": 1e-9, "passed": ok, "worst_input": None}
        for name, samples, residual, ok in checks]})


GOOD = report_json(("flip", 20, 1e-15, True), ("unit", 20, 0.0, True))
EXPECTED = [["flip", 20], ["unit", 20]]
REF_CSV = "0,0.5,1.25\n0.5,0.75,-2\n"


def test_passing_job_has_no_failures():
    out = {"stdout": GOOD, "csv": REF_CSV}
    assert job_failures(0, out, dict(out), EXPECTED, csv_reference=REF_CSV) == []


def test_nonzero_exit_is_a_failure():
    assert job_failures(1, {"stdout": GOOD}, None, EXPECTED)


def test_failed_check_is_a_failure():
    bad = report_json(("flip", 20, 2.0, False), ("unit", 20, 0.0, True), passed=False)
    assert report_failures(report_of(bad), EXPECTED) == ["check flip did not pass"]


def test_nan_residual_is_a_failure_even_when_marked_passed():
    # json writes NaN as a bare token; the gate reads the residual, not the verdict
    bad = report_json(("flip", 20, math.nan, True), ("unit", 20, 0.0, True))
    assert "NaN" in bad
    reasons = report_failures(report_of(bad), EXPECTED)
    assert reasons and "non-finite" in reasons[0]
    inf = report_json(("flip", 20, math.inf, True), ("unit", 20, 0.0, True))
    assert report_failures(report_of(inf), EXPECTED)


def test_missing_or_smaller_check_is_a_failure():
    fewer = report_json(("flip", 10, 0.0, True))
    reasons = report_failures(report_of(fewer), EXPECTED)
    assert len(reasons) == 2


def test_unreadable_report_is_a_failure():
    assert report_failures(report_of("overall: pass"), EXPECTED)


def test_trajectory_out_of_tolerance_is_a_failure():
    assert csv_failures("0,0.5,1.25\n0.5,0.75,-2.000000000000001\n", REF_CSV) == []
    assert csv_failures("0,0.5,1.25\n0.5,0.75,-2.000001\n", REF_CSV)
    assert csv_failures("0,0.5,nan\n0.5,0.75,-2\n", REF_CSV)
    assert csv_failures("0,0.5,1.25\n", REF_CSV)


def test_byte_mismatch_is_a_failure():
    first = {"stdout": GOOD}
    again = {"stdout": GOOD.replace("1e-15", "1.0000000000000001e-15")}
    assert job_failures(0, again, first, EXPECTED) == ["output bytes differ from the first pass"]


@pytest.fixture
def tangent_check_runner():
    import_checkout()
    jobs = [j for j in jobs_for("transport", 1) if j.key == "transport/check-tangent-path"]
    return Runner(jobs, *load_refs(jobs))


def test_real_job_passes_then_fails_on_changed_or_nan_output(tangent_check_runner, monkeypatch):
    from invalg.flow import APathVariation

    runner = tangent_check_runner
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 0)

    original = APathVariation.membership_residual

    def drift(self, inv, grid=33):
        out = original(self, inv, grid)
        out["anchor"] += 1e-13  # still within tolerance, but other bytes
        return out

    monkeypatch.setattr(APathVariation, "membership_residual", drift)
    runner.run_pass()
    assert runner.failed == 1 and "output bytes differ" in runner.reasons[-1]

    monkeypatch.setattr(APathVariation, "membership_residual",
                        lambda self, inv, grid=33: {"anchor": math.nan, "variation": 0.0})
    runner.run_pass()
    assert runner.failed == 2


def test_job_list_requests_solution_points():
    points = {j.key: j.points for j in jobs_for("transport", 1)}
    assert points["transport/holonomy"] == 2 * 11 * 50
    assert points["transport/tangent-path"] == 500
    assert all(isinstance(j, Job) for j in jobs_for("verify", 3))


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.span("jet.leaf", leaf)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tracer.span("algebroid.outer", outer)()
    assert tracer.calls == {"jet.leaf": 2, "algebroid.outer": 1}
    assert len(tracer.spans) == 3
    root = [s for s in tracer.spans if s[1] == "algebroid.outer"][0]
    assert all(s[4] == root[0] for s in tracer.spans if s[1] == "jet.leaf")
    assert 0.009 < tracer.self_s["algebroid.outer"] < 0.04
    assert tracer.incl_s["algebroid.outer"] == pytest.approx(
        tracer.self_s["algebroid.outer"] + tracer.self_s["jet.leaf"])
    layers = tracer.layer_self_s()
    assert layers["jet"] == tracer.self_s["jet.leaf"]


def test_gauge_scales_by_the_kernel_times_around_an_interval(monkeypatch):
    times = iter([2 * gauge.REFERENCE_S, gauge.REFERENCE_S, gauge.REFERENCE_S])
    monkeypatch.setattr(gauge, "kernel", lambda: next(times))
    g = gauge.Gauge()
    assert g.scale(1.5) == pytest.approx(1.5 / 1.5)
    assert g.scale(1.5) == pytest.approx(1.5)
