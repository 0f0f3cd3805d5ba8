"""Closed-loop benchmark of the invalg command line.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

One client, one process, no worker threads.  A pass runs the workload's job
list once; each job calls ``invalg.cli.main(argv)`` in this process and waits
for it.  The run imports invalg from the checkout's ``src``, runs one warm-up
pass, then repeats passes until ``--seconds`` have gone by since it started.
Every job of every pass goes through the output gate in outputs.py.

Times are scaled to a reference machine speed by gauge.py, which times a
fixed kernel around every job, because the machine is shared and its speed
moves by up to a factor of two.  The measured times are printed alongside.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
medians over the passes, and the highest percentile with ten passes above it
is printed.  With ``--trace 1`` the run times acceptance criteria 1, 3 and 9
once, spends half of what is left on untraced passes and half on passes
traced by spans.py, and reports the per-layer metrics.  The last line of
stdout is one JSON object.  Timing uses only time.perf_counter and getrusage
on this process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from gauge import Gauge
from outputs import job_failures, report_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REF = BENCH / "ref"

VERIFY_SAMPLES = 20
GROUP_SAMPLES = 10
HOLONOMY_STEP = 0.02
PATH_STEP = 0.002
HOMOTOPY_GRID = 11  # ahomotopy_transport's output grid, which the CLI keeps
GROUPS = ("so3", "sl2", "pair-groupoid(2)")
VERIFY_FIXTURES = tuple(ROOT / "fixtures" / n for n in ("so3.json", "action-cross.json")) + tuple(
    BENCH / "fixtures" / n for n in ("abelian.json", "tangent-r2.json", "sl2.json",
                                     "lie-algebra-bundle.json"))
TRANSPORT_FIXTURES = tuple(ROOT / "fixtures" / n for n in ("holonomy.json", "tangent-path.json"))

# With one client there is no queue, so the only thread pools left are BLAS's.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Job:
    key: str                      # names the job in ref/expected.json
    argv: list
    csv: Optional[Path] = None    # trajectory written by a transport job
    points: int = 0               # solution points the request asks for


def jobs_for(workload: str, seed: int) -> list:
    seed_args = ["--format", "json", "--seed", str(seed)]
    if workload == "verify":
        return [Job("verify/" + f.stem,
                    ["check", str(f), "--samples", str(VERIFY_SAMPLES)] + seed_args)
                for f in VERIFY_FIXTURES]
    if workload == "transport":
        jobs = []
        for fixture, step in zip(TRANSPORT_FIXTURES, (HOLONOMY_STEP, PATH_STEP)):
            n = round(1.0 / step)
            homotopy = fixture.stem == "holonomy"
            csv = WORK / (fixture.stem + ".csv")
            jobs.append(Job("transport/" + fixture.stem,
                            ["transport", str(fixture), "--step", repr(step),
                             "--out", str(csv)] + seed_args,
                            csv=csv, points=2 * HOMOTOPY_GRID * n if homotopy else n))
        jobs += [Job("transport/check-" + f.stem, ["check", str(f)] + seed_args)
                 for f in TRANSPORT_FIXTURES]
        return jobs
    if workload == "groupoid":
        return [Job("groupoid/" + g.split("(")[0],
                    ["differentiate-group", g, "--samples", str(GROUP_SAMPLES)] + seed_args)
                for g in GROUPS]
    raise ValueError("unknown workload %r" % workload)


# -- set-up -------------------------------------------------------------------


def set_up(workload: str) -> float:
    """Time a fresh import of invalg plus building every input the workload
    uses.  The modules loaded before are put back afterwards, so passes keep
    running on warm modules."""
    warm = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "invalg"}
    for name in warm:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("invalg")
    cli = importlib.import_module("invalg.cli")
    if workload == "groupoid":
        for name in GROUPS:
            cli.group_catalog(name)
    else:
        for fixture in VERIFY_FIXTURES if workload == "verify" else TRANSPORT_FIXTURES:
            cli.involution_from_spec(cli.load_fixture(str(fixture))["spec"])
    elapsed = time.perf_counter() - t0
    for name in [name for name in sys.modules if name.split(".")[0] == "invalg"]:
        del sys.modules[name]
    sys.modules.update(warm)
    return elapsed


def import_checkout() -> None:
    """Put the checkout's src first on the path and make sure it is what loads."""
    src = ROOT / "src"
    if not (src / "invalg" / "__init__.py").is_file():
        raise SystemExit("error: no invalg package under %s" % src)
    sys.path.insert(0, str(src))
    import invalg
    import invalg.cli  # noqa: F401  (the package does not import its CLI)
    if Path(invalg.__file__).resolve().parent != (src / "invalg").resolve():
        raise SystemExit("error: invalg imported from %s, not the checkout" % invalg.__file__)


# -- passes -------------------------------------------------------------------


def run_job(cli, job: Job):
    """Run one CLI job in-process; returns (exit code, seconds, outputs)."""
    if job.csv is not None and job.csv.exists():
        job.csv.unlink()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "exception"
    elapsed = time.perf_counter() - t0
    outputs = {"stdout": out.getvalue()}
    if job.csv is not None:
        outputs["csv"] = job.csv.read_text() if job.csv.exists() else ""
    return code, elapsed, outputs


class Runner:
    """Runs passes of one job list and keeps the failure tally.

    Every job runs between two timings of the gauge kernel, so each job's
    seconds are scaled by the machine speed measured around it."""

    def __init__(self, jobs: list, expected: dict, csv_refs: dict):
        self.jobs = jobs
        self.expected = expected
        self.csv_refs = csv_refs
        self.gauge = Gauge()
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, name: str, reasons: list) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons += ["%s: %s" % (name, r) for r in reasons]

    def run_pass(self):
        """Run every job once and gate its outputs; returns the pass's
        (measured seconds, seconds at the gauge's reference speed)."""
        cli = sys.modules["invalg.cli"]
        raw = scaled = 0.0
        outputs = []
        self.gauge.restart()
        for i, job in enumerate(self.jobs):
            code, elapsed, out = run_job(cli, job)
            raw += elapsed
            scaled += self.gauge.scale(elapsed)
            outputs.append(out)
            ref = self.expected[job.key]
            self.record(job.key, job_failures(
                code, out, None if self.first is None else self.first[i],
                ref["checks"], ref.get("constants"), self.csv_refs.get(job.key)))
        if self.first is None:
            self.first = outputs
        return raw, scaled

    def passes_until(self, deadline: float, after_each=None):
        """Run passes, at least one, the last starting before deadline;
        returns their measured and their scaled seconds as two lists."""
        raw, scaled = [], []
        while not raw or time.perf_counter() < deadline:
            r, s = self.run_pass()
            raw.append(r)
            scaled.append(s)
            if after_each is not None:
                after_each()
        return raw, scaled

    def set_up(self, workload: str) -> float:
        """One set-up, in seconds at the gauge's reference speed."""
        self.gauge.restart()
        return self.gauge.scale(set_up(workload))

    def evals_per_pass(self) -> int:
        total = 0
        for out in self.first:
            report = report_of(out["stdout"]) or {"checks": []}
            total += sum(int(c.get("samples", 0)) for c in report["checks"])
        return total

    def out_bytes_per_pass(self) -> int:
        return sum(len(text.encode()) for out in self.first for text in out.values())


def load_refs(jobs: list):
    expected = json.loads((REF / "expected.json").read_text())
    csv_refs = {job.key: (REF / job.csv.name).read_text() for job in jobs if job.csv}
    return expected, csv_refs


# -- metrics ------------------------------------------------------------------


def tail(values: list):
    """The highest order statistic with at least ten samples above it, and its
    percentile rank; the median when there are too few samples for that."""
    xs = sorted(values)
    if len(xs) < 21:
        return statistics.median(xs), 50.0
    k = len(xs) - 11
    return xs[k], 100.0 * k / (len(xs) - 1)


STRUCTURAL = ("proj_p", "flip_c", "lift_l", "insert_zero", "promote", "add_tangent",
              "sub_tangent", "neg_tangent", "residual", "split_innermost", "join_innermost")
EMIT = ("cli._emit", "cli._format_report", "cli._dumps", "flow.to_csv")


def layer_metrics(tracer, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, incl_s, counts = tracer.calls, tracer.self_s, tracer.incl_s, tracer.counts
    m = {
        "jet.scalar_new.count": counts["jet.scalar_new"],
        "jet.mul.count": counts["jet.mul"],
        "jet.add.count": counts["jet.add"],
        "jet.structural.calls": sum(calls["jet." + n] for n in STRUCTURAL),
        "jet.structural.self_s": sum(self_s["jet." + n] for n in STRUCTURAL),
        "jet.eval_floats.points_per_call":
            counts["jet.eval_floats.points"] / max(1, calls["jet.eval_floats"]),
        "algebroid.flip.us_per_call":
            1e6 * incl_s["algebroid.flip"] / max(1, calls["algebroid.flip"]),
        "algebroid.axioms_s": incl_s["algebroid.check_axioms"],
        "algebroid.yang_baxter_s": incl_s["algebroid.check_yang_baxter"],
        "algebroid.bracket_laws_s": incl_s["algebroid.check_bracket_laws"],
        "algebroid.leibniz_s": incl_s["algebroid.check_leibniz"],
        "flow.rk4.steps": counts["flow.rk4.steps"],
        "flow.ahomotopy_transport_s": incl_s["flow.ahomotopy_transport"],
        "flow.membership_s": incl_s["flow.membership_residual"],
        "report.evals": counts["report.evals"],
        "report.checks_failed": counts["report.checks_failed"],
        "bundle.calls": sum(v for k, v in calls.items() if k.startswith("bundle.")),
        "bundle.self_s": sum(v for k, v in self_s.items() if k.startswith("bundle.")),
        "cli.load_fixture_s": incl_s["cli.load_fixture"],
        "cli.emit_s": sum(incl_s[n] for n in EMIT),
        "cli.out_bytes": out_bytes,
        "catalog.get_s": incl_s["catalog.get"] + incl_s["groupoid.group_catalog"],
        "trace.spans": len(tracer.spans),
    }
    for name in ("jet.eval_jet", "jet.eval_floats", "jet.compose", "algebroid.flip",
                 "algebroid.c_apply_jet", "algebroid.anchor_apply", "groupoid.jet2_mul",
                 "groupoid.jet2_inv", "groupoid.matrix_jet", "groupoid.flip",
                 "flow.rk4_solve", "flow.apath_transport", "report.run_check"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    for layer, value in tracer.layer_self_s().items():
        m["layer.%s.self_s" % layer] = value
    return m


def environment(threads_env) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "INVALG_THREADS": "cleared (was %r)" % (threads_env,),
        "blas_threads": {k: os.environ[k] for k in SINGLE_THREAD_ENV},
        "clock": "time.perf_counter and getrusage(RUSAGE_SELF) only",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "transport", "groupoid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("INVALG_THREADS", None)
    for key in SINGLE_THREAD_ENV:
        os.environ[key] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_checkout()
    import numpy  # noqa: F401  (imported before set-up so it is not timed)

    WORK.mkdir(exist_ok=True)
    jobs = jobs_for(args.workload, args.seed)
    for path in VERIFY_FIXTURES + TRANSPORT_FIXTURES:
        if not path.is_file():
            raise SystemExit("error: missing input %s" % path)
    runner = Runner(jobs, *load_refs(jobs))
    print("env " + json.dumps(environment(threads_env), sort_keys=True))
    deadline = time.perf_counter() + args.seconds

    if args.trace:
        from criteria import BOUNDS_S, run_criteria
        from spans import Tracer, write_spans

        values = {}
        for name, (seconds, ok) in run_criteria().items():
            runner.record("gate." + name, [] if ok else ["criterion conditions failed"])
            values["gate.%s_s" % name] = seconds
            values["gate.%s_headroom" % name] = 1.0 - seconds / BOUNDS_S[name]
        runner.run_pass()
        now = time.perf_counter()
        _, untraced = runner.passes_until(now + (deadline - now) / 2)
        tracer = Tracer()
        tracer.install()
        per_pass, last_spans = [], []

        def collect():
            per_pass.append(layer_metrics(tracer, runner.out_bytes_per_pass()))
            last_spans[:] = tracer.spans
            tracer.reset()

        traced_raw, traced = runner.passes_until(deadline, collect)
        write_spans(WORK / ("spans-%s.csv" % args.workload), last_spans)
        # Layer times are measured seconds, from the least disturbed traced pass.
        values.update(per_pass[traced_raw.index(min(traced_raw))])
        u, t = statistics.median(untraced), statistics.median(traced)
        values.update({
            "trace.untraced_wall_s": u,
            "trace.traced_wall_s": t,
            "trace.overhead_s": t - u,
            "flow.transport_points_per_s": sum(job.points for job in jobs) / u,
        })
        print("trace: %d untraced passes, median %.4f s; %d traced passes, median %.4f s"
              % (len(untraced), u, len(traced), t))
        listed = spec["per_layer"]
    else:
        # Set-up is timed again after every pass, so that its median sees the
        # same machine load over the run as the pass times do.
        setup = [runner.set_up(args.workload)]
        runner.run_pass()
        raw, times = runner.passes_until(
            deadline, lambda: setup.append(runner.set_up(args.workload)))
        wall = statistics.median(times)
        value, rank = tail(times)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "law_evals_per_s": runner.evals_per_pass() / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - runner.failed / runner.attempted,
        }
        print("wall_s: %d passes, median %.4f s, p%.0f %.4f s at reference speed; "
              "measured fastest %.4f s, median %.4f s; setup_s: %d samples"
              % (len(times), wall, rank, value, min(raw), statistics.median(raw),
                 len(setup)))
        listed = spec["end_to_end"]

    for reason in runner.reasons[:20]:
        print("failed " + reason, file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
