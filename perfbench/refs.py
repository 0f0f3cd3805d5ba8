"""Regenerate the output references in perfbench/ref from the current code.

Run it from the root of a checkout whose outputs are known to be right:

    python3 perfbench/refs.py

It writes expected.json, which lists for each job the checks its report must
contain with their sample counts (and, for groups, the recovered structure
constants), and one reference CSV per transport job.  The benchmark's seed
must not change any of these, so every job runs with two seeds and the
script stops if their references differ.
"""

from __future__ import annotations

import json
import sys

from outputs import report_of
from run import REF, WORK, import_checkout, jobs_for, run_job

SEEDS = (1, 2)


def references(seed: int):
    import invalg.cli as cli

    expected, csvs = {}, {}
    for workload in ("verify", "transport", "groupoid"):
        for job in jobs_for(workload, seed):
            code, _, out = run_job(cli, job)
            report = report_of(out["stdout"])
            if code != 0 or report is None:
                raise SystemExit("error: %s exited %r without a report" % (job.key, code))
            entry = {"checks": [[c["name"], c["samples"]] for c in report["checks"]]}
            if workload == "groupoid":
                entry["constants"] = json.loads(out["stdout"])["constants"]
            expected[job.key] = entry
            if job.csv is not None:
                csvs[job.csv.name] = out["csv"]
    return expected, csvs


def main() -> int:
    import_checkout()
    WORK.mkdir(exist_ok=True)
    first, *others = [references(seed) for seed in SEEDS]
    if any(other != first for other in others):
        raise SystemExit("error: references depend on the seed")
    expected, csvs = first
    REF.mkdir(exist_ok=True)
    lines = ["  %s: %s" % (json.dumps(key), json.dumps(expected[key], sort_keys=True))
             for key in sorted(expected)]
    (REF / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for name, text in csvs.items():
        (REF / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
