"""Headroom of the timed acceptance criteria 1, 3 and 9.

The calls and their correctness conditions are copied from the acceptance
tests (criteria 1, 3 and 9 bound wall time by 1 s, 10 s and 30 s) so that the
benchmark runs them once, untraced, without importing the tests.
"""

from __future__ import annotations

import time

import numpy as np

BOUNDS_S = {"c1": 1.0, "c3": 10.0, "c9": 30.0}

SOUND_FIXTURES = ("abelian", "tangent-r2", "so3", "sl2", "action-so3-r3",
                  "lie-algebra-bundle")


def criterion_1() -> bool:
    from invalg.jet import check_tangent_axioms

    report = check_tangent_axioms(samples=200, seed=3)
    worst = max(row.max_residual for row in report.results)
    return report.passed and worst < 1e-12


def criterion_3() -> bool:
    from invalg import catalog
    from invalg.algebroid import check_axioms, check_yang_baxter, involution_from_spec

    worst = 0.0
    all_pass = True
    for name in SOUND_FIXTURES:
        inv = involution_from_spec(catalog.get(name))
        for report in (check_axioms(inv, samples=200, seed=11),
                       check_yang_baxter(inv, samples=200, seed=11)):
            all_pass = all_pass and report.passed
            worst = max(worst, max(row.max_residual for row in report.results))
    return all_pass and worst < 1e-9


def _aligned_tangent_path():
    from invalg.flow import APathVariation
    from invalg.jet import PolyMap

    blocks = PolyMap.from_terms(1, [
        ((0.4, (0,)), (1.0, (2,)), (1.0, (3,))),
        ((2.0, (1,)), (3.0, (2,))),
        ((1.0, (0,)), (2.0, (1,)), (3.0, (2,))),
        ((2.0, (0,)), (6.0, (1,))),
    ])
    return APathVariation(1, 1, blocks)


def criterion_9() -> bool:
    from invalg import catalog
    from invalg.algebroid import involution_from_spec
    from invalg.bundle import AElement
    from invalg.flow import APathVariation, apath_transport, expm, rk4_solve
    from invalg.jet import PolyMap

    rng = np.random.default_rng(41)
    mat = rng.uniform(-1.0, 1.0, (4, 4))
    mat *= 2.0 / np.linalg.norm(mat, 2)
    _, states = rk4_solve(lambda t, x: (mat @ x.reshape(4, 4)).reshape(-1),
                          np.eye(4).reshape(-1), 1.0, 1e-3)
    expm_gap = float(np.max(np.abs(states[-1].reshape(4, 4) - expm(mat))))

    errors = [abs(rk4_solve(lambda t, x: x * x, np.array([0.5]), 1.0, h)[1][-1][0] - 1.0)
              for h in (0.05, 0.025, 0.0125)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    order_ok = all(12.0 <= r <= 20.0 for r in ratios)

    inv = involution_from_spec(catalog.get("tangent-r1"))
    run = apath_transport(inv, _aligned_tangent_path(), AElement([0.4], [1.0]), h=1e-3)
    a_path = 2.0 * run.times + 3.0 * run.times ** 2
    closed_gap = float(np.max(np.abs(run.fiber[:, 0] - (1.0 + a_path - a_path[0]))))
    anchor_worst = run.anchor_residual

    m0 = np.array([0.6, -0.3, 0.2])
    blocks = PolyMap.from_terms(1, [
        [(m0[0], (0,))], [(m0[1], (0,))], [(m0[2], (0,))],
        [(m0[0], (1,)), (0.5 * m0[0], (2,))],
        [(m0[1], (1,)), (0.5 * m0[1], (2,))],
        [(m0[2], (1,)), (0.5 * m0[2], (2,))],
        [], [], [],
        [(0.3 * m0[0], (2,))], [(0.3 * m0[1], (2,))], [(0.3 * m0[2], (2,))],
    ])
    inv3 = involution_from_spec(catalog.get("action-so3-r3"))
    run3 = apath_transport(inv3, APathVariation(3, 3, blocks), AElement(m0, 0.7 * m0),
                           h=1e-3)
    anchor_worst = max(anchor_worst, run3.anchor_residual)
    return expm_gap < 1e-8 and order_ok and closed_gap < 1e-8 and anchor_worst < 1e-6


CRITERIA = {"c1": criterion_1, "c3": criterion_3, "c9": criterion_9}


def run_criteria() -> dict:
    """Time each criterion once: name -> (seconds, conditions held)."""
    out = {}
    for name, fn in CRITERIA.items():
        t0 = time.perf_counter()
        ok = fn()
        out[name] = (time.perf_counter() - t0, bool(ok))
    return out
