"""Acceptance gate: one test per shipping criterion, each printing a verdict
line with the measured residuals and the tolerance it was held to."""

import json
import time

import numpy as np

from invalg import catalog
from invalg.algebroid import (
    _random_section_poly,
    braid_permutations,
    check_axioms,
    check_bracket_laws,
    check_yang_baxter,
    flip_from_bracket,
    involution_from_spec,
    roundtrip_bracket,
    sample_prolongation,
)
from invalg.bundle import AElement, ConnectionSpec, ScalarFieldSpec, SectionSpec
from invalg.cli import main as cli_main
from invalg.flow import (
    AHomotopyVariation,
    APathVariation,
    ahomotopy_transport,
    apath_transport,
    expm,
    inf_ahomotopy_vee,
    inf_ahomotopy_wedge,
    inf_apath_vee,
    inf_apath_wedge,
    rk4_solve,
)
from invalg.groupoid import (
    PairGroupoidSpec,
    differentiate_group,
    differentiate_pair_groupoid,
    group_catalog,
)
from invalg.jet import PolyMap, check_tangent_axioms, residual
from structure_reference import leibniz_defect

SOUND_FIXTURES = ("abelian", "tangent-r2", "so3", "sl2", "action-so3-r3",
                  "lie-algebra-bundle")


def record(log, number: int, label: str, ok: bool, detail: str) -> None:
    line = "[%s] criterion %2d: %s (%s)" % ("PASS" if ok else "FAIL", number, label, detail)
    log(line)
    print(line)
    assert ok, line


def test_criterion_01_tangent_structure_suite(criterion_log):
    t0 = time.perf_counter()
    report = check_tangent_axioms(samples=200, seed=3)
    elapsed = time.perf_counter() - t0
    worst = max(row.max_residual for row in report.results)
    ok = report.passed and worst < 1e-12 and elapsed < 1.0
    record(criterion_log, 1, "tangent structure identities, 200 jets", ok,
           "max residual %.2e < 1e-12, %.2f s < 1 s" % (worst, elapsed))


def test_criterion_02_discrete_braid_identity(criterion_log):
    p1, p2, expected = braid_permutations()
    symbols = tuple("abcdefg")
    left = p1(p2(p1(symbols)))
    right = p2(p1(p2(symbols)))
    ok = left == right == expected(symbols)
    record(criterion_log, 2, "seven-slot permutation braid identity", ok,
           "exact tuple equality both ways")


def test_criterion_03_axiom_suite_on_sound_fixtures(criterion_log):
    t0 = time.perf_counter()
    worst = 0.0
    all_pass = True
    for name in SOUND_FIXTURES:
        inv = involution_from_spec(catalog.get(name))
        for report in (check_axioms(inv, samples=200, seed=11),
                       check_yang_baxter(inv, samples=200, seed=11)):
            all_pass = all_pass and report.passed
            worst = max(worst, max(row.max_residual for row in report.results))
    elapsed = time.perf_counter() - t0
    ok = all_pass and worst < 1e-9 and elapsed < 10.0
    record(criterion_log, 3, "axiom suite on six sound fixtures, 200 samples", ok,
           "max residual %.2e < 1e-9, %.2f s < 10 s" % (worst, elapsed))


def test_criterion_04_negative_fixtures_detected(criterion_log):
    inv = involution_from_spec(catalog.get("broken-jacobi"))
    axioms = check_axioms(inv, samples=200, seed=5)
    braid = check_yang_baxter(inv, samples=100, seed=5)
    flip_bad = axioms["flip"].max_residual > 1e-3
    braid_bad = braid["yang-baxter"].max_residual > 1e-3
    clean = max(axioms["unit"].max_residual, axioms["involution"].max_residual) < 1e-12
    inv2 = involution_from_spec(catalog.get("incompatible-anchor"))
    target_res = check_axioms(inv2, samples=200, seed=5)["target"].max_residual
    ok = flip_bad and braid_bad and clean and target_res > 1e-3
    record(criterion_log, 4, "ill-formed fixtures fail the right checks", ok,
           "flip %.2e and braid %.2e > 1e-3 with unit/involution < 1e-12; "
           "anchor defect %.2e > 1e-3"
           % (axioms["flip"].max_residual, braid["yang-baxter"].max_residual, target_res))


def test_criterion_05_connection_independence(criterion_log):
    worst = 0.0
    for name in SOUND_FIXTURES:
        spec = catalog.get(name)
        rng = np.random.default_rng(17)
        flat = flip_from_bracket(spec, ConnectionSpec.flat(spec.dim_M, spec.dim_A))
        curved = flip_from_bracket(
            spec, ConnectionSpec.random_poly(rng, spec.dim_M, spec.dim_A, degree=2))
        for _ in range(100):
            pe = sample_prolongation(spec, rng.uniform(-1, 1, spec.dim_M), rng)
            worst = max(worst, residual(flat.flip_elements(pe).to_jet(),
                                        curved.flip_elements(pe).to_jet()))
    ok = worst < 1e-12
    record(criterion_log, 5, "flip independent of the chosen connection", ok,
           "flat vs polynomial residual %.2e < 1e-12 on 100 samples per fixture" % worst)


def test_criterion_06_roundtrips(criterion_log):
    worst_bracket = 0.0
    flip_exact = True
    for name in SOUND_FIXTURES:
        report = roundtrip_bracket(catalog.get(name), samples=40, seed=23)
        worst_bracket = max(worst_bracket, report["bracket-roundtrip"].max_residual)
        if catalog.get(name).dim_M == 0:
            flip_exact = flip_exact and report["flip-roundtrip"].max_residual == 0.0
    ok = worst_bracket < 1e-12 and flip_exact
    record(criterion_log, 6, "bracket and flip recoveries invert each other", ok,
           "bracket trip %.2e < 1e-12; point-base flip trip exact" % worst_bracket)


def test_criterion_07_bracket_laws_from_flips(criterion_log):
    worst = 0.0
    all_pass = True
    for name in SOUND_FIXTURES:
        spec = catalog.get(name)
        inv = involution_from_spec(spec)
        rng = np.random.default_rng(29)
        sections = [SectionSpec(_random_section_poly(rng, spec.dim_M, spec.dim_A, degree=3))
                    for _ in range(3)]
        field = ScalarFieldSpec(_random_section_poly(rng, spec.dim_M, 1, degree=3))
        laws = check_bracket_laws(inv, sections=sections, samples=40, seed=29)
        points = np.random.default_rng(29).uniform(-1, 1, (40, spec.dim_M))
        leib = leibniz_defect(inv, sections[0], sections[1], field, points)
        all_pass = all_pass and laws.passed and bool(np.all(leib <= 1e-9))
        worst = max(worst, *(row.max_residual for row in laws.results), *leib)
    ok = all_pass and worst < 1e-9
    record(criterion_log, 7, "recovered brackets obey the bracket laws", ok,
           "degree-3 sections, max residual %.2e < 1e-9" % worst)


def test_criterion_08_groupoid_differentiation(criterion_log):
    ok = True
    signs = []
    for name, standard in (
            ("so3", {(0, 1, 2): 1.0, (0, 2, 1): -1.0, (1, 2, 0): 1.0}),
            ("sl2", {(0, 1, 1): 2.0, (0, 2, 2): -2.0, (1, 2, 0): 1.0})):
        inv, report = differentiate_group(group_catalog(name), samples=200, seed=31)
        suite_worst = max(row.max_residual for row in report.results)
        ok = ok and report.passed and suite_worst < 1e-9
        got = {}
        pairs = inv.spec.pairs
        for k in range(inv.spec.dim_A):
            for pos, (i, j) in enumerate(pairs):
                row = inv.spec.c_pairs.terms[k * len(pairs) + pos]
                if row:
                    got[(i, j, k)] = row[0][0]
        plus = max(abs(got.get(key, 0.0) - val) for key, val in standard.items())
        minus = max(abs(got.get(key, 0.0) + val) for key, val in standard.items())
        if minus < 1e-9 and set(got) == set(standard):
            signs.append("%s: -1" % name)
        elif plus < 1e-9 and set(got) == set(standard):
            signs.append("%s: +1" % name)
        else:
            signs.append("%s: no match" % name)
            ok = False
    _, pair_report = differentiate_pair_groupoid(PairGroupoidSpec(2), samples=60, seed=31)
    pair_exact = pair_report["matches-tangent-flip"].max_residual == 0.0
    ok = ok and pair_report.passed and pair_exact
    record(criterion_log, 8, "matrix groups differentiate to their algebras", ok,
           "constants match up to overall sign [%s]; pair groupoid lands on the "
           "tangent flip exactly" % ", ".join(signs))


def aligned_tangent_path():
    # member of the line's tangent fixture whose velocity leg is the path
    # shifted by the initial fiber: transport must land on b0 + a(t) - a(0)
    blocks = PolyMap.from_terms(1, [
        ((0.4, (0,)), (1.0, (2,)), (1.0, (3,))),   # m = 0.4 + t^2 + t^3
        ((2.0, (1,)), (3.0, (2,))),                # a = 2t + 3t^2
        ((1.0, (0,)), (2.0, (1,)), (3.0, (2,))),   # mdot = 1 + a(t)
        ((2.0, (0,)), (6.0, (1,))),                # adot = d(mdot)/dt
    ])
    return APathVariation(1, 1, blocks)


def test_criterion_09_flow_integration(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    mat = rng.uniform(-1.0, 1.0, (4, 4))
    mat *= 2.0 / np.linalg.norm(mat, 2)
    times, states = rk4_solve(lambda t, x: (mat @ x.reshape(4, 4)).reshape(-1),
                              np.eye(4).reshape(-1), 1.0, 1e-3)
    expm_gap = float(np.max(np.abs(states[-1].reshape(4, 4) - expm(mat))))

    # order check on a scalar flow with known value x(1) = 1
    exact = 1.0
    errors = [abs(rk4_solve(lambda t, x: x * x, np.array([0.5]), 1.0, h)[1][-1][0] - exact)
              for h in (0.05, 0.025, 0.0125)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    order_ok = all(12.0 <= r <= 20.0 for r in ratios)

    inv = involution_from_spec(catalog.get("tangent-r1"))
    run = apath_transport(inv, aligned_tangent_path(), AElement([0.4], [1.0]), h=1e-3)
    t = run.times
    a_path = 2.0 * t + 3.0 * t ** 2
    closed_gap = float(np.max(np.abs(run.fiber[:, 0] - (1.0 + a_path - a_path[0]))))
    anchor_worst = run.anchor_residual

    # anchor preservation along a curved anchor as well: every block parallel
    # to the base point, so the cross-product anchor keeps the base frozen
    m0 = np.array([0.6, -0.3, 0.2])
    blocks = PolyMap.from_terms(1, [
        [(m0[0], (0,))], [(m0[1], (0,))], [(m0[2], (0,))],
        [(m0[0], (1,)), (0.5 * m0[0], (2,))],
        [(m0[1], (1,)), (0.5 * m0[1], (2,))],
        [(m0[2], (1,)), (0.5 * m0[2], (2,))],
        [], [], [],
        [(0.3 * m0[0], (2,))], [(0.3 * m0[1], (2,))], [(0.3 * m0[2], (2,))],
    ])
    curved = APathVariation(3, 3, blocks)
    inv3 = involution_from_spec(catalog.get("action-so3-r3"))
    run3 = apath_transport(inv3, curved, AElement(m0, 0.7 * m0), h=1e-3)
    anchor_worst = max(anchor_worst, run3.anchor_residual)
    elapsed = time.perf_counter() - t0

    ok = (expm_gap < 1e-8 and order_ok and closed_gap < 1e-8
          and anchor_worst < 1e-6 and elapsed < 30.0)
    record(criterion_log, 9, "transport flows integrate correctly", ok,
           "expm gap %.2e < 1e-8; halving ratios %.1f, %.1f in [12, 20]; "
           "closed form %.2e < 1e-8; anchor %.2e < 1e-6; %.1f s < 30 s"
           % (expm_gap, ratios[0], ratios[1], closed_gap, anchor_worst, elapsed))


def holonomic_homotopy(break_pairing: bool = False):
    gamma = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (1, 0)), (1.0, (0, 1))),
    ])
    delta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)), (0.5, (1, 0))),
        ((1.0, (2, 0)), (-1.0, (0, 1)), (1.0, (1, 3))),
    ])
    h0 = gamma.stack(gamma.partial(0)).stack(delta).stack(delta.partial(0))
    if break_pairing:
        # only the second direction sees the planted deformation, so the two
        # transports disagree while each direction alone stays admissible
        extra = PolyMap.from_terms(2, [((3.0, (1, 1)),), ((-2.0, (2, 1)),)])
        delta = PolyMap(2, 2, tuple(delta.terms[k] + extra.terms[k] for k in range(2)))
    h1 = gamma.stack(gamma.partial(1)).stack(delta).stack(delta.partial(1))
    return AHomotopyVariation(2, 2, h0, h1)


def test_criterion_10_homotopy_theorems(criterion_log):
    inv2 = involution_from_spec(catalog.get("tangent-r2"))
    good = ahomotopy_transport(inv2, holonomic_homotopy(), AElement([0.0, 0.0], [0.0, 0.0]),
                               h=1e-3)
    bad = ahomotopy_transport(inv2, holonomic_homotopy(break_pairing=True),
                              AElement([0.0, 0.0], [0.0, 0.0]), h=1e-3)

    spec = catalog.get("action-so3-r3")
    inv3 = involution_from_spec(spec)
    m0 = np.array([0.3, -0.2, 0.5])
    chi = PolyMap.from_terms(1, [
        ((1.0, (1,)),),
        ((1.0, (2,)), (-0.5, (3,))),
        ((2.0, (1,)), (1.0, (3,))),
    ])
    path = inf_apath_wedge(inv3, inf_apath_vee(inv3, chi, m0), h=1e-3)
    path_gap = float(np.max(np.abs(path.values - chi.eval_floats(path.times[:, None]))))

    eta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (2, 0)), (-0.5, (0, 1))),
        ((1.0, (3, 2)),),
    ])
    surface = inf_ahomotopy_wedge(inv3, inf_ahomotopy_vee(inv3, eta, m0), h=1e-2, grid=11)
    ss, tt = np.meshgrid(surface.s_nodes, surface.t_nodes, indexing="ij")
    eta_gap = float(np.max(np.abs(surface.values - eta.eval_floats(np.stack([ss, tt], axis=-1)))))

    ok = (good.discrepancy < 1e-6 and bad.discrepancy > 1e-3
          and path_gap < 1e-6 and eta_gap < 1e-6)
    record(criterion_log, 10, "homotopy invariance and its converse", ok,
           "matched transports differ by %.2e < 1e-6; broken pairing differs by "
           "%.2e > 1e-3; curve and surface roundtrips %.2e, %.2e < 1e-6"
           % (good.discrepancy, bad.discrepancy, path_gap, eta_gap))


def test_criterion_11_deterministic_reports(criterion_log, tmp_path):
    fx = tmp_path / "fixture.json"
    fx.write_text(json.dumps({"schema_version": 1, "kind": "algebroid", "catalog": "so3"}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert cli_main(["check", str(fx), "--samples", "40", "--seed", "9",
                         "--format", "json", "--out", str(out)]) == 0
    check_same = a.read_bytes() == b.read_bytes()

    path_fx = tmp_path / "path.json"
    blocks = aligned_tangent_path().phi
    path_fx.write_text(json.dumps({
        "schema_version": 1, "kind": "apath",
        "algebroid": {"catalog": "tangent-r1"},
        "blocks": blocks.to_table(),
        "initial": {"m": [0.4], "a": [1.0]},
    }))
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for out in (c, d):
        assert cli_main(["transport", str(path_fx), "--step", "0.002",
                         "--out", str(out)]) == 0
    transport_same = c.read_bytes() == d.read_bytes()
    ok = check_same and transport_same
    record(criterion_log, 11, "identical flags give identical bytes", ok,
           "repeated check and transport runs compared byte for byte")
