"""End-to-end command line tests: fixture files in, exit codes and files out."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invalg.bundle import ConnectionSpec
from invalg.cli import main
from invalg.jet import PolyMap


def write_fixture(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def catalog_fixture(tmp_path, name) -> str:
    return write_fixture(tmp_path, name + ".json",
                         {"schema_version": 1, "kind": "algebroid", "catalog": name})


def tangent_path_payload():
    # member over the line: base 0.4 + t^2 driven by a = 2t, velocity leg
    # (1 + t^3, 3t^2); hand-integrating db/dt = 3t^2 from b(0) = 1 gives
    # b(t) = 1 + t^3, so the fiber must track the mdot row
    return {
        "schema_version": 1, "kind": "apath",
        "algebroid": {"catalog": "tangent-r1"},
        "blocks": [
            [{"coeff": 0.4, "exponents": [0]}, {"coeff": 1.0, "exponents": [2]}],
            [{"coeff": 2.0, "exponents": [1]}],
            [{"coeff": 1.0, "exponents": [0]}, {"coeff": 1.0, "exponents": [3]}],
            [{"coeff": 3.0, "exponents": [2]}],
        ],
        "initial": {"m": [0.4], "a": [1.0]},
    }


def holonomic_homotopy_payload():
    gamma = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (1, 0)), (1.0, (0, 1))),
    ])
    delta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)), (0.5, (1, 0))),
        ((1.0, (2, 0)), (-1.0, (0, 1)), (1.0, (1, 3))),
    ])
    h0 = gamma.stack(gamma.partial(0)).stack(delta).stack(delta.partial(0))
    h1 = gamma.stack(gamma.partial(1)).stack(delta).stack(delta.partial(1))
    return {
        "schema_version": 1, "kind": "ahomotopy",
        "algebroid": {"catalog": "tangent-r2"},
        "h0": h0.to_table(), "h1": h1.to_table(),
        "initial": {"m": [0.0, 0.0], "a": [0.0, 0.0]},
    }


def read_report(path) -> dict:
    rows = json.loads(open(path).read())
    return {row["name"]: row for row in rows["checks"]}


# -- check --------------------------------------------------------------------


def test_check_sound_catalog_fixture_passes(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    out = tmp_path / "report.json"
    code = main(["check", fx, "--samples", "60", "--format", "json", "--out", str(out)])
    assert code == 0
    checks = read_report(out)
    assert all(row["passed"] for row in checks.values())
    for name in ("flip", "yang-baxter", "bracket-jacobi", "leibniz"):
        assert checks[name]["max_residual"] < 1e-9


def test_check_broken_jacobi_fails_with_flip_residual(tmp_path):
    fx = catalog_fixture(tmp_path, "broken-jacobi")
    out = tmp_path / "report.json"
    code = main(["check", fx, "--samples", "40", "--format", "json", "--out", str(out)])
    assert code == 1
    checks = read_report(out)
    assert not checks["flip"]["passed"] and checks["flip"]["max_residual"] > 1e-3
    assert not checks["yang-baxter"]["passed"]
    assert checks["unit"]["max_residual"] < 1e-12
    assert checks["involution"]["max_residual"] < 1e-12


def test_check_incompatible_anchor_fails_target(tmp_path):
    fx = catalog_fixture(tmp_path, "incompatible-anchor")
    out = tmp_path / "report.json"
    code = main(["check", fx, "--samples", "40", "--format", "json", "--out", str(out)])
    assert code == 1
    checks = read_report(out)
    assert not checks["target"]["passed"] and checks["target"]["max_residual"] > 1e-3


def test_check_zero_samples_empty_report(tmp_path):
    fx = catalog_fixture(tmp_path, "sl2")
    out = tmp_path / "report.json"
    code = main(["check", fx, "--samples", "0", "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(open(out).read())["checks"] == []


def test_check_explicit_tables_with_mirrored_entries(tmp_path):
    # mirrored duplicates that agree after the antisymmetry fold are accepted
    fx = write_fixture(tmp_path, "so3_explicit.json", {
        "schema_version": 1, "kind": "algebroid",
        "dim_M": 0, "dim_A": 3, "anchor": [],
        "structure": [
            {"i": 2, "j": 1, "k": 0, "coeff": -1.0},
            {"i": 1, "j": 2, "k": 0, "coeff": 1.0},
            {"i": 0, "j": 2, "k": 1, "coeff": -1.0},
            {"i": 0, "j": 1, "k": 2, "terms": [{"coeff": 1.0, "exponents": []}]},
        ],
    })
    code = main(["check", fx, "--samples", "40", "--out", str(tmp_path / "r.txt")])
    assert code == 0


def test_check_rejects_inconsistent_mirror(tmp_path, capsys):
    fx = write_fixture(tmp_path, "bad.json", {
        "schema_version": 1, "kind": "algebroid",
        "dim_M": 0, "dim_A": 2, "anchor": [],
        "structure": [
            {"i": 0, "j": 1, "k": 0, "coeff": 1.0},
            {"i": 1, "j": 0, "k": 0, "coeff": 1.0},
        ],
    })
    code = main(["check", fx])
    assert code == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_check_rejects_bad_exponent_length(tmp_path, capsys):
    fx = write_fixture(tmp_path, "bad.json", {
        "schema_version": 1, "kind": "algebroid",
        "dim_M": 1, "dim_A": 1,
        "anchor": [[{"coeff": 1.0, "exponents": [0, 0]}]],
    })
    code = main(["check", fx])
    assert code == 2
    assert "exponents" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    "not json at all",
    json.dumps([1, 2, 3]),
    json.dumps({"schema_version": 7, "kind": "algebroid", "catalog": "so3"}),
    json.dumps({"schema_version": 1, "kind": "mystery"}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "catalog": "no-such"}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": "x", "dim_A": 1,
                "anchor": []}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 1, "dim_A": 1,
                "anchor": [[{"coeff": float("nan"), "exponents": [0]}]]}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 0, "dim_A": 2,
                "anchor": [], "structure": [{"i": 0, "j": 1, "k": 0,
                                             "coeff": float("inf")}]}),
    json.dumps({"schema_version": 1, "kind": "group", "catalog": "diag-abelian(0)"}),
    # integers are taken as given, not truncated: a dimension, an exponent
    # or a structure index that is not an integer is unusable
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 1.5, "dim_A": 1,
                "anchor": [[{"coeff": 1.0, "exponents": [0]}]]}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": True, "dim_A": 1,
                "anchor": [[{"coeff": 1.0, "exponents": [0]}]]}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": "1", "dim_A": 1,
                "anchor": [[{"coeff": 1.0, "exponents": [0]}]]}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 1, "dim_A": 1,
                "anchor": [[{"coeff": 1.0, "exponents": [1.7]}]]}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 0, "dim_A": 2,
                "anchor": [], "structure": [{"i": 0.5, "j": 1, "k": 0, "coeff": 1.0}]}),
])
def test_check_input_errors_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "fx.json"
    path.write_text(payload)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["transport", "{path}", "--step", "0", "--out", "{out}"],
    ["transport", "{path}", "--step", "nan", "--out", "{out}"],
    ["check", "{so3}", "--samples", "-5"],
    ["differentiate-group", "diag-abelian(0)"],
    ["differentiate-group", "pair-groupoid(0)"],
    ["check", "{so3}", "--samples", "5", "--out", "{missing}"],
])
def test_unusable_flags_exit_2_with_one_error_line(tmp_path, capsys, argv):
    paths = {"path": write_fixture(tmp_path, "tp.json", tangent_path_payload()),
             "so3": catalog_fixture(tmp_path, "so3"),
             "out": str(tmp_path / "out.csv"),
             "missing": str(tmp_path / "no-such-dir" / "r.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflowing_anchor_fails_checks_without_warnings(tmp_path):
    # a finite coefficient that overflows inside the checks: the report shows
    # the failures at inf or NaN, and stderr stays free of numpy warnings
    fx = write_fixture(tmp_path, "huge.json", {
        "schema_version": 1, "kind": "algebroid", "dim_M": 1, "dim_A": 1,
        "anchor": [[{"coeff": 1e308, "exponents": [0]}]],
    })
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "invalg.cli", "check", fx, "--samples", "10",
         "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 1
    assert proc.stderr == ""
    checks = read_report(out)
    for name in ("bracket-jacobi", "anchor-morphism"):
        assert not checks[name]["passed"]
        assert not math.isfinite(checks[name]["max_residual"])


def test_check_missing_file_exit_2(tmp_path):
    assert main(["check", str(tmp_path / "absent.json")]) == 2


def test_check_tolerance_override_can_force_failure(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    out = str(tmp_path / "r.txt")
    assert main(["check", fx, "--samples", "30", "--out", out]) == 0
    # an unmeetable override flips the verdict without touching the fixture
    code = main(["check", fx, "--samples", "30", "--out", out,
                 "--tolerance", "flip=1e-20"])
    assert code == 1


def test_check_bad_tolerance_flag_exit_2(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    assert main(["check", fx, "--tolerance", "flip"]) == 2
    assert main(["check", fx, "--tolerance", "flip=abc"]) == 2
    for value in ("nan", "inf", "-1"):
        assert main(["check", fx, "--tolerance", "flip=" + value]) == 2


def test_check_group_fixture(tmp_path):
    fx = write_fixture(tmp_path, "g.json",
                       {"schema_version": 1, "kind": "group", "catalog": "so3"})
    out = tmp_path / "r.json"
    code = main(["check", fx, "--samples", "40", "--format", "json", "--out", str(out)])
    assert code == 0
    assert all(row["passed"] for row in read_report(out).values())


def test_check_connection_fixture_polynomial_gamma(tmp_path):
    gamma = ConnectionSpec.random_poly(np.random.default_rng(5), 3, 3).gamma
    fx = write_fixture(tmp_path, "conn.json", {
        "schema_version": 1, "kind": "connection",
        "algebroid": {"catalog": "action-so3-r3"},
        "gamma": gamma.to_table(),
    })
    out = tmp_path / "r.json"
    code = main(["check", fx, "--samples", "50", "--format", "json", "--out", str(out)])
    assert code == 0
    checks = read_report(out)
    assert checks["connection-independence"]["max_residual"] < 1e-12


def test_check_connection_fixture_defaults_flat(tmp_path):
    fx = write_fixture(tmp_path, "conn.json", {
        "schema_version": 1, "kind": "connection",
        "algebroid": {"catalog": "so3"},
    })
    out = tmp_path / "r.json"
    code = main(["check", fx, "--samples", "30", "--format", "json", "--out", str(out)])
    assert code == 0
    assert read_report(out)["connection-independence"]["max_residual"] == 0.0


def test_check_apath_membership(tmp_path):
    fx = write_fixture(tmp_path, "path.json", tangent_path_payload())
    out = tmp_path / "r.json"
    code = main(["check", fx, "--format", "json", "--out", str(out)])
    assert code == 0
    checks = read_report(out)
    assert checks["anchor"]["max_residual"] < 1e-12
    assert checks["variation"]["max_residual"] < 1e-12


def test_check_apath_membership_violation(tmp_path):
    payload = tangent_path_payload()
    payload["blocks"][1].append({"coeff": 0.3, "exponents": [0]})  # a row off by 0.3
    fx = write_fixture(tmp_path, "path.json", payload)
    out = tmp_path / "r.json"
    code = main(["check", fx, "--format", "json", "--out", str(out)])
    assert code == 1
    assert read_report(out)["anchor"]["max_residual"] > 1e-3


def test_check_ahomotopy_membership(tmp_path):
    fx = write_fixture(tmp_path, "h.json", holonomic_homotopy_payload())
    out = tmp_path / "r.json"
    code = main(["check", fx, "--format", "json", "--out", str(out)])
    assert code == 0
    checks = read_report(out)
    for name in ("paired-base", "horizontal", "vertical", "continuity"):
        assert checks[name]["max_residual"] < 1e-9


def test_check_section_and_scalar_field_load_only(tmp_path):
    sec = write_fixture(tmp_path, "sec.json", {
        "schema_version": 1, "kind": "section", "dim_M": 2, "dim_A": 3,
        "table": [[{"coeff": 1.0, "exponents": [1, 0]}], [], [{"coeff": -2.0, "exponents": [0, 2]}]],
    })
    assert main(["check", sec, "--out", str(tmp_path / "a.txt")]) == 0
    bad = write_fixture(tmp_path, "bad.json", {
        "schema_version": 1, "kind": "scalar-field", "dim_M": 2,
        "table": [[], []],
    })
    assert main(["check", bad]) == 2


# -- convert ------------------------------------------------------------------


def test_convert_roundtrip_recovers_constants(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    flip_path = tmp_path / "flip.json"
    back_path = tmp_path / "back.json"
    assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(flip_path)]) == 0
    assert main(["convert", str(flip_path), "to-bracket", "--format", "json",
                 "--out", str(back_path)]) == 0
    flip = json.loads(flip_path.read_text())
    back = json.loads(back_path.read_text())
    orig = {(e["i"], e["j"], e["k"]): e["terms"][0]["coeff"] for e in flip["structure"]}
    fitted = {(e["i"], e["j"], e["k"]): e["terms"][0]["coeff"] for e in back["structure"]}
    assert set(orig) == set(fitted)
    assert max(abs(orig[key] - fitted[key]) for key in orig) < 1e-12
    assert orig == {(1, 2, 0): 1.0, (0, 2, 1): -1.0, (0, 1, 2): 1.0}


def test_convert_abelian_flip_has_zero_correction(tmp_path):
    fx = catalog_fixture(tmp_path, "abelian")
    flip_path = tmp_path / "flip.json"
    assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(flip_path)]) == 0
    flip = json.loads(flip_path.read_text())
    assert flip["structure"] == []
    for row in flip["evaluation"]["table"]:
        # zero anchor and bracket: the flip just swaps the fiber slots
        assert row["alpha"]["adot"] == row["w"]["adot"]
        assert row["alpha"]["a"] == row["v"]["a"]
        assert row["alpha"]["mdot"] == [0.0]
        assert row["alpha"]["m"] == row["v"]["m"]


def test_convert_group_fixture_recovers_signed_constants(tmp_path):
    fx = write_fixture(tmp_path, "g.json",
                       {"schema_version": 1, "kind": "group", "catalog": "so3"})
    flip_path = tmp_path / "flip.json"
    assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(flip_path)]) == 0
    flip = json.loads(flip_path.read_text())
    got = {(e["i"], e["j"], e["k"]): e["terms"][0]["coeff"] for e in flip["structure"]}
    assert got == {(1, 2, 0): -1.0, (0, 2, 1): 1.0, (0, 1, 2): -1.0}


def test_convert_kind_mismatch_exit_2(tmp_path, capsys):
    fx = catalog_fixture(tmp_path, "so3")
    assert main(["convert", fx, "to-bracket"]) == 2
    sec = write_fixture(tmp_path, "sec.json", {
        "schema_version": 1, "kind": "section", "dim_M": 1, "dim_A": 1, "table": [[]],
    })
    assert main(["convert", sec, "to-flip"]) == 2


def test_convert_flip_fixture_is_loadable_by_check(tmp_path):
    fx = catalog_fixture(tmp_path, "sl2")
    flip_path = tmp_path / "flip.json"
    assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(flip_path)]) == 0
    assert main(["check", str(flip_path), "--samples", "30",
                 "--out", str(tmp_path / "r.txt")]) == 0


# -- transport ----------------------------------------------------------------


def test_transport_tangent_path_closed_form(tmp_path, capsys):
    fx = write_fixture(tmp_path, "path.json", tangent_path_payload())
    csv_path = tmp_path / "traj.csv"
    code = main(["transport", fx, "--out", str(csv_path)])
    assert code == 0
    assert "anchor-relation" in capsys.readouterr().out
    rows = np.loadtxt(csv_path, delimiter=",")
    t = rows[:, 0]
    assert np.max(np.abs(rows[:, 1] - (0.4 + t ** 2))) < 1e-8
    assert np.max(np.abs(rows[:, 2] - (1.0 + t ** 3))) < 1e-8


def test_transport_zero_path_constant(tmp_path):
    fx = write_fixture(tmp_path, "zero.json", {
        "schema_version": 1, "kind": "apath",
        "algebroid": {"catalog": "tangent-r1"},
        "blocks": [[{"coeff": 0.7, "exponents": [0]}], [], [], []],
        "initial": {"m": [0.7], "a": [0.0]},
    })
    csv_path = tmp_path / "z.csv"
    assert main(["transport", fx, "--out", str(csv_path)]) == 0
    rows = np.loadtxt(csv_path, delimiter=",")
    assert np.all(rows[:, 1] == 0.7)
    assert np.all(rows[:, 2] == 0.0)


def test_transport_homotopy_discrepancy(tmp_path, capsys):
    fx = write_fixture(tmp_path, "h.json", holonomic_homotopy_payload())
    csv_path = tmp_path / "surf.csv"
    code = main(["transport", fx, "--step", "1e-3", "--out", str(csv_path)])
    assert code == 0
    assert "homotopy-discrepancy" in capsys.readouterr().out
    rows = np.loadtxt(csv_path, delimiter=",")
    assert rows.shape == (121, 4)  # 11 x 11 grid of (s, t, fiber...)


def test_transport_noncomposable_exit_1(tmp_path, capsys):
    payload = tangent_path_payload()
    payload["initial"] = {"m": [0.9], "a": [1.0]}
    fx = write_fixture(tmp_path, "path.json", payload)
    code = main(["transport", fx, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "composable" in capsys.readouterr().err


def test_transport_requires_out_and_initial(tmp_path):
    payload = tangent_path_payload()
    fx = write_fixture(tmp_path, "path.json", payload)
    assert main(["transport", fx]) == 2
    del payload["initial"]
    fx2 = write_fixture(tmp_path, "path2.json", payload)
    assert main(["transport", fx2, "--out", str(tmp_path / "t.csv")]) == 2


def test_transport_wrong_kind_exit_2(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    assert main(["transport", fx, "--out", str(tmp_path / "t.csv")]) == 2


# -- differentiate-group and catalog ------------------------------------------


def test_differentiate_group_reports_sign(tmp_path, capsys):
    code = main(["differentiate-group", "so3", "--samples", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "C(e0, e1) -> e2: -1.0" in out


def test_differentiate_group_pair_groupoid(tmp_path):
    out = tmp_path / "r.json"
    code = main(["differentiate-group", "pair-groupoid(2)", "--samples", "20",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["constants"] == []
    assert all(row["passed"] for row in payload["report"]["checks"])


def test_differentiate_group_unknown_name_exit_2(capsys):
    assert main(["differentiate-group", "no-such-group"]) == 2


def test_catalog_list_contents(tmp_path):
    out = tmp_path / "c.json"
    assert main(["catalog", "list", "--format", "json", "--out", str(out)]) == 0
    listing = json.loads(out.read_text())
    assert set(listing["algebroids"]) >= {
        "abelian", "tangent-r1", "tangent-r2", "so3", "sl2", "action-so3-r3",
        "lie-algebra-bundle", "broken-jacobi", "incompatible-anchor"}
    assert "pair-groupoid(m)" in listing["groups"]


# -- determinism --------------------------------------------------------------


def test_repeated_check_runs_byte_identical(tmp_path):
    fx = catalog_fixture(tmp_path, "action-so3-r3")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["check", fx, "--samples", "30", "--seed", "7",
                     "--format", "json", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_repeated_transport_runs_byte_identical(tmp_path):
    fx = write_fixture(tmp_path, "path.json", tangent_path_payload())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["transport", fx, "--step", "0.005", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convert_runs_byte_identical(tmp_path):
    fx = catalog_fixture(tmp_path, "lie-algebra-bundle")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
