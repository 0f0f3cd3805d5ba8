"""End-to-end command line tests: fixture files in, exit codes and files out."""

import contextlib
import copy
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from invalg import cli
from invalg.algebroid import bracket_from_flip, check_bracket_laws, involution_from_spec
from invalg.bundle import ConnectionSpec, SectionSpec
from invalg.catalog import ENTRIES, names as catalog_names
from invalg.cli import FixtureError, load_fixture, main
from invalg.flow import MAX_STEPS, _square_steps, _step_count
from invalg.groupoid import group_catalog
from invalg.jet import PolyMap

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLED = sorted(FIXTURES.glob("*.json")) + sorted(
    (FIXTURES.parent / "perfbench" / "fixtures").glob("*.json"))


def write_fixture(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def src_env() -> dict:
    """The environment of a child interpreter that imports this checkout's invalg."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(FIXTURES.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def main_in_one_child(cases) -> list:
    """(exit code, stdout, stderr) of invalg.cli.main on each (argv, environ)
    of cases, all run in one new interpreter, in order: each case updates
    os.environ with its environ and gets streams of its own."""
    script = (
        "import contextlib, io, json, os, sys\n"
        "from invalg.cli import main\n"
        "runs = []\n"
        "for argv, environ in json.loads(sys.argv[1]):\n"
        "    os.environ.update(environ)\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    runs.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(cases)], capture_output=True,
                          text=True, env=src_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [(code, out.encode(), err.encode()) for code, out, err in json.loads(proc.stdout)]


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


def group_payload():
    # so(2) inside gl(2): one generator, so nothing to close under commutators
    return {"schema_version": 1, "kind": "group", "n": 2, "name": "so2",
            "basis": [[[0.0, -1.0], [1.0, 0.0]]]}


def structure_payload(coeff):
    return {"schema_version": 1, "kind": "algebroid", "dim_M": 0, "dim_A": 2,
            "anchor": [], "structure": [{"i": 0, "j": 1, "k": 0, "coeff": coeff}]}


def mutated(payload, value, *path):
    """A copy of payload whose entry at path (keys and list indices) is value."""
    doc = copy.deepcopy(payload)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


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


# the sound algebroids: the catalog's, and the six fixtures of the verify benchmark
SOUND_CHECKS = [name for name in catalog_names()
                if name not in ("broken-jacobi", "incompatible-anchor")] + [
    "fixtures/so3.json", "fixtures/action-cross.json"] + [
    "perfbench/fixtures/%s.json" % name
    for name in ("abelian", "lie-algebra-bundle", "sl2", "tangent-r2")]


@pytest.mark.parametrize("source", SOUND_CHECKS)
def test_check_takes_its_bracket_rows_from_one_library_call(tmp_path, capsys, source):
    # the bracket rows of check are the suite's own draws: the command line
    # draws no sections or field of its own
    path = (str(FIXTURES.parent / source) if source.endswith(".json")
            else catalog_fixture(tmp_path, source))
    inv = involution_from_spec(load_fixture(path)["spec"])
    for samples in (20, 200):
        for seed in (1, 42):
            assert main(["check", path, "--format", "json", "--samples", str(samples),
                         "--seed", str(seed)]) == 0
            printed = json.loads(capsys.readouterr().out)["checks"][-7:]
            suite = check_bracket_laws(inv, samples=max(10, samples // 5), seed=seed)
            assert printed[-1]["name"] == "leibniz"
            assert json.dumps(printed, sort_keys=True) == json.dumps(
                suite.to_dict()["checks"], sort_keys=True)


def test_check_zero_samples_empty_report(tmp_path):
    fx = catalog_fixture(tmp_path, "sl2")
    out = tmp_path / "report.json"
    code = main(["check", fx, "--samples", "0", "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(open(out).read())["checks"] == []


def test_differentiate_group_zero_samples_empty_report(capsys):
    # no rows, as for check, and still the recovered constants
    assert main(["differentiate-group", "so3", "--samples", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["checks"] == []
    assert sorted((e["i"], e["j"], e["k"]) for e in doc["constants"]) == [
        (0, 1, 2), (0, 2, 1), (1, 2, 0)]
    assert main(["differentiate-group", "so3", "--samples", "0", "--tolerance", "flip=1"]) == 2


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
    pytest.param("[" * 100000, id="nested-deeper-than-the-parser-recurses"),
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
    # a structure index out of range, a diagonal entry, an entry with no value
    json.dumps(mutated(structure_payload(1.0), 2, "structure", 0, "k")),
    json.dumps(mutated(structure_payload(1.0), 0, "structure", 0, "j")),
    json.dumps({"schema_version": 1, "kind": "algebroid", "dim_M": 0, "dim_A": 2,
                "anchor": [], "structure": [{"i": 0, "j": 1, "k": 0}]}),
    # a catalog name that is not a string, on an algebroid, an apath and a group
    json.dumps({"schema_version": 1, "kind": "algebroid", "catalog": []}),
    json.dumps({"schema_version": 1, "kind": "algebroid", "catalog": {}}),
    json.dumps(mutated(tangent_path_payload(), [], "algebroid", "catalog")),
    json.dumps(mutated(tangent_path_payload(), {}, "algebroid", "catalog")),
    json.dumps({"schema_version": 1, "kind": "group", "catalog": []}),
    json.dumps({"schema_version": 1, "kind": "group", "catalog": {}}),
    # a group name that is not a string
    json.dumps(mutated(group_payload(), None, "name")),
    json.dumps(mutated(group_payload(), ["x"], "name")),
    # an integer beyond float range, and an exponent beyond the evaluator's
    # integer type
    json.dumps(mutated(tangent_path_payload(), 10 ** 400, "t_end")),
    json.dumps(mutated(tangent_path_payload(), 10 ** 400, "initial", "m", 0)),
    json.dumps(mutated(group_payload(), 10 ** 400, "basis", 0, 0, 0)),
    json.dumps(structure_payload(10 ** 400)),
    json.dumps(mutated(tangent_path_payload(), 10 ** 19, "blocks", 0, 1, "exponents", 0)),
    # numbers must be JSON numbers: a string or a boolean is not converted
    json.dumps({"schema_version": True, "kind": "algebroid", "catalog": "so3"}),
    json.dumps(mutated(tangent_path_payload(), "0.4", "blocks", 0, 0, "coeff")),
    json.dumps(mutated(tangent_path_payload(), True, "blocks", 0, 0, "coeff")),
    json.dumps(structure_payload("0.4")),
    json.dumps(structure_payload(True)),
    json.dumps(mutated(tangent_path_payload(), "1", "t_end")),
    json.dumps(mutated(tangent_path_payload(), True, "t_end")),
    json.dumps(mutated(tangent_path_payload(), ["0.4"], "initial", "m")),
    json.dumps(mutated(tangent_path_payload(), True, "initial", "a", 0)),
    json.dumps(mutated(group_payload(), "1", "basis", 0, 1, 0)),
    json.dumps(mutated(group_payload(), True, "basis", 0, 1, 0)),
])
def test_check_input_errors_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "fx.json"
    path.write_text(payload)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def fields(node, path=()):
    """The path of every object member and list entry below node, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from fields(value, path + (key,))


def test_loader_raises_only_fixture_errors(tmp_path):
    # every field of every bundled fixture and of one document of each other
    # kind, replaced in turn by a value of each other JSON type: the loader
    # builds the objects or raises FixtureError, never anything else
    documents = {path.name: json.loads(path.read_text()) for path in BUNDLED}
    documents.update({
        "group": group_payload(),
        "connection": {
            "schema_version": 1, "kind": "connection",
            "algebroid": {"dim_M": 1, "dim_A": 2,
                          "anchor": [[{"coeff": 1.0, "exponents": [0]}], []],
                          "structure": [{"i": 0, "j": 1, "k": 1,
                                         "terms": [{"coeff": 2.0, "exponents": [1]}]}]},
            "gamma": [[{"coeff": 0.5, "exponents": [1]}], [], [], []],
        },
        "section": {"schema_version": 1, "kind": "section", "dim_M": 2, "dim_A": 1,
                    "table": [[{"coeff": -2.0, "exponents": [0, 2]}]]},
        "scalar-field": {"schema_version": 1, "kind": "scalar-field", "dim_M": 1,
                         "table": [[{"coeff": 1.0, "exponents": [3]}]]},
    })
    target = tmp_path / "fx.json"
    escaped, loads = [], 0
    for name, doc in documents.items():
        load_fixture(write_fixture(tmp_path, "fx.json", doc))
        for path in fields(doc):
            for value in ("x", True, None, [], {}):
                target.write_text(json.dumps(mutated(doc, value, *path)))
                loads += 1
                try:
                    load_fixture(str(target))
                except FixtureError:
                    pass
                except Exception as exc:  # anything else got past the loader's guard
                    escaped.append((name, path, value, repr(exc)))
    assert loads > 2000
    assert not escaped, escaped[:10]


@pytest.mark.parametrize("argv", [
    ["transport", "{path}", "--step", "0", "--out", "{out}"],
    ["transport", "{path}", "--step", "nan", "--out", "{out}"],
    ["check", "{so3}", "--samples", "-5"],
    # more samples than any command takes, which numpy could not even allocate
    ["check", "{so3}", "--samples", "1000000000000"],
    ["check", "{so3}", "--samples", "1000000000000000000"],
    ["differentiate-group", "diag-abelian(0)"],
    ["differentiate-group", "pair-groupoid(0)"],
    # catalog groups too large for numpy to allocate (728 TiB for np.eye)
    ["differentiate-group", "diag-abelian(10000000)"],
    ["differentiate-group", "pair-groupoid(10000000)"],
    ["check", "{huge}"],
    ["check", "{so3}", "--samples", "5", "--out", "{missing}"],
    # a step below the cap, one whose step count overflows, and negative seeds
    ["transport", "{path}", "--step", "1e-300", "--out", "{out}"],
    ["transport", "{path}", "--step", "5e-324", "--out", "{out}"],
    # an apath whose t_end takes over MAX_STEPS steps at the default step,
    # refused before its table is allocated
    ["transport", "{long}", "--out", "{out}"],
    ["check", "{so3}", "--seed", "-1"],
    ["differentiate-group", "so3", "--seed", "-5"],
    # flags the parser itself rejects: a bad type, an unknown flag, a missing fixture
    ["check", "{so3}", "--samples", "abc"],
    ["check", "{so3}", "--bogus"],
    ["check"],
    # a --tolerance name that is not a check of the report, the bracket
    # laws' old group key among them, and any name when nothing is checked
    ["check", "{so3}", "--samples", "5", "--tolerance", "nosuch=1"],
    ["check", "{so3}", "--samples", "5", "--tolerance", "bracket-laws=1"],
    ["check", "{so3}", "--samples", "0", "--tolerance", "flip=1"],
    # a format the command does not write
    ["catalog", "list", "--format", "csv"],
    ["convert", "{so3}", "to-flip", "--format", "csv"],
])
def test_unusable_flags_exit_2_with_one_error_line(tmp_path, capsys, argv):
    paths = {"path": write_fixture(tmp_path, "tp.json", tangent_path_payload()),
             "long": write_fixture(tmp_path, "long.json",
                                   mutated(tangent_path_payload(), 1e300, "t_end")),
             "so3": catalog_fixture(tmp_path, "so3"),
             "huge": write_fixture(tmp_path, "huge.json", {
                 "schema_version": 1, "kind": "group", "catalog": "diag-abelian(10000000)"}),
             "out": str(tmp_path / "out.csv"),
             "missing": str(tmp_path / "no-such-dir" / "r.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["convert", str(FIXTURES / "so3.json"), "to-flip"],  # fails inside the command
    ["catalog", "list"],  # fits the buffer: fails at the flush before main returns
])
def test_closed_stdout_exits_2_with_one_error_line(argv):
    # like an --out path that cannot be written, and with nothing left for
    # the interpreter to report as ignored when it flushes at exit
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default on a pipe
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "invalg.cli"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=600)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


HELP_ARGVS = [
    ["--help"], ["check", "--help"], ["convert", "--help"], ["transport", "--help"],
    ["differentiate-group", "--help"], ["catalog", "list", "--help"]]


COLUMNS = ("40", "200")


@pytest.fixture(scope="module")
def help_runs() -> dict:
    """(exit code, stdout, stderr) of each argv of HELP_ARGVS under each
    COLUMNS value, keyed by (columns, argv): all of them from one child, and
    --help also from a real ``python -m invalg.cli`` at each value, run
    alongside that child."""
    cases = [(argv, {"COLUMNS": columns}) for columns in COLUMNS for argv in HELP_ARGVS]
    with contextlib.ExitStack() as stack:
        processes = {columns: stack.enter_context(subprocess.Popen(
            [sys.executable, "-m", "invalg.cli", "--help"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(src_env(), COLUMNS=columns))) for columns in COLUMNS}
        runs = dict(zip([(env["COLUMNS"], tuple(argv)) for argv, env in cases],
                        main_in_one_child(cases)))
        for columns, proc in processes.items():
            out, err = proc.communicate(timeout=600)
            runs[columns, "process"] = (proc.returncode, out, err)
    return runs


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_help_is_laid_out_for_80_columns_on_any_terminal(argv, help_runs):
    printed = []
    for columns in COLUMNS:
        code, out, err = help_runs[columns, tuple(argv)]
        if argv == ["--help"]:  # the process boundary gives the same bytes
            assert help_runs[columns, "process"] == (code, out, err)
        assert code == 0 and err == b""
        printed.append(out)
    assert printed[0] == printed[1]
    assert max(len(line) for line in printed[0].splitlines()) <= 80


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_main_returns_0_after_help(argv, capsys):
    # an in-process caller gets the exit code back, as from any other argv
    code = main(argv)
    assert isinstance(code, int) and code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: invalg") and err == ""


# what the parser prints: --help of invalg and of each command, and the exit
# code and one error line of argvs the parser rejects, as written by the
# parser that built all five commands on every call, under Python 3.11
PARSER_TEXT = json.loads((Path(__file__).with_name("cli_parser_text.json")).read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help and errors differently in other versions")
@pytest.mark.parametrize("case", PARSER_TEXT, ids=lambda case: " ".join(case["argv"]) or "[]")
def test_parser_text_is_byte_identical_to_the_full_parser(case, parser_text_runs):
    assert parser_text_runs[tuple(case["argv"])] == (
        case["exit"], case["stdout"].encode(), case["stderr"].encode())


@pytest.fixture(scope="module")
def parser_text_runs() -> dict:
    """(exit code, stdout, stderr) of each argv of PARSER_TEXT, all from one child."""
    argvs = [case["argv"] for case in PARSER_TEXT]
    return dict(zip(map(tuple, argvs), main_in_one_child([(argv, {}) for argv in argvs])))


@pytest.mark.parametrize("argv, parsers", [
    (["check", str(FIXTURES / "so3.json"), "--samples", "5"], 2),
    (["transport", str(FIXTURES / "tangent-path.json"), "--step", "0.01", "--out", "{out}"], 2),
    (["differentiate-group", "so3", "--samples", "5"], 2),
    (["--help"], 6),
    (["chek", str(FIXTURES / "so3.json")], 6),
], ids=["check", "transport", "differentiate-group", "--help", "unknown command"])
def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch, argv, parsers):
    # the top-level parser plus the invoked command's, or all five commands'
    # when argv names none; none of them is kept once main returns
    built = []
    init = cli._Parser.__init__

    def spy(parser, **kwargs):
        init(parser, **kwargs)
        built.append(weakref.ref(parser))

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    argv = [a.format(out=tmp_path / "t.csv") for a in argv]
    code = main(argv)
    capsys.readouterr()
    assert isinstance(code, int) and code == (2 if argv[0] == "chek" else 0)
    assert len(built) == parsers
    gc.collect()
    assert not [ref for ref in built if ref() is not None]


# each command and the one of the lazily loaded layers, invalg.flow and
# invalg.groupoid, that it runs
IMPORT_SCOPE = {
    "catalog list": (["catalog", "list"], set()),
    "check so3": (["check", str(FIXTURES / "so3.json"), "--samples", "5"], set()),
    "differentiate-group so3": (["differentiate-group", "so3", "--samples", "5"],
                                {"invalg.groupoid"}),
    "transport tangent-path": (["transport", str(FIXTURES / "tangent-path.json"),
                                "--step", "0.01", "--out", "{out}"], {"invalg.flow"}),
}


@pytest.mark.parametrize("case", sorted(IMPORT_SCOPE))
def test_a_command_loads_only_the_layers_it_runs(tmp_path, case):
    argv, layers = IMPORT_SCOPE[case]
    script = ("import json, sys\n"
              "from invalg.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script] + [a.format(out=tmp_path / "t.csv") for a in argv],
        capture_output=True, text=True, env=src_env(), timeout=600)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert {"invalg.flow", "invalg.groupoid"} & set(loaded) == layers


def test_no_kept_evaluation_outlives_main(tmp_path, capsys, monkeypatch):
    # eval_jet keeps its results on each map, not at module level: once main
    # returns, no map it evaluated and no result it returned is reachable.
    # Every evaluation, kept or not, is a call of _evaluate.
    evaluated = []
    evaluate = PolyMap._evaluate

    def spy(pm, xs):
        out = evaluate(pm, xs)
        evaluated.extend((weakref.ref(pm), weakref.ref(out)))
        return out

    monkeypatch.setattr(PolyMap, "_evaluate", spy)
    out = str(tmp_path / "out")
    for argv in (["check", str(FIXTURES / "action-cross.json"), "--samples", "5"],
                 ["check", catalog_fixture(tmp_path, "lie-algebra-bundle"), "--samples", "5"],
                 ["convert", str(FIXTURES / "so3.json"), "to-flip", "--out", out],
                 ["transport", str(FIXTURES / "holonomy.json"), "--step", "0.05", "--out", out],
                 ["differentiate-group", "sl2", "--samples", "5"]):
        assert main(argv) == 0
    capsys.readouterr()
    gc.collect()
    assert len(evaluated) > 100
    assert not [ref for ref in evaluated if ref() is not None]


def test_overflowing_anchor_fails_checks_without_warnings(tmp_path):
    # a finite coefficient that overflows inside the checks: the report shows
    # the failures at inf or NaN, and stderr stays free of numpy warnings
    fx = write_fixture(tmp_path, "huge.json", {
        "schema_version": 1, "kind": "algebroid", "dim_M": 1, "dim_A": 1,
        "anchor": [[{"coeff": 1e308, "exponents": [0]}]],
    })
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "invalg.cli", "check", fx, "--samples", "10",
         "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env=src_env(), timeout=600)
    assert proc.returncode == 1
    assert proc.stderr == ""
    checks = read_report(out)
    for name in ("bracket-jacobi", "anchor-morphism"):
        assert not checks[name]["passed"]
        assert not math.isfinite(checks[name]["max_residual"])


def test_step_cap_is_checked_before_anything_is_allocated(tmp_path, capsys):
    # a step of 1e-9 over a homotopy's unit square, a step of 2e-5 there
    # (22 rows of 50,000 steps), and the default step up to an apath's t_end
    # of 1e300, are checked, not run: their steps would be allocated.  One
    # short line names the flag
    long = write_fixture(tmp_path, "long.json", mutated(tangent_path_payload(), 1e300, "t_end"))
    out = str(tmp_path / "out.csv")
    holonomy = ["transport", str(FIXTURES / "holonomy.json"), "--out", out, "--step"]
    for argv in (holonomy + ["1e-9"], holonomy + ["2e-5"], ["transport", long, "--out", out]):
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: --step: ") and err.count("\n") == 1 and len(err) < 100
        assert "over the cap of %d" % MAX_STEPS in err
    assert not os.path.exists(out)
    assert _step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    # a homotopy's 22 rows at 1e-4 are 2.2e5 row-steps, under the cap
    assert _square_steps(1e-4) == 10 ** 4
    assert _square_steps(1.0 / 45450) == 45450
    with pytest.raises(ValueError, match="over the cap"):
        _square_steps(1.0 / 45451)
    with pytest.raises(ValueError, match="over the cap"):
        _step_count(1.0, 1e-9)
    with pytest.raises(ValueError, match="no finite step count"):
        _step_count(1.0, 5e-324)


def test_check_missing_file_exit_2(tmp_path):
    assert main(["check", str(tmp_path / "absent.json")]) == 2


def test_check_undecodable_file_exit_2(tmp_path, capsys):
    # bytes that are not UTF-8 are malformed JSON, not a failed check
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def test_check_tolerance_override_can_force_failure(tmp_path):
    fx = catalog_fixture(tmp_path, "so3")
    out = str(tmp_path / "r.txt")
    assert main(["check", fx, "--samples", "30", "--out", out]) == 0
    # an unmeetable override flips the verdict without touching the fixture
    code = main(["check", fx, "--samples", "30", "--out", out,
                 "--tolerance", "flip=1e-20"])
    assert code == 1


VERDICT_CASES = {
    "check so3": lambda tmp: ["check", str(FIXTURES / "so3.json"), "--samples", "20"],
    "check action-cross": lambda tmp: ["check", str(FIXTURES / "action-cross.json"),
                                       "--samples", "20"],
    "check connection": lambda tmp: ["check", write_fixture(tmp, "conn.json", {
        "schema_version": 1, "kind": "connection", "algebroid": {"catalog": "so3"}}),
        "--samples", "20"],
    "check group": lambda tmp: ["check", write_fixture(tmp, "g.json", {
        "schema_version": 1, "kind": "group", "catalog": "sl2"}), "--samples", "20"],
    "check apath": lambda tmp: ["check", write_fixture(tmp, "p.json", tangent_path_payload())],
    "transport tangent-path": lambda tmp: ["transport", str(FIXTURES / "tangent-path.json"),
                                           "--step", "0.01", "--out", str(tmp / "t.csv")],
    "differentiate-group sl2": lambda tmp: ["differentiate-group", "sl2", "--samples", "20"],
}


def report_rows(argv, capsys):
    code = main(argv + ["--seed", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload.get("report", payload)["checks"]


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_tolerance_rejudges_exactly_the_named_row(tmp_path, capsys, case):
    argv = VERDICT_CASES[case](tmp_path)
    code, rows = report_rows(argv, capsys)
    assert code == 0 and rows and all(row["passed"] for row in rows)
    for i, row in enumerate(rows):
        code, judged = report_rows(argv + ["--tolerance", row["name"] + "=1e-300"], capsys)
        failing = row["max_residual"] > 1e-300
        assert judged[i] == dict(row, tolerance=1e-300, passed=not failing)
        assert judged[:i] + judged[i + 1:] == rows[:i] + rows[i + 1:]
        assert code == (1 if failing else 0)


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


def test_convert_to_bracket_is_the_pairwise_bracket(tmp_path, capsys):
    # the one batched flip gives the bracket of each basis pair on its own
    fx = catalog_fixture(tmp_path, "lie-algebra-bundle")
    flip_path = tmp_path / "flip.json"
    assert main(["convert", fx, "to-flip", "--format", "json", "--out", str(flip_path)]) == 0
    capsys.readouterr()
    assert main(["convert", str(flip_path), "to-bracket", "--format", "json", "--seed", "3"]) == 0
    table = json.loads(capsys.readouterr().out)["evaluation"]["table"]
    spec = load_fixture(str(flip_path))["spec"]
    basis = lambda k: SectionSpec(PolyMap.constant(np.eye(spec.dim_A)[k], spec.dim_M))
    assert sorted({(row["i"], row["j"]) for row in table}) == list(spec.pairs)
    for i, j in spec.pairs:
        rows = [row for row in table if (row["i"], row["j"]) == (i, j)]
        points = np.array([row["m"] for row in rows])
        want = bracket_from_flip(involution_from_spec(spec), basis(i), basis(j))(points)
        assert [row["value"] for row in rows] == want.tolist()


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


def test_transport_divergence_exit_1(tmp_path, capsys):
    # anchor m^2 driven by a = 1 from m0 = 2: the base blows up at t = 0.5
    const = lambda c: [{"coeff": c, "exponents": [0]}]
    fx = write_fixture(tmp_path, "blowup.json", {
        "schema_version": 1, "kind": "apath",
        "algebroid": {"dim_M": 1, "dim_A": 1,
                      "anchor": [[{"coeff": 1.0, "exponents": [2]}]]},
        "blocks": [const(2.0), const(1.0), const(4.0), []],
        "initial": {"m": [2.0], "a": [1.0]},
    })
    code = main(["transport", fx, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: trajectory diverged")


def test_homotopy_transport_divergence_exit_1(tmp_path, capsys):
    # the same blow-up on both spines of a homotopy with constant blocks
    const = lambda c: [{"coeff": c, "exponents": [0, 0]}]
    part = [const(2.0), const(1.0), const(4.0), []]
    fx = write_fixture(tmp_path, "blowup.json", {
        "schema_version": 1, "kind": "ahomotopy",
        "algebroid": {"dim_M": 1, "dim_A": 1,
                      "anchor": [[{"coeff": 1.0, "exponents": [2]}]]},
        "h0": part, "h1": part,
        "initial": {"m": [2.0], "a": [1.0]},
    })
    code = main(["transport", fx, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: trajectory diverged at t = 0.5015"]


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


def test_flip_agreement_rows_name_their_worst_pair(tmp_path, capsys):
    # connection-independence and matches-tangent-flip fold two flips over
    # sampled pairs, as flip-roundtrip does, and report the worst pair too
    gamma = ConnectionSpec.random_poly(np.random.default_rng(5), 3, 3).gamma
    fx = write_fixture(tmp_path, "conn.json", {
        "schema_version": 1, "kind": "connection",
        "algebroid": {"catalog": "action-so3-r3"},
        "gamma": gamma.to_table(),
    })
    assert main(["check", fx, "--samples", "20", "--format", "json"]) == 0
    connection = {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
    assert main(["differentiate-group", "pair-groupoid(2)", "--samples", "20",
                 "--format", "json"]) == 0
    pair = {row["name"]: row
            for row in json.loads(capsys.readouterr().out)["report"]["checks"]}
    for row, dim_M, dim_A in ((connection["connection-independence"], 3, 3),
                              (pair["matches-tangent-flip"], 2, 2)):
        worst = row["worst_input"]
        assert sorted(worst) == ["a_v", "m", "w"]
        assert (len(worst["m"]), len(worst["a_v"])) == (dim_M, dim_A)
        assert [len(part) for part in worst["w"]] == [dim_A, dim_M, dim_A]


def test_differentiate_group_unknown_name_exit_2(capsys):
    assert main(["differentiate-group", "no-such-group"]) == 2


def test_differentiate_group_file_is_labelled_by_name_or_path(tmp_path, capsys):
    named = write_fixture(tmp_path, "named.json", group_payload())
    unnamed = write_fixture(tmp_path, "unnamed.json",
                            {k: v for k, v in group_payload().items() if k != "name"})
    for path, label in ((named, "so2"), (unnamed, unnamed)):
        assert main(["differentiate-group", path, "--samples", "20", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["group"] == label


def test_differentiate_group_rejects_a_non_group_fixture(capsys):
    assert main(["differentiate-group", str(FIXTURES / "so3.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "group fixture" in err


def test_differentiate_abelian_group_prints_all_zero(capsys):
    assert main(["differentiate-group", "diag-abelian(2)", "--samples", "20"]) == 0
    assert capsys.readouterr().out.endswith("recovered structure constants:\n  (all zero)\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_convert_pair_groupoid_prints_its_tangent_algebroid(tmp_path, capsys, fmt):
    pair = write_fixture(tmp_path, "pair.json",
                         {"schema_version": 1, "kind": "group", "catalog": "pair-groupoid(2)"})
    outputs = []
    for fx in (pair, catalog_fixture(tmp_path, "tangent-r2")):
        assert main(["convert", fx, "to-flip", "--samples", "6", "--seed", "3",
                     "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["check", str(FIXTURES / "so3.json")],
    ["check", str(FIXTURES / "tangent-path.json")],
    ["differentiate-group", "sl2"],
])
def test_csv_report_has_one_line_per_row_in_report_order(capsys, argv):
    flags = ["--samples", "20", "--seed", "1", "--format"]
    assert main(argv + flags + ["json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload.get("report", payload)["checks"]
    assert main(argv + flags + ["csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,passed,max_residual,tolerance,samples,seed"
    assert lines[1:] == ["%s,%s,%r,%r,%d,%s" % (
        r["name"], "true" if r["passed"] else "false", r["max_residual"], r["tolerance"],
        r["samples"], "" if r["seed"] is None else r["seed"]) for r in rows]
    # the membership rows of a path fixture are seedless: an empty seed column
    if argv[1].endswith("tangent-path.json"):
        assert rows and all(line.endswith(",") for line in lines[1:])


def test_catalog_list_contents(tmp_path):
    out = tmp_path / "c.json"
    assert main(["catalog", "list", "--format", "json", "--out", str(out)]) == 0
    listing = json.loads(out.read_text())
    assert set(listing["algebroids"]) >= {
        "abelian", "tangent-r1", "tangent-r2", "so3", "sl2", "action-so3-r3",
        "lie-algebra-bundle", "broken-jacobi", "incompatible-anchor"}
    assert "pair-groupoid(m)" in listing["groups"]


def test_every_catalog_entry_has_a_description():
    for name in catalog_names():
        _, description = ENTRIES[name]
        assert description.strip(), name


def test_unknown_group_error_lists_the_catalog_groups(capsys):
    assert main(["catalog", "list", "--format", "json"]) == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert main(["differentiate-group", "su5"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: group su5: unknown group fixture 'su5'; known: " + ", ".join(groups)]
    assert ", ".join(groups) in group_catalog.__doc__
    for name in groups:  # each listed name builds, n and m read as 2
        assert group_catalog(name.replace("(n)", "(2)").replace("(m)", "(2)"))


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
