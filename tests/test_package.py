"""The public surface of ``import invalg``: the same names whether a layer is
loaded at import or on first use, the same signatures as the pinned file, and
no default among them that no call overrides.

After a deliberate change of a public signature, rewrite the pinned file with

    PYTHONPATH=src python tests/test_package.py
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIGNATURES = Path(__file__).resolve().parent / "public_signatures.json"

# dir(invalg) after a fresh ``import invalg``, without its underscored names
PUBLIC_NAMES = [
    "AElement", "AHomotopyVariation", "APathVariation", "AlgebroidSpec", "CheckResult",
    "ConnectionSpec", "InvolutionAlgebroid", "JetPoint", "JetScalar", "MatrixGroupSpec",
    "PairGroupoidSpec", "PolyMap", "Report", "ScalarFieldSpec", "SectionSpec", "TAElement",
    "add_tangent", "ahomotopy_transport", "algebroid", "apath_transport", "bracket_from_flip",
    "bundle", "catalog", "catalog_get", "catalog_names", "check_axioms", "check_bracket_laws",
    "check_tangent_axioms", "check_yang_baxter", "differentiate_group",
    "differentiate_pair_groupoid", "expm", "flip_c", "flip_from_bracket", "flow",
    "grid_derivative", "group_catalog", "groupoid", "inf_ahomotopy_vee", "inf_ahomotopy_wedge",
    "inf_apath_vee", "inf_apath_wedge", "insert_zero", "involution_from_spec", "jet",
    "join_innermost", "lie_derivative", "lift_l", "neg_tangent", "proj_p", "promote", "report",
    "residual", "rk4_solve", "sample_double_prolongation", "sample_prolongation",
    "spec_from_flip", "split_innermost", "sub_tangent", "worst_of",
]

# the exports of the layers that load on first use
LAZY_NAMES = {
    "groupoid": ("MatrixGroupSpec", "PairGroupoidSpec", "differentiate_group",
                 "differentiate_pair_groupoid", "group_catalog"),
    "flow": ("APathVariation", "AHomotopyVariation", "apath_transport", "ahomotopy_transport",
             "inf_apath_vee", "inf_apath_wedge", "inf_ahomotopy_vee", "inf_ahomotopy_wedge",
             "rk4_solve", "expm", "grid_derivative"),
}


def fresh(script: str):
    """Run script in a new interpreter that imports this checkout's invalg and
    return the JSON value of its last output line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def first_import() -> dict:
    """One fresh interpreter's import of invalg and then of every other layer,
    after numpy and the standard modules invalg uses: the invalg modules that
    ``import invalg`` loads, every source compiled on the way that is not a
    file of src/invalg, and whether dataclasses got loaded."""
    return fresh(
        "import argparse, contextlib, functools, importlib, itertools, json, math, operator\n"
        "import os, re, sys, typing\n"
        "import numpy\n"
        "home = os.path.realpath(os.path.join(%r, 'invalg'))\n"
        "sources = []\n"
        "sys.addaudithook(lambda event, args: sources.append(args[1]) if event == 'compile'"
        " else None)\n"
        "import invalg\n"
        "layers = sorted(m for m in sys.modules if m.startswith('invalg'))\n"
        "import invalg.cli, invalg.flow, invalg.groupoid\n"
        "foreign = [str(f) for f in sources if not isinstance(f, str)"
        " or os.path.dirname(os.path.realpath(f)) != home]\n"
        "print(json.dumps({'layers': layers, 'foreign': foreign,"
        " 'dataclasses': 'dataclasses' in sys.modules}))" % str(SRC))


def test_import_invalg_leaves_the_groupoid_and_transport_layers_unloaded(first_import):
    assert first_import["layers"] == ["invalg", "invalg.algebroid", "invalg.bundle",
                                      "invalg.catalog", "invalg.jet", "invalg.report"]


def test_importing_every_layer_generates_no_code(first_import):
    # a dataclass compiles its generated methods from source text at import
    assert first_import["foreign"] == []
    assert first_import["dataclasses"] is False


def test_dir_and_star_import_give_the_pinned_public_names():
    listed, starred = fresh(
        "import json, invalg\n"
        "listed = [n for n in dir(invalg) if not n.startswith('_')]\n"
        "namespace = {}\n"
        "exec('from invalg import *', namespace)\n"
        "print(json.dumps([listed, sorted(n for n in namespace if n != '__builtins__')]))")
    assert listed == PUBLIC_NAMES
    assert starred == PUBLIC_NAMES


def test_submodule_attributes_resolve_in_a_fresh_interpreter():
    # invalg.flow.X and invalg.groupoid.X work without importing the submodule first
    assert fresh("import json, invalg\n"
                 "print(json.dumps([invalg.flow.expm.__module__,"
                 " invalg.groupoid.group_catalog('so3').name]))") == ["invalg.flow", "so3"]


@pytest.mark.parametrize("module", sorted(LAZY_NAMES))
def test_each_lazy_name_is_its_home_module_attribute(module):
    home = importlib.import_module("invalg." + module)
    assert getattr(invalg, module) is home
    for name in LAZY_NAMES[module]:
        assert getattr(invalg, name) is getattr(home, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        invalg.nosuch


def value_objects() -> dict:
    """One instance of each class whose fields are read-only, by class name."""
    from invalg import algebroid, bundle, flow, groupoid, jet, report

    line, square = np.zeros(3), np.zeros((2, 2))
    spec = invalg.catalog_get("tangent-r1")
    v, w = bundle.AElement([0.0], [1.0]), bundle.TAElement([0.0], [1.0], [1.0], [0.0])
    objects = [
        report.CheckResult("law", 1, None, 0.0, 0.0, True),
        jet.PolyMap.zero(1, 1),
        v, w,
        bundle.ConnectionSpec.flat(1, 1),
        bundle.SectionSpec(jet.PolyMap.zero(1, 1)),
        bundle.ScalarFieldSpec(jet.PolyMap.zero(1, 1)),
        spec,
        algebroid.ProlongElement(v, w),
        algebroid.DoubleProlongElement(v, w, jet.JetPoint.from_rows(2, np.zeros((4, 2)))),
        algebroid.involution_from_spec(spec),
        algebroid._PairBatch(1, np.zeros((1, 2)), np.zeros((2, 1, 2))),
        flow.APathVariation(1, 1, jet.PolyMap.zero(1, 4)),
        flow.AHomotopyVariation(1, 1, jet.PolyMap.zero(2, 4), jet.PolyMap.zero(2, 4)),
        flow.PathTransport(line, line, line, 0.0),
        flow.HomotopyTransport(line, line, square, square, square, square, 0.0),
        flow.FiberPath(line, line, line),
        flow.FiberSurface(line, line, line, square),
        groupoid.group_catalog("so3"),
        groupoid.PairGroupoidSpec(2),
    ]
    return {type(obj).__name__: obj for obj in objects}


@pytest.mark.parametrize("name", sorted(value_objects()))
def test_assigning_or_deleting_a_field_raises_attribute_error(name):
    obj = value_objects()[name]
    for field in inspect.signature(type(obj)).parameters:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before, field


def test_a_report_is_mutable_and_owns_its_results():
    first, second = invalg.Report(), invalg.Report()
    first.add(invalg.CheckResult("law", 1, None, 0.0, 0.0, True))
    assert second.results == [] and first.results is not second.results
    second.results = first.results
    assert second == first and second.names() == ["law"]


def test_poly_maps_with_equal_fields_are_equal_and_hash_alike():
    rows = [[(1.5, (2,)), (-1.0, (0,))]]
    built = invalg.PolyMap.from_terms(1, rows)
    literal = invalg.PolyMap(1, 1, (((1.5, (2,)), (-1.0, (0,))),))
    built.eval_floats([0.5])  # what a map caches plays no part
    assert built == literal and hash(built) == hash(literal)
    assert built != invalg.PolyMap.from_terms(1, [[(1.5, (2,))]])
    assert built != invalg.PolyMap.from_terms(2, [[(1.5, (2, 0)), (-1.0, (0, 0))]])


def test_an_involution_algebroid_takes_a_flip_set_past_its_guard():
    # how a tracer wraps the flip of an algebroid already built
    inv = invalg.involution_from_spec(invalg.catalog_get("tangent-r1"))
    flip = inv.flip
    traced = lambda v, w: flip(v, w)
    object.__setattr__(inv, "flip", traced)
    assert inv.flip is traced


def public_signatures() -> dict:
    """The parameters of every public function and class that a layer of
    invalg defines, and of every public method of those classes, inherited
    ones too: "layer.name" or "layer.Class.method" -> [[parameter, kind,
    default repr or None]].  The layers are the modules in invalg.__all__,
    the lazy ones included, so every callable export is among them.
    Exception classes, which take any arguments, are left out."""

    def parameters(fn) -> list:
        return [[p.name, p.kind.name, None if p.default is p.empty else repr(p.default)]
                for p in inspect.signature(fn).parameters.values()]

    def is_method(attr, member) -> bool:
        return not attr.startswith("_") and (inspect.isfunction(member)
                                             or inspect.ismethod(member))

    found = {}
    for layer in [name for name in invalg.__all__ if inspect.ismodule(getattr(invalg, name))]:
        module = getattr(invalg, layer)
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found["%s.%s" % (layer, name)] = parameters(value)
            elif inspect.isclass(value) and not issubclass(value, Exception):
                found["%s.%s" % (layer, name)] = parameters(value)
                for attr, member in inspect.getmembers(value):
                    if is_method(attr, member):
                        found["%s.%s.%s" % (layer, name, attr)] = parameters(member)
    return found


def test_public_signatures_match_the_pinned_file():
    # an option added to or removed from the public API shows up in review
    pinned = json.loads(SIGNATURES.read_text())
    found = public_signatures()
    changed = sorted(name for name in pinned.keys() | found.keys()
                     if pinned.get(name) != found.get(name))
    assert not changed, changed


def python_sources() -> list:
    """The Python text of src/, tests/ and perfbench/, and the Python blocks
    of README.md."""
    texts = [path.read_text() for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    return texts + re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def literal(node):
    """The repr of a literal argument, as the pinned file writes a default;
    None for any other expression."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no call overrides is a constant dressed as an option:
    # each one is set somewhere to another value, by keyword or by position,
    # or it is retired.  A call that passes the default's own literal does
    # not set it.  Calls are matched by the callee's last name, so a.b.f(...)
    # is f
    calls = {}  # last name -> [(positional literals, keyword literals)]; None counts every one
    for text in python_sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg: literal(k.value) for k in node.keywords}
                calls.setdefault(name, []).append(
                    (None if starred else [literal(a) for a in node.args],
                     None if None in keywords else keywords))
    unpassed = []
    for callee, params in json.loads(SIGNATURES.read_text()).items():
        shift = 1 if params and params[0][0] == "self" else 0  # a bound call's self
        for index, (param, kind, default) in enumerate(params):
            if default is None:
                continue
            by_position, at = kind != "KEYWORD_ONLY", index - shift
            if not any(args is None or keywords is None
                       or (args[at] if by_position and at < len(args)
                           else keywords.get(param, default)) != default
                       for args, keywords in calls.get(callee.split(".")[-1], [])):
                unpassed.append("%s(%s)" % (callee, param))
    assert unpassed == []


if __name__ == "__main__":
    entries = sorted(public_signatures().items())
    SIGNATURES.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(name), json.dumps(params)) for name, params in entries))
