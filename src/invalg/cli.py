"""Command line front end: fixture files in, residual reports and tables out.

Fixtures are JSON with explicit polynomial coefficient tables (no expression
language), so every run is deterministic: same fixture and flags, same bytes
out.  Exit codes: 0 all checks pass, 1 a check failed or a flow was rejected,
2 the input could not be used.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebroid import (
    AlgebroidSpec,
    _random_section_poly,
    _sample_pairs,
    bracket_from_flip,
    check_axioms,
    check_bracket_laws,
    check_leibniz,
    check_yang_baxter,
    flip_from_bracket,
    involution_from_spec,
    spec_from_flip,
)
from .bundle import AElement, ConnectionSpec, ScalarFieldSpec, SectionSpec, ta_residuals
from .catalog import DESCRIPTIONS, get as catalog_get, names as catalog_names
from .flow import AHomotopyVariation, APathVariation, ahomotopy_transport, apath_transport
from .groupoid import (
    GROUP_CATALOG_NAMES,
    MatrixGroupSpec,
    PairGroupoidSpec,
    differentiate_group,
    differentiate_pair_groupoid,
    group_catalog,
)
from .jet import PolyMap, check_tangent_axioms
from .report import CheckResult, Report, _fold, _passes

SCHEMA_VERSION = 1
KINDS = ("algebroid", "involution-flip", "group", "section", "scalar-field",
         "apath", "ahomotopy", "connection")


class FixtureError(ValueError):
    """Anything wrong with an input file or flag value; maps to exit code 2."""


# -- fixture loading ----------------------------------------------------------


def _require(node: dict, key: str, where: str):
    if key not in node:
        raise FixtureError("missing %r in %s" % (key, where))
    return node[key]


def _integer(value) -> int:
    """value as an int when it is one: 2 or 2.0, not 1.5, "2" or true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer: %r" % (value,))
    return int(value)


def _count(node: dict, key: str, where: str) -> int:
    """A dimension or size: a nonnegative integer."""
    value = _require(node, key, where)
    try:
        if _integer(value) >= 0:
            return _integer(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FixtureError("%r in %s must be a nonnegative integer, got %r" % (key, where, value))


def _finite(value, what: str) -> float:
    try:
        if math.isfinite(float(value)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise FixtureError("%s must be a finite number, got %r" % (what, value))


def _load_polymap(table, in_dim: int, out_dim: int, where: str) -> PolyMap:
    if not isinstance(table, list) or len(table) != out_dim:
        raise FixtureError("%s needs %d coefficient rows" % (where, out_dim))
    rows = []
    for r, row in enumerate(table):
        if not isinstance(row, list):
            raise FixtureError("%s row %d must be a list of terms" % (where, r))
        terms = []
        for entry in row:
            try:
                coeff = float(entry["coeff"])
                exps = [_integer(e) for e in entry["exponents"]]
            except (TypeError, KeyError, ValueError, OverflowError):
                raise FixtureError(
                    "%s row %d: each term needs a coeff and a list of integer exponents"
                    % (where, r))
            if len(exps) != in_dim or any(e < 0 for e in exps):
                raise FixtureError(
                    "%s row %d: exponents must be %d nonnegative integers" % (where, r, in_dim))
            terms.append((_finite(coeff, "%s row %d coefficient" % (where, r)), tuple(exps)))
        rows.append(terms)
    return PolyMap.from_terms(in_dim, rows)


def _load_structure(entries, dim_M: int, dim_A: int) -> list:
    """Canonicalize bracket entries to i < j, folding in the antisymmetry
    sign; mirror duplicates must agree after the fold or the file is
    rejected."""
    if not isinstance(entries, list):
        raise FixtureError("structure must be a list of entries")
    canon = {}
    for pos, entry in enumerate(entries):
        where = "structure entry %d" % pos
        try:
            i = _integer(_require(entry, "i", where))
            j = _integer(_require(entry, "j", where))
            k = _integer(_require(entry, "k", where))
        except (TypeError, ValueError, OverflowError):
            raise FixtureError("%s: indices must be integers" % where)
        if not (0 <= i < dim_A and 0 <= j < dim_A and 0 <= k < dim_A):
            raise FixtureError("%s: indices out of range for %d fiber coordinates"
                               % (where, dim_A))
        if i == j:
            raise FixtureError("%s: diagonal entries vanish by antisymmetry; drop it" % where)
        if "terms" in entry:
            pm = _load_polymap([entry["terms"]], dim_M, 1, where)
        elif "coeff" in entry:
            pm = PolyMap.constant([_finite(entry["coeff"], where + ": coeff")], dim_M)
        else:
            raise FixtureError("%s: needs either coeff or terms" % where)
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        normalized = (pm * sign).terms[0]
        key = (i, j, k)
        if key in canon and canon[key] != normalized:
            raise FixtureError(
                "structure entries for the pair (%d, %d) output %d disagree "
                "after antisymmetry" % (i, j, k))
        canon[key] = normalized
    return [(i, j, k, list(normalized)) for (i, j, k), normalized in sorted(canon.items())]


def _catalog_spec(name) -> AlgebroidSpec:
    try:
        return catalog_get(name)
    except KeyError as exc:
        raise FixtureError(str(exc.args[0]) if exc.args else str(exc))


def _group_catalog(name):
    try:
        return group_catalog(name)
    except KeyError as exc:
        raise FixtureError(str(exc.args[0]) if exc.args else str(exc))
    except ValueError as exc:
        raise FixtureError("group %s: %s" % (name, exc))


def _load_algebroid_node(node, where: str) -> AlgebroidSpec:
    if isinstance(node, str):
        return _catalog_spec(node)
    if not isinstance(node, dict):
        raise FixtureError("%s must be an object or a catalog name" % where)
    if "catalog" in node:
        return _catalog_spec(node["catalog"])
    dm = _count(node, "dim_M", where)
    da = _count(node, "dim_A", where)
    rho = _load_polymap(_require(node, "anchor", where), dm, dm * da, where + ".anchor")
    entries = _load_structure(node.get("structure", []), dm, da)
    try:
        return AlgebroidSpec.from_structure(dm, da, rho, entries)
    except ValueError as exc:
        raise FixtureError(str(exc))


def _load_element(node, dm: int, da: int) -> AElement:
    try:
        m = np.asarray(_require(node, "m", "initial"), dtype=float).reshape(dm)
        a = np.asarray(_require(node, "a", "initial"), dtype=float).reshape(da)
    except (TypeError, ValueError):
        raise FixtureError("initial element needs m with %d and a with %d entries" % (dm, da))
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(a))):
        raise FixtureError("initial element entries must be finite")
    return AElement(m, a)


def load_fixture(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FixtureError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise FixtureError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise FixtureError("fixture must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise FixtureError("unsupported schema_version %r" % (raw.get("schema_version"),))
    kind = raw.get("kind")
    if kind not in KINDS:
        raise FixtureError("unknown kind %r; expected one of %s" % (kind, ", ".join(KINDS)))
    out = {"kind": kind, "raw": raw}

    if kind in ("algebroid", "involution-flip"):
        out["spec"] = _load_algebroid_node(raw, kind)
    elif kind == "connection":
        out["spec"] = _load_algebroid_node(_require(raw, "algebroid", kind), "connection.algebroid")
        dm, da = out["spec"].dim_M, out["spec"].dim_A
        if "gamma" in raw:
            gamma = _load_polymap(raw["gamma"], dm, da * dm * da, "connection.gamma")
            out["connection"] = ConnectionSpec(dm, da, gamma)
        else:
            out["connection"] = ConnectionSpec.flat(dm, da)
    elif kind == "group":
        if "catalog" in raw:
            out["group"] = _group_catalog(raw["catalog"])
        else:
            n = _count(raw, "n", kind)
            basis_raw = _require(raw, "basis", kind)
            try:
                basis = tuple(np.asarray(b, dtype=float).reshape(n, n) for b in basis_raw)
                out["group"] = MatrixGroupSpec(n, basis, name=str(raw.get("name", "")))
            except (TypeError, ValueError) as exc:
                raise FixtureError("bad group basis: %s" % exc)
    elif kind == "section":
        dm = _count(raw, "dim_M", kind)
        da = _count(raw, "dim_A", kind)
        out["section"] = SectionSpec(_load_polymap(_require(raw, "table", kind), dm, da, kind))
    elif kind == "scalar-field":
        dm = _count(raw, "dim_M", kind)
        out["field"] = ScalarFieldSpec(_load_polymap(_require(raw, "table", kind), dm, 1, kind))
    elif kind == "apath":
        out["spec"] = _load_algebroid_node(_require(raw, "algebroid", kind), "apath.algebroid")
        dm, da = out["spec"].dim_M, out["spec"].dim_A
        blocks = _load_polymap(_require(raw, "blocks", kind), 1, 2 * (dm + da), "apath.blocks")
        try:
            out["variation"] = APathVariation(dm, da, blocks,
                                              _finite(raw.get("t_end", 1.0), "apath t_end"))
        except ValueError as exc:
            raise FixtureError(str(exc))
        if "initial" in raw:
            out["initial"] = _load_element(raw["initial"], dm, da)
    elif kind == "ahomotopy":
        out["spec"] = _load_algebroid_node(_require(raw, "algebroid", kind), "ahomotopy.algebroid")
        dm, da = out["spec"].dim_M, out["spec"].dim_A
        h0 = _load_polymap(_require(raw, "h0", kind), 2, 2 * (dm + da), "ahomotopy.h0")
        h1 = _load_polymap(_require(raw, "h1", kind), 2, 2 * (dm + da), "ahomotopy.h1")
        try:
            out["variation"] = AHomotopyVariation(dm, da, h0, h1)
        except ValueError as exc:
            raise FixtureError(str(exc))
        if "initial" in raw:
            out["initial"] = _load_element(raw["initial"], dm, da)
    return out


# -- serialization helpers ----------------------------------------------------


def _structure_entries(spec: AlgebroidSpec) -> list:
    entries = []
    pairs = spec.pairs
    table = spec.c_pairs.to_table()
    for k in range(spec.dim_A):
        for pos, (i, j) in enumerate(pairs):
            terms = table[k * len(pairs) + pos]
            if terms:
                entries.append({"i": i, "j": j, "k": k, "terms": terms})
    return entries


def _ser_vector(v) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _dumps(payload, compact: bool) -> str:
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=2)


def _differentiate(group_spec, samples: int, seed: int):
    if isinstance(group_spec, PairGroupoidSpec):
        return differentiate_pair_groupoid(group_spec, samples=samples, seed=seed)
    return differentiate_group(group_spec, samples=samples, seed=seed)


# -- check suites -------------------------------------------------------------


def _algebroid_report(inv, samples: int, seed: int, tolerances: dict) -> Report:
    report = Report()
    report.extend(check_tangent_axioms(samples=samples, seed=seed))
    report.extend(check_axioms(inv, samples=samples, seed=seed, tolerances=tolerances))
    report.extend(check_yang_baxter(inv, samples=max(10, samples // 2), seed=seed,
                                    tolerances=tolerances))
    rng = np.random.default_rng(seed)
    sections = [SectionSpec(_random_section_poly(rng, inv.dim_M, inv.dim_A))
                for _ in range(3)]
    field = ScalarFieldSpec(_random_section_poly(rng, inv.dim_M, 1))
    point_count = max(10, samples // 5)
    report.extend(check_bracket_laws(inv, sections=sections, samples=point_count, seed=seed,
                                     tolerance=tolerances.get("bracket-laws", 1e-9)))
    report.extend(check_leibniz(inv, sections[0], sections[1], field, samples=point_count,
                                seed=seed, tolerance=tolerances.get("leibniz", 1e-9)))
    return report


def _connection_report(spec, conn, samples: int, seed: int, tolerances: dict) -> Report:
    inv_conn = flip_from_bracket(spec, conn)
    inv_canon = involution_from_spec(spec)
    report = check_axioms(inv_conn, samples=samples, seed=seed, tolerances=tolerances)
    pes = _sample_pairs(inv_canon, np.random.default_rng(seed), samples)

    def agreement(rows):
        v, w = pes.v_jet(rows), pes.w_jet(rows)
        return ta_residuals(inv_conn.flip(v, w), inv_canon.flip(v, w), spec.dim_M)

    report.add(_fold("connection-independence", samples, agreement,
                     tolerances.get("connection-independence", 1e-12), seed))
    return report


def _membership_report(fx: dict, tolerances: dict) -> Report:
    inv = involution_from_spec(fx["spec"])
    grid = 33 if fx["kind"] == "apath" else 9
    residuals = fx["variation"].membership_residual(inv, grid)
    samples = grid if fx["kind"] == "apath" else grid * grid
    report = Report()
    for name in sorted(residuals):
        tol = tolerances.get(name, 1e-9)
        value = float(residuals[name])
        report.add(CheckResult(name, samples, None, value, tol, _passes(value, tol), None))
    return report


def _check_report(fx: dict, samples: int, seed: int, tolerances: dict) -> Report:
    if samples == 0:
        return Report()
    kind = fx["kind"]
    if kind in ("algebroid", "involution-flip"):
        return _algebroid_report(involution_from_spec(fx["spec"]), samples, seed, tolerances)
    if kind == "connection":
        return _connection_report(fx["spec"], fx["connection"], samples, seed, tolerances)
    if kind == "group":
        _, report = _differentiate(fx["group"], samples, seed)
        return report
    if kind in ("apath", "ahomotopy"):
        return _membership_report(fx, tolerances)
    return Report()  # sections and scalar fields are fully validated at load


# -- commands -----------------------------------------------------------------


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FixtureError("cannot write %s: %s" % (path, exc))


def _emit(text: str, out_path) -> None:
    if out_path:
        _write(out_path, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _format_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return report.to_csv()
    return report.to_text()


def do_check(args) -> int:
    fx = load_fixture(args.fixture)
    tolerances = _parse_tolerances(args.tolerance)
    report = _check_report(fx, args.samples, args.seed, tolerances)
    _emit(_format_report(report, args.format), args.out)
    return 0 if report.passed else 1


def do_convert(args) -> int:
    fx = load_fixture(args.fixture)
    kind = fx["kind"]
    if args.direction == "to-flip":
        if kind == "algebroid":
            spec = fx["spec"]
        elif kind == "group":
            inv_g, _ = _differentiate(fx["group"], max(10, args.samples // 4), args.seed)
            spec = inv_g.spec
        else:
            raise FixtureError("convert to-flip needs an algebroid or group fixture, got %r"
                               % kind)
        inv = involution_from_spec(spec)
        n_eval = max(1, min(args.samples, 20))
        pes = _sample_pairs(inv, np.random.default_rng(args.seed), n_eval)
        alpha = inv.flip(pes.v_jet(slice(None)), pes.w_jet(slice(None))).coeffs
        dm = spec.dim_M

        def blocks(value, dot):
            return {"m": _ser_vector(value[:dm]), "a": _ser_vector(value[dm:]),
                    "mdot": _ser_vector(dot[:dm]), "adot": _ser_vector(dot[dm:])}

        table = [{"v": {"m": _ser_vector(pes.v[i, :dm]), "a": _ser_vector(pes.v[i, dm:])},
                  "w": blocks(*pes.w[:, i]), "alpha": blocks(*alpha[:, i])}
                 for i in range(n_eval)]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "involution-flip",
            "dim_M": spec.dim_M,
            "dim_A": spec.dim_A,
            "anchor": spec.rho.to_table(),
            "structure": _structure_entries(spec),
            "evaluation": {"samples": n_eval, "seed": args.seed, "table": table},
        }
    else:  # to-bracket
        if kind != "involution-flip":
            raise FixtureError("convert to-bracket needs an involution-flip fixture, got %r"
                               % kind)
        spec = fx["spec"]
        inv = involution_from_spec(spec)
        dm, da = spec.dim_M, spec.dim_A
        rng = np.random.default_rng(args.seed)
        points = rng.uniform(-1, 1, (max(1, min(args.samples, 10)), dm))
        table = []
        for i in range(da):
            for j in range(i + 1, da):
                sections = (SectionSpec(PolyMap.constant(np.eye(da)[k], dm)) for k in (i, j))
                values = bracket_from_flip(inv, *sections)(points)
                table += [{"i": i, "j": j, "m": _ser_vector(m), "value": _ser_vector(value)}
                          for m, value in zip(points, values)]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "result": "bracket",
            "dim_M": dm,
            "dim_A": da,
            "evaluation": {"samples": len(points), "seed": args.seed, "table": table},
        }
        if dm == 0:
            fitted = spec_from_flip(inv)
            payload["structure"] = _structure_entries(fitted)
    _emit(_dumps(payload, compact=args.format == "json"), args.out)
    return 0


def do_transport(args) -> int:
    fx = load_fixture(args.fixture)
    kind = fx["kind"]
    if kind not in ("apath", "ahomotopy"):
        raise FixtureError("transport needs an apath or ahomotopy fixture, got %r" % kind)
    if "initial" not in fx:
        raise FixtureError("transport needs an initial element in the fixture")
    tolerances = _parse_tolerances(args.tolerance)
    inv = involution_from_spec(fx["spec"])
    if kind == "apath":
        run = apath_transport(inv, fx["variation"], fx["initial"], h=args.step)
        name, count, value = "anchor-relation", len(run.times), run.anchor_residual
    else:
        run = ahomotopy_transport(inv, fx["variation"], fx["initial"], h=args.step)
        name, count, value = ("homotopy-discrepancy", len(run.s_nodes) * len(run.t_nodes),
                              run.discrepancy)
    tol = tolerances.get(name, 1e-6)
    value = float(value)
    report = Report([CheckResult(name, count, None, value, tol, _passes(value, tol), None)])
    _write(args.out, run.to_csv())
    print(_format_report(report, args.format))
    return 0 if report.passed else 1


def do_differentiate_group(args) -> int:
    target = args.group
    if os.path.exists(target):
        fx = load_fixture(target)
        if fx["kind"] != "group":
            raise FixtureError("differentiate-group needs a group fixture, got %r" % fx["kind"])
        spec = fx["group"]
        label = spec.name or target
    else:
        spec = _group_catalog(target)
        label = target
    inv, report = _differentiate(spec, args.samples, args.seed)
    constants = _structure_entries(inv.spec)
    if args.format == "json":
        text = _dumps({"group": label, "constants": constants,
                       "report": report.to_dict()}, compact=True)
    elif args.format == "csv":
        text = report.to_csv()
    else:
        lines = [report.to_text(), "recovered structure constants:"]
        if not constants:
            lines.append("  (all zero)")
        for e in constants:
            lines.append("  C(e%d, e%d) -> e%d: %s"
                         % (e["i"], e["j"], e["k"],
                            " + ".join("%r x^%s" % (t["coeff"], t["exponents"])
                                       if any(t["exponents"]) else repr(t["coeff"])
                                       for t in e["terms"])))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if report.passed else 1


def do_catalog(args) -> int:
    if args.format == "json":
        text = _dumps({"algebroids": catalog_names(),
                       "groups": list(GROUP_CATALOG_NAMES)}, compact=True)
    else:
        lines = []
        for name in catalog_names():
            lines.append("algebroid  %-22s %s" % (name, DESCRIPTIONS.get(name, "")))
        for name in GROUP_CATALOG_NAMES:
            lines.append("group      %s" % name)
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


# -- argument plumbing --------------------------------------------------------


def _parse_tolerances(pairs) -> dict:
    tols = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise FixtureError("--tolerance expects name=value, got %r" % item)
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan  # rejected below with the other unusable values
        if not (math.isfinite(tol) and tol >= 0):
            raise FixtureError("bad tolerance value in %r" % item)
        tols[name.strip()] = tol
    return tols


def _check_flags(args) -> None:
    """Reject flag values no command can use."""
    if getattr(args, "samples", 0) < 0:
        raise FixtureError("--samples must be nonnegative, got %d" % args.samples)
    step = getattr(args, "step", 1.0)
    if not (math.isfinite(step) and step > 0):
        raise FixtureError("--step must be a positive finite number, got %r" % step)


def _add_common(sub, step=False):
    sub.add_argument("--samples", type=int, default=200)
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--tolerance", action="append", metavar="CHECK=VALUE",
                     help="override a named check tolerance; repeatable")
    sub.add_argument("--out", metavar="PATH", default=None)
    sub.add_argument("--format", choices=("json", "text", "csv"), default="text")
    if step:
        sub.add_argument("--step", type=float, default=1e-3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invalg",
        description="verify and integrate involution algebroids from fixture files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the verification suites on a fixture")
    p.add_argument("fixture")
    _add_common(p)

    p = sub.add_parser("convert", help="convert between bracket and flip presentations")
    p.add_argument("fixture")
    p.add_argument("direction", choices=("to-flip", "to-bracket"))
    _add_common(p)

    p = sub.add_parser("transport", help="integrate a path or homotopy transport to CSV")
    p.add_argument("fixture")
    _add_common(p, step=True)

    p = sub.add_parser("differentiate-group", help="differentiate a matrix group")
    p.add_argument("group", help="catalog name or group fixture path")
    _add_common(p)

    p = sub.add_parser("catalog", help="list built-in fixtures")
    p.add_argument("action", choices=("list",))
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p.add_argument("--out", metavar="PATH", default=None)

    return parser


def _dispatch(args) -> int:
    if args.command == "check":
        return do_check(args)
    if args.command == "convert":
        return do_convert(args)
    if args.command == "transport":
        if not args.out:
            raise FixtureError("transport needs --out for the trajectory table")
        return do_transport(args)
    if args.command == "differentiate-group":
        return do_differentiate_group(args)
    if args.command == "catalog":
        return do_catalog(args)
    raise FixtureError("unknown command %r" % args.command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        # an overflow shows as an inf or NaN residual in the report, which
        # fails its check; numpy's warnings about it would only be noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _dispatch(args)
    except FixtureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
