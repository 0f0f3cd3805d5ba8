"""Command line front end: fixture files in, residual reports and tables out.

Fixtures are JSON with explicit polynomial coefficient tables (no expression
language), so every run is deterministic: same fixture and flags, same bytes
out.  Exit codes: 0 all checks pass, 1 a check failed or a flow was rejected,
2 the input could not be used.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .algebroid import (
    AlgebroidSpec,
    _flips_agree,
    _involution_report,
    _SectionTable,
    _sample_pairs,
    _structure_entries,
    check_axioms,
    check_bracket_laws,
    flip_from_bracket,
    involution_from_spec,
    spec_from_flip,
)
from .bundle import AElement, ConnectionSpec, ScalarFieldSpec, SectionSpec
from .catalog import ENTRIES, GROUP_CATALOG_NAMES
from .catalog import get as catalog_get, names as catalog_names
from .jet import PolyMap, check_tangent_axioms
from .report import FixtureError, Report, _fold, _judged, quiet

SCHEMA_VERSION = 1
MAX_EXPONENT = int(np.iinfo(np.intp).max)  # PolyMap's evaluator holds exponents as np.intp
MAX_SAMPLES = 10 ** 6  # the most --samples a command accepts, as many as transport's steps
KINDS = ("algebroid", "involution-flip", "group", "section", "scalar-field",
         "apath", "ahomotopy", "connection")


def __getattr__(name):
    """Serve ``group_catalog`` as an attribute of this module (PEP 562).

    The groupoid and transport layers are imported inside the code paths
    that use them, so a command that needs neither does not load them."""
    if name == "group_catalog":
        from .groupoid import group_catalog
        return group_catalog
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# -- fixture loading ----------------------------------------------------------


def _require(node: dict, key: str, where: str):
    if key not in node:
        raise FixtureError("missing %r in %s" % (key, where))
    return node[key]


@contextlib.contextmanager
def _unusable(source: str):
    """The one boundary between input and the objects built from it: any
    KeyError, TypeError, ValueError or OverflowError raised inside becomes a
    FixtureError (exit 2) that names source; a FixtureError passes unchanged."""
    try:
        yield
    except FixtureError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a KeyError's text is its argument, which str() would quote
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise FixtureError("%s: %s" % (source, message)) from None


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
    """value as a float when it is a finite JSON number: an int or a float
    within float range, not a bool or a string."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise FixtureError("%s must be a finite number, got %r" % (what, value))


def _reals(entries: np.ndarray, what: str) -> np.ndarray:
    """An object array of JSON values as floats, each entry checked by _finite."""
    return np.array([_finite(x, what) for x in entries.flat], dtype=float).reshape(entries.shape)


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
                coeff = entry["coeff"]
                exps = [_integer(e) for e in entry["exponents"]]
            except (TypeError, KeyError, ValueError):
                raise FixtureError(
                    "%s row %d: each term needs a coeff and a list of integer exponents"
                    % (where, r))
            if len(exps) != in_dim or not all(0 <= e <= MAX_EXPONENT for e in exps):
                raise FixtureError("%s row %d: exponents must be %d integers in 0..%d"
                                   % (where, r, in_dim, MAX_EXPONENT))
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


def _load_algebroid_node(node, where: str) -> AlgebroidSpec:
    if isinstance(node, str):
        return catalog_get(node)
    if not isinstance(node, dict):
        raise FixtureError("%s must be an object or a catalog name" % where)
    if "catalog" in node:
        return catalog_get(node["catalog"])
    dm = _count(node, "dim_M", where)
    da = _count(node, "dim_A", where)
    rho = _load_polymap(_require(node, "anchor", where), dm, dm * da, where + ".anchor")
    entries = _load_structure(node.get("structure", []), dm, da)
    return AlgebroidSpec.from_structure(dm, da, rho, entries)


def _load_element(node, dm: int, da: int) -> AElement:
    try:
        m = np.asarray(_require(node, "m", "initial"), dtype=object).reshape(dm)
        a = np.asarray(_require(node, "a", "initial"), dtype=object).reshape(da)
    except (TypeError, ValueError):
        raise FixtureError("initial element needs m with %d and a with %d entries" % (dm, da))
    return AElement(_reals(m, "initial element entry"), _reals(a, "initial element entry"))


def load_fixture(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FixtureError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deep
        raise FixtureError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise FixtureError("fixture must be a JSON object")
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise FixtureError("unsupported schema_version %r" % (version,))
    kind = raw.get("kind")
    if kind not in KINDS:
        raise FixtureError("unknown kind %r; expected one of %s" % (kind, ", ".join(KINDS)))
    out = {"kind": kind}
    with _unusable(path):
        if kind in ("algebroid", "involution-flip"):
            out["spec"] = _load_algebroid_node(raw, kind)
        elif kind == "group":
            from .groupoid import MatrixGroupSpec, group_catalog
            if "catalog" in raw:
                out["group"] = group_catalog(raw["catalog"])
            else:
                n = _count(raw, "n", kind)
                basis = tuple(_reals(np.asarray(b, dtype=object).reshape(n, n),
                                     "group basis entry")
                              for b in _require(raw, "basis", kind))
                out["group"] = MatrixGroupSpec(n, basis, name=str(raw.get("name", "")))
        elif kind == "section":
            dm = _count(raw, "dim_M", kind)
            da = _count(raw, "dim_A", kind)
            out["section"] = SectionSpec(_load_polymap(_require(raw, "table", kind), dm, da, kind))
        elif kind == "scalar-field":
            dm = _count(raw, "dim_M", kind)
            out["field"] = ScalarFieldSpec(_load_polymap(_require(raw, "table", kind), dm, 1, kind))
        else:  # the kinds that carry an algebroid: connection, apath, ahomotopy
            spec = out["spec"] = _load_algebroid_node(_require(raw, "algebroid", kind),
                                                      kind + ".algebroid")
            dm, da = spec.dim_M, spec.dim_A
            if kind == "connection":
                if "gamma" in raw:
                    gamma = _load_polymap(raw["gamma"], dm, da * dm * da, "connection.gamma")
                    out["connection"] = ConnectionSpec(dm, da, gamma)
                else:
                    out["connection"] = ConnectionSpec.flat(dm, da)
            elif kind == "apath":
                from .flow import APathVariation
                blocks = _load_polymap(_require(raw, "blocks", kind), 1, 2 * (dm + da),
                                       "apath.blocks")
                out["variation"] = APathVariation(dm, da, blocks,
                                                  _finite(raw.get("t_end", 1.0), "apath t_end"))
            else:
                from .flow import AHomotopyVariation
                h0 = _load_polymap(_require(raw, "h0", kind), 2, 2 * (dm + da), "ahomotopy.h0")
                h1 = _load_polymap(_require(raw, "h1", kind), 2, 2 * (dm + da), "ahomotopy.h1")
                out["variation"] = AHomotopyVariation(dm, da, h0, h1)
            if kind != "connection" and "initial" in raw:
                out["initial"] = _load_element(raw["initial"], dm, da)
    return out


# -- serialization helpers ----------------------------------------------------


def _ser_vector(v) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _dumps(payload, compact: bool) -> str:
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=2)


def _differentiate(group_spec, samples: int, seed: int):
    """The involution of a group fixture and its report, which has no rows
    at samples 0."""
    from .groupoid import _routes
    involution, differentiate = _routes(group_spec)
    if samples == 0:
        return involution(group_spec), Report()
    return differentiate(group_spec, samples=samples, seed=seed)


# -- check suites -------------------------------------------------------------


def _algebroid_report(inv, samples: int, seed: int) -> Report:
    report = check_tangent_axioms(samples=samples, seed=seed)
    report.extend(_involution_report(inv, samples, seed))
    report.extend(check_bracket_laws(inv, samples=max(10, samples // 5), seed=seed))
    return report


def _connection_report(spec, conn, samples: int, seed: int) -> Report:
    inv_conn = flip_from_bracket(spec, conn)
    inv_canon = involution_from_spec(spec)
    report = check_axioms(inv_conn, samples=samples, seed=seed)
    pes = _sample_pairs(inv_canon, np.random.default_rng(seed), samples)
    report.add(_flips_agree("connection-independence", inv_conn, inv_canon, pes, 1e-12, seed))
    return report


def _membership_report(fx: dict) -> Report:
    inv = involution_from_spec(fx["spec"])
    from .flow import _PATH_GRID, _SQUARE_GRID
    defects = fx["variation"].membership_residual(inv)  # at the default grid of its kind
    samples = _PATH_GRID if fx["kind"] == "apath" else _SQUARE_GRID ** 2
    return Report([_fold(name, samples, lambda rows, name=name: defects[name], 1e-9, None)
                   for name in sorted(defects)])


def _check_report(fx: dict, samples: int, seed: int) -> Report:
    if samples == 0:
        return Report()
    kind = fx["kind"]
    if kind in ("algebroid", "involution-flip"):
        return _algebroid_report(involution_from_spec(fx["spec"]), samples, seed)
    if kind == "connection":
        return _connection_report(fx["spec"], fx["connection"], samples, seed)
    if kind == "group":
        _, report = _differentiate(fx["group"], samples, seed)
        return report
    if kind in ("apath", "ahomotopy"):
        return _membership_report(fx)
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
    report = _judged(_check_report(fx, args.samples, args.seed), args.tolerance)
    _emit(_format_report(report, args.format), args.out)
    return 0 if report.passed else 1


def do_convert(args) -> int:
    fx = load_fixture(args.fixture)
    kind = fx["kind"]
    if args.direction == "to-flip":
        if kind == "algebroid":
            spec = fx["spec"]
        elif kind == "group":
            # the constants differentiate-group recovers, without its checks
            from .groupoid import _routes
            group = fx["group"]
            spec = _routes(group)[0](group).spec
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
        frame = _SectionTable(inv, [PolyMap.constant(e, dm) for e in np.eye(da)], points)
        brackets = frame.brackets(spec.pairs) if spec.pairs else []
        table = [{"i": i, "j": j, "m": _ser_vector(m), "value": _ser_vector(value)}
                 for (i, j), values in zip(spec.pairs, brackets)
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
    from .flow import _square_steps, _step_count, ahomotopy_transport, apath_transport
    with _unusable("--step"):  # the step cap, judged before any table is allocated
        if kind == "apath":
            _step_count(fx["variation"].t_end, args.step)
        else:
            _square_steps(args.step)
    inv = involution_from_spec(fx["spec"])
    if kind == "apath":
        run = apath_transport(inv, fx["variation"], fx["initial"], h=args.step)
        name, count, value = "anchor-relation", len(run.times), run.anchor_residual
    else:
        run = ahomotopy_transport(inv, fx["variation"], fx["initial"], h=args.step)
        name, count, value = ("homotopy-discrepancy", len(run.s_nodes) * len(run.t_nodes),
                              run.discrepancy)
    report = _judged(Report([_fold(name, count, lambda rows: value, 1e-6, None)]), args.tolerance)
    _write(args.out, run.to_csv())
    print(_format_report(report, args.format))
    return 0 if report.passed else 1


def do_differentiate_group(args) -> int:
    from .groupoid import group_catalog
    target = args.group
    if os.path.exists(target):
        fx = load_fixture(target)
        if fx["kind"] != "group":
            raise FixtureError("differentiate-group needs a group fixture, got %r" % fx["kind"])
        spec = fx["group"]
        label = spec.name or target
    else:
        with _unusable("group %s" % target):
            spec = group_catalog(target)
        label = target
    inv, report = _differentiate(spec, args.samples, args.seed)
    report = _judged(report, args.tolerance)
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
        text = "\n".join(["algebroid  %-22s %s" % (name, ENTRIES[name][1])
                          for name in catalog_names()]
                         + ["group      %s" % name for name in GROUP_CATALOG_NAMES])
    _emit(text, args.out)
    return 0


# -- argument plumbing --------------------------------------------------------


def _check_flags(args) -> None:
    """Reject flag values no command can use, before anything is allocated."""
    for flag in ("samples", "seed"):
        if getattr(args, flag, 0) < 0:
            raise FixtureError("--%s must be nonnegative, got %d" % (flag, getattr(args, flag)))
    if getattr(args, "samples", 0) > MAX_SAMPLES:
        raise FixtureError("--samples must be at most %d, got %d" % (MAX_SAMPLES, args.samples))
    step = getattr(args, "step", None)
    if step is not None and not (math.isfinite(step) and step > 0):
        raise FixtureError("--step must be a positive finite number, got %r" % step)
    if getattr(args, "command", None) == "transport" and not args.out:
        raise FixtureError("transport needs --out for the trajectory table")


def _add_common(sub, *positionals, formats=("json", "text", "csv"), step=False):
    """Add each (name, add_argument keywords) positional, then the flags of all but catalog."""
    for name, kwargs in positionals:
        sub.add_argument(name, **kwargs)
    sub.add_argument("--samples", type=int, default=200)
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--tolerance", action="append", metavar="CHECK=VALUE",
                     help="re-judge the reported check CHECK at tolerance VALUE; repeatable")
    sub.add_argument("--out", metavar="PATH", default=None)
    sub.add_argument("--format", choices=formats, default="text")
    if step:
        sub.add_argument("--step", type=float, default=1e-3)


def _add_catalog_args(sub):
    sub.add_argument("action", choices=("list",))
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", metavar="PATH", default=None)


# each command's handler, help line and the function that adds its arguments
COMMANDS = {
    "check": (do_check, "run the verification suites on a fixture",
              lambda sub: _add_common(sub, ("fixture", {}))),
    "convert": (do_convert, "convert between bracket and flip presentations",
                lambda sub: _add_common(sub, ("fixture", {}),
                                        ("direction", {"choices": ("to-flip", "to-bracket")}),
                                        formats=("json", "text"))),
    "transport": (do_transport, "integrate a path or homotopy transport to CSV",
                  lambda sub: _add_common(sub, ("fixture", {}), step=True)),
    "differentiate-group": (do_differentiate_group, "differentiate a matrix group",
                            lambda sub: _add_common(
                                sub, ("group", {"help": "catalog name or group fixture path"}))),
    "catalog": (do_catalog, "list built-in fixtures", _add_catalog_args),
}


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommand parsers included, that reports an unusable
    flag as a FixtureError for main, not as a usage block and SystemExit.
    Its help is laid out for 80 columns whatever the terminal, so building
    one asks the terminal nothing."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message):
        raise FixtureError(message)


def build_parser(command=None) -> argparse.ArgumentParser:
    """A new parser on each call, kept by nothing once the call that parses
    with it returns.  Given command, a name in COMMANDS, it adds that
    subcommand's parser only; otherwise all five, which the top-level help
    and an unknown command's "invalid choice" error list."""
    parser = _Parser(
        prog="invalg",
        description="verify and integrate involution algebroids from fixture files")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else COMMANDS:
        handler, help_line, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(handler=handler)
        add_arguments(p)
    return parser


def main(argv=None) -> int:
    """Run the invalg command in argv (default sys.argv[1:]); return its exit code,
    0 after --help.  Only that command's parser is built: --help or an unknown
    command builds all five."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        _check_flags(args)
        # an overflow shows as an inf or NaN residual in the report, which
        # fails its check; numpy's warnings about it would only be noise
        with quiet():
            code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except SystemExit as exc:  # --help prints its text and exits from inside parse_args
        return exc.code
    except FixtureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # unusable like an --out path that cannot be written; stdout goes to
        # devnull so that the flush at exit cannot fail again (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout: %s" % exc.strerror, file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, numpy's refusals included
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
