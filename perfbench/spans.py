"""In-memory span tracer, installed from outside around invalg's layers.

The tracer replaces the public functions of each invalg module, and the
public methods of its classes, with wrappers that record one span per call:
(id, name, start, end, parent).  A span's self time is its duration minus the
durations of its direct children.  Span names are ``<module>.<function>``;
methods drop the class name, so ``AlgebroidSpec.anchor_apply`` and
``InvolutionAlgebroid.anchor_apply`` both record as ``algebroid.anchor_apply``.

Three kinds of call get special treatment:

* JetScalar construction, products and sums run millions of times per pass,
  so they are counted without spans; their time stays in the caller's self
  time.  JetPoint and the other small value classes are not wrapped either.
* Flip evaluators are closures stored on each InvolutionAlgebroid; they record
  as ``algebroid.flip`` or ``groupoid.flip`` after the module that built them.
* The residual callback handed to ``run_check`` records as ``<module>.law``
  after the module that defined it, so ``report.run_check`` self time is the
  fold alone.

Nothing here edits invalg's files: the wrappers are installed on the imported
modules and classes of one process.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

MODULES = ("jet", "report", "bundle", "algebroid", "catalog", "groupoid", "flow", "cli")

SCALAR_COUNTERS = {
    "__init__": "jet.scalar_new",
    "__mul__": "jet.mul",
    "__rmul__": "jet.mul",
    "__add__": "jet.add",
    "__radd__": "jet.add",
    "__sub__": "jet.add",
    "__rsub__": "jet.add",
}

# Small value classes whose methods are part of the caller's work.
UNWRAPPED_CLASSES = {"JetScalar", "JetPoint", "CheckResult", "GroupJet2", "AElement"}

# Private helpers that carry a layer metric of their own.
PRIVATE_SPANS = {"cli": ("_emit", "_format_report", "_dumps")}

# Counters fed from a call's arguments or result: span name -> (counter, fn).
CALL_COUNTERS = {
    "jet.eval_floats": ("jet.eval_floats.points",
                        lambda args, result: math.prod(np.shape(args[1])[:-1])),
    "flow.rk4_solve": ("flow.rk4.steps", lambda args, result: len(result[0]) - 1),
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.active = defaultdict(int)
        self.counts = defaultdict(int)

    def reset(self) -> None:
        """Forget everything recorded so far (between passes)."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""
        stack, spans = self.stack, self.spans
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self.active
        perf_counter = time.perf_counter
        counter = CALL_COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if not active[name]:
                    incl_s[name] += duration
                spans.append((sid, name, start, end, parent))
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        traced.traced_original = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the imported invalg package."""
        pkg = importlib.import_module("invalg")
        modules = {name: importlib.import_module("invalg." + name) for name in MODULES}
        holders = [pkg] + list(modules.values())
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    public = not attr.startswith("_")
                    if public or attr in PRIVATE_SPANS.get(short, ()):
                        wrapped = self._run_check(obj) if attr == "run_check" \
                            else self.span("%s.%s" % (short, attr), obj)
                        _replace(holders, obj, wrapped)
                elif inspect.isclass(obj) and not attr.startswith("_") \
                        and attr not in UNWRAPPED_CLASSES:
                    self._wrap_methods(short, obj)
        jet_scalar = modules["jet"].JetScalar
        for attr, counter in SCALAR_COUNTERS.items():
            setattr(jet_scalar, attr, self._count(counter, vars(jet_scalar)[attr]))
        self._wrap_flips(modules["algebroid"].InvolutionAlgebroid)

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (short, attr)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(name, raw))

    def _run_check(self, run_check):
        counts = self.counts

        def hooked(name, inputs, evaluate, *args, **kwargs):
            module = _short(getattr(evaluate, "__module__", None) or "report")
            result = run_check(name, inputs, self.span(module + ".law", evaluate),
                               *args, **kwargs)
            counts["report.evals"] += len(inputs)
            counts["report.checks_failed"] += 0 if result.passed else 1
            return result

        return self.span("report.run_check", hooked)

    def _wrap_flips(self, cls) -> None:
        init = cls.__init__
        span = self.span

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            flip = obj.flip
            if not hasattr(flip, "traced_original"):
                name = _short(getattr(flip, "__module__", None) or "algebroid") + ".flip"
                object.__setattr__(obj, "flip", span(name, flip))

        cls.__init__ = traced_init

    # -- output -------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time summed per module prefix."""
        out = {name: 0.0 for name in MODULES}
        for name, value in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

def write_spans(path, spans) -> None:
    """Write spans as CSV: id, name, start, end, parent (-1 for a root)."""
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent\n")
        for sid, name, start, end, parent in sorted(spans):
            fh.write("%d,%s,%.9f,%.9f,%d\n" % (sid, name, start, end, parent))


def _replace(holders, old, new) -> None:
    for mod in holders:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
