"""Numerical toolkit for involution algebroids.

Builds canonical flip maps from anchor/bracket data, recovers brackets from
flips, verifies the involution-algebroid laws with nested-jet arithmetic,
differentiates matrix groupoids, and integrates path and homotopy transport.

``import invalg`` loads the jet, report, bundle, algebroid and catalog layers.
The groupoid and transport layers (``invalg.groupoid``, ``invalg.flow``) load
on first use of one of their names, so code that never differentiates a
groupoid or integrates a transport does not pay to import them.  The value
classes are plain classes with written-out constructors, not dataclasses, so
importing a layer compiles nothing but its own file.
"""

from importlib import import_module as _import_module

from .report import CheckResult, Report, worst_of
from .jet import (
    JetScalar,
    JetPoint,
    PolyMap,
    add_tangent,
    sub_tangent,
    neg_tangent,
    flip_c,
    insert_zero,
    lift_l,
    proj_p,
    promote,
    residual,
    split_innermost,
    join_innermost,
    check_tangent_axioms,
)
from .bundle import (
    AElement,
    TAElement,
    SectionSpec,
    ScalarFieldSpec,
    ConnectionSpec,
    lie_derivative,
)
from .algebroid import (
    AlgebroidSpec,
    InvolutionAlgebroid,
    involution_from_spec,
    flip_from_bracket,
    bracket_from_flip,
    spec_from_flip,
    sample_prolongation,
    sample_double_prolongation,
    check_axioms,
    check_yang_baxter,
    check_bracket_laws,
)
from .catalog import get as catalog_get, names as catalog_names

# Each name served on first use, with the module that defines it; a module's
# own name maps to itself.
_LAZY = {
    **dict.fromkeys(("groupoid", "MatrixGroupSpec", "PairGroupoidSpec", "differentiate_group",
                     "differentiate_pair_groupoid", "group_catalog"), "groupoid"),
    **dict.fromkeys(("flow", "APathVariation", "AHomotopyVariation", "apath_transport",
                     "ahomotopy_transport", "inf_apath_vee", "inf_apath_wedge",
                     "inf_ahomotopy_vee", "inf_ahomotopy_wedge", "rk4_solve", "expm",
                     "grid_derivative"), "flow"),
}


def __getattr__(name):
    """Import a lazy export's module on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))

__version__ = "0.1.0"
