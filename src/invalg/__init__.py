"""Numerical toolkit for involution algebroids.

Builds canonical flip maps from anchor/bracket data, recovers brackets from
flips, verifies the involution-algebroid laws with nested-jet arithmetic,
differentiates matrix groupoids, and integrates path and homotopy transport.
"""

from .report import CheckResult, Report, run_check, worst_of
from .jet import (
    JetScalar,
    JetPoint,
    PolyMap,
    apply_poly,
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
    ta_residual,
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
    check_leibniz,
)
from .catalog import get as catalog_get, names as catalog_names
from .groupoid import (
    MatrixGroupSpec,
    PairGroupoidSpec,
    differentiate_group,
    differentiate_pair_groupoid,
    group_catalog,
)
from .flow import (
    APathVariation,
    AHomotopyVariation,
    apath_transport,
    ahomotopy_transport,
    inf_apath_vee,
    inf_apath_wedge,
    inf_ahomotopy_vee,
    inf_ahomotopy_wedge,
    rk4_solve,
    expm,
    grid_derivative,
)

__version__ = "0.1.0"
