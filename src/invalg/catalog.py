"""Built-in fixtures: algebroids, including ill-formed ones, and group names.

Every algebroid entry is a zero-argument builder returning an AlgebroidSpec,
with its description; negative fixtures (broken Jacobi, an anchor that the
zero bracket cannot match) are listed alongside the valid ones so detection
tests have something to detect.  The group builders are in groupoid.py,
which loads on first use; their names are kept here so that `catalog list`
loads no other layer.
"""

from __future__ import annotations

import numpy as np

from .algebroid import AlgebroidSpec
from .jet import PolyMap


def abelian() -> AlgebroidSpec:
    """Zero anchor, zero bracket over a line: everything commutes."""
    return AlgebroidSpec.from_structure(1, 2, np.zeros((1, 2)), [])


def tangent(dim: int) -> AlgebroidSpec:
    """Tangent algebroid of R^dim: identity anchor, vanishing structure."""
    return AlgebroidSpec.from_structure(dim, dim, np.eye(dim), [])


def so3() -> AlgebroidSpec:
    """Rotation Lie algebra over a point: [e1,e2]=e3 and cyclic."""
    return AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [
        (0, 1, 2, 1.0),
        (0, 2, 1, -1.0),
        (1, 2, 0, 1.0),
    ])


def sl2() -> AlgebroidSpec:
    """Traceless 2x2 Lie algebra over a point, in the (H, E, F) basis."""
    return AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [
        (0, 1, 1, 2.0),
        (0, 2, 2, -2.0),
        (1, 2, 0, 1.0),
    ])


def action_so3_r3() -> AlgebroidSpec:
    """Rotation algebra acting on R^3 with anchor a -> a x m.

    Anchor compatibility forces the structure constants to be minus the
    cross product for this anchor orientation.
    """
    m = [tuple(1 if i == k else 0 for i in range(3)) for k in range(3)]
    # row-major (base index, fiber index); entry (i, j) is d(a x m)_i / da_j
    rho_rows = [
        (), ((1.0, m[2]),), ((-1.0, m[1]),),
        ((-1.0, m[2]),), (), ((1.0, m[0]),),
        ((1.0, m[1]),), ((-1.0, m[0]),), (),
    ]
    rho = PolyMap(3, 9, tuple(rho_rows))
    return AlgebroidSpec.from_structure(3, 3, rho, [
        (0, 1, 2, -1.0),
        (0, 2, 1, 1.0),
        (1, 2, 0, -1.0),
    ])


def lie_algebra_bundle() -> AlgebroidSpec:
    """Bundle of rotation algebras over a line, scaled by 1 + m^2; the anchor
    vanishes, so any fiberwise Lie structure is admissible."""
    scale = [(1.0, (0,)), (1.0, (2,))]
    return AlgebroidSpec.from_structure(1, 3, np.zeros((1, 3)), [
        (0, 1, 2, scale),
        (0, 2, 1, [(-c, e) for c, e in scale]),
        (1, 2, 0, scale),
    ])


def broken_jacobi() -> AlgebroidSpec:
    """Over a point: [e1,e2]=e1, [e1,e3]=e2, [e2,e3]=0.  The cyclic bracket
    defect on (e1,e2,e3) is e2, so this is not a Lie algebra."""
    return AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [
        (0, 1, 0, 1.0),
        (0, 2, 1, 1.0),
    ])


def incompatible_anchor() -> AlgebroidSpec:
    """Anchor (1, m) over a line with zero bracket: the anchored fields do
    not commute, so no flip built from this data can pass the anchor laws."""
    rho = PolyMap(1, 2, (((1.0, (0,)),), ((1.0, (1,)),)))
    return AlgebroidSpec(1, 2, rho, PolyMap.zero(1, 2))


# name -> (builder, the line `invalg catalog list` prints for it)
ENTRIES = {
    "abelian": (abelian, "zero anchor and bracket on a rank-2 bundle over a line"),
    "tangent-r1": (lambda: tangent(1), "tangent algebroid of the line"),
    "tangent-r2": (lambda: tangent(2), "tangent algebroid of the plane"),
    "so3": (so3, "rotation Lie algebra over a point"),
    "sl2": (sl2, "traceless 2x2 Lie algebra over a point"),
    "action-so3-r3": (action_so3_r3, "rotation algebra acting on R^3 by the cross product"),
    "lie-algebra-bundle": (lie_algebra_bundle, "rotation algebras scaled by 1 + m^2 over a line"),
    "broken-jacobi": (broken_jacobi, "bracket with a nonzero cyclic defect (ill-formed)"),
    "incompatible-anchor": (incompatible_anchor,
                            "anchor the zero bracket cannot match (ill-formed)"),
}

# the names groupoid.group_catalog builds; n and m stand for a dimension
GROUP_CATALOG_NAMES = ("so3", "sl2", "diag-abelian(n)", "pair-groupoid(m)")


def get(name: str) -> AlgebroidSpec:
    try:
        builder, _ = ENTRIES[name]
    except KeyError:
        raise KeyError("unknown catalog entry %r; known: %s"
                       % (name, ", ".join(sorted(ENTRIES)))) from None
    return builder()


def names() -> list:
    return sorted(ENTRIES)
