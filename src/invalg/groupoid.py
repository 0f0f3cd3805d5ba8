"""Differentiating groupoids: matrix groups and pair groupoids.

The flip of a differentiated groupoid is the second-order jet composite

    flip(v, w) = cw . 0v . (c0pw)^{-1}

Both groupoids run it on one nested jet of depth d + 2.  Its two outer
directions, the low two mask bits laid out by _assemble4, are the two
parameters of the second-order jets; the inner d directions are those of the
prolongations being flipped.  For a matrix group that jet is a float array
of shape (2**(d+2), *batch, n, n) whose batch axes hold one sample each, and
the composite is the jet product of jet.py with matmul as the coefficient
product; c0pw = e + eps2 W_H has the exact inverse e - eps2 W_H.  Matrix jets
make the resulting involution algebroid fully checkable by the axiom suite.
For the pair groupoid over R^m the same composite is pure index bookkeeping
on pairs of endpoint-path jets and lands exactly on the tangent-bundle flip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebroid import (
    InvolutionAlgebroid,
    _constant_brackets,
    _sample_pairs,
    check_axioms,
    check_yang_baxter,
    involution_from_spec,
    spec_from_flip,
)
from .catalog import tangent
from .jet import (
    JetPoint,
    PolyMap,
    _max_abs,
    _product,
    flip_c,
    residual,
    residuals,
    split_innermost,
)
from .report import Report, _fold


@dataclass(frozen=True)
class MatrixGroupSpec:
    """A matrix Lie group presented by a basis of its algebra inside gl(N).

    Construction checks that the basis is linearly independent and closed
    under commutators (projection residual at most 1e-9).  Projection onto
    basis coordinates solves the normal equations, which keeps coordinates
    of exact basis combinations exact for orthogonal bases.
    """

    n: int
    basis: tuple
    name: str = ""

    def __post_init__(self):
        mats = tuple(np.asarray(b, dtype=float) for b in self.basis)
        object.__setattr__(self, "basis", mats)
        for b in mats:
            if b.shape != (self.n, self.n):
                raise ValueError("basis matrices must be %dx%d" % (self.n, self.n))
        if not mats:
            raise ValueError("empty algebra basis")
        flat = np.stack([b.reshape(-1) for b in mats])
        if np.linalg.matrix_rank(flat) != len(mats):
            raise ValueError("algebra basis is linearly dependent")
        gram = flat @ flat.T
        object.__setattr__(self, "_proj", np.linalg.solve(gram, flat))
        object.__setattr__(self, "_stack", np.stack(mats))
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                com = mats[i] @ mats[j] - mats[j] @ mats[i]
                try:
                    self.project(com)
                except ValueError:
                    raise ValueError(
                        "algebra basis is not closed under commutators "
                        "(pair %d, %d)" % (i, j)
                    ) from None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_matrix(self, coords) -> np.ndarray:
        return self._combine(np.asarray(coords, dtype=float)[None])[0]

    def project(self, mat, tol: float = 1e-9) -> np.ndarray:
        """Basis coordinates of a matrix: project_jet on a depth-0 matrix jet."""
        return self.project_jet(np.reshape(mat, (1, self.n, self.n)), 0, tol).row(0)

    def as_matrix(self, value) -> np.ndarray:
        """Accept either basis coordinates or a matrix already in the span."""
        arr = np.asarray(value, dtype=float)
        if arr.shape == (self.dim,):
            return self.to_matrix(arr)
        if arr.shape == (self.n, self.n):
            self.project(arr)
            return arr
        raise ValueError("expected %d coordinates or a %dx%d matrix"
                         % (self.dim, self.n, self.n))

    # matrix-jet counterparts, for the polymorphic flip

    def _combine(self, rows: np.ndarray) -> np.ndarray:
        return np.einsum("...k,kij->...ij", rows, self._stack)

    def matrix_jet(self, coords: JetPoint) -> np.ndarray:
        """The (2**depth, *batch, n, n) matrix jet of a coordinate jet: one
        basis combination per mask and batch entry."""
        if coords.dim != self.dim:
            raise ValueError("expected %d coordinates, got %d" % (self.dim, coords.dim))
        return self._combine(coords.coeffs)

    def project_jet(self, mat: np.ndarray, depth: int, tol: float = 1e-9) -> JetPoint:
        """Basis coordinates of a matrix jet (2**depth, *batch, n, n), mask by
        mask; raises unless the coordinates rebuild every coefficient within
        tol (NaN never does)."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim < 3 or mat.shape[0] != 1 << depth or mat.shape[-2:] != (self.n, self.n):
            raise ValueError("expected a (%d, ..., %d, %d) matrix jet"
                             % (1 << depth, self.n, self.n))
        rows = mat.reshape(mat.shape[:-2] + (-1,)) @ self._proj.T
        if not float(np.max(np.abs(mat - self._combine(rows)))) <= tol:
            raise ValueError("matrix lies outside the algebra span")
        return JetPoint.from_rows(depth, rows)


def _assemble4(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Attach two outer directions to four (2**k, ...) jet arrays of one
    shape: block o's mask m lands on mask o | (m << 2), so the directions of
    the blocks shift inward by two and x[o::4] reads block o back."""
    stacked = np.stack((b0, b1, b2, b3), axis=1)
    return stacked.reshape((4 * len(b0),) + stacked.shape[2:])


def group_flip_slots(spec: MatrixGroupSpec, V, W_H, W_V):
    """Run the flip composite on (2**d, *batch, n, n) matrix jets of one
    shape and return the three derivative slots of the result; the second
    one vanishes identically.  c0pw = e + eps2 W_H squares eps2 away, so its
    inverse is e - eps2 W_H exactly."""
    e = np.zeros_like(V)
    e[0] = np.eye(spec.n)
    z = np.zeros_like(V)
    cw = _assemble4(e, z, W_H, W_V)
    zero_v = _assemble4(e, V, z, z)
    c0pw_inv = _assemble4(e, z, -W_H, z)
    out = _product(_product(cw, zero_v, np.matmul), c0pw_inv, np.matmul)
    return out[1::4], out[2::4], out[3::4]


def group_involution(spec: MatrixGroupSpec) -> InvolutionAlgebroid:
    """The differentiated group as an involution algebroid over a point; the
    flip evaluator runs the group composite on matrix jets, so tangent
    prolongations come from the same formula."""
    k = spec.dim

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        if w.depth != v.depth + 1:
            raise ValueError("flip needs w one level deeper than v")
        # the innermost direction of w is the high bit of its masks, so its
        # value and velocity are the two halves of the mask axis
        half = 1 << v.depth
        W = spec.matrix_jet(w)
        g1, g2, g12 = group_flip_slots(spec, spec.matrix_jet(v), W[:half], W[half:])
        if not np.all(g2 == 0.0):
            raise ArithmeticError("source slot of the flip composite did not cancel")
        return spec.project_jet(np.concatenate((g1, g12)), w.depth)

    return InvolutionAlgebroid(0, k, PolyMap.zero(0, 0), flip, describe=spec.name)


def differentiate_group(spec: MatrixGroupSpec, samples: int = 60, seed: int = 0):
    """Differentiate a matrix group and verify the result: the axiom suite,
    the braid form, antisymmetry of the recovered bracket, and the Jacobi
    defect of the recovered structure constants.  Returns the involution
    algebroid (carrying the recovered constants) and the report."""
    first = group_involution(spec)
    recovered = spec_from_flip(first)
    inv = InvolutionAlgebroid(0, spec.dim, PolyMap.zero(0, 0), first.flip,
                              spec=recovered, describe=spec.name)
    report = Report()
    report.extend(check_axioms(inv, samples=samples, seed=seed))
    report.extend(check_yang_baxter(inv, samples=max(10, samples // 2), seed=seed))

    basis = np.eye(spec.dim)
    pairs = np.array([(i, j) for i in range(spec.dim) for j in range(spec.dim) if i != j],
                     dtype=np.intp).reshape(-1, 2)

    def antisym(rows):
        x, y = basis[pairs[rows, 0]], basis[pairs[rows, 1]]
        return _max_abs(_constant_brackets(inv, x, y) + _constant_brackets(inv, y, x))

    report.add(_fold("bracket-antisymmetric", len(pairs), antisym, 1e-9, seed,
                     lambda i: pairs[i].tolist()))
    report.extend(recovered.well_formed(samples=30, seed=seed))
    return inv, report


# -- pair groupoids over R^m --------------------------------------------------


@dataclass(frozen=True)
class PairGroupoidSpec:
    """The groupoid of ordered pairs of points of R^dim; an arrow (a, b) runs
    from b to a and composition drops the matched middle point."""

    dim: int
    name: str = "pair-groupoid"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("the pair groupoid needs a base of dimension at least 1")


def pair_compose(x, y, tol: float = 1e-9):
    """Second-order composition: components are jets of the two endpoint
    paths, composable when the middle paths agree."""
    if not residual(x[1], y[0]) <= tol:
        raise ValueError("pair jets are not composable: middle paths differ")
    return (x[0], y[1])


def pair_inverse(x):
    return (x[1], x[0])


def pair_involution(spec: PairGroupoidSpec) -> InvolutionAlgebroid:
    """Differentiate the pair groupoid: embed prolongation pairs as pairs of
    endpoint-path jets, run the flip composite through composition and
    inversion, and read the result back.  Everything is relabeling, so the
    output coincides bit for bit with the tangent-bundle flip."""
    d = spec.dim
    rho = PolyMap.constant(np.eye(d).reshape(-1), d)

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        if w.depth != v.depth + 1:
            raise ValueError("flip needs w one level deeper than v")
        w_val, w_dot = (x.coeffs for x in split_innermost(w))
        mj, av = v.coeffs[..., :d], v.coeffs[..., d:]
        aw = w_val[..., d:]
        mdot, adot = w_dot[..., :d], w_dot[..., d:]
        zero = np.zeros_like(mj)
        jet = lambda *blocks: JetPoint._of(_assemble4(*blocks))
        # embeddings: first component carries the moving endpoint, second the
        # anchored one; the fiber direction sits on the second outer slot
        cw = (flip_c(jet(mj, mdot, aw, adot), 1, 2), flip_c(jet(mj, mdot, zero, zero), 1, 2))
        zero_v = (jet(mj, zero, av, zero), jet(mj, zero, zero, zero))
        c0pw = (jet(mj, aw, zero, zero), jet(mj, zero, zero, zero))
        move, anchor = (x.coeffs for x in pair_compose(pair_compose(cw, zero_v),
                                                       pair_inverse(c0pw)))
        # consistency of the output embedding: anchored component must be the
        # base path prolonged by the new fiber value, with nothing higher
        if not (float(np.abs(anchor[0::4] - move[0::4]).max(initial=0.0)) <= 1e-9
                and float(np.abs(anchor[1::4] - move[1::4]).max(initial=0.0)) <= 1e-9
                and np.all(anchor[2::4] == 0.0) and np.all(anchor[3::4] == 0.0)):
            raise ArithmeticError("pair flip output lost its embedding shape")
        value = np.concatenate((move[0::4], move[2::4]), axis=-1)
        dot = np.concatenate((move[1::4], move[3::4]), axis=-1)
        return JetPoint._of(np.concatenate((value, dot)))

    return InvolutionAlgebroid(d, d, rho, flip, describe=spec.name)


def differentiate_pair_groupoid(spec: PairGroupoidSpec, samples: int = 40,
                                seed: int = 0):
    """Differentiate the pair groupoid and verify it lands on the tangent
    algebroid of the base, bit for bit, besides passing the axiom suite."""
    inv = pair_involution(spec)
    reference = tangent(spec.dim)
    ref_inv = involution_from_spec(reference)
    final = InvolutionAlgebroid(spec.dim, spec.dim, inv.rho, inv.flip,
                                spec=reference, describe=spec.name)
    report = Report()
    report.extend(check_axioms(final, samples=samples, seed=seed))
    report.extend(check_yang_baxter(final, samples=max(10, samples // 2), seed=seed))

    pes = _sample_pairs(final, np.random.default_rng(seed), samples)

    def matches(rows):
        v, w = pes.v_jet(rows), pes.w_jet(rows)
        return residuals(final.flip(v, w), ref_inv.flip(v, w))

    report.add(_fold("matches-tangent-flip", samples, matches, 0.0, seed))
    return final, report


# -- the group catalog --------------------------------------------------------


def so3_group() -> MatrixGroupSpec:
    basis = (
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    return MatrixGroupSpec(3, basis, name="so3")


def sl2_group() -> MatrixGroupSpec:
    basis = (
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    return MatrixGroupSpec(2, basis, name="sl2")


def diag_abelian_group(n: int) -> MatrixGroupSpec:
    basis = tuple(np.diag(row) for row in np.eye(n))
    return MatrixGroupSpec(n, basis, name="diag-abelian(%d)" % n)


def group_catalog(name: str):
    """Named group and groupoid fixtures: so3, sl2, diag-abelian(n),
    pair-groupoid(m)."""
    if name == "so3":
        return so3_group()
    if name == "sl2":
        return sl2_group()
    m = re.fullmatch(r"diag-abelian\((\d+)\)", name)
    if m:
        return diag_abelian_group(int(m.group(1)))
    m = re.fullmatch(r"pair-groupoid\((\d+)\)", name)
    if m:
        return PairGroupoidSpec(int(m.group(1)))
    raise KeyError("unknown group fixture %r; known: so3, sl2, diag-abelian(n), "
                   "pair-groupoid(m)" % (name,))


GROUP_CATALOG_NAMES = ("so3", "sl2", "diag-abelian(n)", "pair-groupoid(m)")
