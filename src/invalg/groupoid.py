"""Differentiating groupoids: matrix groups and pair groupoids.

The flip of a differentiated groupoid is the second-order jet composite

    flip(v, w) = cw . 0v . (c0pw)^{-1}

For a matrix group the second-order jets are quadruples of matrices and the
composite is truncated polynomial algebra, so it runs unchanged whether the
derivative slots hold plain (n, n) matrices or matrix jets: float arrays of
shape (2**d, *batch, n, n) whose leading axis is the jet mask of jet.py and
whose batch axes, as for jets, hold one sample each.  Two matrix jets
multiply as a subset convolution over disjoint masks (the hyper-dual
product), a plain matrix times a matrix jet is a broadcast matmul.  Matrix
jets make the resulting involution algebroid fully checkable by the axiom
suite.  The pair groupoid over R^m is carried alongside: there the same
composite is pure index bookkeeping and lands exactly on the tangent-bundle
flip.
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
    MAX_DEPTH,
    JetPoint,
    PolyMap,
    _max_abs,
    _product,
    flip_c,
    join_innermost,
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


_JET_LENGTHS = tuple(1 << d for d in range(MAX_DEPTH + 1))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product where either factor may be a (2**d, *batch, n, n)
    matrix jet.
    Two jets multiply by the jet product of jet.py with matmul as the
    coefficient product: out[U] = sum a[S] @ b[U - S] over the subsets S of U."""
    if np.ndim(a) < 3 or np.ndim(b) < 3:
        return a @ b
    return _product(a, b, np.matmul)


@dataclass(frozen=True)
class GroupJet2:
    """Second-order two-parameter jet through a matrix group: base matrix and
    the three derivative slots.  The base is a float (n, n) matrix; the
    derivative slots are either all (n, n) matrices or all (2**d, n, n)
    matrix jets.  No constraint keeps truncated jets on the group manifold."""

    g: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g12: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.g)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("group jets hold square matrices")
        slot = np.shape(self.g1)
        if slot != shape and not (len(slot) >= 3 and slot[-2:] == shape
                                  and slot[0] in _JET_LENGTHS):
            raise ValueError("jet slots hold base-shaped matrices or "
                             "(2**d, *batch, n, n) matrix jets")
        for part in (self.g2, self.g12):
            if np.shape(part) != slot:
                raise ValueError("jet slots must share one shape")


def jet2_identity(n: int) -> GroupJet2:
    z = np.zeros((n, n))
    return GroupJet2(np.eye(n), z, z, z)


def jet2_mul(x: GroupJet2, y: GroupJet2) -> GroupJet2:
    """Truncated product: Leibniz in each direction and in the mixed slot."""
    if np.shape(x.g) != np.shape(y.g) or np.shape(x.g1) != np.shape(y.g1):
        raise ValueError("size mismatch in jet product")
    return GroupJet2(
        x.g @ y.g,
        x.g1 @ y.g + x.g @ y.g1,
        x.g2 @ y.g + x.g @ y.g2,
        x.g12 @ y.g + _matmul(x.g1, y.g2) + _matmul(x.g2, y.g1) + x.g @ y.g12,
    )


def jet2_inv(x: GroupJet2) -> GroupJet2:
    """Closed-form truncated inverse; jet2_mul(x, jet2_inv(x)) is the identity
    jet to solver precision.  The base matrix must be a float matrix; the
    derivative slots may be matrix jets."""
    gi = np.linalg.inv(x.g)
    return GroupJet2(
        gi,
        -(gi @ x.g1 @ gi),
        -(gi @ x.g2 @ gi),
        gi @ (_matmul(x.g1 @ gi, x.g2) + _matmul(x.g2 @ gi, x.g1) - x.g12) @ gi,
    )


def group_flip_slots(spec: MatrixGroupSpec, V, W_H, W_V):
    """Run the flip composite on matrix slots and return the three derivative
    slots of the result; the second one vanishes identically.  The slots are
    (n, n) matrices or (2**d, *batch, n, n) matrix jets, all of one shape."""
    e = np.eye(spec.n)
    z = np.zeros(np.shape(V))
    cw = GroupJet2(e, z, W_H, W_V)
    zero_v = GroupJet2(e, V, z, z)
    c0pw = GroupJet2(e, z, W_H, z)
    out = jet2_mul(jet2_mul(cw, zero_v), jet2_inv(c0pw))
    return out.g1, out.g2, out.g12


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


def _assemble4(b0: JetPoint, b1: JetPoint, b2: JetPoint, b3: JetPoint) -> JetPoint:
    """Attach two outer directions to four depth-k blocks; block dirs shift
    inward by two, so block o's mask m lands on mask o | (m << 2)."""
    stacked = np.stack([b.coeffs for b in (b0, b1, b2, b3)], axis=1)
    return JetPoint.from_rows(b0.depth + 2, stacked.reshape((4 << b0.depth,) + stacked.shape[2:]))


def _extract4(x: JetPoint):
    """Inverse of _assemble4."""
    blocks = x.coeffs.reshape((1 << (x.depth - 2), 4) + x.coeffs.shape[1:])
    return tuple(JetPoint.from_rows(x.depth - 2, blocks[:, outer]) for outer in range(4))


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
        w_val, w_dot = split_innermost(w)
        mj, av = v.take(0, d), v.take(d, 2 * d)
        aw = w_val.take(d, 2 * d)
        mdot, adot = w_dot.take(0, d), w_dot.take(d, 2 * d)
        zero = JetPoint._of(np.zeros_like(mj.coeffs))
        # embeddings: first component carries the moving endpoint, second the
        # anchored one; the fiber direction sits on the second outer slot
        w1 = _assemble4(mj, mdot, aw, adot)
        w2 = _assemble4(mj, mdot, zero, zero)
        cw = (flip_c(w1, 1, 2), flip_c(w2, 1, 2))
        zero_v = (_assemble4(mj, zero, av, zero), _assemble4(mj, zero, zero, zero))
        c0pw = (_assemble4(mj, aw, zero, zero), _assemble4(mj, zero, zero, zero))
        out = pair_compose(pair_compose(cw, zero_v), pair_inverse(c0pw))
        c_move = _extract4(out[0])
        c_anchor = _extract4(out[1])
        # consistency of the output embedding: anchored component must be the
        # base path prolonged by the new fiber value, with nothing higher
        if not (residual(c_anchor[0], c_move[0]) <= 1e-9
                and residual(c_anchor[1], c_move[1]) <= 1e-9
                and np.all(c_anchor[2].coeffs == 0.0) and np.all(c_anchor[3].coeffs == 0.0)):
            raise ArithmeticError("pair flip output lost its embedding shape")
        value = c_move[0].concat(c_move[2])
        dot = c_move[1].concat(c_move[3])
        return join_innermost(value, dot)

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
