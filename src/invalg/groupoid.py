"""Differentiating groupoids: matrix groups and pair groupoids.

The flip of a differentiated groupoid is the second-order jet composite

    flip(v, w) = cw . 0v . (c0pw)^{-1}

Both groupoids run it on second-order jets whose two parameters are two
outer directions, the low two mask bits laid out by _assemble4, around the
inner d directions of the prolongations being flipped.  A matrix group
evaluates it block by block over the two outer directions: each factor is
four (2**d, *batch, n, n) float matrix jets, one per outer mask, whose batch
axes hold one sample each, and each of the two products is one jet product
of depth d (jet.py's, with matmul as the coefficient product) over the
stacked block pairs that are not zero by construction.  c0pw = e + eps2 W_H
has the exact inverse e - eps2 W_H.  Matrix jets make the resulting
involution algebroid fully checkable by the axiom suite.

For the pair groupoid over R^m the same composite is pure index bookkeeping
on pairs of endpoint-path jets, each a coefficient array laid out by
_assemble4, and lands exactly on the tangent-bundle flip: c on the two outer
directions swaps blocks 1 and 2, so it is the block order (b0, b2, b1, b3).
"""

from __future__ import annotations

import re

import numpy as np

from .algebroid import (
    InvolutionAlgebroid,
    _constant_brackets,
    _flip_args,
    _flips_agree,
    _involution_report,
    _sample_pairs,
    involution_from_spec,
    spec_from_flip,
)
from .catalog import GROUP_CATALOG_NAMES, tangent
from .jet import JetPoint, PolyMap, _max_abs, _product
from .report import _Frozen, _Value, _fold


class MatrixGroupSpec(_Frozen):
    """A matrix Lie group presented by a basis of its algebra inside gl(N).

    Construction checks that the basis is linearly independent and closed
    under commutators (projection residual at most 1e-9).  Projection onto
    basis coordinates solves the normal equations, which keeps coordinates
    of exact basis combinations exact for orthogonal bases.
    """

    def __init__(self, n: int, basis: tuple, name: str = ""):
        mats = tuple(np.asarray(b, dtype=float) for b in basis)
        for b in mats:
            if b.shape != (n, n):
                raise ValueError("basis matrices must be %dx%d" % (n, n))
        if not mats:
            raise ValueError("empty algebra basis")
        flat = np.stack([b.reshape(-1) for b in mats])
        if np.linalg.matrix_rank(flat) != len(mats):
            raise ValueError("algebra basis is linearly dependent")
        gram = flat @ flat.T
        self.__dict__.update(n=n, basis=mats, name=name, _proj=np.linalg.solve(gram, flat),
                             _stack=np.stack(mats))
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

    def project(self, mat) -> np.ndarray:
        """Basis coordinates of a matrix: project_jet on a depth-0 matrix jet."""
        return self.project_jet(np.reshape(mat, (1, self.n, self.n)), 0).row(0)

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

    def project_jet(self, mat: np.ndarray, depth: int) -> JetPoint:
        """Basis coordinates of a matrix jet (2**depth, *batch, n, n), mask by
        mask; raises unless the coordinates rebuild every coefficient within
        1e-9 (NaN never does)."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim < 3 or mat.shape[0] != 1 << depth or mat.shape[-2:] != (self.n, self.n):
            raise ValueError("expected a (%d, ..., %d, %d) matrix jet"
                             % (1 << depth, self.n, self.n))
        rows = mat.reshape(mat.shape[:-2] + (self.n * self.n,)) @ self._proj.T
        if not float(np.max(np.abs(mat - self._combine(rows)), initial=0.0)) <= 1e-9:
            raise ValueError("matrix lies outside the algebra span")
        return JetPoint.from_rows(depth, rows)


def _assemble4(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Attach two outer directions to four (2**k, ...) jet arrays of one
    shape: block o's mask m lands on mask o | (m << 2), so the directions of
    the blocks shift inward by two and x[o::4] reads block o back."""
    out = np.empty((4 * len(b0),) + b0.shape[1:], dtype=np.result_type(b0, b1, b2, b3))
    out[0::4], out[1::4], out[2::4], out[3::4] = b0, b1, b2, b3
    return out


def group_flip_slots(spec: MatrixGroupSpec, V, W_H, W_V):
    """Run the flip composite on (2**d, *batch, n, n) matrix jets of one
    shape and return the three derivative slots of the result; the second
    one vanishes identically.  c0pw = e + eps2 W_H squares eps2 away, so its
    inverse is e - eps2 W_H exactly.

    The factors are blocks over the two outer directions, block o the
    coefficient of outer mask o: cw = (e, 0, W_H, W_V), 0v = (e, V, 0, 0)
    and (c0pw)^{-1} = (e, 0, -W_H, 0), with e the depth-d identity jet.
    Block o of a product sums x_p y_{o - p} over the outer submasks p of o,
    so each stage is one jet product of depth d over the stacked block
    pairs that are not zero by construction; the pairs with e are
    multiplied too, which keeps the cancellation of the source slot
    computed rather than assumed."""
    eye = np.eye(spec.n)
    stacked = (len(V), 5) + V.shape[1:]
    # cw . 0v over the pairs (e, e), (e, V), (W_H, e), (W_H, V), (W_V, e):
    # its blocks are p0, p1, p2 and p3 + p4
    left = np.zeros(stacked)
    right = np.zeros(stacked)
    left[0, :2] = eye
    left[:, 2:4] = W_H[:, None]
    left[:, 4] = W_V
    right[0, 0::2] = eye
    right[:, 1::2] = V[:, None]
    p = _product(left, right, np.matmul)
    # times (c0pw)^{-1} over (p0, -W_H), (p1, e), (p2, e), (p1, -W_H) and
    # (p3 + p4, e): the slots are q1, q0 + q2 and q3 + q4, and block 0 of
    # the composite is no slot
    left[:, :3] = p[:, :3]
    left[:, 3] = p[:, 1]
    np.add(p[:, 3], p[:, 4], out=left[:, 4])
    right = np.zeros(stacked)
    right[0, 1:3] = eye
    right[0, 4] = eye
    np.negative(W_H, out=right[:, 0])
    right[:, 3] = right[:, 0]
    q = _product(left, right, np.matmul)
    return q[:, 1], q[:, 0] + q[:, 2], q[:, 3] + q[:, 4]


def group_involution(spec: MatrixGroupSpec) -> InvolutionAlgebroid:
    """The differentiated group as an involution algebroid over a point; the
    flip evaluator runs the group composite on matrix jets, so tangent
    prolongations come from the same formula.  Its spec holds the structure
    constants recovered from that flip."""
    k = spec.dim

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        vc, wc = _flip_args(0, k, v, w)
        # the innermost direction of w is the high bit of its masks, so its
        # value and velocity are the two halves of the mask axis
        W = spec._combine(wc)
        g1, g2, g12 = group_flip_slots(spec, spec._combine(vc), W[:len(vc)], W[len(vc):])
        if not np.all(g2 == 0.0):
            raise ArithmeticError("source slot of the flip composite did not cancel")
        return spec.project_jet(np.concatenate((g1, g12)), w.depth)

    inv = InvolutionAlgebroid(0, k, PolyMap.zero(0, 0), flip)
    return InvolutionAlgebroid(0, k, inv.rho, inv.flip, spec_from_flip(inv))


def differentiate_group(spec: MatrixGroupSpec, samples: int = 60, seed: int = 0):
    """Differentiate a matrix group and verify the result: the axiom suite,
    the braid form, antisymmetry of the recovered bracket, and the Jacobi
    defect of the recovered structure constants.  Returns the involution
    algebroid (carrying the recovered constants) and the report."""
    inv = group_involution(spec)
    report = _involution_report(inv, samples, seed)

    basis = np.eye(spec.dim)
    pairs = np.array([(i, j) for i in range(spec.dim) for j in range(spec.dim) if i != j],
                     dtype=np.intp).reshape(-1, 2)

    def antisym(rows):
        x, y = basis[pairs[rows, 0]], basis[pairs[rows, 1]]
        return _max_abs(_constant_brackets(inv, x, y) + _constant_brackets(inv, y, x))

    report.add(_fold("bracket-antisymmetric", len(pairs), antisym, 1e-9, seed,
                     lambda i: pairs[i].tolist()))
    report.extend(inv.spec.well_formed(samples=30, seed=seed))
    return inv, report


# -- pair groupoids over R^m --------------------------------------------------


class PairGroupoidSpec(_Value):
    """The groupoid of ordered pairs of points of R^dim; an arrow (a, b) runs
    from b to a and composition drops the matched middle point."""

    _fields = ("dim",)
    name = "pair-groupoid"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("the pair groupoid needs a base of dimension at least 1")
        self.__dict__.update(dim=dim)


def pair_compose(x, y):
    """Second-order composition: components are the coefficient arrays of
    jets of the two endpoint paths, composable when the middle paths have
    one shape and agree within 1e-9 (NaN never does)."""
    middle, start = x[1], y[0]
    if middle.shape != start.shape or not float(np.abs(middle - start).max(initial=0.0)) <= 1e-9:
        raise ValueError("pair jets are not composable: middle paths differ")
    return (x[0], y[1])


def pair_inverse(x):
    return (x[1], x[0])


def pair_involution(spec: PairGroupoidSpec) -> InvolutionAlgebroid:
    """Differentiate the pair groupoid: embed prolongation pairs as pairs of
    endpoint-path jets, run the flip composite through composition and
    inversion, and read the result back.  Everything is relabeling, so the
    output coincides bit for bit with the tangent-bundle flip; its spec is
    that tangent algebroid."""
    d = spec.dim

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        v, w = _flip_args(d, d, v, w)
        mj, av = v[..., :d], v[..., d:]
        aw = w[:len(v), ..., d:]
        mdot, adot = w[len(v):, ..., :d], w[len(v):, ..., d:]
        zero = np.zeros_like(mj)
        still = _assemble4(mj, zero, zero, zero)
        # embeddings: first component carries the moving endpoint, second the
        # anchored one; the fiber direction sits on the second outer slot.
        # w embeds as (mj, mdot, aw, adot) and (mj, mdot, 0, 0); c puts their
        # blocks in the order (b0, b2, b1, b3)
        cw = (_assemble4(mj, aw, mdot, adot), _assemble4(mj, zero, mdot, zero))
        zero_v = (_assemble4(mj, zero, av, zero), still)
        c0pw = (_assemble4(mj, aw, zero, zero), still)
        move, anchor = pair_compose(pair_compose(cw, zero_v), pair_inverse(c0pw))
        # consistency of the output embedding: anchored component must be the
        # base path prolonged by the new fiber value, with nothing higher
        if not (float(np.abs(anchor[0::4] - move[0::4]).max(initial=0.0)) <= 1e-9
                and float(np.abs(anchor[1::4] - move[1::4]).max(initial=0.0)) <= 1e-9
                and np.all(anchor[2::4] == 0.0) and np.all(anchor[3::4] == 0.0)):
            raise ArithmeticError("pair flip output lost its embedding shape")
        value = np.concatenate((move[0::4], move[2::4]), axis=-1)
        dot = np.concatenate((move[1::4], move[3::4]), axis=-1)
        return JetPoint._of(np.concatenate((value, dot)))

    base = tangent(d)
    return InvolutionAlgebroid(d, d, base.rho, flip, spec=base)


def differentiate_pair_groupoid(spec: PairGroupoidSpec, samples: int = 40,
                                seed: int = 0):
    """Differentiate the pair groupoid and verify it lands on the tangent
    algebroid of the base, bit for bit, besides passing the axiom suite."""
    inv = pair_involution(spec)
    ref_inv = involution_from_spec(inv.spec)
    report = _involution_report(inv, samples, seed)

    pes = _sample_pairs(inv, np.random.default_rng(seed), samples)
    report.add(_flips_agree("matches-tangent-flip", inv, ref_inv, pes, 0.0, seed))
    return inv, report


def _routes(spec) -> tuple:
    """The involution builder and the differentiate function of a group
    fixture spec: one entry per kind of spec."""
    return {
        MatrixGroupSpec: (group_involution, differentiate_group),
        PairGroupoidSpec: (pair_involution, differentiate_pair_groupoid),
    }[type(spec)]


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
    raise KeyError("unknown group fixture %r; known: %s" % (name, ", ".join(GROUP_CATALOG_NAMES)))


group_catalog.__doc__ = "Named group and groupoid fixtures: %s." % ", ".join(GROUP_CATALOG_NAMES)
