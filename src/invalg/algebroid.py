"""Anchored-bracket data, flip maps, and the axiom verifier.

An AlgebroidSpec packages an anchor and antisymmetric structure functions
over a trivialized bundle.  From it one can build the canonical flip map
directly (involution_from_spec) or via the horizontal/vertical connection
composite (flip_from_bracket); both evaluators are jet-polymorphic, so the
tangent of the flip comes for free and every axiom, including the depth-2
flip law and its Yang-Baxter form, can be checked numerically.  Every law
evaluates all of its samples at once on jets batched over them; a bracket
law, the Leibniz rule among them, stacks all its brackets into one flip call,
read from one table of sections, drawn with the points from one stream of the
seed, whose nested brackets are evaluated on jets.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .bundle import (
    AElement,
    ConnectionSpec,
    ScalarFieldSpec,
    SectionSpec,
    TAElement,
    lie_derivative,
    strong_difference_jet,
)
from .jet import (
    JetPoint,
    PolyMap,
    _join,
    _max_abs,
    _product,
    flip_c,
    insert_zero,
    lift_l,
    proj_p,
    residual,
    residuals,
)
from .report import Report, _Frozen, _Value, _fold, quiet, run_check, worst_of

DEFAULT_AXIOM_TOLERANCES = {
    "projection": 1e-12,
    "unit": 1e-12,
    "involution": 1e-12,
    "source": 1e-12,
    "zero-sections": 1e-12,
    "target": 1e-9,
    "flip": 1e-9,
    "linearity-lift": 1e-9,
    "linearity-anchor": 1e-9,
    "yang-baxter": 1e-9,
    "permutation-braid": 0.0,
}


def _vec(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _points(m, dim: int) -> np.ndarray:
    """Base points as a (dim,) vector or a (..., dim) batch."""
    m = _vec(m)
    return m.reshape(dim) if m.ndim == 1 else m


# -- the data of an anchored bracket -----------------------------------------


class Anchored:
    """Anchor evaluation shared by AlgebroidSpec and InvolutionAlgebroid,
    which provide dim_M, dim_A and the flattened anchor rho."""

    def anchor_matrix(self, m) -> np.ndarray:
        """The anchor at a base point, or at each point of a (..., dim_M) batch."""
        m = _vec(m)
        return self.rho.eval_floats(m).reshape(m.shape[:-1] + (self.dim_M, self.dim_A))

    def anchor_apply(self, m, a) -> np.ndarray:
        """rho(m) a: the value row of anchor_apply_jet."""
        return self._anchor(_vec(m)[None], _vec(a)[None])[0]

    def anchor_apply_jet(self, mj: JetPoint, aj: JetPoint) -> JetPoint:
        return JetPoint._of(self._anchor(mj.coeffs, aj.coeffs))

    def _anchor(self, m: np.ndarray, a: np.ndarray) -> np.ndarray:
        """anchor_apply_jet on coefficient arrays."""
        if a.shape[-1] != self.dim_A:
            raise ValueError("fiber dim %d, expected %d" % (a.shape[-1], self.dim_A))
        rho = self.rho._eval_coeffs(m)
        rho = rho.reshape(rho.shape[:-1] + (self.dim_M, self.dim_A))
        return np.add.reduce(_product(rho, a[..., None, :]), axis=-1)


class AlgebroidSpec(Anchored, _Value):
    """Anchor plus antisymmetric structure functions on a trivialized bundle.

    rho maps base coordinates to the flattened anchor matrix (row-major
    (i, j) -> i*dim_A + j, i a base index, j a fiber index).  The structure
    functions are stored only for fiber pairs i < j (k-major, pairs in
    lexicographic order) and reflected with a sign elsewhere, which keeps
    antisymmetry exact in floating point.  Ill-formed data is representable
    on purpose; well_formed() is a checked predicate, so that negative
    fixtures are first-class.
    """

    _fields = ("dim_M", "dim_A", "rho", "c_pairs")

    def __init__(self, dim_M: int, dim_A: int, rho: PolyMap, c_pairs: PolyMap):
        if dim_M < 0 or dim_A < 1:
            raise ValueError("need dim_M >= 0 and dim_A >= 1")
        if rho.in_dim != dim_M or rho.out_dim != dim_M * dim_A:
            raise ValueError("anchor must map base to dim_M*dim_A entries")
        n_pairs = dim_A * (dim_A - 1) // 2
        if c_pairs.in_dim != dim_M or c_pairs.out_dim != dim_A * n_pairs:
            raise ValueError("structure functions must emit dim_A*%d entries" % n_pairs)
        self.__dict__.update(dim_M=dim_M, dim_A=dim_A, rho=rho, c_pairs=c_pairs)

    # pair bookkeeping

    @cached_property
    def pairs(self) -> tuple:
        return tuple(itertools.combinations(range(self.dim_A), 2))

    @cached_property
    def _pair_index(self) -> tuple:
        """The first and the second fiber index of every pair, as arrays."""
        return tuple(np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T)

    @staticmethod
    def from_structure(dim_M: int, dim_A: int, rho, entries) -> "AlgebroidSpec":
        """Build from an anchor (PolyMap, or a constant matrix) and structure
        entries (i, j, k, value) with 0 <= i < j < dim_A; value is a constant
        or a term table [(coeff, exponents)] over the base coordinates.
        Duplicate (i, j, k) triples are rejected as inconsistent.
        """
        if not isinstance(rho, PolyMap):
            mat = np.asarray(rho, dtype=float)
            if mat.shape != (dim_M, dim_A):
                raise ValueError("constant anchor must have shape (dim_M, dim_A)")
            rho = PolyMap.constant(mat.reshape(-1), dim_M)
        pairs = tuple(itertools.combinations(range(dim_A), 2))
        rows = [PolyMap.zero(dim_M, 1)] * (dim_A * len(pairs))
        seen = set()
        for entry in entries:
            i, j, k, value = entry
            if not (0 <= i < j < dim_A):
                raise ValueError("structure entry needs 0 <= i < j < dim_A, got (%r, %r)" % (i, j))
            if not 0 <= k < dim_A:
                raise ValueError("structure entry output index out of range: %r" % (k,))
            if (i, j, k) in seen:
                raise ValueError("inconsistent duplicate structure entry (%d, %d, %d)" % (i, j, k))
            seen.add((i, j, k))
            if isinstance(value, (int, float)):
                value = [(value, [0] * dim_M)]
            rows[k * len(pairs) + pairs.index((i, j))] += PolyMap.from_terms(dim_M, [value])
        c_pairs = PolyMap(dim_M, len(rows), tuple(r.terms[0] for r in rows))
        return AlgebroidSpec(dim_M, dim_A, rho, c_pairs)

    # structure-function evaluation

    def c_tensor(self, m) -> np.ndarray:
        """C[k, i, j] at a base point, or at each point of a (..., dim_M) batch."""
        m = _vec(m)
        da = self.dim_A
        flat = self.c_pairs.eval_floats(m).reshape(m.shape[:-1] + (da, len(self.pairs)))
        first, second = self._pair_index
        tensor = np.zeros(m.shape[:-1] + (da, da, da))
        tensor[..., first, second] = flat
        tensor[..., second, first] = -flat
        return tensor

    def c_apply(self, m, a, b) -> np.ndarray:
        """C(m)(a, b) at a base point or a batch: the value row of c_apply_jet."""
        return self._c_apply(*(_vec(x)[None] for x in (m, a, b)))[0]

    def c_apply_jet(self, mj: JetPoint, aj: JetPoint, bj: JetPoint) -> JetPoint:
        return JetPoint._of(self._c_apply(mj.coeffs, aj.coeffs, bj.coeffs))

    def _c_apply(self, m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """c_apply_jet on coefficient arrays."""
        for x in (a, b):
            if x.shape[-1] != self.dim_A:
                raise ValueError("fiber dim %d, expected %d" % (x.shape[-1], self.dim_A))
        first, second = self._pair_index
        ab = _product(a[..., :, None], b[..., None, :])
        wedge = ab[..., first, second] - ab[..., second, first]
        coeffs = self.c_pairs._eval_coeffs(m)
        coeffs = coeffs.reshape(coeffs.shape[:-1] + (self.dim_A, len(first)))
        return np.add.reduce(_product(coeffs, wedge[..., None, :]), axis=-1)

    def c_full(self) -> PolyMap:
        """The structure functions as a full dim_A^3 polynomial tensor."""
        pos = {pair: n for n, pair in enumerate(self.pairs)}
        rows = []
        for k, i, j in itertools.product(range(self.dim_A), repeat=3):
            row = self.c_pairs.terms[k * len(pos) + pos[min(i, j), max(i, j)]] if i != j else ()
            rows.append(row if i < j else tuple((-c, e) for c, e in row))
        return PolyMap(self.dim_M, self.dim_A ** 3, tuple(rows))

    # bracket on polynomial sections, as exact polynomial algebra

    def bracket_poly(self, Xp: PolyMap, Yp: PolyMap) -> PolyMap:
        """DY.(rho X) - DX.(rho Y) + C(X, Y) as a polynomial section."""
        if Xp.in_dim != self.dim_M or Xp.out_dim != self.dim_A:
            raise ValueError("section dims do not match")
        if Yp.in_dim != self.dim_M or Yp.out_dim != self.dim_A:
            raise ValueError("section dims do not match")
        dm, da = self.dim_M, self.dim_A
        n_pairs = len(self.pairs)

        def along(T: PolyMap, S: PolyMap) -> PolyMap:  # DT.(rho S)
            rho_s = sum((self.rho[j::da] * S[j] for j in range(da)), PolyMap.zero(dm, dm))
            return sum((T.partial(alpha) * rho_s[alpha] for alpha in range(dm)),
                       PolyMap.zero(dm, da))

        out = along(Yp, Xp) - along(Xp, Yp)
        for pos, (i, j) in enumerate(self.pairs):
            out = out + self.c_pairs[pos::n_pairs] * (Xp[i] * Yp[j] - Xp[j] * Yp[i])
        return out

    def jacobiator(self, m, a, b, c) -> np.ndarray:
        """Cyclic bracket defect on constant sections, at one base point or
        at each point of a batch.  The bracket of two constant sections x, y
        is the section m -> C(m)(x, y), so each cyclic term [[x, y], z] is
        C(m)(C(m)(x, y), z) minus the derivative of that section along
        rho(m) z, read off one depth-1 jet."""
        m = _points(m, self.dim_M)
        a, b, c = _vec(a), _vec(b), _vec(c)
        total = np.zeros(a.shape)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            along = JetPoint.from_rows(1, [m, self.anchor_apply(m, z)])
            xy = self.c_apply_jet(along, JetPoint.constant(x, 1), JetPoint.constant(y, 1))
            total += self.c_apply(m, xy.row(0), z) - xy.row(1)
        return total

    def well_formed(self, samples: int = 40, seed: int = 0) -> Report:
        """Jacobi defect and anchor compatibility on random samples."""
        rng = np.random.default_rng(seed)
        dm, da = self.dim_M, self.dim_A
        report = Report()
        # per sample a base point and three fiber vectors, drawn in that order
        draws = rng.uniform(-1, 1, (samples, dm + 3 * da))
        m = draws[:, :dm]
        a, b, c = (draws[:, dm + k * da:dm + (k + 1) * da] for k in range(3))

        def serialize(i):
            return [x[i].tolist() for x in (m, a, b, c)]

        def jac(rows):
            return _max_abs(self.jacobiator(m[rows], a[rows], b[rows], c[rows]))

        report.add(_fold("jacobi", samples, jac, 1e-9, seed, serialize))

        def anchor_defect(rows):
            mr, ar, br = m[rows], a[rows], b[rows]
            lhs = self.anchor_apply(mr, self.c_apply(mr, ar, br))
            rhs = self._anchor_derivative(mr, self.anchor_apply(mr, ar), br) \
                - self._anchor_derivative(mr, self.anchor_apply(mr, br), ar)
            return _max_abs(lhs - rhs)

        report.add(_fold("anchor-compatible", samples, anchor_defect, 1e-9, seed, serialize))
        return report

    def _anchor_derivative(self, m, u, a) -> np.ndarray:
        """Directional derivative of (rho a) along the base direction u."""
        mj = JetPoint.from_rows(1, [_points(m, self.dim_M), _vec(u)])
        aj = JetPoint.constant(_vec(a), 1)
        return self.anchor_apply_jet(mj, aj).row(1)


def _structure_entries(spec: AlgebroidSpec) -> list:
    """The nonzero structure functions of spec as fixture entries, k-major."""
    entries = []
    pairs = spec.pairs
    table = spec.c_pairs.to_table()
    for k in range(spec.dim_A):
        for pos, (i, j) in enumerate(pairs):
            terms = table[k * len(pairs) + pos]
            if terms:
                entries.append({"i": i, "j": j, "k": k, "terms": terms})
    return entries


# -- prolongation elements ---------------------------------------------------


class ProlongElement(_Frozen):
    """Pair (v, w): a bundle element and a tangent over the same base whose
    base velocity is the anchored image of v."""

    def __init__(self, v: AElement, w: TAElement):
        self.__dict__.update(v=v, w=w)

    def residual(self, owner) -> float:
        expected = _as_anchor(owner).anchor_apply(self.v.m, self.v.a)
        return worst_of([
            float(np.max(np.abs(self.v.m - self.w.m), initial=0.0)),
            float(np.max(np.abs(self.w.mdot - expected), initial=0.0)),
        ])


class DoubleProlongElement(_Frozen):
    """Triple (v, w, x) with x a depth-2 jet over the total space, matched to
    w through the anchor: the flipped double-base of x equals the tangent
    prolongation of the anchor applied to w."""

    def __init__(self, v: AElement, w: TAElement, x: JetPoint):
        self.__dict__.update(v=v, w=w, x=x)

    def residual(self, owner) -> float:
        spec_like = _as_anchor(owner)
        dm = self.v.dim_M
        worst = ProlongElement(self.v, self.w).residual(owner)
        lhs = flip_c(self.x.take(0, dm), 1, 2)
        return worst_of([worst, residual(lhs, t_rho_jet(spec_like, self.w.to_jet()))])


def _as_anchor(owner):
    if isinstance(owner, Anchored):
        return owner
    raise TypeError("expected an algebroid spec or involution algebroid")


def t_rho_jet(owner, w_jet: JetPoint) -> JetPoint:
    """Tangent prolongation of the anchor: a depth-d jet over the total space
    goes to a depth-(d+1) jet over the base, the base-tangent structure on
    the innermost direction."""
    return JetPoint._of(_t_rho(owner, w_jet.coeffs))


def _t_rho(owner, w: np.ndarray) -> np.ndarray:
    """t_rho_jet on coefficient arrays."""
    dm, da = owner.dim_M, owner.dim_A
    m = w[..., :dm]
    return _join(m, owner._anchor(m, w[..., dm:dm + da]))


# -- involution algebroids ---------------------------------------------------


class InvolutionAlgebroid(Anchored, _Frozen):
    """Anchored bundle with a flip evaluator on prolongation pairs.

    flip(v, w) takes jets over the total-space coordinates with
    w.depth == v.depth + 1 and returns a jet of w's depth; depth-0/1 inputs
    give the flip itself, deeper inputs give its tangent prolongations.  The
    jets may carry batch axes (the same ones for v and w), which the output
    keeps.  Every flip checks this contract in _flip_args, at its entry.
    spec, when given, is the anchored bracket the flip comes from.
    """

    def __init__(self, dim_M: int, dim_A: int, rho: PolyMap,
                 flip: Callable[[JetPoint, JetPoint], JetPoint],
                 spec: Optional[AlgebroidSpec] = None):
        self.__dict__.update(dim_M=dim_M, dim_A=dim_A, rho=rho, flip=flip, spec=spec)

    def flip_elements(self, pe: ProlongElement) -> TAElement:
        out = self.flip(JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0), pe.w.to_jet())
        return TAElement.from_jet(out, self.dim_M)


def involution_from_spec(spec: AlgebroidSpec) -> InvolutionAlgebroid:
    """Canonical coordinate flip: (v, w) -> (m, a_v, rho(m) a_w, adot_w + C(m)(a_v, a_w))."""
    dm, da = spec.dim_M, spec.dim_A

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        v, w = _flip_args(dm, da, v, w)
        m, av = v[..., :dm], v[..., dm:]
        aw, aw_dot = w[:len(v), ..., dm:], w[len(v):, ..., dm:]
        dot = np.concatenate((spec._anchor(m, aw), aw_dot + spec._c_apply(m, av, aw)), axis=-1)
        return JetPoint._of(_join(v, dot))

    return InvolutionAlgebroid(dm, da, spec.rho, flip, spec=spec)


def flip_from_bracket(spec: AlgebroidSpec, conn: ConnectionSpec = None) -> InvolutionAlgebroid:
    """Flip assembled from the bracket through a connection: horizontal part
    through the anchored image, vertical part from the covariant combination

        K T(v-ext)(rho p w) - K T(pw-ext)(rho v) + K w - [pw-ext, v-ext]

    with constant section extensions.  The connection terms cancel, so the
    result is connection-independent; this is verified, not assumed.
    """
    conn = conn if conn is not None else ConnectionSpec.flat(spec.dim_M, spec.dim_A)
    if conn.dim_M != spec.dim_M or conn.dim_A != spec.dim_A:
        raise ValueError("connection dims do not match the algebroid")
    dm, da = spec.dim_M, spec.dim_A

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        v, w = _flip_args(dm, da, v, w)
        m, av = v[..., :dm], v[..., dm:]
        aw, w_dot = w[:len(v), ..., dm:], w[len(v):]
        u_w, u_v = spec._anchor(m, aw), spec._anchor(m, av)
        # vertical projections of the three tangents; constant extensions
        # differentiate to zero, so only connection terms survive the first two
        gamma_wv = conn._apply(m, u_w, av)
        k1 = gamma_wv
        k2 = conn._apply(m, u_v, aw)
        kw = w_dot[..., dm:] + conn._apply(m, w_dot[..., :dm], aw)
        bracket_wv = spec._c_apply(m, aw, av)
        alpha2 = k1 - k2 + kw - bracket_wv
        # horizontal lift of rho(p w) through v, translated by the vertical part
        return JetPoint._of(_join(v, np.concatenate((u_w, alpha2 - gamma_wv), axis=-1)))

    return InvolutionAlgebroid(dm, da, spec.rho, flip, spec=spec)


def _flip_args(dim_M: int, dim_A: int, v: JetPoint, w: JetPoint) -> tuple:
    """The coefficients of a flip's arguments, checked by the one contract of
    every flip: w one level deeper than v, both over the dim_M + dim_A
    total-space coordinates and with the same batch axes."""
    if w.depth != v.depth + 1:
        raise ValueError("flip needs w one level deeper than v")
    width = dim_M + dim_A
    if v.dim != width or w.dim != width:
        raise ValueError("flip needs %d coordinates, got %d and %d" % (width, v.dim, w.dim))
    if v.coeffs.shape[1:-1] != w.coeffs.shape[1:-1]:
        raise ValueError("flip needs the same batch axes, got %r and %r"
                         % (v.coeffs.shape[1:-1], w.coeffs.shape[1:-1]))
    return v.coeffs, w.coeffs


def sigma(inv: InvolutionAlgebroid, pe: ProlongElement) -> ProlongElement:
    """Prolongation endomap: (v, w) -> (p w, flip(v, w)), for residual(inv) <= 1e-9."""
    if not pe.residual(inv) <= 1e-9:
        raise ValueError("input does not satisfy the prolongation constraint")
    flipped = inv.flip_elements(pe)
    return ProlongElement(AElement(pe.w.m, pe.w.a), flipped)


def spec_from_flip(inv: InvolutionAlgebroid) -> AlgebroidSpec:
    """Recover constant structure data from a flip over a point base by
    evaluating all basis brackets in one batch."""
    if inv.dim_M != 0:
        raise ValueError("structure-constant recovery needs dim_M = 0")
    da = inv.dim_A
    basis = np.eye(da)
    pairs = list(itertools.combinations(range(da), 2))
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    brackets = _constant_brackets(inv, basis[first], basis[second]) if pairs else []
    entries = [(i, j, k, float(bracket[k]))
               for (i, j), bracket in zip(pairs, brackets) for k in range(da) if bracket[k] != 0.0]
    return AlgebroidSpec.from_structure(0, da, PolyMap.zero(0, 0), entries)


# -- samplers ----------------------------------------------------------------


class _PairBatch(_Frozen):
    """Prolongation pairs stacked along a sample axis: v (N, n) holds the
    bundle points (m, a_v), w (2, N, n) the two mask rows (m, a_w) and
    (mdot, adot_w) of the tangents, and x (4, N, n), for double samples, the
    depth-2 jets; n = dim_M + dim_A.  The jet methods select samples with a
    slice and keep the sample axis as the batch axis."""

    def __init__(self, dim_M: int, v: np.ndarray, w: np.ndarray, x: Optional[np.ndarray] = None):
        self.__dict__.update(dim_M=dim_M, v=v, w=w, x=x)

    def v_jet(self, rows) -> JetPoint:
        return JetPoint._of(self.v[None, rows])

    def w_jet(self, rows) -> JetPoint:
        return JetPoint._of(self.w[:, rows])

    def x_jet(self, rows) -> JetPoint:
        return JetPoint._of(self.x[:, rows])

    def element(self, i: int):
        """Sample i as a ProlongElement, or a DoubleProlongElement."""
        dm = self.dim_M
        w0, w1 = self.w[:, i]
        v = AElement(self.v[i, :dm], self.v[i, dm:])
        w = TAElement(w0[:dm], w0[dm:], w1[:dm], w1[dm:])
        if self.x is None:
            return ProlongElement(v, w)
        return DoubleProlongElement(v, w, JetPoint.from_rows(2, self.x[:, i]))

    def describe(self, i: int) -> dict:
        """Sample i as a report's worst_input."""
        dm = self.dim_M
        w0, w1 = self.w[:, i]
        out = {"m": self.v[i, :dm].tolist(), "a_v": self.v[i, dm:].tolist(),
               "w": [w0[dm:].tolist(), w1[:dm].tolist(), w1[dm:].tolist()]}
        if self.x is not None:
            out["x"] = self.x[:, i].tolist()
        return out


def _flips_agree(name: str, inv: InvolutionAlgebroid, other: InvolutionAlgebroid,
                 pes: _PairBatch, tolerance: float, seed: Optional[int]):
    """The check that two flips agree on every sampled pair of a batch: the
    residual between their values, folded with the worst pair described."""

    def defect(rows):
        v, w = pes.v_jet(rows), pes.w_jet(rows)
        return residuals(inv.flip(v, w), other.flip(v, w))

    return _fold(name, len(pes.v), defect, tolerance, seed, pes.describe)


def _prolongation_pairs(owner, draws: np.ndarray) -> _PairBatch:
    """Complete drawn data into prolongation pairs.  Each row of draws holds
    a base point m, the fiber slots a_v, a_w, adot_w and, for double pairs,
    the fiber rows of x by mask.  The base velocity is the anchored a_v and
    the base block of x the flipped tangent prolongation of the anchor, so
    the constraints hold by construction."""
    spec_like = _as_anchor(owner)
    dm, da = owner.dim_M, owner.dim_A
    m, a_v, a_w, adot, x_fiber = np.split(draws, [dm, dm + da, dm + 2 * da, dm + 3 * da], axis=1)
    with quiet():
        mdot = spec_like.anchor_apply(m, a_v)
        w = np.stack((np.concatenate((m, a_w), axis=1), np.concatenate((mdot, adot), axis=1)))
        x = None
        if x_fiber.size:
            target = flip_c(t_rho_jet(spec_like, JetPoint._of(w)), 1, 2)
            x = np.concatenate((target.coeffs, x_fiber.reshape(len(m), 4, da).swapaxes(0, 1)),
                               axis=-1)
    return _PairBatch(dm, np.concatenate((m, a_v), axis=1), w, x)


def _sample_pairs(owner, rng, count: int, double: bool = False) -> _PairBatch:
    """count random (double) prolongation pairs, drawn as count calls of
    sample_prolongation (sample_double_prolongation) would draw them, each
    on a base point drawn just before it."""
    width = owner.dim_M + (7 if double else 3) * owner.dim_A
    return _prolongation_pairs(owner, rng.uniform(-1, 1, (count, width)))


def sample_prolongation(owner, m, rng) -> ProlongElement:
    """Draw fiber slots uniformly and complete the base velocity through the
    anchor, so the constraint holds by construction."""
    return _pair_at(owner, m, rng.uniform(-1, 1, 3 * owner.dim_A))


def sample_double_prolongation(owner, m, rng) -> DoubleProlongElement:
    """Extend a sampled prolongation pair with a depth-2 jet whose base block
    is overwritten so the double constraint holds by construction."""
    return _pair_at(owner, m, rng.uniform(-1, 1, 7 * owner.dim_A))


def _pair_at(owner, m, slots: np.ndarray):
    row = np.concatenate((_vec(m).reshape(owner.dim_M), slots))
    return _prolongation_pairs(owner, row[None]).element(0)


# -- axiom suite -------------------------------------------------------------


def _lambda_jet(v: JetPoint, dm: int) -> JetPoint:
    """Fiber lift of a depth-k bundle jet into a depth-(k+1) tangent jet,
    (m, a) -> ((m, 0); (0, a)).  The lift is linear, so on a tangent jet this
    is also its tangent."""
    velocity = np.zeros_like(v.coeffs)
    velocity[..., dm:] = v.coeffs[..., dm:]
    return JetPoint._of(_join(_zero_fiber(v.coeffs, dm), velocity))


def _zero_fiber(points: np.ndarray, dm: int) -> np.ndarray:
    """A copy of total-space coordinates (..., dim_M + dim_A) with the fiber
    block set to zero."""
    out = np.array(points, dtype=float)
    out[..., dm:] = 0.0
    return out


def _per_rows(evaluate):
    """evaluate(rows) computed once per rows slice and shared by the laws
    that call it; a call that raises keeps nothing and raises in each law."""
    kept = {}

    def shared(rows):
        key = (rows.start, rows.stop, rows.step)
        if key not in kept:
            kept[key] = evaluate(rows)
        return kept[key]

    return shared


def check_axioms(inv: InvolutionAlgebroid, samples: int = 100, seed: int = 0) -> Report:
    """Evaluate every involution law on one batch of random double
    prolongations (v, w, x), each law judged at its DEFAULT_AXIOM_TOLERANCES
    entry.  A row's worst residual does not depend on its tolerance, so
    re-judging the row (the command line's --tolerance, report._judged) gives
    what the suite would report at another one.

    Covered: the flip projects onto its first argument, fixes lifted pairs,
    is an involution, intertwines the two bundle projections with the anchor,
    satisfies the depth-2 flip law, is linear over the two bundle structures,
    and matches the two zero sections.  The pair laws share flip(v, w), the
    flip law starts from it, and unit and zero-sections read the bundle
    points v; every row describes its worst sample as the batch does, so it
    reruns from its worst_input.
    """
    dm = inv.dim_M
    report = Report()
    pes = _sample_pairs(inv, np.random.default_rng(seed), samples, double=True)

    def check(name, fn):
        report.add(_fold(name, samples, fn, DEFAULT_AXIOM_TOLERANCES[name], seed, pes.describe))

    @_per_rows
    def flip_pairs(rows):
        v, w = pes.v_jet(rows), pes.w_jet(rows)
        return v, w, inv.flip(v, w)

    def projection(rows):
        v, _, out = flip_pairs(rows)
        diff = out.coeffs[0] - v.coeffs[0]
        return worst_of([_max_abs(diff[:, :dm]), _max_abs(diff[:, dm:])])

    check("projection", projection)

    def unit(rows):
        u = pes.v_jet(rows)
        lam = _lambda_jet(u, dm)
        xi = JetPoint._of(_zero_fiber(u.coeffs, dm))
        return residuals(inv.flip(xi, lam), lam)

    check("unit", unit)

    def involution(rows):
        _, w_jet, once = flip_pairs(rows)
        pw = JetPoint.constant(pes.w[0, rows], 0)
        return residuals(inv.flip(pw, once), w_jet)

    check("involution", involution)

    def source(rows):
        v, w_jet, out = flip_pairs(rows)
        expected = inv.anchor_apply(v.coeffs[0, :, :dm], w_jet.coeffs[0, :, dm:])
        return worst_of([_max_abs(out.coeffs[0, :, :dm] - v.coeffs[0, :, :dm]),
                         _max_abs(out.coeffs[1, :, :dm] - expected)])

    check("source", source)

    def target(rows):
        _, w_jet, out = flip_pairs(rows)
        return residuals(t_rho_jet(inv, out), flip_c(t_rho_jet(inv, w_jet), 1, 2))

    check("target", target)

    def flip_law(rows):
        v, w, once = flip_pairs(rows)
        x = pes.x_jet(rows)
        first = inv.flip(once, x)
        inner = inv.flip(w, flip_c(x, 1, 2))
        second = flip_c(inv.flip(inv.flip(v, proj_p(x, 1)), flip_c(inner, 1, 2)), 1, 2)
        return residuals(first, second)

    check("flip", flip_law)

    def linearity_lift(rows):
        v, w, base = flip_pairs(rows)
        lhs = inv.flip(insert_zero(v, 1), flip_c(_lambda_jet(w, dm), 1, 2))
        return residuals(lhs, lift_l(base, 1))

    check("linearity-lift", linearity_lift)

    def linearity_anchor(rows):
        v, w, base = flip_pairs(rows)
        lhs = inv.flip(_lambda_jet(v, dm), lift_l(w, 1))
        return residuals(lhs, flip_c(_lambda_jet(base, dm), 1, 2))

    check("linearity-anchor", linearity_anchor)

    def zero_sections(rows):
        u, v_jet = pes.v[rows], pes.v_jet(rows)
        anchored = inv.anchor_apply(u[:, :dm], u[:, dm:])
        xi = _zero_fiber(u, dm)
        t_xi = JetPoint.from_rows(1, [xi, np.concatenate((anchored, np.zeros_like(u[:, dm:])),
                                                         axis=1)])
        return worst_of([residuals(inv.flip(v_jet, t_xi), insert_zero(v_jet, 1)),
                         residuals(inv.flip(JetPoint.constant(xi, 0), insert_zero(v_jet, 1)),
                                   t_xi)])

    check("zero-sections", zero_sections)
    return report


# -- Yang-Baxter form --------------------------------------------------------


def _yb_sigma_c(inv, t):
    v, w, y = t
    return (proj_p(w, 1), inv.flip(v, w), flip_c(y, 1, 2))


def _yb_id_tsigma(inv, t):
    v, w, y = t
    return (v, proj_p(y, 2), inv.flip(w, y))


def braid_permutations() -> tuple:
    """The two tuple actions of the discrete braid check and their composite.

    On 7-slot tuples: the first swaps slots (0 1) and (4 5), the second swaps
    (1 3) and (2 4); both triple products equal the (0 3)(2 5) action.
    """
    p1 = lambda t: (t[1], t[0], t[2], t[3], t[5], t[4], t[6])
    p2 = lambda t: (t[0], t[3], t[4], t[1], t[2], t[5], t[6])
    expected = lambda t: (t[3], t[1], t[5], t[0], t[4], t[2], t[6])
    return p1, p2, expected


def check_yang_baxter(inv: InvolutionAlgebroid, samples: int = 60, seed: int = 0) -> Report:
    """Both triple composites of the flip braid on random double samples, plus
    the exact discrete permutation identity, each judged at its
    DEFAULT_AXIOM_TOLERANCES entry as check_axioms' rows are."""
    rng = np.random.default_rng(seed)
    report = Report()

    dpes = _sample_pairs(inv, rng, samples, double=True)

    def braid(rows):
        t = (dpes.v_jet(rows), dpes.w_jet(rows), flip_c(dpes.x_jet(rows), 1, 2))
        m1 = _yb_sigma_c(inv, _yb_id_tsigma(inv, _yb_sigma_c(inv, t)))
        m2 = _yb_id_tsigma(inv, _yb_sigma_c(inv, _yb_id_tsigma(inv, t)))
        return worst_of([residuals(a, b) for a, b in zip(m1, m2)])

    report.add(_fold("yang-baxter", samples, braid, DEFAULT_AXIOM_TOLERANCES["yang-baxter"],
                     seed, dpes.describe))

    p1, p2, expected = braid_permutations()
    symbols = tuple("s%d" % i for i in range(7))
    left = p1(p2(p1(symbols)))
    right = p2(p1(p2(symbols)))
    ok = left == right == expected(symbols)
    report.add(run_check("permutation-braid", [symbols], lambda t: 0.0 if ok else 1.0,
                         DEFAULT_AXIOM_TOLERANCES["permutation-braid"], None, serialize=list))
    return report


def _involution_report(inv: InvolutionAlgebroid, samples: int, seed: int) -> Report:
    """check_axioms, then check_yang_baxter on half the samples, at least 10."""
    report = check_axioms(inv, samples=samples, seed=seed)
    report.extend(check_yang_baxter(inv, samples=max(10, samples // 2), seed=seed))
    return report


# -- brackets from flips -----------------------------------------------------


def _flip_bracket(inv: InvolutionAlgebroid, v: JetPoint, w: JetPoint, second: JetPoint):
    """The bracket a flip induces, from its jets: flip v against the
    prolongation w of the second section along the anchored first, and
    subtract the prolongation second of the first section along the
    anchored second in the strong sense."""
    return strong_difference_jet(inv.flip(v, w), second, inv.dim_M)


def _constant_brackets(inv: InvolutionAlgebroid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Brackets of constant sections over a point base, one per row of x and
    y (N, dim_A): the prolongations of constant sections do not move."""
    return _flip_bracket(inv, JetPoint.constant(x, 0), JetPoint.constant(y, 1),
                         JetPoint.constant(x, 1))


class _NestedBracket:
    """The bracket DT.(rho S) - DS.(rho T) + C(S, T) of two sections of a
    spec, evaluable on jets (bracket_poly without polynomial algebra): each
    derivative is a velocity one jet level deeper, along rho of the other."""

    def __init__(self, spec: AlgebroidSpec, S, T):
        self.spec, self.S, self.T = spec, S, T

    def _eval_coeffs(self, m: np.ndarray) -> np.ndarray:
        spec, s, t = self.spec, self.S._eval_coeffs(m), self.T._eval_coeffs(m)
        along = lambda F, g: F._eval_coeffs(_join(m, spec._anchor(m, g)))[len(m):]
        return along(self.T, s) - along(self.S, t) + spec._c_apply(m, s, t)

    def eval_floats(self, m) -> np.ndarray:
        return self._eval_coeffs(m[None])[0]


class _SectionTable:
    """Sections (PolyMaps or _NestedBrackets) at base points m.  Values,
    anchored directions and prolongations cannot raise, so each is computed
    once at all the points and sliced by every law that uses it."""

    def __init__(self, inv: InvolutionAlgebroid, maps, m: np.ndarray):
        self.inv, self.maps, self._graphs = inv, maps, {}
        with quiet():
            values = [S.eval_floats(m) for S in maps]
            self.points = [np.concatenate((m, a), axis=-1) for a in values]
            self.along = [np.stack((m, inv.anchor_apply(m, a))) for a in values]

    def graph(self, j: int, i: int) -> np.ndarray:
        """Section j along the anchored section i: its depth-1 graph jet."""
        if (j, i) not in self._graphs:
            along = self.along[i]
            self._graphs[j, i] = np.concatenate((along, self.maps[j]._eval_coeffs(along)),
                                                axis=-1)
        return self._graphs[j, i]

    def brackets(self, pairs, rows=slice(None)) -> np.ndarray:
        """[section i, section j] for the pairs (i, j) at the points m[rows],
        stacked on a leading axis: one flip and strong difference for all."""
        stack = lambda parts: JetPoint._of(np.stack(parts, axis=1))
        v = stack([self.points[i][None, rows] for i, _ in pairs])
        w = stack([self.graph(j, i)[:, rows] for i, j in pairs])
        return _flip_bracket(self.inv, v, w, stack([self.graph(i, j)[:, rows] for i, j in pairs]))


def bracket_from_flip(inv: InvolutionAlgebroid, X: SectionSpec, Y: SectionSpec):
    """Evaluator of the section bracket induced by a flip, at a base point
    (dim_M,) or at each point of a batch (N, dim_M)."""
    maps = [X.x_poly, Y.x_poly]
    return lambda m: _SectionTable(inv, maps, _points(m, inv.dim_M)).brackets([(0, 1)])[0]


def _flip_fields(inv: InvolutionAlgebroid, fields) -> np.ndarray:
    """Flip fields of sections on the total space, one flip call for all: flip
    each (section, z) pair's coefficients z against the section's prolongation
    along their anchored direction.  Returns velocities, sections on axis 1."""
    z = np.stack([zk for _, zk in fields], axis=1)
    along = _t_rho(inv, z)
    graphs = [np.concatenate((c, S._eval_coeffs(c)), axis=-1)
              for (S, _), c in zip(fields, along.swapaxes(0, 1))]
    return inv.flip(JetPoint._of(z), JetPoint._of(np.stack(graphs, axis=1))).coeffs[len(z):]


def _point_checks(report: Report, points: np.ndarray, tolerance: float, seed: int):
    """Fold laws of batched points (N, k) into report: check(name, fn) with
    fn taking the rows slice of the selected points."""

    def check(name, fn):
        report.add(_fold(name, len(points), fn, tolerance, seed, lambda i: points[i].tolist()))

    return check


def check_bracket_laws(inv: InvolutionAlgebroid, sections=None, samples: int = 40,
                       seed: int = 0) -> Report:
    """Laws of the induced section bracket at sampled base points: bilinear,
    antisymmetric, Jacobi; the flip-field morphism; the anchor morphism;
    additivity of the section-to-flip-field assignment; and the Leibniz rule.

    One stream of the seed draws the sections X, Y, Z (unless two or three
    are given, Z = X for two), the base points, the total-space points and
    the scalar field f, in that order.
    Brackets come from one table of the sections, one flip per law, the
    anchor morphism and the Leibniz rule reusing the antisymmetry law's
    [X, Y]; the nested sections [Y, Z], [Z, X], [X, Y] are the spec's bracket
    on jets, and the flip-field laws share one flip for X, Y, [X, Y], X + Y."""
    dm, da = inv.dim_M, inv.dim_A
    if inv.spec is None:
        raise ValueError("bracket laws need the defining spec for the nested brackets")
    spec = inv.spec
    rng = np.random.default_rng(seed)
    if sections is None:
        sections = [SectionSpec(_random_section_poly(rng, dm, da)) for _ in range(3)]
    elif len(sections) not in (2, 3):
        raise ValueError("bracket laws take two or three sections, got %d" % len(sections))
    X, Y, Z = (s.x_poly for s in (sections[0], sections[1], sections[2 % len(sections)]))
    report = Report()
    points = rng.uniform(-1, 1, (samples, dm))
    total = rng.uniform(-1, 1, (samples, dm + da))  # per sample m, then a
    f = ScalarFieldSpec(_random_section_poly(rng, dm, 1))
    at_points = _point_checks(report, points, 1e-9, seed)
    a_const, b_const = 0.75, -1.25
    b_xy = _NestedBracket(spec, X, Y)
    # sections 0-7: X, Y, Z, a X + b Y, [Y, Z], [X, Y], [Z, X], f Y
    table = _SectionTable(inv, [X, Y, Z, a_const * X + b_const * Y, _NestedBracket(spec, Y, Z),
                                b_xy, _NestedBracket(spec, Z, X), f.f_poly * Y], points)

    def vanishes(name, brackets, weights):  # a combination of brackets that must be zero
        at_points(name, lambda rows: _max_abs(sum(
            c * b for c, b in zip(weights, brackets(rows)))))

    stacked = lambda *pairs: lambda rows: table.brackets(pairs, rows)
    xy_yx = _per_rows(stacked((0, 1), (1, 0)))
    vanishes("bracket-antisymmetric", xy_yx, (1.0, 1.0))
    vanishes("bracket-bilinear", stacked((3, 2), (0, 2), (1, 2)), (1.0, -a_const, -b_const))
    vanishes("bracket-jacobi", stacked((0, 4), (2, 5), (1, 6)), (1.0, 1.0, 1.0))

    # flip fields: alpha_[X,Y] = [alpha_X, alpha_Y] as fields on the total space
    at_total = _point_checks(report, total, 1e-9, seed)
    at_z = lambda rows: total[None, rows]
    fields = _per_rows(lambda rows: _flip_fields(
        inv, [(S, at_z(rows)) for S in (X, Y, b_xy, X + Y)])[0])

    def flip_field_morphism(rows):
        f_x, f_y, f_xy, _ = fields(rows)
        moved = lambda f: _join(at_z(rows), f[None])
        across = _flip_fields(inv, [(Y, moved(f_x)), (X, moved(f_y))])[1]
        return _max_abs(across[0] - across[1] - f_xy)

    at_total("flip-field-morphism", flip_field_morphism)

    # anchor morphism: rho[X,Y] equals the base bracket of the anchored fields
    rx = lambda mz: inv._anchor(mz, X._eval_coeffs(mz))
    ry = lambda mz: inv._anchor(mz, Y._eval_coeffs(mz))

    def anchor_morphism(rows):
        m, z = points[rows], points[None, rows]
        field_bracket = ry(_join(z, rx(z)))[1] - rx(_join(z, ry(z)))[1]
        return _max_abs(inv.anchor_apply(m, xy_yx(rows)[0]) - field_bracket)

    at_points("anchor-morphism", anchor_morphism)

    def flip_field_additive(rows):
        f_x, f_y, _, f_sum = fields(rows)
        return _max_abs(f_sum - (f_x + f_y))

    at_total("flip-field-additive", flip_field_additive)
    at_points("leibniz", lambda rows: _leibniz(
        inv, sections[0], sections[1], f, points[rows], table.brackets([(0, 7)], rows)[0],
        xy_yx(rows)[0]))
    return report


def _random_section_poly(rng, dm: int, da: int, degree: int = 2) -> PolyMap:
    exps = [e for e in itertools.product(range(degree + 1), repeat=dm) if sum(e) <= degree]
    rows = []
    for _ in range(da):  # two draws per row, the stream of one draw per monomial and term
        chosen = [e for e, u in zip(exps, rng.uniform(size=len(exps))) if u < 0.7] or [exps[0]]
        rows.append(tuple(zip(rng.uniform(-1, 1, len(chosen)).tolist(), chosen)))
    return PolyMap(dm, da, tuple(rows))


def check_leibniz(inv: InvolutionAlgebroid, X: SectionSpec, Y: SectionSpec,
                  f: ScalarFieldSpec, samples: int = 40, seed: int = 0) -> Report:
    """check_bracket_laws' Leibniz rule for a given field, at the points a seed
    draws first: [X, f Y] picks up the derivative of f along rho(X)."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, (samples, inv.dim_M))
    table = _SectionTable(inv, [X.x_poly, Y.x_poly, f.f_poly * Y.x_poly], points)
    report = Report()
    _point_checks(report, points, 1e-9, seed)("leibniz", lambda rows: _leibniz(
        inv, X, Y, f, points[rows], *table.brackets([(0, 2), (0, 1)], rows)))
    return report


def _leibniz(inv, X: SectionSpec, Y: SectionSpec, f: ScalarFieldSpec, m, b_fy, b_xy):
    """Defect of [X, f Y] = f [X, Y] + (rho(X) f) Y at base points m, given
    the brackets [X, f Y] and [X, Y] there."""
    lie = lie_derivative(f, X, inv.rho, m)
    expect = f.f_poly.eval_floats(m) * b_xy + lie[:, None] * Y.x_poly.eval_floats(m)
    return _max_abs(b_fy - expect)


def roundtrip_bracket(spec: AlgebroidSpec, samples: int = 40, seed: int = 0) -> Report:
    """Brackets of two sections the seed draws survive the trip through the
    flip and back; over a point base the flip itself survives the trip
    through the bracket and back."""
    rng = np.random.default_rng(seed)
    dm, da = spec.dim_M, spec.dim_A
    X, Y = (SectionSpec(_random_section_poly(rng, dm, da)) for _ in range(2))
    inv = involution_from_spec(spec)
    recovered = bracket_from_flip(inv, X, Y)
    oracle = spec.bracket_poly(X.x_poly, Y.x_poly)

    report = Report()
    points = rng.uniform(-1, 1, (samples, dm))
    _point_checks(report, points, 1e-12, seed)("bracket-roundtrip", lambda rows: _max_abs(
        recovered(points[rows]) - oracle.eval_floats(points[rows])))

    if dm == 0:
        rebuilt = involution_from_spec(spec_from_flip(inv))
        pes = _sample_pairs(spec, rng, samples)
        report.add(_flips_agree("flip-roundtrip", inv, rebuilt, pes, 1e-12, seed))
    return report
