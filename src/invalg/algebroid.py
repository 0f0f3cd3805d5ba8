"""Anchored-bracket data, flip maps, and the axiom verifier.

An AlgebroidSpec packages an anchor and antisymmetric structure functions
over a trivialized bundle.  From it one can build the canonical flip map
directly (involution_from_spec) or via the horizontal/vertical connection
composite (flip_from_bracket); both evaluators are jet-polymorphic, so the
tangent of the flip comes for free and every axiom, including the depth-2
flip law and its Yang-Baxter form, can be checked numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    section_polymap,
    strong_difference,
)
from .jet import (
    JetPoint,
    PolyMap,
    _product,
    flip_c,
    insert_zero,
    join_innermost,
    lift_l,
    proj_p,
    residual,
    split_innermost,
)
from .report import Report, run_check, worst_of

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


# -- the data of an anchored bracket -----------------------------------------


class Anchored:
    """Anchor evaluation shared by AlgebroidSpec and InvolutionAlgebroid,
    which provide dim_M, dim_A and the flattened anchor rho."""

    def anchor_matrix(self, m) -> np.ndarray:
        """The anchor at a base point, or at each point of a (..., dim_M) batch."""
        m = _vec(m)
        return self.rho.eval_floats(m).reshape(m.shape[:-1] + (self.dim_M, self.dim_A))

    def anchor_apply(self, m, a) -> np.ndarray:
        return np.matmul(self.anchor_matrix(m), _vec(a)[..., None])[..., 0]

    def anchor_apply_jet(self, mj: JetPoint, aj: JetPoint) -> JetPoint:
        rho = self.rho.eval_jet(mj).coeffs.reshape(1 << mj.depth, self.dim_M, self.dim_A)
        return JetPoint.from_rows(mj.depth, _product(rho, aj.coeffs[:, None]).sum(axis=-1))


@dataclass(frozen=True)
class AlgebroidSpec(Anchored):
    """Anchor plus antisymmetric structure functions on a trivialized bundle.

    rho maps base coordinates to the flattened anchor matrix (row-major
    (i, j) -> i*dim_A + j, i a base index, j a fiber index).  The structure
    functions are stored only for fiber pairs i < j (k-major, pairs in
    lexicographic order) and reflected with a sign elsewhere, which keeps
    antisymmetry exact in floating point.  Ill-formed data is representable
    on purpose; well_formed() is a checked predicate, so that negative
    fixtures are first-class.
    """

    dim_M: int
    dim_A: int
    rho: PolyMap
    c_pairs: PolyMap

    def __post_init__(self):
        if self.dim_M < 0 or self.dim_A < 1:
            raise ValueError("need dim_M >= 0 and dim_A >= 1")
        if self.rho.in_dim != self.dim_M or self.rho.out_dim != self.dim_M * self.dim_A:
            raise ValueError("anchor must map base to dim_M*dim_A entries")
        n_pairs = self.dim_A * (self.dim_A - 1) // 2
        if self.c_pairs.in_dim != self.dim_M or self.c_pairs.out_dim != self.dim_A * n_pairs:
            raise ValueError("structure functions must emit dim_A*%d entries" % n_pairs)

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
        a, b = _vec(a), _vec(b)
        first, second = self._pair_index
        flat = self.c_pairs.eval_floats(_vec(m).reshape(self.dim_M))
        wedge = a[first] * b[second] - a[second] * b[first]
        return (flat.reshape(self.dim_A, len(first)) * wedge).sum(axis=-1)

    def c_apply_jet(self, mj: JetPoint, aj: JetPoint, bj: JetPoint) -> JetPoint:
        first, second = self._pair_index
        ab = _product(aj.coeffs[:, :, None], bj.coeffs[:, None, :])
        wedge = ab[:, first, second] - ab[:, second, first]
        coeffs = self.c_pairs.eval_jet(mj).coeffs.reshape(1 << mj.depth, self.dim_A, len(first))
        return JetPoint.from_rows(mj.depth, _product(coeffs, wedge[:, None]).sum(axis=-1))

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
        """Cyclic bracket defect on constant sections.  The bracket of two
        constant sections x, y is the section m -> C(m)(x, y), so each cyclic
        term [[x, y], z] is C(m)(C(m)(x, y), z) minus the derivative of that
        section along rho(m) z, read off one depth-1 jet."""
        m = _vec(m).reshape(self.dim_M)
        a, b, c = _vec(a), _vec(b), _vec(c)
        total = np.zeros(self.dim_A)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            along = JetPoint.from_rows(1, [m, self.anchor_apply(m, z)])
            xy = self.c_apply_jet(along, JetPoint.constant(x, 1), JetPoint.constant(y, 1))
            total += self.c_apply(m, xy.row(0), z) - xy.row(1)
        return total

    def well_formed(self, samples: int = 40, seed: int = 0, tolerance: float = 1e-9) -> Report:
        """Jacobi defect and anchor compatibility on random samples."""
        rng = np.random.default_rng(seed)
        report = Report()
        triples = [
            (rng.uniform(-1, 1, self.dim_M), rng.uniform(-1, 1, self.dim_A),
             rng.uniform(-1, 1, self.dim_A), rng.uniform(-1, 1, self.dim_A))
            for _ in range(samples)
        ]

        def jac(t):
            m, a, b, c = t
            return float(np.max(np.abs(self.jacobiator(m, a, b, c))))

        report.add(run_check("jacobi", triples, jac, tolerance, seed,
                             serialize=_ser_arrays))

        def anchor_defect(t):
            m, a, b, _ = t
            lhs = self.anchor_apply(m, self.c_apply(m, a, b))
            rhs = self._anchor_derivative(m, self.anchor_apply(m, a), b) \
                - self._anchor_derivative(m, self.anchor_apply(m, b), a)
            return float(np.max(np.abs(lhs - rhs), initial=0.0))

        report.add(run_check("anchor-compatible", triples, anchor_defect, tolerance, seed,
                             serialize=_ser_arrays))
        return report

    def _anchor_derivative(self, m, u, a) -> np.ndarray:
        """Directional derivative of (rho a) along the base direction u."""
        mj = JetPoint.from_rows(1, [_vec(m).reshape(self.dim_M), _vec(u)])
        aj = JetPoint.constant(_vec(a), 1)
        return self.anchor_apply_jet(mj, aj).row(1)


def _ser_arrays(t) -> list:
    return [np.asarray(x, dtype=float).tolist() for x in t]


# -- prolongation elements ---------------------------------------------------


@dataclass(frozen=True)
class ProlongElement:
    """Pair (v, w): a bundle element and a tangent over the same base whose
    base velocity is the anchored image of v."""

    v: AElement
    w: TAElement

    def residual(self, owner) -> float:
        expected = _as_anchor(owner).anchor_apply(self.v.m, self.v.a)
        return worst_of([
            float(np.max(np.abs(self.v.m - self.w.m), initial=0.0)),
            float(np.max(np.abs(self.w.mdot - expected), initial=0.0)),
        ])


@dataclass(frozen=True)
class DoubleProlongElement:
    """Triple (v, w, x) with x a depth-2 jet over the total space, matched to
    w through the anchor: the flipped double-base of x equals the tangent
    prolongation of the anchor applied to w."""

    v: AElement
    w: TAElement
    x: JetPoint

    def residual(self, owner) -> float:
        spec_like = _as_anchor(owner)
        dm = self.v.dim_M
        worst = ProlongElement(self.v, self.w).residual(owner)
        if not dm:
            return worst
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
    dm, da = owner.dim_M, owner.dim_A
    mj = w_jet.take(0, dm)
    aj = w_jet.take(dm, dm + da)
    return join_innermost(mj, owner.anchor_apply_jet(mj, aj))


# -- involution algebroids ---------------------------------------------------


@dataclass(frozen=True)
class InvolutionAlgebroid(Anchored):
    """Anchored bundle with a flip evaluator on prolongation pairs.

    flip(v, w) takes jets over the total-space coordinates with
    w.depth == v.depth + 1 and returns a jet of w's depth; depth-0/1 inputs
    give the flip itself, deeper inputs give its tangent prolongations.
    """

    dim_M: int
    dim_A: int
    rho: PolyMap
    flip: Callable[[JetPoint, JetPoint], JetPoint]
    spec: Optional[AlgebroidSpec] = None
    describe: str = ""

    def flip_elements(self, pe: ProlongElement) -> TAElement:
        v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
        out = self.flip(v_jet, pe.w.to_jet())
        return TAElement.from_jet(out, self.dim_M)


def involution_from_spec(spec: AlgebroidSpec, describe: str = "") -> InvolutionAlgebroid:
    """Canonical coordinate flip: (v, w) -> (m, a_v, rho(m) a_w, adot_w + C(m)(a_v, a_w))."""
    dm, da = spec.dim_M, spec.dim_A

    def flip(v: JetPoint, w: JetPoint) -> JetPoint:
        if w.depth != v.depth + 1:
            raise ValueError("flip needs w one level deeper than v")
        w_val, w_dot = split_innermost(w)
        mj = v.take(0, dm)
        av = v.take(dm, dm + da)
        aw = w_val.take(dm, dm + da)
        aw_dot = w_dot.take(dm, dm + da)
        value = mj.concat(av)
        dot = spec.anchor_apply_jet(mj, aw).concat(aw_dot + spec.c_apply_jet(mj, av, aw))
        return join_innermost(value, dot)

    return InvolutionAlgebroid(dm, da, spec.rho, flip, spec=spec, describe=describe)


def flip_from_bracket(spec: AlgebroidSpec, conn: ConnectionSpec = None,
                      describe: str = "") -> InvolutionAlgebroid:
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
        if w.depth != v.depth + 1:
            raise ValueError("flip needs w one level deeper than v")
        w_val, w_dot = split_innermost(w)
        mj = v.take(0, dm)
        av = v.take(dm, dm + da)
        aw = w_val.take(dm, dm + da)
        mw_dot = w_dot.take(0, dm)
        aw_dot = w_dot.take(dm, dm + da)
        u_w = spec.anchor_apply_jet(mj, aw)
        u_v = spec.anchor_apply_jet(mj, av)
        # vertical projections of the three tangents; constant extensions
        # differentiate to zero, so only connection terms survive the first two
        gamma_wv = conn.apply_jet(mj, u_w, av)
        k1 = gamma_wv
        k2 = conn.apply_jet(mj, u_v, aw)
        kw = aw_dot + conn.apply_jet(mj, mw_dot, aw)
        bracket_wv = spec.c_apply_jet(mj, aw, av)
        alpha2 = k1 - k2 + kw - bracket_wv
        # horizontal lift of rho(p w) through v, translated by the vertical part
        return join_innermost(mj.concat(av), u_w.concat(alpha2 - gamma_wv))

    return InvolutionAlgebroid(dm, da, spec.rho, flip, spec=spec, describe=describe)


def sigma(inv: InvolutionAlgebroid, pe: ProlongElement, tol: float = 1e-9) -> ProlongElement:
    """Prolongation endomap: (v, w) -> (p w, flip(v, w))."""
    if not pe.residual(inv) <= tol:
        raise ValueError("input does not satisfy the prolongation constraint")
    flipped = inv.flip_elements(pe)
    return ProlongElement(AElement(pe.w.m, pe.w.a), flipped)


def spec_from_flip(inv: InvolutionAlgebroid, describe: str = "") -> AlgebroidSpec:
    """Recover constant structure data from a flip over a point base by
    evaluating basis brackets."""
    if inv.dim_M != 0:
        raise ValueError("structure-constant recovery needs dim_M = 0")
    da = inv.dim_A
    basis = np.eye(da)
    entries = []
    for i, j in itertools.combinations(range(da), 2):
        bracket = bracket_from_flip(
            inv,
            SectionSpec(PolyMap.constant(basis[i], 0)),
            SectionSpec(PolyMap.constant(basis[j], 0)),
        )(np.zeros(0))
        for k in range(da):
            if bracket[k] != 0.0:
                entries.append((i, j, k, float(bracket[k])))
    return AlgebroidSpec.from_structure(0, da, PolyMap.zero(0, 0), entries)


# -- samplers ----------------------------------------------------------------


def sample_prolongation(owner, m, rng) -> ProlongElement:
    """Draw fiber slots uniformly and complete the base velocity through the
    anchor, so the constraint holds by construction."""
    spec_like = _as_anchor(owner)
    dm, da = owner.dim_M, owner.dim_A
    m = _vec(m).reshape(dm)
    a_v = rng.uniform(-1, 1, da)
    a_w = rng.uniform(-1, 1, da)
    adot_w = rng.uniform(-1, 1, da)
    mdot = spec_like.anchor_apply(m, a_v)
    return ProlongElement(AElement(m, a_v), TAElement(m, a_w, mdot, adot_w))


def sample_double_prolongation(owner, m, rng) -> DoubleProlongElement:
    """Extend a sampled prolongation pair with a depth-2 jet whose base block
    is overwritten so the double constraint holds by construction."""
    spec_like = _as_anchor(owner)
    dm, da = owner.dim_M, owner.dim_A
    pe = sample_prolongation(owner, m, rng)
    target = flip_c(t_rho_jet(spec_like, pe.w.to_jet()), 1, 2)
    rows = np.hstack((target.coeffs, rng.uniform(-1, 1, (4, da))))
    return DoubleProlongElement(pe.v, pe.w, JetPoint.from_rows(2, rows))


# -- axiom suite -------------------------------------------------------------


def _lambda_jet(v: JetPoint, dm: int, da: int) -> JetPoint:
    """Fiber lift of a depth-k bundle jet into a depth-(k+1) tangent jet.
    The lift is linear, so on a tangent jet this is also its tangent."""
    mj = v.take(0, dm)
    av = v.take(dm, dm + da)
    zero = JetPoint.constant(np.zeros(da), v.depth)
    zero_m = JetPoint.constant(np.zeros(dm), v.depth)
    return join_innermost(mj.concat(zero), zero_m.concat(av))


def check_axioms(inv: InvolutionAlgebroid, samples: int = 100, seed: int = 0,
                 tolerances: dict = None) -> Report:
    """Evaluate every involution law on random (double-)prolongation samples.

    Covered: the flip projects onto its first argument, fixes lifted pairs,
    is an involution, intertwines the two bundle projections with the anchor,
    satisfies the depth-2 flip law, is linear over the two bundle structures,
    and matches the two zero sections.
    """
    tols = dict(DEFAULT_AXIOM_TOLERANCES)
    tols.update(tolerances or {})
    dm, da = inv.dim_M, inv.dim_A
    rng = np.random.default_rng(seed)
    report = Report()

    pes = [sample_prolongation(inv, rng.uniform(-1, 1, dm), rng) for _ in range(samples)]
    dpes = [sample_double_prolongation(inv, rng.uniform(-1, 1, dm), rng) for _ in range(samples)]
    points = [AElement(rng.uniform(-1, 1, dm), rng.uniform(-1, 1, da)) for _ in range(samples)]

    def check(name, inputs, fn, serialize):
        report.add(run_check(name, inputs, fn, tols[name], seed, serialize=serialize))

    def projection(pe):
        out = inv.flip_elements(pe)
        return worst_of([
            float(np.max(np.abs(out.m - pe.v.m), initial=0.0)),
            float(np.max(np.abs(out.a - pe.v.a), initial=0.0)),
        ])

    check("projection", pes, projection, _ser_pe)

    def unit(u):
        lam = _lambda_jet(JetPoint.constant(np.concatenate([u.m, u.a]), 0), dm, da)
        xi = JetPoint.constant(np.concatenate([u.m, np.zeros(da)]), 0)
        return residual(inv.flip(xi, lam), lam)

    check("unit", points, unit, _ser_ae)

    def involution(pe):
        w_jet = pe.w.to_jet()
        v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
        once = inv.flip(v_jet, w_jet)
        pw = JetPoint.constant(np.concatenate([pe.w.m, pe.w.a]), 0)
        return residual(inv.flip(pw, once), w_jet)

    check("involution", pes, involution, _ser_pe)

    def source(pe):
        out = inv.flip_elements(pe)
        expected = inv.anchor_apply(pe.v.m, pe.w.a)
        return worst_of([
            float(np.max(np.abs(out.m - pe.v.m), initial=0.0)),
            float(np.max(np.abs(out.mdot - expected), initial=0.0)),
        ])

    check("source", pes, source, _ser_pe)

    def target(pe):
        w_jet = pe.w.to_jet()
        v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
        out = inv.flip(v_jet, w_jet)
        if dm == 0:
            return 0.0
        lhs = t_rho_jet(inv, out)
        rhs = flip_c(t_rho_jet(inv, w_jet), 1, 2)
        return residual(lhs, rhs)

    check("target", pes, target, _ser_pe)

    def flip_law(dpe):
        v_jet = JetPoint.constant(np.concatenate([dpe.v.m, dpe.v.a]), 0)
        w_jet = dpe.w.to_jet()
        x = dpe.x
        first = inv.flip(inv.flip(v_jet, w_jet), x)
        inner = inv.flip(w_jet, flip_c(x, 1, 2))
        second = flip_c(inv.flip(inv.flip(v_jet, proj_p(x, 1)), flip_c(inner, 1, 2)), 1, 2)
        return residual(first, second)

    check("flip", dpes, flip_law, _ser_dpe)

    def linearity_lift(pe):
        v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
        w_jet = pe.w.to_jet()
        base = inv.flip(v_jet, w_jet)
        lhs = inv.flip(insert_zero(v_jet, 1), flip_c(_lambda_jet(w_jet, dm, da), 1, 2))
        return residual(lhs, lift_l(base, 1))

    check("linearity-lift", pes, linearity_lift, _ser_pe)

    def linearity_anchor(pe):
        v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
        w_jet = pe.w.to_jet()
        base = inv.flip(v_jet, w_jet)
        lam_v = _lambda_jet(v_jet, dm, da)
        lhs = inv.flip(lam_v, lift_l(w_jet, 1))
        return residual(lhs, flip_c(_lambda_jet(base, dm, da), 1, 2))

    check("linearity-anchor", pes, linearity_anchor, _ser_pe)

    def zero_sections(u):
        v_jet = JetPoint.constant(np.concatenate([u.m, u.a]), 0)
        anchored = inv.anchor_apply(u.m, u.a)
        t_xi = TAElement(u.m, np.zeros(da), anchored, np.zeros(da)).to_jet()
        xi = JetPoint.constant(np.concatenate([u.m, np.zeros(da)]), 0)
        return worst_of([residual(inv.flip(v_jet, t_xi), insert_zero(v_jet, 1)),
                         residual(inv.flip(xi, insert_zero(v_jet, 1)), t_xi)])

    check("zero-sections", points, zero_sections, _ser_ae)
    return report


def _ser_ae(u: AElement) -> dict:
    return {"m": u.m.tolist(), "a": u.a.tolist()}


def _ser_pe(pe: ProlongElement) -> dict:
    return {
        "m": pe.v.m.tolist(),
        "a_v": pe.v.a.tolist(),
        "w": [pe.w.a.tolist(), pe.w.mdot.tolist(), pe.w.adot.tolist()],
    }


def _ser_dpe(dpe: DoubleProlongElement) -> dict:
    out = _ser_pe(ProlongElement(dpe.v, dpe.w))
    out["x"] = dpe.x.to_rows()
    return out


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


def check_yang_baxter(inv: InvolutionAlgebroid, samples: int = 60, seed: int = 0,
                      tolerances: dict = None) -> Report:
    """Both triple composites of the flip braid on random double samples, plus
    the exact discrete permutation identity."""
    tols = dict(DEFAULT_AXIOM_TOLERANCES)
    tols.update(tolerances or {})
    dm, da = inv.dim_M, inv.dim_A
    rng = np.random.default_rng(seed)
    report = Report()

    dpes = [sample_double_prolongation(inv, rng.uniform(-1, 1, dm), rng) for _ in range(samples)]

    def braid(dpe):
        v = JetPoint.constant(np.concatenate([dpe.v.m, dpe.v.a]), 0)
        w = dpe.w.to_jet()
        y = flip_c(dpe.x, 1, 2)
        t = (v, w, y)
        m1 = _yb_sigma_c(inv, _yb_id_tsigma(inv, _yb_sigma_c(inv, t)))
        m2 = _yb_id_tsigma(inv, _yb_sigma_c(inv, _yb_id_tsigma(inv, t)))
        return worst_of(residual(a, b) for a, b in zip(m1, m2))

    report.add(run_check("yang-baxter", dpes, braid, tols["yang-baxter"], seed,
                         serialize=_ser_dpe))

    p1, p2, expected = braid_permutations()
    symbols = tuple("s%d" % i for i in range(7))
    left = p1(p2(p1(symbols)))
    right = p2(p1(p2(symbols)))
    ok = left == right == expected(symbols)
    report.add(run_check("permutation-braid", [symbols], lambda t: 0.0 if ok else 1.0,
                         tols["permutation-braid"], None, serialize=list))
    return report


# -- brackets from flips -----------------------------------------------------


def bracket_from_flip(inv: InvolutionAlgebroid, X: SectionSpec, Y: SectionSpec):
    """Evaluator of the section bracket induced by a flip: flip X against the
    prolongation of Y along the anchored X, subtract the prolongation of X
    along the anchored Y in the strong sense."""
    dm, da = inv.dim_M, inv.dim_A
    graph_X = section_polymap(X.x_poly)
    graph_Y = section_polymap(Y.x_poly)

    def evaluate(m) -> np.ndarray:
        m = _vec(m).reshape(dm)
        xv, yv = X.eval(m), Y.eval(m)
        anchor = inv.anchor_matrix(m)
        w_jet = graph_Y.eval_jet(JetPoint.from_rows(1, [m, anchor @ xv]))
        v_jet = JetPoint.constant(np.concatenate([m, xv]), 0)
        first = TAElement.from_jet(inv.flip(v_jet, w_jet), dm)
        second = TAElement.from_jet(
            graph_X.eval_jet(JetPoint.from_rows(1, [m, anchor @ yv])), dm
        )
        return strong_difference(first, second, tol=1e-9).a

    return evaluate


def section_flip_field(inv: InvolutionAlgebroid, X: SectionSpec):
    """The flip of a section as a vector field on the total space, evaluable
    on jets: feed the anchored direction through the section's prolongation
    and flip against it."""
    dm, da = inv.dim_M, inv.dim_A
    graph_X = section_polymap(X.x_poly)

    def field(z: JetPoint) -> JetPoint:
        mj = z.take(0, dm)
        aj = z.take(dm, dm + da)
        u = inv.anchor_apply_jet(mj, aj)
        w_jet = graph_X.eval_jet(join_innermost(mj, u))
        flipped = inv.flip(z, w_jet)
        _, velocity = split_innermost(flipped)
        return velocity

    return field


def check_bracket_laws(inv: InvolutionAlgebroid, sections=None, samples: int = 40,
                       seed: int = 0, tolerance: float = 1e-9) -> Report:
    """Laws of the induced section bracket at sampled base points: bilinear,
    antisymmetric, Jacobi; the flip-field morphism; the anchor morphism; and
    additivity of the section-to-flip-field assignment."""
    dm, da = inv.dim_M, inv.dim_A
    if inv.spec is None:
        raise ValueError("bracket laws need the defining spec for polynomial nesting")
    spec = inv.spec
    rng = np.random.default_rng(seed)
    if sections is None:
        sections = [SectionSpec(_random_section_poly(rng, dm, da)) for _ in range(3)]
    X, Y, Z = sections[0], sections[1], sections[2 % len(sections)]
    report = Report()
    points = [rng.uniform(-1, 1, dm) for _ in range(samples)]

    bxy = bracket_from_flip(inv, X, Y)
    byx = bracket_from_flip(inv, Y, X)

    def antisym(m):
        return float(np.max(np.abs(bxy(m) + byx(m)), initial=0.0))

    report.add(run_check("bracket-antisymmetric", points, antisym, tolerance, seed,
                         serialize=_ser_point))

    a_const, b_const = 0.75, -1.25
    combo = SectionSpec(a_const * X.x_poly + b_const * Y.x_poly)
    b_combo_z = bracket_from_flip(inv, combo, Z)
    bxz = bracket_from_flip(inv, X, Z)
    byz = bracket_from_flip(inv, Y, Z)

    def bilinear(m):
        return float(np.max(np.abs(b_combo_z(m) - a_const * bxz(m) - b_const * byz(m)),
                            initial=0.0))

    report.add(run_check("bracket-bilinear", points, bilinear, tolerance, seed,
                         serialize=_ser_point))

    b_yz_poly = spec.bracket_poly(Y.x_poly, Z.x_poly)
    b_xy_poly = spec.bracket_poly(X.x_poly, Y.x_poly)
    b_zx_poly = spec.bracket_poly(Z.x_poly, X.x_poly)
    j1 = bracket_from_flip(inv, X, SectionSpec(b_yz_poly))
    j2 = bracket_from_flip(inv, Z, SectionSpec(b_xy_poly))
    j3 = bracket_from_flip(inv, Y, SectionSpec(b_zx_poly))

    def jacobi(m):
        return float(np.max(np.abs(j1(m) + j2(m) + j3(m)), initial=0.0))

    report.add(run_check("bracket-jacobi", points, jacobi, tolerance, seed,
                         serialize=_ser_point))

    # flip fields: alpha_[X,Y] = [alpha_X, alpha_Y] as fields on the total space
    f_xy = section_flip_field(inv, SectionSpec(b_xy_poly))
    f_x = section_flip_field(inv, X)
    f_y = section_flip_field(inv, Y)
    total_points = [np.concatenate([rng.uniform(-1, 1, dm), rng.uniform(-1, 1, da)])
                    for _ in range(samples)]

    def flip_field_morphism(z):
        z0 = JetPoint.constant(z, 0)
        fx0, fy0 = f_x(z0), f_y(z0)
        # feeding each field's value as the jet velocity of the other gives
        # the directional derivatives that make up the field bracket
        t_fy = f_y(join_innermost(z0, fx0))
        t_fx = f_x(join_innermost(z0, fy0))
        deriv = t_fy.row(1) - t_fx.row(1)
        return float(np.max(np.abs(deriv - f_xy(z0).base), initial=0.0))

    report.add(run_check("flip-field-morphism", total_points, flip_field_morphism,
                         tolerance, seed, serialize=_ser_point))

    # anchor morphism: rho[X,Y] equals the base bracket of the anchored fields
    def anchor_field(S: SectionSpec):
        graph = S.x_poly

        def fld(mz: JetPoint) -> JetPoint:
            aj = graph.eval_jet(mz)
            return inv.anchor_apply_jet(mz, aj)

        return fld

    rx, ry = anchor_field(X), anchor_field(Y)

    def anchor_morphism(m):
        m = _vec(m).reshape(dm)
        if dm == 0:
            return 0.0
        z0 = JetPoint.constant(m, 0)
        rx0, ry0 = rx(z0), ry(z0)
        t_ry = ry(join_innermost(z0, rx0))
        t_rx = rx(join_innermost(z0, ry0))
        field_bracket = t_ry.row(1) - t_rx.row(1)
        lhs = inv.anchor_apply(m, bxy(m))
        return float(np.max(np.abs(lhs - field_bracket), initial=0.0))

    report.add(run_check("anchor-morphism", points, anchor_morphism, tolerance, seed,
                         serialize=_ser_point))

    f_sum = section_flip_field(inv, SectionSpec(X.x_poly + Y.x_poly))

    def flip_field_additive(z):
        z0 = JetPoint.constant(z, 0)
        lhs = f_sum(z0)
        rhs = f_x(z0) + f_y(z0)
        return residual(lhs, rhs)

    report.add(run_check("flip-field-additive", total_points, flip_field_additive,
                         tolerance, seed, serialize=_ser_point))
    return report


def _ser_point(m) -> list:
    return np.asarray(m, dtype=float).tolist()


def _random_section_poly(rng, dm: int, da: int, degree: int = 2) -> PolyMap:
    exps = [e for e in itertools.product(range(degree + 1), repeat=dm) if sum(e) <= degree]
    rows = []
    for _ in range(da):
        chosen = [e for e in exps if rng.uniform() < 0.7] or [exps[0]]
        rows.append(tuple((float(rng.uniform(-1, 1)), tuple(e)) for e in chosen))
    return PolyMap(dm, da, tuple(rows))


def check_leibniz(inv: InvolutionAlgebroid, X: SectionSpec, Y: SectionSpec,
                  f: ScalarFieldSpec, samples: int = 40, seed: int = 0,
                  tolerance: float = 1e-9) -> Report:
    """Residual of the Leibniz law: bracketing against a scaled section picks
    up the derivative of the scale along the anchored first section."""
    dm = inv.dim_M
    rng = np.random.default_rng(seed)
    points = [rng.uniform(-1, 1, dm) for _ in range(samples)]
    fY = SectionSpec(f.f_poly * Y.x_poly)
    b_fy = bracket_from_flip(inv, X, fY)
    b_xy = bracket_from_flip(inv, X, Y)

    def defect(m):
        m = _vec(m).reshape(dm)
        lie = lie_derivative(f, X, inv.rho, m)
        expect = f.eval(m) * b_xy(m) + lie * Y.eval(m)
        return float(np.max(np.abs(b_fy(m) - expect), initial=0.0))

    report = Report()
    report.add(run_check("leibniz", points, defect, tolerance, seed,
                         serialize=_ser_point))
    return report


def roundtrip_bracket(spec: AlgebroidSpec, sections=None, samples: int = 40,
                      seed: int = 0) -> Report:
    """Brackets survive the trip through the flip and back; over a point base
    the flip itself survives the trip through the bracket and back."""
    rng = np.random.default_rng(seed)
    dm, da = spec.dim_M, spec.dim_A
    if sections is None:
        sections = [SectionSpec(_random_section_poly(rng, dm, da)) for _ in range(2)]
    X, Y = sections[0], sections[1]
    inv = involution_from_spec(spec)
    recovered = bracket_from_flip(inv, X, Y)
    oracle = spec.bracket_poly(X.x_poly, Y.x_poly)
    points = [rng.uniform(-1, 1, dm) for _ in range(samples)]

    def bracket_defect(m):
        return float(np.max(np.abs(recovered(m) - oracle.eval_floats(_vec(m).reshape(dm))),
                            initial=0.0))

    report = Report()
    report.add(run_check("bracket-roundtrip", points, bracket_defect, 1e-12, seed,
                         serialize=_ser_point))

    if dm == 0:
        rebuilt = involution_from_spec(spec_from_flip(inv))
        pes = [sample_prolongation(spec, np.zeros(0), rng) for _ in range(samples)]

        def flip_defect(pe):
            v_jet = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
            w_jet = pe.w.to_jet()
            return residual(inv.flip(v_jet, w_jet), rebuilt.flip(v_jet, w_jet))

        report.add(run_check("flip-roundtrip", pes, flip_defect, 1e-12, seed,
                             serialize=_ser_pe))
    return report
