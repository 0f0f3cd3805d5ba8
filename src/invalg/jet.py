"""Truncated nested-tangent arithmetic: square-free jets of depth up to 3.

A depth-d jet stores 2**d coefficients indexed by subsets S of the direction
set {1, ..., d}.  Bit (i - 1) of the coefficient index is set exactly when
direction i belongs to S, and the jet represents

    sum_S  coeffs[S] * prod_{i in S} eps_i        with  eps_i ** 2 = 0.

Nesting convention.  Direction 1 carries the projection p of the outer
tangent: dropping direction 1 realizes p on nested tangents, dropping
direction 2 realizes T(p), direction 3 realizes T(T(p)).  The same indexing
rule applies across the structural maps: flip_c on directions (1, 2) is the
canonical flip c and on (2, 3) is T(c); lift_l splits direction 1 (pass
direction=2 for T of the lift); add_tangent in direction 1 is the fibered
addition of the outer tangent, direction 2 the addition T carries.

Multi-term coefficient sums inside the product are accumulated with
math.fsum, which is exactly rounded and therefore invariant under direction
relabelings; this keeps the permutation and lift laws exact in floating
point, not merely accurate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .report import Report, run_check, worst_of

MAX_DEPTH = 3

_ADD_COMPAT_TOL = 1e-12


def _coerce_coeffs(depth: int, coeffs: Iterable[float]) -> tuple:
    cs = tuple(float(c) for c in coeffs)
    if len(cs) != 1 << depth:
        raise ValueError("depth %d needs %d coefficients, got %d" % (depth, 1 << depth, len(cs)))
    return cs


class JetScalar:
    """One truncated nested-tangent number."""

    __slots__ = ("depth", "coeffs")

    def __init__(self, depth: int, coeffs: Iterable[float]):
        if not 0 <= depth <= MAX_DEPTH:
            raise ValueError("depth must be between 0 and %d" % MAX_DEPTH)
        self.depth = depth
        self.coeffs = _coerce_coeffs(depth, coeffs)

    @classmethod
    def _trusted(cls, depth: int, coeffs: tuple) -> "JetScalar":
        """Build from a tuple of 2**depth Python floats without revalidating;
        the arithmetic below only ever passes such tuples."""
        out = object.__new__(cls)
        out.depth = depth
        out.coeffs = coeffs
        return out

    @staticmethod
    def constant(value: float, depth: int = 0) -> "JetScalar":
        cs = [0.0] * (1 << depth)
        cs[0] = float(value)
        return JetScalar(depth, cs)

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def _coerce(self, other) -> "JetScalar":
        if isinstance(other, JetScalar):
            if other.depth != self.depth:
                raise ValueError("mixed jet depths %d and %d" % (self.depth, other.depth))
            return other
        return JetScalar.constant(float(other), self.depth)

    def __add__(self, other) -> "JetScalar":
        o = self._coerce(other)
        return JetScalar._trusted(self.depth, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "JetScalar":
        o = self._coerce(other)
        return JetScalar._trusted(self.depth, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other) -> "JetScalar":
        o = self._coerce(other)
        return JetScalar._trusted(self.depth, tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self) -> "JetScalar":
        return JetScalar._trusted(self.depth, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "JetScalar":
        if not isinstance(other, JetScalar):
            f = float(other)
            return JetScalar._trusted(self.depth, tuple(a * f for a in self.coeffs))
        o = self._coerce(other)
        a = self.coeffs
        b = o.coeffs
        d = self.depth
        if d == 0:
            return JetScalar._trusted(0, (a[0] * b[0],))
        if d == 1:
            return JetScalar._trusted(1, (a[0] * b[0], a[0] * b[1] + a[1] * b[0]))
        if d == 2:
            return JetScalar._trusted(
                2,
                (
                    a[0] * b[0],
                    a[0] * b[1] + a[1] * b[0],
                    a[0] * b[2] + a[2] * b[0],
                    math.fsum((a[0] * b[3], a[3] * b[0], a[1] * b[2], a[2] * b[1])),
                ),
            )
        return JetScalar._trusted(
            3,
            (
                a[0] * b[0],
                a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[2] * b[0],
                math.fsum((a[0] * b[3], a[3] * b[0], a[1] * b[2], a[2] * b[1])),
                a[0] * b[4] + a[4] * b[0],
                math.fsum((a[0] * b[5], a[5] * b[0], a[1] * b[4], a[4] * b[1])),
                math.fsum((a[0] * b[6], a[6] * b[0], a[2] * b[4], a[4] * b[2])),
                math.fsum(
                    (
                        a[0] * b[7],
                        a[7] * b[0],
                        a[1] * b[6],
                        a[6] * b[1],
                        a[2] * b[5],
                        a[5] * b[2],
                        a[3] * b[4],
                        a[4] * b[3],
                    )
                ),
            ),
        )

    def __rmul__(self, other) -> "JetScalar":
        f = float(other)
        return JetScalar._trusted(self.depth, tuple(f * a for a in self.coeffs))

    def __pow__(self, exponent: int) -> "JetScalar":
        if exponent < 0 or exponent != int(exponent):
            raise ValueError("jet powers take non-negative integer exponents")
        result = JetScalar.constant(1.0, self.depth)
        for _ in range(int(exponent)):
            result = result * self
        return result

    def __repr__(self) -> str:
        return "JetScalar(depth=%d, coeffs=%r)" % (self.depth, self.coeffs)


class JetPoint:
    """A point of a coordinate space with every coordinate a JetScalar."""

    __slots__ = ("depth", "entries")

    def __init__(self, entries: Sequence[JetScalar], depth: int = None):
        entries = tuple(entries)
        if entries:
            d = entries[0].depth
            for e in entries:
                if e.depth != d:
                    raise ValueError("jet point entries must share one depth")
            if depth is not None and depth != d:
                raise ValueError("declared depth %d does not match entries" % depth)
            depth = d
        elif depth is None:
            depth = 0
        self.depth = depth
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(depth: int, rows: Sequence[Sequence[float]]) -> "JetPoint":
        """Build from one coefficient row per subset mask (2**depth rows)."""
        rows = [list(map(float, r)) for r in rows]
        if len(rows) != 1 << depth:
            raise ValueError("depth %d needs %d rows" % (depth, 1 << depth))
        dim = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != dim:
                raise ValueError("ragged coefficient rows")
        return JetPoint(
            [JetScalar(depth, [rows[m][i] for m in range(1 << depth)]) for i in range(dim)],
            depth,
        )

    @staticmethod
    def constant(vec: Sequence[float], depth: int = 0) -> "JetPoint":
        return JetPoint([JetScalar.constant(v, depth) for v in vec], depth)

    def row(self, mask: int) -> np.ndarray:
        return np.array([e.coeffs[mask] for e in self.entries], dtype=float)

    def to_rows(self) -> list:
        return [[e.coeffs[m] for e in self.entries] for m in range(1 << self.depth)]

    @property
    def base(self) -> np.ndarray:
        return self.row(0)

    def take(self, start: int, stop: int) -> "JetPoint":
        return JetPoint(self.entries[start:stop], self.depth)

    def concat(self, other: "JetPoint") -> "JetPoint":
        if other.depth != self.depth:
            raise ValueError("mixed jet depths in concat")
        return JetPoint(self.entries + other.entries, self.depth)

    def map_coeffs(self, index_map) -> "JetPoint":
        """index_map: new mask -> old mask or None (zero); shared by all entries."""
        out = []
        for e in self.entries:
            out.append(
                JetScalar(
                    _depth_of(len(index_map)),
                    [0.0 if m is None else e.coeffs[m] for m in index_map],
                )
            )
        return JetPoint(out, _depth_of(len(index_map)))

    def __repr__(self) -> str:
        return "JetPoint(depth=%d, dim=%d)" % (self.depth, self.dim)


def _depth_of(n_coeffs: int) -> int:
    return n_coeffs.bit_length() - 1


def residual(x: JetPoint, y: JetPoint) -> float:
    """Largest absolute coefficient difference between two jet points; NaN
    when any difference is NaN, so a non-finite jet never matches."""
    if x.depth != y.depth or x.dim != y.dim:
        raise ValueError("shape mismatch: depth %d/%d dim %d/%d" % (x.depth, y.depth, x.dim, y.dim))
    worst = 0.0
    for a, b in zip(x.entries, y.entries):
        for ca, cb in zip(a.coeffs, b.coeffs):
            d = abs(ca - cb)
            if not d <= worst:
                if d != d:
                    return d  # a NaN difference outranks every number
                worst = d
    return worst


# -- structural maps ---------------------------------------------------------


@lru_cache(maxsize=None)
def _proj_map(depth: int, direction: int) -> tuple:
    k = direction - 1
    low_mask = (1 << k) - 1
    return tuple(((m >> k) << (k + 1)) | (m & low_mask) for m in range(1 << (depth - 1)))


@lru_cache(maxsize=None)
def _insert_map(depth: int, direction: int) -> tuple:
    k = direction - 1
    low_mask = (1 << k) - 1
    out = []
    for m in range(1 << (depth + 1)):
        if m & (1 << k):
            out.append(None)
        else:
            out.append(((m >> (k + 1)) << k) | (m & low_mask))
    return tuple(out)


@lru_cache(maxsize=None)
def _flip_map(depth: int, i: int, j: int) -> tuple:
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = []
    for m in range(1 << depth):
        n = m & ~(bi | bj)
        if m & bi:
            n |= bj
        if m & bj:
            n |= bi
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def _lift_map(depth: int, direction: int) -> tuple:
    k = direction - 1
    low_mask = (1 << k) - 1
    out = []
    for m in range(1 << (depth + 1)):
        mid = (m >> k) & 3
        high = m >> (k + 2)
        low = m & low_mask
        if mid == 0:
            out.append((high << (k + 1)) | low)
        elif mid == 3:
            out.append((high << (k + 1)) | (1 << k) | low)
        else:
            out.append(None)
    return tuple(out)


def proj_p(x: JetPoint, direction: int = 1) -> JetPoint:
    """Drop one direction.  Direction 1 realizes p, direction k realizes T^(k-1)(p)."""
    if not 1 <= direction <= x.depth:
        raise ValueError("no direction %d in a depth-%d jet" % (direction, x.depth))
    return x.map_coeffs(_proj_map(x.depth, direction))


def insert_zero(x: JetPoint, direction: int = 1) -> JetPoint:
    """Insert a fresh all-zero direction.  Direction 1 realizes the zero section 0,
    direction k realizes T^(k-1)(0)."""
    if not 1 <= direction <= x.depth + 1:
        raise ValueError("cannot insert direction %d into a depth-%d jet" % (direction, x.depth))
    if x.depth + 1 > MAX_DEPTH:
        raise ValueError("depth cap %d exceeded" % MAX_DEPTH)
    return x.map_coeffs(_insert_map(x.depth, direction))


def promote(x: JetPoint, count: int = 1) -> JetPoint:
    """Embed into a deeper jet: the new (innermost) directions carry zeros, so
    projecting them away recovers x."""
    out = x
    for _ in range(count):
        out = insert_zero(out, out.depth + 1)
    return out


def flip_c(x: JetPoint, i: int = 1, j: int = 2) -> JetPoint:
    """Swap two direction labels.  (1, 2) realizes the canonical flip c, (2, 3)
    realizes T(c)."""
    if i == j or not (1 <= i <= x.depth and 1 <= j <= x.depth):
        raise ValueError("bad flip directions (%d, %d) at depth %d" % (i, j, x.depth))
    return x.map_coeffs(_flip_map(x.depth, i, j))


def lift_l(x: JetPoint, direction: int = 1) -> JetPoint:
    """Vertical lift: split one direction into a consecutive pair, moving its
    coefficient to the mixed slot ((base; v) becomes (base; 0; 0; v)).
    Direction 1 realizes l, direction 2 realizes T(l)."""
    if not 1 <= direction <= x.depth:
        raise ValueError("no direction %d in a depth-%d jet" % (direction, x.depth))
    if x.depth + 1 > MAX_DEPTH:
        raise ValueError("depth cap %d exceeded" % MAX_DEPTH)
    return x.map_coeffs(_lift_map(x.depth, direction))


def add_tangent(x: JetPoint, y: JetPoint, direction: int = 1, tol: float = _ADD_COMPAT_TOL) -> JetPoint:
    """Fibered addition in one direction: coefficients containing the direction
    add, the rest must agree (within tol) and are kept from x."""
    if x.depth != y.depth or x.dim != y.dim:
        raise ValueError("addition needs matching jet shapes")
    if not 1 <= direction <= x.depth:
        raise ValueError("no direction %d in a depth-%d jet" % (direction, x.depth))
    bit = 1 << (direction - 1)
    out = []
    for ex, ey in zip(x.entries, y.entries):
        cs = []
        for m in range(1 << x.depth):
            if m & bit:
                cs.append(ex.coeffs[m] + ey.coeffs[m])
            else:
                if not abs(ex.coeffs[m] - ey.coeffs[m]) <= tol:
                    raise ValueError(
                        "incompatible summands: shared coefficient differs by %g"
                        % abs(ex.coeffs[m] - ey.coeffs[m])
                    )
                cs.append(ex.coeffs[m])
        out.append(JetScalar(x.depth, cs))
    return JetPoint(out, x.depth)


def sub_tangent(x: JetPoint, y: JetPoint, direction: int = 1, tol: float = _ADD_COMPAT_TOL) -> JetPoint:
    """Fibered subtraction in one direction (inverse of add_tangent)."""
    return add_tangent(x, neg_tangent(y, direction), direction, tol)


def neg_tangent(x: JetPoint, direction: int = 1) -> JetPoint:
    """Fiberwise negation in one direction."""
    bit = 1 << (direction - 1)
    out = []
    for e in x.entries:
        cs = [(-c if (m & bit) else c) for m, c in enumerate(e.coeffs)]
        out.append(JetScalar(x.depth, cs))
    return JetPoint(out, x.depth)


def split_innermost(x: JetPoint):
    """View a depth-d jet as a depth-(d-1) jet of value/velocity pairs along the
    innermost direction d.  Returns (value, velocity)."""
    d = x.depth
    if d < 1:
        raise ValueError("cannot split a depth-0 jet")
    value = proj_p(x, d)
    bit = 1 << (d - 1)
    vel_entries = []
    for e in x.entries:
        # lower-depth masks coincide with the bit-(d-1)-clear masks
        cs = [e.coeffs[m | bit] for m in range(1 << (d - 1))]
        vel_entries.append(JetScalar(d - 1, cs))
    return value, JetPoint(vel_entries, d - 1)


def join_innermost(value: JetPoint, velocity: JetPoint) -> JetPoint:
    """Inverse of split_innermost: attach a velocity along a new innermost direction."""
    if value.depth != velocity.depth or value.dim != velocity.dim:
        raise ValueError("join needs matching jet shapes")
    d = value.depth + 1
    if d > MAX_DEPTH:
        raise ValueError("depth cap %d exceeded" % MAX_DEPTH)
    bit = 1 << (d - 1)
    out = []
    for ev, ew in zip(value.entries, velocity.entries):
        cs = [0.0] * (1 << d)
        for m in range(1 << (d - 1)):
            cs[m] = ev.coeffs[m]
            cs[m | bit] = ew.coeffs[m]
        out.append(JetScalar(d, cs))
    return JetPoint(out, d)


# -- polynomial maps ---------------------------------------------------------


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map between coordinate spaces.

    terms[k] lists (coefficient, exponent-tuple) pairs for output k; exponent
    tuples have one entry per input coordinate.

    The arithmetic operators return canonical rows: repeated exponents
    merged, terms sorted by exponent tuple, zero coefficients dropped.
    pm[i] (or a slice) selects outputs; a + b adds output by output; c * pm
    scales; a * b multiplies output by output, a one-output factor
    broadcasting against the other.
    """

    in_dim: int
    out_dim: int
    terms: tuple

    def __post_init__(self):
        for row in self.terms:
            for _, exps in row:
                if len(exps) != self.in_dim:
                    raise ValueError("exponent tuple arity does not match in_dim")

    @staticmethod
    def from_terms(in_dim: int, rows: Sequence[Sequence[tuple]]) -> "PolyMap":
        frozen = tuple(
            tuple((float(c), tuple(int(e) for e in exps)) for c, exps in row) for row in rows
        )
        return PolyMap(in_dim, len(frozen), frozen)

    @staticmethod
    def zero(in_dim: int, out_dim: int) -> "PolyMap":
        return PolyMap(in_dim, out_dim, tuple(() for _ in range(out_dim)))

    @staticmethod
    def constant(values: Sequence[float], in_dim: int) -> "PolyMap":
        rows = []
        zero_exp = tuple([0] * in_dim)
        for v in values:
            rows.append(((float(v), zero_exp),) if float(v) != 0.0 else ())
        return PolyMap(in_dim, len(rows), tuple(rows))

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap.linear(np.eye(n))

    @staticmethod
    def linear(matrix) -> "PolyMap":
        mat = np.asarray(matrix, dtype=float)
        out_dim, in_dim = mat.shape
        rows = []
        for i in range(out_dim):
            row = []
            for j in range(in_dim):
                if mat[i, j] != 0.0:
                    exps = [0] * in_dim
                    exps[j] = 1
                    row.append((float(mat[i, j]), tuple(exps)))
            rows.append(tuple(row))
        return PolyMap(in_dim, out_dim, tuple(rows))

    @property
    def degree(self) -> int:
        deg = 0
        for row in self.terms:
            for _, exps in row:
                deg = max(deg, sum(exps))
        return deg

    def eval_jet(self, x: JetPoint) -> JetPoint:
        if x.dim != self.in_dim:
            raise ValueError("input dim %d, expected %d" % (x.dim, self.in_dim))
        depth = x.depth
        max_exp = [0] * self.in_dim
        for row in self.terms:
            for _, exps in row:
                for i, e in enumerate(exps):
                    if e > max_exp[i]:
                        max_exp[i] = e
        powers = []
        for i, e_max in enumerate(max_exp):
            ps = [JetScalar.constant(1.0, depth)]
            for _ in range(e_max):
                ps.append(ps[-1] * x.entries[i])
            powers.append(ps)
        out = []
        for row in self.terms:
            acc = JetScalar.constant(0.0, depth)
            for c, exps in row:
                term = None
                for i, e in enumerate(exps):
                    if e:
                        term = powers[i][e] if term is None else term * powers[i][e]
                if term is None:
                    acc = acc + JetScalar.constant(c, depth)
                else:
                    acc = acc + c * term
            out.append(acc)
        return JetPoint(out, depth)

    @cached_property
    def _compiled(self) -> tuple:
        """The terms as arrays, built once per map: the output row and the
        coefficient of every term, and for each input that occurs, its exponent
        in every term and the terms where that exponent is 2."""
        flat = [(k, c, e) for k, row in enumerate(self.terms) for c, e in row]
        rows = np.array([k for k, _, _ in flat], dtype=np.intp)
        coef = np.array([c for _, c, _ in flat], dtype=float)
        exps = np.array([e for _, _, e in flat], dtype=np.intp).reshape(len(flat), self.in_dim)
        factors = tuple((i, exps[:, i], np.flatnonzero(exps[:, i] == 2))
                        for i in range(self.in_dim) if exps[:, i].any())
        return rows, coef, factors

    def eval_floats(self, x) -> np.ndarray:
        """Vectorized evaluation: x has shape (..., in_dim); returns (..., out_dim).

        Each term is its coefficient times its input powers, taken in input
        order, and is added into its own output only, in term order; so an
        overflowing term cannot turn another output into NaN."""
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1:] != (self.in_dim,):
            raise ValueError("input shape %r, expected trailing %d" % (arr.shape, self.in_dim))
        lead = arr.shape[:-1]
        rows, coef, factors = self._compiled
        pts = arr.reshape(math.prod(lead), self.in_dim)
        mono = coef
        for i, exps, squares in factors:
            col = pts[:, i, None]
            power = col ** exps
            if len(squares):
                power[:, squares] = col * col  # the rounding of x ** 2
            mono = mono * power
        out = np.zeros((len(pts), self.out_dim))
        np.add.at(out, (slice(None), rows), mono)
        return out.reshape(lead + (self.out_dim,))

    def partial(self, i: int) -> "PolyMap":
        """Exact partial derivative with respect to input i."""
        rows = []
        for row in self.terms:
            new_row = []
            for c, exps in row:
                e = exps[i]
                if e:
                    new_exps = list(exps)
                    new_exps[i] = e - 1
                    new_row.append((c * e, tuple(new_exps)))
            rows.append(tuple(new_row))
        return PolyMap(self.in_dim, self.out_dim, tuple(rows))

    def jacobian_at(self, x) -> np.ndarray:
        """Jacobian matrix (out_dim, in_dim) at a float point."""
        x = np.asarray(x, dtype=float)
        jac = np.zeros((self.out_dim, self.in_dim))
        for i in range(self.in_dim):
            jac[:, i] = self.partial(i).eval_floats(x)
        return jac

    # -- polynomial algebra -------------------------------------------------

    @staticmethod
    def _canonical(in_dim: int, rows) -> "PolyMap":
        """Map from one iterable of (coefficient, exponents) terms per output,
        with repeated exponents summed in order."""
        out = []
        for row in rows:
            acc: dict = {}
            for c, e in row:
                acc[e] = acc.get(e, 0.0) + c
            out.append(tuple((c, e) for e, c in sorted(acc.items()) if c != 0.0))
        return PolyMap(in_dim, len(out), tuple(out))

    def __getitem__(self, index) -> "PolyMap":
        rows = self.terms[index]
        if not isinstance(index, slice):
            rows = (rows,)
        return PolyMap(self.in_dim, len(rows), rows)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if (other.in_dim, other.out_dim) != (self.in_dim, self.out_dim):
            raise ValueError("sum needs maps of the same shape")
        return PolyMap._canonical(self.in_dim, map(tuple.__add__, self.terms, other.terms))

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + other * -1.0

    def __mul__(self, other) -> "PolyMap":
        if not isinstance(other, PolyMap):
            f = float(other)
            return PolyMap._canonical(self.in_dim,
                                      (((f * c, e) for c, e in row) for row in self.terms))
        if other.in_dim != self.in_dim:
            raise ValueError("product needs maps on the same input space")
        rows_a, rows_b = self.terms, other.terms
        if len(rows_a) == 1:
            rows_a = rows_a * len(rows_b)
        elif len(rows_b) == 1:
            rows_b = rows_b * len(rows_a)
        elif len(rows_a) != len(rows_b):
            raise ValueError("product of %d and %d outputs" % (len(rows_a), len(rows_b)))
        return PolyMap._canonical(self.in_dim, (
            [(ca * cb, tuple(map(operator.add, ea, eb))) for ca, ea in row_a for cb, eb in row_b]
            for row_a, row_b in zip(rows_a, rows_b)))

    __rmul__ = __mul__

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """Polynomial expansion of self after inner."""
        if inner.out_dim != self.in_dim:
            raise ValueError("composition arity mismatch")
        one = PolyMap.constant([1.0], inner.in_dim)
        rows = []
        for row in self.terms:
            acc = PolyMap.zero(inner.in_dim, 1)
            for c, exps in row:
                term = one
                for i, e in enumerate(exps):
                    for _ in range(e):
                        term = term * inner[i]
                acc = acc + term * c
            rows.append(acc.terms[0])
        return PolyMap(inner.in_dim, self.out_dim, tuple(rows))

    def stack(self, other: "PolyMap") -> "PolyMap":
        """Concatenate outputs of two maps sharing one input space."""
        if other.in_dim != self.in_dim:
            raise ValueError("stack needs matching input spaces")
        return PolyMap(self.in_dim, self.out_dim + other.out_dim, self.terms + other.terms)

    def to_table(self) -> list:
        return [[{"coeff": c, "exponents": list(e)} for c, e in row] for row in self.terms]

    @staticmethod
    def from_table(in_dim: int, table: Sequence) -> "PolyMap":
        rows = []
        for row in table:
            rows.append([(entry["coeff"], tuple(entry["exponents"])) for entry in row])
        return PolyMap.from_terms(in_dim, rows)


def apply_poly(f: PolyMap, x: JetPoint) -> JetPoint:
    """Evaluate a polynomial map on a jet point: its nested-tangent extension."""
    return f.eval_jet(x)


# -- axiom suite -------------------------------------------------------------


def _random_jet(rng, dim: int, depth: int) -> JetPoint:
    rows = rng.uniform(-1.0, 1.0, size=(1 << depth, dim))
    return JetPoint.from_rows(depth, rows)


def _law_flip_involutive(x: JetPoint) -> float:
    return residual(flip_c(flip_c(x, 1, 2), 1, 2), x)


def _law_flip_braid(x: JetPoint) -> float:
    a = flip_c(flip_c(flip_c(x, 2, 3), 1, 2), 2, 3)
    b = flip_c(flip_c(flip_c(x, 1, 2), 2, 3), 1, 2)
    return residual(a, b)


def _law_lift_flip_fixed(x: JetPoint, lift=None) -> float:
    lift = lift or lift_l
    lx = lift(x, 1)
    return residual(flip_c(lx, 1, 2), lx)


def _law_lift_coassociative(x: JetPoint, lift=None) -> float:
    lift = lift or lift_l
    return residual(lift(lift(x, 1), 2), lift(lift(x, 1), 1))


def _law_lift_flip_exchange(x: JetPoint, lift=None) -> float:
    lift = lift or lift_l
    lhs = flip_c(flip_c(lift(x, 1), 2, 3), 1, 2)
    rhs = lift(flip_c(x, 1, 2), 2)
    return residual(lhs, rhs)


def _law_add_bundle(parts) -> float:
    """Commutative-monoid laws plus the interchange of the two additions."""
    x, y, z, w = parts
    zero = insert_zero(proj_p(x, 1), 1)
    # interchange over a compatible square rebuilt from the sampled material
    xq, yq, wq, zq = _interchange_square(x, y, z, w)
    return worst_of([
        # associativity and commutativity in direction 1 (x, y, z share non-1 slots)
        residual(add_tangent(add_tangent(x, y, 1), z, 1),
                 add_tangent(x, add_tangent(y, z, 1), 1)),
        residual(add_tangent(x, y, 1), add_tangent(y, x, 1)),
        # unit and inverse
        residual(add_tangent(x, zero, 1), x),
        residual(add_tangent(x, neg_tangent(x, 1), 1), zero),
        residual(add_tangent(add_tangent(xq, yq, 2), add_tangent(wq, zq, 2), 1),
                 add_tangent(add_tangent(xq, wq, 1), add_tangent(yq, zq, 1), 2)),
    ])


def _interchange_square(x, y, z, w):
    """Rebuild four depth-2 jets sharing the slots the interchange law needs:
    all share mask 0; (x, y) and (w, z) share mask 1; (x, w) and (y, z) share mask 2."""
    rx, ry, rz, rw = x.to_rows(), y.to_rows(), z.to_rows(), w.to_rows()
    q = rx[0]
    r1, r2 = rx[1], rw[1]
    s1, s2 = rx[2], rw[2]
    xq = JetPoint.from_rows(2, [q, r1, s1, rx[3]])
    yq = JetPoint.from_rows(2, [q, r1, s2, ry[3]])
    wq = JetPoint.from_rows(2, [q, r2, s1, rw[3]])
    zq = JetPoint.from_rows(2, [q, r2, s2, rz[3]])
    return xq, yq, wq, zq


def _law_lift_zero_additive(pair, lift=None) -> float:
    lift = lift or lift_l
    x, y = pair
    base = proj_p(x, 1)
    return worst_of([
        residual(lift(add_tangent(x, y, 1), 1), add_tangent(lift(x, 1), lift(y, 1), 2)),
        residual(lift(insert_zero(base, 1), 1), insert_zero(insert_zero(base, 1), 2)),
    ])


def _law_flip_id_additive(pair) -> float:
    x, y = pair
    z = proj_p(x, 2)
    return worst_of([
        residual(flip_c(add_tangent(x, y, 2), 1, 2),
                 add_tangent(flip_c(x, 1, 2), flip_c(y, 1, 2), 1)),
        residual(flip_c(insert_zero(z, 2), 1, 2), insert_zero(z, 1)),
    ])


def check_tangent_axioms(samples: int = 200, seed: int = 0) -> Report:
    """Evaluate the structural laws of nested tangents on random jets.

    Covered: the flip is involutive and braided, the three vertical-lift laws,
    the fibered-addition bundle laws with the interchange of the two
    additions, and additivity of (lift, zero) and (flip, identity).
    """
    rng = np.random.default_rng(seed)
    report = Report()
    dims = [int(d) for d in rng.integers(1, 4, size=samples)]

    def law(name, depth, fn, make=None):
        if make is None:
            inputs = [_random_jet(rng, dims[i], depth) for i in range(samples)]
        else:
            inputs = [make(rng, dims[i]) for i in range(samples)]
        report.add(run_check(name, inputs, fn, tolerance=1e-12, seed=seed,
                             serialize=_serialize_law_input))

    law("flip-involutive", 2, _law_flip_involutive)
    law("flip-braid", 3, _law_flip_braid)
    law("lift-flip-fixed", 2, _law_lift_flip_fixed)
    law("lift-coassociative", 1, _law_lift_coassociative)
    law("lift-flip-exchange", 2, _law_lift_flip_exchange)

    def make_add_square(rng, dim):
        # x, y, z share every non-direction-1 slot (monoid laws); w is fresh
        # apart from the common base and supplies the second interchange row.
        q = list(rng.uniform(-1, 1, size=dim))
        s = list(rng.uniform(-1, 1, size=dim))

        def variant_dir1():
            return JetPoint.from_rows(
                2, [q, list(rng.uniform(-1, 1, size=dim)), s,
                    list(rng.uniform(-1, 1, size=dim))]
            )

        x, y, z = variant_dir1(), variant_dir1(), variant_dir1()
        w = JetPoint.from_rows(2, [q] + [list(rng.uniform(-1, 1, size=dim)) for _ in range(3)])
        return (x, y, z, w)

    law("add-bundle-laws", 2, _law_add_bundle, make=make_add_square)

    def make_add_pair(rng, dim):
        base = _random_jet(rng, dim, 1)
        rows = base.to_rows()
        other = JetPoint.from_rows(1, [rows[0], list(rng.uniform(-1, 1, size=dim))])
        return (base, other)

    law("lift-zero-additive", 1, _law_lift_zero_additive, make=make_add_pair)

    def make_add_pair_dir2(rng, dim):
        base = _random_jet(rng, dim, 2)
        rows = base.to_rows()
        other = JetPoint.from_rows(
            2, [rows[0], rows[1], list(rng.uniform(-1, 1, size=dim)),
                list(rng.uniform(-1, 1, size=dim))]
        )
        return (base, other)

    law("flip-id-additive", 2, _law_flip_id_additive, make=make_add_pair_dir2)
    return report


def _serialize_law_input(x) -> object:
    if isinstance(x, JetPoint):
        return {"depth": x.depth, "coeff_rows": x.to_rows()}
    if isinstance(x, tuple):
        return [_serialize_law_input(p) for p in x]
    return repr(x)
