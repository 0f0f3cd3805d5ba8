"""Truncated nested-tangent arithmetic: square-free jets of depth up to 3.

A depth-d jet stores 2**d coefficients indexed by subsets S of the direction
set {1, ..., d}.  Bit (i - 1) of the coefficient index is set exactly when
direction i belongs to S, and the jet represents

    sum_S  coeffs[S] * prod_{i in S} eps_i        with  eps_i ** 2 = 0.

A JetPoint holds the jets of all its coordinates in one read-only float
array of shape (2**d, *batch, dim): the mask axis leads, the coordinates
come last, and any axes between them are batch axes, one jet per entry.  A
law checked on N random samples evaluates all of them at once on jets of
shape (2**d, N, dim) (vector forward mode); an unbatched jet is
(2**d, dim).  A JetScalar is the one-coordinate case.  The structural maps
below are gathers on the mask axis and act on every batch entry alike;
take, concat and the coordinate blocks act on the last axis.  residual
folds a whole jet into one number, residuals one number per batch entry.

Nesting convention.  Direction 1 carries the projection p of the outer
tangent: dropping direction 1 realizes p on nested tangents, dropping
direction 2 realizes T(p), direction 3 realizes T(T(p)).  The same indexing
rule applies across the structural maps: flip_c on directions (1, 2) is the
canonical flip c and on (2, 3) is T(c); lift_l splits direction 1 (pass
direction=2 for T of the lift); add_tangent in direction 1 is the fibered
addition of the outer tangent, direction 2 the addition T carries.

The product (hyper-dual numbers) is a subset convolution over the mask axis,
c[U] = sum of a[S] b[U - S] over the subsets S of U, taken in an order that
does not depend on how the directions are labelled: each complementary pair
a[S] b[U - S] + a[U - S] b[S] is added first, the sum starts with the pair
{empty, U}, and the remaining pair sums follow in increasing order of value.
A relabeling maps pairs to pairs and permutes only the sorted summands, so
the permutation and lift laws hold exactly in floating point, not merely
accurately.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .report import Report, _fold, worst_of

MAX_DEPTH = 3

_ADD_COMPAT_TOL = 1e-12


@lru_cache(maxsize=None)
def _product_table(depth: int) -> tuple:
    """Index arrays of the product at one depth.  s, t list every
    complementary pair S < T of a nonempty mask U = S | T; for each U in
    increasing order, first is the position of its pair {empty, U} and rest
    the positions of its other pairs, padded with len(s), an all-zero sum."""
    s, t, first, rest = [], [], [], []
    for u in range(1, 1 << depth):
        at = []
        for sub in range(u):
            if sub & u == sub and sub < u ^ sub:
                at.append(len(s))
                s.append(sub)
                t.append(u ^ sub)
        first.append(at[0])
        rest.append(at[1:])
    width = max(map(len, rest))
    rest = [r + [len(s)] * (width - len(r)) for r in rest]
    as_index = lambda xs: _frozen(np.array(xs, dtype=np.intp))
    return as_index(s), as_index(t), as_index(first), as_index(rest).reshape(len(rest), width)


def _product(a: np.ndarray, b: np.ndarray, mul=np.multiply) -> np.ndarray:
    """Product of two jets whose leading axis is the mask axis; mul combines
    two coefficients (np.matmul for matrix jets) and broadcasts any trailing
    axes, batch axes included, so each batch entry gets the bits of its own
    product.  Summed in the relabeling-invariant order of the module
    docstring."""
    if len(a) != len(b):
        raise ValueError("mixed jet depths %d and %d"
                         % (len(a).bit_length() - 1, len(b).bit_length() - 1))
    head = mul(a[:1], b[:1])
    if len(a) == 1:
        return head
    s, t, first, rest = _product_table(len(a).bit_length() - 1)
    pairs = mul(a[s], b[t]) + mul(a[t], b[s])
    acc = pairs[first]
    if rest.shape[1]:
        terms = np.concatenate((pairs, np.zeros_like(pairs[:1])))[rest]
        if rest.shape[1] > 1:
            terms = np.sort(terms, axis=1)
        for k in range(rest.shape[1]):
            acc = acc + terms[:, k]
    return np.concatenate((head, acc))


def _frozen(coeffs: np.ndarray) -> np.ndarray:
    coeffs.flags.writeable = False
    return coeffs


def _check_depth(depth: int, rows: int) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError("depth must be between 0 and %d" % MAX_DEPTH)
    if rows != 1 << depth:
        raise ValueError("depth %d needs %d coefficients, got %d" % (depth, 1 << depth, rows))


class JetScalar:
    """One truncated nested-tangent number: a one-coordinate jet."""

    __slots__ = ("depth", "_c")

    def __init__(self, depth: int, coeffs: Iterable[float]):
        c = np.array([float(x) for x in coeffs], dtype=float)
        _check_depth(depth, len(c))
        self.depth = depth
        self._c = _frozen(c)

    @classmethod
    def _of(cls, c: np.ndarray) -> "JetScalar":
        out = object.__new__(cls)
        out.depth = len(c).bit_length() - 1
        out._c = c
        return out

    @staticmethod
    def constant(value: float, depth: int = 0) -> "JetScalar":
        return JetScalar(depth, [float(value)] + [0.0] * ((1 << depth) - 1))

    @property
    def coeffs(self) -> tuple:
        return tuple(self._c.tolist())

    @property
    def value(self) -> float:
        return float(self._c[0])

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, JetScalar):
            if other.depth != self.depth:
                raise ValueError("mixed jet depths %d and %d" % (self.depth, other.depth))
            return other._c
        return JetScalar.constant(float(other), self.depth)._c

    def __add__(self, other) -> "JetScalar":
        return JetScalar._of(self._c + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "JetScalar":
        return JetScalar._of(self._c - self._coerce(other))

    def __rsub__(self, other) -> "JetScalar":
        return JetScalar._of(self._coerce(other) - self._c)

    def __neg__(self) -> "JetScalar":
        return JetScalar._of(-self._c)

    def __mul__(self, other) -> "JetScalar":
        if not isinstance(other, JetScalar):
            return JetScalar._of(self._c * float(other))
        return JetScalar._of(_product(self._c, self._coerce(other)))

    def __rmul__(self, other) -> "JetScalar":
        return JetScalar._of(float(other) * self._c)

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
    """A point of a coordinate space with every coordinate a jet, or a batch
    of such points: coeffs has shape (2**depth, *batch, dim), row S holding
    the eps_S coefficients."""

    __slots__ = ("depth", "coeffs")

    def __init__(self, entries: Sequence[JetScalar], depth: int = None):
        entries = tuple(entries)
        if entries:
            d = entries[0].depth
            if any(e.depth != d for e in entries):
                raise ValueError("jet point entries must share one depth")
            if depth is not None and depth != d:
                raise ValueError("declared depth %d does not match entries" % depth)
            depth, coeffs = d, np.stack([e._c for e in entries], axis=1)
        else:
            depth = 0 if depth is None else depth
            coeffs = np.zeros((1 << depth, 0))
        self.depth = depth
        self.coeffs = _frozen(coeffs)

    @classmethod
    def _of(cls, coeffs: np.ndarray) -> "JetPoint":
        """Wrap a (2**d, *batch, dim) array the caller hands over for good."""
        out = object.__new__(cls)
        out.depth = len(coeffs).bit_length() - 1
        coeffs.flags.writeable = False
        out.coeffs = coeffs
        return out

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def entries(self) -> tuple:
        return tuple(JetScalar._of(self.coeffs[..., i]) for i in range(self.dim))

    @staticmethod
    def from_rows(depth: int, rows: Sequence[Sequence[float]]) -> "JetPoint":
        """Build from one coefficient row per subset mask (2**depth rows); a
        row of shape (*batch, dim) gives a batch of jets."""
        try:
            coeffs = np.array(rows, dtype=float)
        except ValueError:
            raise ValueError("ragged coefficient rows") from None
        if coeffs.ndim < 2:
            raise ValueError("ragged coefficient rows")
        _check_depth(depth, len(coeffs))
        return JetPoint._of(coeffs)

    @staticmethod
    def constant(vec: Sequence[float], depth: int = 0) -> "JetPoint":
        """The jet with value vec, shape (*batch, dim), and no derivatives."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim == 0:
            vec = vec.reshape(1)
        _check_depth(depth, 1 << depth)
        coeffs = np.zeros((1 << depth,) + vec.shape)
        coeffs[0] = vec
        return JetPoint._of(coeffs)

    def row(self, mask: int) -> np.ndarray:
        return self.coeffs[mask].copy()

    def to_rows(self) -> list:
        return self.coeffs.tolist()

    @property
    def base(self) -> np.ndarray:
        return self.row(0)

    def take(self, start: int, stop: int) -> "JetPoint":
        return JetPoint._of(self.coeffs[..., start:stop])

    def concat(self, other: "JetPoint") -> "JetPoint":
        if other.depth != self.depth:
            raise ValueError("mixed jet depths in concat")
        return JetPoint._of(np.concatenate((self.coeffs, other.coeffs), axis=-1))

    def _same_shape(self, other: "JetPoint") -> None:
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape mismatch: depth %d/%d dim %d/%d"
                             % (self.depth, other.depth, self.dim, other.dim))

    def __add__(self, other: "JetPoint") -> "JetPoint":
        """Coordinatewise sum in every mask (the linear structure of jets)."""
        self._same_shape(other)
        return JetPoint._of(self.coeffs + other.coeffs)

    def __sub__(self, other: "JetPoint") -> "JetPoint":
        self._same_shape(other)
        return JetPoint._of(self.coeffs - other.coeffs)

    def map_coeffs(self, index_map) -> "JetPoint":
        """index_map: new mask -> old mask or None (zero); shared by all entries."""
        index, zeros = _gather(tuple(index_map))
        out = self.coeffs[index]
        if zeros is not None:
            out[zeros] = 0.0
        return JetPoint._of(out)

    def __repr__(self) -> str:
        return "JetPoint(depth=%d, dim=%d)" % (self.depth, self.dim)


def residual(x: JetPoint, y: JetPoint) -> float:
    """Largest absolute coefficient difference between two jet points; NaN
    when any difference is NaN, so a non-finite jet never matches."""
    x._same_shape(y)
    return float(np.abs(x.coeffs - y.coeffs).max(initial=0.0))


def residuals(x: JetPoint, y: JetPoint) -> np.ndarray:
    """residual for each batch entry: the largest absolute difference over
    the masks and the coordinates, NaN when any of them is NaN."""
    x._same_shape(y)
    return np.abs(x.coeffs - y.coeffs).max(axis=(0, -1), initial=0.0)


def _max_abs(diff) -> np.ndarray:
    """Largest absolute entry along the last axis, one per leading index;
    NaN when any entry is NaN, 0.0 for an empty axis."""
    return np.abs(diff).max(axis=-1, initial=0.0)


# -- structural maps ---------------------------------------------------------


@lru_cache(maxsize=None)
def _gather(index_map: tuple) -> tuple:
    """A mask map as a row gather: source rows, and the rows set to zero
    (None when there are none)."""
    index = np.array([0 if m is None else m for m in index_map], dtype=np.intp)
    zeros = np.array([m is None for m in index_map], dtype=bool)
    return _frozen(index), _frozen(zeros) if zeros.any() else None


# Each map sends a new mask to the old mask it reads, or to None for a zero.


@lru_cache(maxsize=None)
def _proj_map(depth: int, direction: int) -> tuple:
    k = direction - 1
    return tuple((m >> k << (k + 1)) | (m & ((1 << k) - 1)) for m in range(1 << (depth - 1)))


@lru_cache(maxsize=None)
def _insert_map(depth: int, direction: int) -> tuple:
    k = direction - 1
    return tuple(None if m >> k & 1 else (m >> (k + 1) << k) | (m & ((1 << k) - 1))
                 for m in range(2 << depth))


@lru_cache(maxsize=None)
def _flip_map(depth: int, i: int, j: int) -> tuple:
    both = (1 << (i - 1)) | (1 << (j - 1))
    return tuple(m ^ both if (m & both) not in (0, both) else m for m in range(1 << depth))


@lru_cache(maxsize=None)
def _lift_map(depth: int, direction: int) -> tuple:
    # the pair of directions k + 1, k + 2 reads direction k + 1 when both are
    # present, the base when neither is, and nothing otherwise
    k = direction - 1
    return tuple(None if (m >> k & 3) in (1, 2)
                 else (m >> (k + 2) << (k + 1)) | (m >> (k + 1) & 1) << k | (m & ((1 << k) - 1))
                 for m in range(2 << depth))


def _with_bit(x: JetPoint, direction: int) -> np.ndarray:
    """Which masks of x contain one direction, shaped to broadcast against
    its coefficients."""
    bits = np.arange(1 << x.depth) & (1 << (direction - 1)) != 0
    return bits.reshape((-1,) + (1,) * (x.coeffs.ndim - 1))


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
    if x.coeffs.shape != y.coeffs.shape:
        raise ValueError("addition needs matching jet shapes")
    if not 1 <= direction <= x.depth:
        raise ValueError("no direction %d in a depth-%d jet" % (direction, x.depth))
    moving = _with_bit(x, direction)
    gap = float(np.abs(np.where(moving, 0.0, x.coeffs - y.coeffs)).max(initial=0.0))
    if not gap <= tol:
        raise ValueError("incompatible summands: shared coefficient differs by %g" % gap)
    return JetPoint._of(np.where(moving, x.coeffs + y.coeffs, x.coeffs))


def sub_tangent(x: JetPoint, y: JetPoint, direction: int = 1, tol: float = _ADD_COMPAT_TOL) -> JetPoint:
    """Fibered subtraction in one direction (inverse of add_tangent)."""
    return add_tangent(x, neg_tangent(y, direction), direction, tol)


def neg_tangent(x: JetPoint, direction: int = 1) -> JetPoint:
    """Fiberwise negation in one direction."""
    return JetPoint._of(np.where(_with_bit(x, direction), -x.coeffs, x.coeffs))


def split_innermost(x: JetPoint):
    """View a depth-d jet as a depth-(d-1) jet of value/velocity pairs along the
    innermost direction d.  Returns (value, velocity)."""
    if x.depth < 1:
        raise ValueError("cannot split a depth-0 jet")
    # the innermost direction is the high bit: value and velocity are the
    # two halves of the mask axis
    half = 1 << (x.depth - 1)
    return JetPoint._of(x.coeffs[:half]), JetPoint._of(x.coeffs[half:])


def join_innermost(value: JetPoint, velocity: JetPoint) -> JetPoint:
    """Inverse of split_innermost: attach a velocity along a new innermost direction."""
    if value.coeffs.shape != velocity.coeffs.shape:
        raise ValueError("join needs matching jet shapes")
    if value.depth + 1 > MAX_DEPTH:
        raise ValueError("depth cap %d exceeded" % MAX_DEPTH)
    return JetPoint._of(np.concatenate((value.coeffs, velocity.coeffs)))


# -- polynomial maps ---------------------------------------------------------


def _exponent(e) -> int:
    """e as an int when it has an integer value: 2 or 2.0, not 1.5."""
    if int(e) != e:
        raise ValueError("non-integer exponent %r" % (e,))
    return int(e)


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map between coordinate spaces.

    terms[k] lists (coefficient, exponent-tuple) pairs for output k, one row
    per output; exponent tuples hold one nonnegative integer per input
    coordinate.  Construction rejects a wrong row count, arity or an exponent
    that is negative or not an integer; from_terms turns 2.0 into 2.

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
        if len(self.terms) != self.out_dim:
            raise ValueError("%d rows of terms for %d outputs" % (len(self.terms), self.out_dim))
        arity = self.in_dim
        for row in self.terms:
            for _, exps in row:
                if len(exps) != arity:
                    raise ValueError("exponent tuple arity does not match in_dim")
                for e in exps:
                    if not (e >= 0 and e % 1 == 0):
                        raise ValueError("negative or non-integer exponent in %r" % (exps,))

    @staticmethod
    def from_terms(in_dim: int, rows: Sequence[Sequence[tuple]]) -> "PolyMap":
        frozen = tuple(
            tuple((float(c), tuple(_exponent(e) for e in exps)) for c, exps in row) for row in rows
        )
        return PolyMap(in_dim, len(frozen), frozen)

    @staticmethod
    def zero(in_dim: int, out_dim: int) -> "PolyMap":
        return PolyMap(in_dim, out_dim, tuple(() for _ in range(out_dim)))

    @staticmethod
    def constant(values: Sequence[float], in_dim: int) -> "PolyMap":
        zero_exp = (0,) * in_dim
        rows = tuple(((float(v), zero_exp),) if float(v) != 0.0 else () for v in values)
        return PolyMap(in_dim, len(rows), rows)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap.linear(np.eye(n))

    @staticmethod
    def linear(matrix) -> "PolyMap":
        mat = np.asarray(matrix, dtype=float)
        out_dim, in_dim = mat.shape
        unit = [tuple(e) for e in np.eye(in_dim, dtype=int).tolist()]
        rows = tuple(tuple((float(c), unit[j]) for j, c in enumerate(row) if c != 0.0)
                     for row in mat)
        return PolyMap(in_dim, out_dim, rows)

    @property
    def degree(self) -> int:
        return max((sum(exps) for row in self.terms for _, exps in row), default=0)

    def eval_jet(self, x: JetPoint) -> JetPoint:
        """The nested-tangent extension: each term is its input powers,
        multiplied in input order, times its coefficient, and is added into
        its own output in term order.  Batch axes of x are kept."""
        if x.dim != self.in_dim:
            raise ValueError("input dim %d, expected %d" % (x.dim, self.in_dim))
        rows, coef, factors = self._compiled
        xs = x.coeffs
        mono = np.zeros(xs.shape[:-1] + (len(coef),))
        mono[0] = 1.0
        if factors:
            powers = np.zeros((max(int(exps.max()) for _, exps, _ in factors) + 1,) + xs.shape)
            powers[0, 0] = 1.0
            powers[1] = xs
            for e in range(2, len(powers)):
                powers[e] = _product(powers[e - 1], xs)
            for n, (i, exps, _) in enumerate(factors):
                power = np.moveaxis(powers[exps, ..., i], 0, -1)
                # a term skips the inputs it does not use
                mono = power if n == 0 else np.where(exps > 0, _product(mono, power), mono)
        out = np.zeros(xs.shape[:-1] + (self.out_dim,))
        lead = math.prod(xs.shape[:-1])
        np.add.at(out.reshape(lead, self.out_dim), (slice(None), rows),
                  (coef * mono).reshape(lead, len(coef)))
        return JetPoint._of(out)

    @cached_property
    def _compiled(self) -> tuple:
        """The terms as arrays, built once per map and read by eval_floats and
        eval_jet: the output row and the coefficient of every term, and for
        each input that occurs, its exponent in every term and the terms where
        that exponent is 2."""
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
        lower = lambda exps: tuple(exps[:i]) + (exps[i] - 1,) + tuple(exps[i + 1:])
        rows = tuple(tuple((c * e[i], lower(e)) for c, e in row if e[i]) for row in self.terms)
        return PolyMap(self.in_dim, self.out_dim, rows)

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


def apply_poly(f: PolyMap, x: JetPoint) -> JetPoint:
    """Evaluate a polynomial map on a jet point: its nested-tangent extension."""
    return f.eval_jet(x)


# -- axiom suite -------------------------------------------------------------
#
# Each law takes jets batched over the samples and returns one residual per
# sample.


def _random_rows(rng, dim: int, depth: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(1 << depth, dim))


def _random_jet(rng, dim: int, depth: int) -> JetPoint:
    return JetPoint.from_rows(depth, _random_rows(rng, dim, depth))


def _law_flip_involutive(x: JetPoint) -> np.ndarray:
    return residuals(flip_c(flip_c(x, 1, 2), 1, 2), x)


def _law_flip_braid(x: JetPoint) -> np.ndarray:
    a = flip_c(flip_c(flip_c(x, 2, 3), 1, 2), 2, 3)
    b = flip_c(flip_c(flip_c(x, 1, 2), 2, 3), 1, 2)
    return residuals(a, b)


def _law_lift_flip_fixed(x: JetPoint, lift=None) -> np.ndarray:
    lift = lift or lift_l
    lx = lift(x, 1)
    return residuals(flip_c(lx, 1, 2), lx)


def _law_lift_coassociative(x: JetPoint) -> np.ndarray:
    return residuals(lift_l(lift_l(x, 1), 2), lift_l(lift_l(x, 1), 1))


def _law_lift_flip_exchange(x: JetPoint) -> np.ndarray:
    lhs = flip_c(flip_c(lift_l(x, 1), 2, 3), 1, 2)
    rhs = lift_l(flip_c(x, 1, 2), 2)
    return residuals(lhs, rhs)


def _law_add_bundle(x, y, z, w) -> np.ndarray:
    """Commutative-monoid laws plus the interchange of the two additions."""
    zero = insert_zero(proj_p(x, 1), 1)
    # interchange over a compatible square rebuilt from the sampled material
    xq, yq, wq, zq = _interchange_square(x, y, z, w)
    return worst_of([
        # associativity and commutativity in direction 1 (x, y, z share non-1 slots)
        residuals(add_tangent(add_tangent(x, y, 1), z, 1),
                  add_tangent(x, add_tangent(y, z, 1), 1)),
        residuals(add_tangent(x, y, 1), add_tangent(y, x, 1)),
        # unit and inverse
        residuals(add_tangent(x, zero, 1), x),
        residuals(add_tangent(x, neg_tangent(x, 1), 1), zero),
        residuals(add_tangent(add_tangent(xq, yq, 2), add_tangent(wq, zq, 2), 1),
                  add_tangent(add_tangent(xq, wq, 1), add_tangent(yq, zq, 1), 2)),
    ])


def _interchange_square(x, y, z, w):
    """Rebuild four depth-2 jets sharing the slots the interchange law needs:
    all share mask 0; (x, y) and (w, z) share mask 1; (x, w) and (y, z) share mask 2."""
    q, r1, s1 = x.coeffs[:3]
    r2, s2 = w.coeffs[1:3]
    square = lambda r, s, p: JetPoint.from_rows(2, [q, r, s, p.coeffs[3]])
    return x, square(r1, s2, y), square(r2, s1, w), square(r2, s2, z)


def _law_lift_zero_additive(x, y) -> np.ndarray:
    base = proj_p(x, 1)
    return worst_of([
        residuals(lift_l(add_tangent(x, y, 1), 1), add_tangent(lift_l(x, 1), lift_l(y, 1), 2)),
        residuals(lift_l(insert_zero(base, 1), 1), insert_zero(insert_zero(base, 1), 2)),
    ])


def _law_flip_id_additive(x, y) -> np.ndarray:
    z = proj_p(x, 2)
    return worst_of([
        residuals(flip_c(add_tangent(x, y, 2), 1, 2),
                  add_tangent(flip_c(x, 1, 2), flip_c(y, 1, 2), 1)),
        residuals(flip_c(insert_zero(z, 2), 1, 2), insert_zero(z, 1)),
    ])


def check_tangent_axioms(samples: int = 200, seed: int = 0) -> Report:
    """Evaluate the structural laws of nested tangents on random jets.

    Covered: the flip is involutive and braided, the three vertical-lift laws,
    the fibered-addition bundle laws with the interchange of the two
    additions, and additivity of (lift, zero) and (flip, identity).

    Each sample is a tuple of coefficient arrays over its own dimension 1-3.
    A law evaluates all samples in one batch of jets over three coordinates,
    zero past each sample's own dimension: every law acts coordinatewise, so
    the padding adds nothing to a residual.
    """
    rng = np.random.default_rng(seed)
    report = Report()
    dims = [int(d) for d in rng.integers(1, 4, size=samples)]

    def law(name, fn, draw):
        inputs = [draw(dims[i]) for i in range(samples)]
        batch = []
        for part in zip(*inputs):
            padded = np.zeros((len(part[0]), samples, 3))
            for i, coeffs in enumerate(part):
                padded[:, i, :dims[i]] = coeffs
            batch.append(padded)

        evaluate = lambda rows: fn(*(JetPoint._of(p[:, rows]) for p in batch))
        serialize = lambda i: _serialize_law_input(inputs[i])
        report.add(_fold(name, samples, evaluate, 1e-12, seed, serialize))

    one_jet = lambda depth: lambda dim: (_random_rows(rng, dim, depth),)
    law("flip-involutive", _law_flip_involutive, one_jet(2))
    law("flip-braid", _law_flip_braid, one_jet(3))
    law("lift-flip-fixed", _law_lift_flip_fixed, one_jet(2))
    law("lift-coassociative", _law_lift_coassociative, one_jet(1))
    law("lift-flip-exchange", _law_lift_flip_exchange, one_jet(2))

    def draw_add_square(dim):
        # x, y, z share every non-direction-1 slot (monoid laws); w is fresh
        # apart from the common base and supplies the second interchange row.
        q, s = rng.uniform(-1, 1, size=(2, dim))
        x, y, z = (np.array([q, rng.uniform(-1, 1, dim), s, rng.uniform(-1, 1, dim)])
                   for _ in range(3))
        w = np.vstack(([q], rng.uniform(-1, 1, size=(3, dim))))
        return (x, y, z, w)

    law("add-bundle-laws", _law_add_bundle, draw_add_square)

    def draw_add_pair(dim):
        base = _random_rows(rng, dim, 1)
        return (base, np.array([base[0], rng.uniform(-1, 1, size=dim)]))

    law("lift-zero-additive", _law_lift_zero_additive, draw_add_pair)

    def draw_add_pair_dir2(dim):
        base = _random_rows(rng, dim, 2)
        fresh = rng.uniform(-1, 1, size=(2, dim))
        return (base, np.concatenate((base[:2], fresh)))

    law("flip-id-additive", _law_flip_id_additive, draw_add_pair_dir2)
    return report


def _serialize_law_input(parts: tuple) -> object:
    """A sample of one jet as {depth, coeff_rows}, of several as a list of them."""
    described = [{"depth": len(p).bit_length() - 1, "coeff_rows": p.tolist()} for p in parts]
    return described[0] if len(described) == 1 else described
