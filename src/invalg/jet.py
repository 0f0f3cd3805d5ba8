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
JetPoint is the public type at entry and return; the kernels behind it
(PolyMap._eval_coeffs, which shares eval_jet's memo, and _join) pass bare
coefficient arrays, so a computation wraps one JetPoint, where it returns.

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
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .report import Report, _fold, _Value, worst_of

MAX_DEPTH = 3

_ADD_COMPAT_TOL = 1e-12  # how far the shared coefficients of two summands may differ

# PolyMap.eval_jet keeps this many results per map, of inputs up to this size
_MEMO_ENTRIES = 16
_MEMO_BYTES = 4096


@lru_cache(maxsize=None)
def _product_table(depth: int) -> tuple:
    """The complementary pairs S < T = U - S of each mask U beyond its
    leading pair {empty, U}, at depth 2 or more.  st is s + t and ts is
    t + s, so a[st] b[ts] holds both products of every pair.  The masks
    with k such pairs form one group (masks, k), groups in increasing order
    of k, and a group's pairs follow each other mask by mask, in increasing
    order of S.  A group of one mask is a slice, which indexes a view."""
    extra = {u: [(sub, u ^ sub) for sub in range(1, u) if sub & u == sub and sub < u ^ sub]
             for u in range(1, 1 << depth)}
    groups, pairs = [], []
    for k in sorted({len(p) for p in extra.values()} - {0}):
        masks = [u for u in extra if len(extra[u]) == k]
        groups.append((slice(masks[0], masks[0] + 1) if len(masks) == 1
                       else _frozen(np.array(masks, dtype=np.intp)), k))
        pairs += [pair for u in masks for pair in extra[u]]
    s, t = zip(*pairs)
    as_index = lambda xs: _frozen(np.array(xs, dtype=np.intp))
    return as_index(s + t), as_index(t + s), tuple(groups)


def _product(a: np.ndarray, b: np.ndarray, mul=np.multiply) -> np.ndarray:
    """Product of two jets whose leading axis is the mask axis; mul combines
    two coefficients (np.matmul for matrix jets) and broadcasts any trailing
    axes, batch axes included, so each batch entry gets the bits of its own
    product.  Summed in the relabeling-invariant order of the module
    docstring."""
    if len(a) != len(b):
        raise ValueError("mixed jet depths %d and %d"
                         % (len(a).bit_length() - 1, len(b).bit_length() - 1))
    out = mul(a[:1], b)
    if not out.flags.c_contiguous:
        # numpy sums 8 or more contiguous entries pairwise and strided ones
        # in sequence: a C-ordered product is summed alike whatever the
        # layout of a and b
        out = np.ascontiguousarray(out)
    if len(a) > 1:
        # the leading pair {empty, U} of every nonempty mask U
        out[1:] += mul(a[1:], b[:1])
    if len(a) > 2:
        st, ts, groups = _product_table(len(a).bit_length() - 1)
        terms = mul(a[st], b[ts])
        pairs = terms[:len(st) // 2] + terms[len(st) // 2:]
        start = 0
        for masks, k in groups:
            acc = out[masks]
            stop = start + len(acc) * k
            block = pairs[start:stop].reshape((len(acc), k) + pairs.shape[1:])
            if k > 1:
                block = np.sort(block, axis=1)
            for j in range(k):
                acc += block[:, j]
            out[masks] = acc
            start = stop
        # +0.0 turns a zero of every mask but the empty and the full one
        # positive, as the zero-padded pair lists of the reference product
        # in the tests do
        out[1:-1] += 0.0
    return out


def _frozen(coeffs: np.ndarray) -> np.ndarray:
    coeffs.setflags(write=False)
    return coeffs


def _check_depth(depth: int, rows: int = None) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError("depth must be between 0 and %d" % MAX_DEPTH)
    if rows is not None and rows != 1 << depth:
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
        _check_depth(depth)
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
    the eps_S coefficients.  The public type at entry and return; the
    kernels pass the bare coeffs arrays among themselves."""

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
            _check_depth(depth)
            coeffs = np.zeros((1 << depth, 0))
        self.depth = depth
        self.coeffs = _frozen(coeffs)

    @classmethod
    def _of(cls, coeffs: np.ndarray) -> "JetPoint":
        """Wrap a (2**d, *batch, dim) array the caller hands over for good."""
        out = object.__new__(cls)
        out.depth = len(coeffs).bit_length() - 1
        coeffs.setflags(write=False)
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
        _check_depth(depth)
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
    return float(np.maximum.reduce(np.abs(x.coeffs - y.coeffs), axis=None, initial=0.0))


def residuals(x: JetPoint, y: JetPoint) -> np.ndarray:
    """residual for each batch entry: the largest absolute difference over
    the masks and the coordinates, NaN when any of them is NaN."""
    x._same_shape(y)
    return np.maximum.reduce(np.abs(x.coeffs - y.coeffs), axis=(0, -1), initial=0.0)


def _max_abs(diff) -> np.ndarray:
    """Largest absolute entry along the last axis, one per leading index;
    NaN when any entry is NaN, 0.0 for an empty axis."""
    return np.maximum.reduce(np.abs(diff), axis=-1, initial=0.0)


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


@lru_cache(maxsize=None)
def _with_bit(depth: int, direction: int, ndim: int) -> np.ndarray:
    """Which masks of a depth-d jet contain one direction, shaped to
    broadcast against coefficients of ndim axes."""
    bits = np.arange(1 << depth) & (1 << (direction - 1)) != 0
    return _frozen(bits.reshape((-1,) + (1,) * (ndim - 1)))


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


def promote(x: JetPoint) -> JetPoint:
    """Embed one level deeper: the new innermost direction carries zeros, so
    projecting it away recovers x."""
    return insert_zero(x, x.depth + 1)


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


def add_tangent(x: JetPoint, y: JetPoint, direction: int = 1) -> JetPoint:
    """Fibered addition in one direction: coefficients containing the direction
    add, the rest must agree within _ADD_COMPAT_TOL and are kept from x."""
    if x.coeffs.shape != y.coeffs.shape:
        raise ValueError("addition needs matching jet shapes")
    if not 1 <= direction <= x.depth:
        raise ValueError("no direction %d in a depth-%d jet" % (direction, x.depth))
    moving = _with_bit(x.depth, direction, x.coeffs.ndim)
    gap = float(np.maximum.reduce(np.abs(np.where(moving, 0.0, x.coeffs - y.coeffs)),
                                  axis=None, initial=0.0))
    if not gap <= _ADD_COMPAT_TOL:
        raise ValueError("incompatible summands: shared coefficient differs by %g" % gap)
    return JetPoint._of(np.where(moving, x.coeffs + y.coeffs, x.coeffs))


def sub_tangent(x: JetPoint, y: JetPoint, direction: int = 1) -> JetPoint:
    """Fibered subtraction in one direction (inverse of add_tangent)."""
    return add_tangent(x, neg_tangent(y, direction), direction)


def neg_tangent(x: JetPoint, direction: int = 1) -> JetPoint:
    """Fiberwise negation in one direction."""
    return JetPoint._of(np.where(_with_bit(x.depth, direction, x.coeffs.ndim),
                                 -x.coeffs, x.coeffs))


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
    return JetPoint._of(_join(value.coeffs, velocity.coeffs))


def _join(value: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """join_innermost on coefficient arrays."""
    if value.shape != velocity.shape:
        raise ValueError("join needs matching jet shapes")
    if len(value) << 1 > 1 << MAX_DEPTH:
        raise ValueError("depth cap %d exceeded" % MAX_DEPTH)
    return np.concatenate((value, velocity))


# -- polynomial maps ---------------------------------------------------------


def _exponent(e) -> int:
    """e as an int when it has an integer value: 2 or 2.0, not 1.5."""
    if int(e) != e:
        raise ValueError("non-integer exponent %r" % (e,))
    return int(e)


class PolyMap(_Value):
    """Polynomial map between coordinate spaces.

    terms[k] lists (coefficient, exponent-tuple) pairs for output k, one row
    per output; exponent tuples hold one nonnegative integer per input
    coordinate.  Construction rejects a wrong row count, arity or an exponent
    that is negative or not an integer; from_terms turns 2.0 into 2.

    The arithmetic operators return canonical rows: repeated exponents
    merged, terms sorted by exponent tuple, zero coefficients dropped.
    pm[i] (or a slice) selects outputs; a + b adds output by output; c * pm
    scales; a * b multiplies output by output, a one-output factor
    broadcasting against the other.  eval_jet is the one evaluator:
    eval_floats is its value row on constant jets.  Each map keeps the
    results of its last 16 distinct float inputs of at most 4 KiB and shares
    them read-only; a repeated evaluation repeats neither the work nor
    numpy's warnings.
    """

    _fields = ("in_dim", "out_dim", "terms")

    def __init__(self, in_dim: int, out_dim: int, terms: tuple):
        if len(terms) != out_dim:
            raise ValueError("%d rows of terms for %d outputs" % (len(terms), out_dim))
        for row in terms:
            for _, exps in row:
                if len(exps) != in_dim:
                    raise ValueError("exponent tuple arity does not match in_dim")
                for e in exps:
                    if not (e >= 0 and e % 1 == 0):
                        raise ValueError("negative or non-integer exponent in %r" % (exps,))
        self.__dict__.update(in_dim=in_dim, out_dim=out_dim, terms=terms)

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
        """The nested-tangent extension, the package's one polynomial
        evaluator: each term is its input powers (repeated products x * x),
        multiplied in input order, times its coefficient, and is added into
        its own output only, in term order, so an overflowing term cannot
        make another output NaN.  Batch axes of x are kept.

        The map keeps the results of its last 16 distinct float inputs of at
        most 4 KiB, keyed by the shape, dtype and bytes of the coefficients,
        and hands the same read-only JetPoint back for an equal input,
        repeating neither the work nor numpy's warnings.  Larger inputs and
        object arrays are evaluated every time."""
        return self._kept(x.coeffs) or JetPoint._of(self._evaluate(x.coeffs))

    def _eval_coeffs(self, xs: np.ndarray) -> np.ndarray:
        """eval_jet on bare coefficients (2**d, *batch, in_dim), through the
        same memo: a kept result comes back as its read-only array."""
        kept = self._kept(xs)
        return self._evaluate(xs) if kept is None else kept.coeffs

    def _kept(self, xs: np.ndarray) -> Optional[JetPoint]:
        """The memo's result for the coefficients xs, evaluated now if they
        are new; None for an input the memo does not keep."""
        if xs.shape[-1] != self.in_dim:
            raise ValueError("input dim %d, expected %d" % (xs.shape[-1], self.in_dim))
        if xs.dtype.kind != "f" or xs.nbytes > _MEMO_BYTES:
            return None
        key = (xs.shape, xs.dtype, xs.tobytes())
        memo = self._memo
        out = memo.get(key)
        if out is None:
            out = JetPoint._of(self._evaluate(xs))
            if len(memo) == _MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = out
        return out

    @cached_property
    def _memo(self) -> dict:
        """eval_jet's results by input key, oldest first."""
        return {}

    def _evaluate(self, xs: np.ndarray) -> np.ndarray:
        rows, coef, factors, top = self._compiled
        if factors:
            # exponent last, so powers[..., i, exps] is every term's factor
            powers = np.zeros(xs.shape + (top + 1,))
            powers[0, ..., 0] = 1.0
            powers[..., 1] = xs
            for e in range(2, top + 1):
                powers[..., e] = _product(powers[..., e - 1], xs)
            for n, (i, exps, used) in enumerate(factors):
                power = powers[..., i, exps]
                # a term skips the inputs it does not use
                mono = power if n == 0 else np.where(used, _product(mono, power), mono)
        else:
            mono = np.zeros(xs.shape[:-1] + (len(coef),))
            mono[0] = 1.0
        shape = xs.shape[:-1] + (self.out_dim,)
        size = math.prod(shape)
        if not (size and len(coef)):
            # np.bincount of no bins gives int64 zeros
            return np.zeros(shape)
        # bin (point, output): each adds its terms in term order from +0.0
        bins = (np.arange(0, size, self.out_dim)[:, None] + rows).ravel()
        return np.bincount(bins, (coef * mono).ravel(), size).reshape(shape)

    @cached_property
    def _compiled(self) -> tuple:
        """The terms as arrays, built once per map for eval_jet: the output
        row and the coefficient of every term, each input that occurs with
        its exponent in every term and the terms that use it, and the top
        exponent."""
        flat = [(k, c, e) for k, row in enumerate(self.terms) for c, e in row]
        rows = np.array([k for k, _, _ in flat], dtype=np.intp)
        coef = np.array([c for _, c, _ in flat], dtype=float)
        exps = np.array([e for _, _, e in flat], dtype=np.intp).reshape(len(flat), self.in_dim)
        factors = tuple((i, exps[:, i], exps[:, i] > 0)
                        for i in range(self.in_dim) if exps[:, i].any())
        return rows, coef, factors, int(exps.max(initial=0))

    def eval_floats(self, x) -> np.ndarray:
        """Evaluation at float points: x has shape (..., in_dim); returns
        (..., out_dim), the value row of eval_jet on the constant jet at x."""
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1:] != (self.in_dim,):
            raise ValueError("input shape %r, expected trailing %d" % (arr.shape, self.in_dim))
        return self._eval_coeffs(arr[None])[0].copy()

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


def _law_flip_involutive(x: JetPoint) -> np.ndarray:
    return residuals(flip_c(flip_c(x, 1, 2), 1, 2), x)


def _law_flip_braid(x: JetPoint) -> np.ndarray:
    a = flip_c(flip_c(flip_c(x, 2, 3), 1, 2), 2, 3)
    b = flip_c(flip_c(flip_c(x, 1, 2), 2, 3), 1, 2)
    return residuals(a, b)


def _law_lift_flip_fixed(x: JetPoint) -> np.ndarray:
    lx = lift_l(x, 1)
    return residuals(flip_c(lx, 1, 2), lx)


def _law_lift_coassociative(x: JetPoint) -> np.ndarray:
    return residuals(lift_l(lift_l(x, 1), 2), lift_l(lift_l(x, 1), 1))


def _law_lift_flip_exchange(x: JetPoint) -> np.ndarray:
    lhs = flip_c(flip_c(lift_l(x, 1), 2, 3), 1, 2)
    rhs = lift_l(flip_c(x, 1, 2), 2)
    return residuals(lhs, rhs)


def _law_add_bundle(x, y, z, yq, wq, zq) -> np.ndarray:
    """Commutative-monoid laws, and the interchange of the two additions on x, yq, wq, zq."""
    zero = insert_zero(proj_p(x, 1), 1)
    return worst_of([
        # associativity and commutativity in direction 1 (x, y, z share non-1 slots)
        residuals(add_tangent(add_tangent(x, y, 1), z, 1),
                  add_tangent(x, add_tangent(y, z, 1), 1)),
        residuals(add_tangent(x, y, 1), add_tangent(y, x, 1)),
        # unit and inverse
        residuals(add_tangent(x, zero, 1), x),
        residuals(add_tangent(x, neg_tangent(x, 1), 1), zero),
        residuals(add_tangent(add_tangent(x, yq, 2), add_tangent(wq, zq, 2), 1),
                  add_tangent(add_tangent(x, wq, 1), add_tangent(yq, zq, 1), 2)),
    ])


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


# Each law, with the rows of its draw table that each of its jets reads, mask by mask
_TANGENT_LAWS = (
    ("flip-involutive", _law_flip_involutive, [range(4)]),
    ("flip-braid", _law_flip_braid, [range(8)]),
    ("lift-flip-fixed", _law_lift_flip_fixed, [range(4)]),
    ("lift-coassociative", _law_lift_coassociative, [range(2)]),
    ("lift-flip-exchange", _law_lift_flip_exchange, [range(4)]),
    # x, y, z share masks 0 and 2 (rows 0 and 1), the slots without direction
    # 1; the square x, yq, wq, zq shares the base, (x, yq) and (wq, zq) share
    # mask 1, and (x, wq) and (yq, zq) share mask 2
    ("add-bundle-laws", _law_add_bundle,
     [[0, 2, 1, 3], [0, 4, 1, 5], [0, 6, 1, 7], [0, 2, 9, 5], [0, 8, 1, 10], [0, 8, 9, 7]]),
    # a depth-1 jet and a second velocity at its base
    ("lift-zero-additive", _law_lift_zero_additive, [[0, 1], [0, 2]]),
    # a depth-2 jet and a second one sharing its value and direction-1 slot
    ("flip-id-additive", _law_flip_id_additive, [[0, 1, 2, 3], [0, 1, 4, 5]]),
)


def check_tangent_axioms(samples: int = 200, seed: int = 0) -> Report:
    """Evaluate the structural laws of nested tangents on random jets.

    Covered: the flip is involutive and braided, the three vertical-lift laws,
    the fibered-addition bundle laws with the interchange of the two
    additions, and additivity of (lift, zero) and (flip, identity).

    Each law draws one table of shape (samples, rows, 2) and evaluates all
    samples in one batch: a jet of a sample reads its coefficient rows from
    the sample's rows of the table, two coordinates each.  A law is a
    function of those rows alone, so the jets its worst_input lists give its
    max_residual again.
    """
    rng = np.random.default_rng(seed)
    report = Report()
    for name, fn, parts in _TANGENT_LAWS:
        table = rng.uniform(-1, 1, (samples, 1 + max(map(max, parts)), 2))
        batch = [table[:, part].swapaxes(0, 1) for part in parts]
        evaluate = lambda rows: fn(*(JetPoint._of(p[:, rows]) for p in batch))
        serialize = lambda i: _serialize_law_input([table[i, part] for part in parts])
        report.add(_fold(name, samples, evaluate, 1e-12, seed, serialize))
    return report


def _serialize_law_input(parts: tuple) -> object:
    """A sample of one jet as {depth, coeff_rows}, of several as a list of them."""
    described = [{"depth": len(p).bit_length() - 1, "coeff_rows": p.tolist()} for p in parts]
    return described[0] if len(described) == 1 else described
