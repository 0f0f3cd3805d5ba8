"""Reference jet product for the tests.

This is the hand-unrolled subset convolution that jet scalars used before
the array product: c[U] = sum of a[S] b[U - S] over the subsets S of U, with
every multi-term mask sum taken by math.fsum, so it is exactly rounded from
the rounded products.  It is slow and independent of invalg.jet.

padded_product is the array product that invalg.jet used before its direct
one: every complementary pair of a mask gathered, the pair lists padded with
zero sums to one width and sorted.  The direct product must reproduce its
bits, the sign of a zero and the position of a NaN included.
"""

import math
from functools import lru_cache

import numpy as np


def reference_product(a, b) -> tuple:
    """Product of two coefficient sequences of one depth, 0 to 3."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b) or len(a) not in (1, 2, 4, 8):
        raise ValueError("need two jets of one depth between 0 and 3")
    d = len(a).bit_length() - 1
    if d == 0:
        return (a[0] * b[0],)
    if d == 1:
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])
    if d == 2:
        return (
            a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[2] * b[0],
            math.fsum((a[0] * b[3], a[3] * b[0], a[1] * b[2], a[2] * b[1])),
        )
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[2] * b[0],
        math.fsum((a[0] * b[3], a[3] * b[0], a[1] * b[2], a[2] * b[1])),
        a[0] * b[4] + a[4] * b[0],
        math.fsum((a[0] * b[5], a[5] * b[0], a[1] * b[4], a[4] * b[1])),
        math.fsum((a[0] * b[6], a[6] * b[0], a[2] * b[4], a[4] * b[2])),
        math.fsum((a[0] * b[7], a[7] * b[0], a[1] * b[6], a[6] * b[1],
                   a[2] * b[5], a[5] * b[2], a[3] * b[4], a[4] * b[3])),
    )


class RefScalar:
    """A jet scalar multiplied by reference_product; numpy object arrays of
    these give a reference matrix-jet product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)

    def __add__(self, other):
        return RefScalar(x + y for x, y in zip(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return RefScalar(reference_product(self.coeffs, other.coeffs))


@lru_cache(maxsize=None)
def _padded_table(depth: int) -> tuple:
    """s, t list every complementary pair S < T of a nonempty mask U = S | T;
    for each U in increasing order, first is the position of its pair
    {empty, U} and rest the positions of its other pairs, padded with len(s),
    an all-zero sum."""
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
    return np.array(s), np.array(t), np.array(first), np.array(rest).reshape(len(rest), width)


def padded_product(a: np.ndarray, b: np.ndarray, mul=np.multiply) -> np.ndarray:
    """The jet product of two arrays with the mask axis first, summed in the
    relabeling-invariant order through zero-padded, sorted pair lists."""
    head = mul(a[:1], b[:1])
    if len(a) == 1:
        return head
    s, t, first, rest = _padded_table(len(a).bit_length() - 1)
    pairs = mul(a[s], b[t]) + mul(a[t], b[s])
    acc = pairs[first]
    if rest.shape[1]:
        terms = np.concatenate((pairs, np.zeros_like(pairs[:1])))[rest]
        if rest.shape[1] > 1:
            terms = np.sort(terms, axis=1)
        for k in range(rest.shape[1]):
            acc = acc + terms[:, k]
    return np.concatenate((head, acc))
