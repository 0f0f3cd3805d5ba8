"""Reference jet product for the tests.

This is the hand-unrolled subset convolution that jet scalars used before
the array product: c[U] = sum of a[S] b[U - S] over the subsets S of U, with
every multi-term mask sum taken by math.fsum, so it is exactly rounded from
the rounded products.  It is slow and independent of invalg.jet.
"""

import math


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
