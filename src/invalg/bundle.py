"""Coordinate layer over a trivialized vector bundle R^dim_M x R^dim_A.

Points (AElement) and tangents (TAElement) of the total space, the strong
difference of two tangents that share both projections, polynomial
connections, sections and scalar fields, and the Lie derivative along an
anchored section.  The tangent structure itself (fibered additions, lift,
zero sections, flip) acts on jets and lives in jet.py.
"""

from __future__ import annotations

import itertools

import numpy as np

from .jet import JetPoint, PolyMap, _product, residual
from .report import _Frozen, _Value

_PROJ_TOL = 1e-9  # how far the shared projections of a strong difference may differ


def _vec(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError("expected a flat coordinate vector, got shape %r" % (arr.shape,))
    return arr


class AElement(_Frozen):
    """Point of the total space: base coordinates m, fiber coordinates a."""

    def __init__(self, m: np.ndarray, a: np.ndarray):
        self.__dict__.update(m=_vec(m), a=_vec(a))

    @property
    def dim_M(self) -> int:
        return self.m.size

    @property
    def dim_A(self) -> int:
        return self.a.size


class TAElement(_Frozen):
    """Tangent of the total space: (m, a) plus velocities (mdot, adot).

    Equivalently a depth-1 jet over the total-space coordinates; to_jet and
    from_jet convert.  The outer tangent projection keeps (m, a); the
    tangent of the bundle projection keeps (m, mdot).
    """

    def __init__(self, m: np.ndarray, a: np.ndarray, mdot: np.ndarray, adot: np.ndarray):
        m, a, mdot, adot = _vec(m), _vec(a), _vec(mdot), _vec(adot)
        if mdot.size != m.size or adot.size != a.size:
            raise ValueError("velocity blocks must match the point blocks")
        self.__dict__.update(m=m, a=a, mdot=mdot, adot=adot)

    @property
    def dim_M(self) -> int:
        return self.m.size

    @property
    def dim_A(self) -> int:
        return self.a.size

    def to_jet(self) -> JetPoint:
        value = np.concatenate([self.m, self.a])
        dot = np.concatenate([self.mdot, self.adot])
        return JetPoint.from_rows(1, [value, dot])

    @staticmethod
    def from_jet(j: JetPoint, dim_M: int) -> "TAElement":
        if j.depth != 1:
            raise ValueError("expected a depth-1 jet")
        value, dot = j.row(0), j.row(1)
        return TAElement(value[:dim_M], value[dim_M:], dot[:dim_M], dot[dim_M:])

    def p_proj(self) -> AElement:
        return AElement(self.m, self.a)

    def tpi_proj(self) -> tuple:
        return self.m.copy(), self.mdot.copy()


def ta_residual(x: TAElement, y: TAElement) -> float:
    """Largest absolute difference of two tangents, NaN when any is NaN."""
    return residual(x.to_jet(), y.to_jet())


def _check_shared(label: str, bx: np.ndarray, by: np.ndarray):
    if bx.size and not float(np.max(np.abs(bx - by))) <= _PROJ_TOL:
        raise ValueError("projection mismatch in %s: %g" % (label, float(np.max(np.abs(bx - by)))))


def strong_difference_jet(x: JetPoint, y: JetPoint, dim_M: int) -> np.ndarray:
    """Strong difference of two tangents given as depth-1 jets, batch axes
    kept.  Tangents sharing both projections (m, a) and (m, mdot) differ only
    in their adot slots, so the difference lands in the bundle as the fiber
    block adot_x - adot_y.  Raises unless every batch entry shares both
    projections within _PROJ_TOL (NaN never does)."""
    (x0, x1), (y0, y1) = x.coeffs, y.coeffs
    _check_shared("base m", x0[..., :dim_M], y0[..., :dim_M])
    _check_shared("fiber a", x0[..., dim_M:], y0[..., dim_M:])
    _check_shared("base velocity", x1[..., :dim_M], y1[..., :dim_M])
    return x1[..., dim_M:] - y1[..., dim_M:]


# -- connections -------------------------------------------------------------


class ConnectionSpec(_Value):
    """Polynomial Christoffel data for a full connection.

    gamma maps base coordinates to the flattened coefficient array with
    output index ((k*dim_M + alpha)*dim_A + j): k indexes the result fiber
    coordinate, alpha the base direction, j the input fiber coordinate.
    """

    _fields = ("dim_M", "dim_A", "gamma")

    def __init__(self, dim_M: int, dim_A: int, gamma: PolyMap):
        if gamma.in_dim != dim_M:
            raise ValueError("gamma must take base coordinates")
        if gamma.out_dim != dim_A * dim_M * dim_A:
            raise ValueError("gamma must emit dim_A*dim_M*dim_A coefficients")
        self.__dict__.update(dim_M=dim_M, dim_A=dim_A, gamma=gamma)

    @staticmethod
    def flat(dim_M: int, dim_A: int) -> "ConnectionSpec":
        return ConnectionSpec(dim_M, dim_A, PolyMap.zero(dim_M, dim_A * dim_M * dim_A))

    @staticmethod
    def random_poly(rng, dim_M: int, dim_A: int, degree: int = 1) -> "ConnectionSpec":
        """Random polynomial Christoffel data: every monomial of degree at most
        degree in every entry, with a coefficient uniform in [-0.5, 0.5]."""
        exps = [e for e in itertools.product(range(degree + 1), repeat=dim_M) if sum(e) <= degree]
        coeffs = rng.uniform(-0.5, 0.5, (dim_A * dim_M * dim_A, len(exps)))
        rows = tuple(tuple(zip(row.tolist(), exps)) for row in coeffs)
        return ConnectionSpec(dim_M, dim_A, PolyMap(dim_M, len(rows), rows))

    def apply(self, m, w, a) -> np.ndarray:
        """result_k = sum G[k, alpha, j] w_alpha a_j: the value row of apply_jet."""
        return self._apply(*(_vec(x)[None] for x in (m, w, a)))[0]

    def apply_jet(self, mj: JetPoint, wj: JetPoint, aj: JetPoint) -> JetPoint:
        """Same bilinear form with jet coordinates throughout, batch axes kept."""
        return JetPoint._of(self._apply(mj.coeffs, wj.coeffs, aj.coeffs))

    def _apply(self, m: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
        """apply_jet on coefficient arrays."""
        dm, da = self.dim_M, self.dim_A
        if m.shape[-1] != dm or w.shape[-1] != dm or a.shape[-1] != da:
            raise ValueError("jet block dims do not match the connection")
        lead = m.shape[:-1]
        gam = self.gamma._eval_coeffs(m).reshape(lead + (da, dm, da))
        terms = _product(_product(gam, w[..., None, :, None]), a[..., None, None, :])
        return np.add.reduce(terms.reshape(lead + (da, dm * da)), axis=-1)


# -- sections and scalar fields ----------------------------------------------


class SectionSpec(_Value):
    """Polynomial section of the bundle: base point to fiber vector."""

    _fields = ("x_poly",)

    def __init__(self, x_poly: PolyMap):
        self.__dict__.update(x_poly=x_poly)

    @property
    def dim_M(self) -> int:
        return self.x_poly.in_dim

    @property
    def dim_A(self) -> int:
        return self.x_poly.out_dim


class ScalarFieldSpec(_Value):
    """Polynomial scalar field on the base."""

    _fields = ("f_poly",)

    def __init__(self, f_poly: PolyMap):
        if f_poly.out_dim != 1:
            raise ValueError("scalar fields have one output")
        self.__dict__.update(f_poly=f_poly)

    @property
    def dim_M(self) -> int:
        return self.f_poly.in_dim


def lie_derivative(f: ScalarFieldSpec, X: SectionSpec, rho: PolyMap, m):
    """Derivative of f along the anchored section: push the anchored vector
    through the tangent of f and read off the velocity slot.  At a base
    point (dim_M,) a float; at each point of a batch (N, dim_M) an array."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        m = _vec(m)
    dim_M, dim_A = X.dim_M, X.dim_A
    if rho.out_dim != dim_M * dim_A or rho.in_dim != dim_M:
        raise ValueError("anchor shape does not match the section")
    v = (rho.eval_floats(m).reshape(m.shape[:-1] + (dim_M, dim_A))
         * X.x_poly.eval_floats(m)[..., None, :]).sum(axis=-1)
    tangent = JetPoint.from_rows(1, [m, v])
    out = f.f_poly.eval_jet(tangent).coeffs[1, ..., 0]
    return float(out) if out.ndim == 0 else out
