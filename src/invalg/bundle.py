"""Coordinate layer over a trivialized vector bundle R^dim_M x R^dim_A.

Tangent elements of the total space, the two fibered additions they carry,
the affine strong sum/difference along the combined projection, polynomial
connections with their vertical and horizontal projectors, and the
vector-field bracket computed through depth-2 jets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jet import JetPoint, PolyMap, _max_abs, _product, flip_c
from .report import worst_of

_PROJ_TOL = 1e-12


def _vec(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError("expected a flat coordinate vector, got shape %r" % (arr.shape,))
    return arr


@dataclass(frozen=True)
class AElement:
    """Point of the total space: base coordinates m, fiber coordinates a."""

    m: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _vec(self.m))
        object.__setattr__(self, "a", _vec(self.a))

    @property
    def dim_M(self) -> int:
        return self.m.size

    @property
    def dim_A(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class TAElement:
    """Tangent of the total space: (m, a) plus velocities (mdot, adot).

    Equivalently a depth-1 jet over the total-space coordinates; to_jet and
    from_jet convert.  The outer tangent projection keeps (m, a); the
    tangent of the bundle projection keeps (m, mdot).
    """

    m: np.ndarray
    a: np.ndarray
    mdot: np.ndarray
    adot: np.ndarray

    def __post_init__(self):
        for name in ("m", "a", "mdot", "adot"):
            object.__setattr__(self, name, _vec(getattr(self, name)))
        if self.mdot.size != self.m.size or self.adot.size != self.a.size:
            raise ValueError("velocity blocks must match the point blocks")

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


def a_residual(x: AElement, y: AElement) -> float:
    return worst_of(float(np.max(np.abs(bx - by), initial=0.0))
                    for bx, by in ((x.m, y.m), (x.a, y.a)))


def ta_residual(x: TAElement, y: TAElement) -> float:
    return float(ta_residuals(x.to_jet(), y.to_jet(), x.dim_M))


def ta_residuals(x: JetPoint, y: JetPoint, dim_M: int) -> np.ndarray:
    """ta_residual of tangents given as depth-1 jets, one per batch entry:
    the worst of the four blocks m, a, mdot, adot."""
    blocks = ((row[..., :dim_M], row[..., dim_M:]) for row in x.coeffs - y.coeffs)
    return worst_of(_max_abs(block) for pair in blocks for block in pair)


# -- sections and zero maps --------------------------------------------------


def xi_section(m, dim_A: int) -> AElement:
    """Zero section of the bundle itself."""
    return AElement(m, np.zeros(dim_A))


def zero_p(v: AElement) -> TAElement:
    """Zero of the outer tangent over a total-space point."""
    return TAElement(v.m, v.a, np.zeros(v.dim_M), np.zeros(v.dim_A))


def zero_tpi(m, mdot, dim_A: int) -> TAElement:
    """Zero of the projected-tangent bundle over a base tangent (m, mdot).
    This is also the tangent prolongation of the zero section."""
    return TAElement(m, np.zeros(dim_A), mdot, np.zeros(dim_A))


def lift_lambda(v: AElement) -> TAElement:
    """Fiber lift into the tangent of the total space: (m, a) -> (m, 0, 0, a)."""
    return TAElement(v.m, np.zeros(v.dim_A), np.zeros(v.dim_M), v.a)


def lambda_polymap(dim_M: int, dim_A: int) -> PolyMap:
    """The fiber lift as a polynomial map, for jet-level (tangent) evaluation."""
    n = dim_M + dim_A
    mat = np.zeros((2 * n, n))
    mat[:dim_M, :dim_M] = np.eye(dim_M)
    mat[n + dim_M:, dim_M:] = np.eye(dim_A)
    return PolyMap.linear(mat)


def section_polymap(X: PolyMap) -> PolyMap:
    """Graph map of a section: m -> (m, X(m))."""
    return PolyMap.identity(X.in_dim).stack(X)


def nest_tangent_pair(j: JetPoint, n: int) -> JetPoint:
    """Reshape a depth-1 jet over pair coordinates (value-block, dot-block)
    into a depth-2 jet over the n underlying coordinates."""
    if j.depth != 1 or j.dim != 2 * n:
        raise ValueError("expected a depth-1 jet over %d pair coordinates" % (2 * n))
    value, dot = j.row(0), j.row(1)
    return JetPoint.from_rows(2, [value[:n], dot[:n], value[n:], dot[n:]])


def flatten_tangent_pair(x: JetPoint) -> JetPoint:
    """Inverse of nest_tangent_pair."""
    if x.depth != 2:
        raise ValueError("expected a depth-2 jet")
    r0, r1, r2, r12 = (x.row(m) for m in range(4))
    return JetPoint.from_rows(1, [np.concatenate([r0, r2]), np.concatenate([r1, r12])])


# -- the two fibered additions ----------------------------------------------


def _check_shared(label: str, bx: np.ndarray, by: np.ndarray, tol: float):
    if bx.size and not float(np.max(np.abs(bx - by))) <= tol:
        raise ValueError("projection mismatch in %s: %g" % (label, float(np.max(np.abs(bx - by)))))


def _combine_in_fiber(x: TAElement, y: TAElement, which: str, tol: float, op) -> TAElement:
    if which == "p":
        _check_shared("base m", x.m, y.m, tol)
        _check_shared("fiber a", x.a, y.a, tol)
        return TAElement(x.m, x.a, op(x.mdot, y.mdot), op(x.adot, y.adot))
    if which == "Tpi":
        _check_shared("base m", x.m, y.m, tol)
        _check_shared("base velocity", x.mdot, y.mdot, tol)
        return TAElement(x.m, op(x.a, y.a), x.mdot, op(x.adot, y.adot))
    raise ValueError("which must be 'p' or 'Tpi', got %r" % (which,))


def add_in_fiber(x: TAElement, y: TAElement, which: str = "p", tol: float = _PROJ_TOL) -> TAElement:
    """Fibered addition: which="p" shares (m, a) and sums the velocities;
    which="Tpi" shares (m, mdot) and sums the fiber blocks."""
    return _combine_in_fiber(x, y, which, tol, np.add)


def sub_in_fiber(x: TAElement, y: TAElement, which: str = "p", tol: float = _PROJ_TOL) -> TAElement:
    """Fibered subtraction, the inverse of add_in_fiber in the same fiber."""
    return _combine_in_fiber(x, y, which, tol, np.subtract)


# -- affine structure along the combined projection --------------------------


def strong_difference(x: TAElement, y: TAElement, tol: float = _PROJ_TOL) -> AElement:
    """Difference of two tangents sharing both projections; lands in the bundle.

    Coordinate form of subtracting in the outer-tangent fiber and then
    removing the zero over the shared point: only the adot slots differ.
    """
    return AElement(x.m, strong_difference_jet(x.to_jet(), y.to_jet(), x.dim_M, tol))


def strong_difference_jet(x: JetPoint, y: JetPoint, dim_M: int,
                          tol: float = _PROJ_TOL) -> np.ndarray:
    """strong_difference of tangents given as depth-1 jets, batch axes kept:
    the fiber block of the difference, adot_x - adot_y.  Raises unless every
    batch entry shares both projections within tol."""
    (x0, x1), (y0, y1) = x.coeffs, y.coeffs
    _check_shared("base m", x0[..., :dim_M], y0[..., :dim_M], tol)
    _check_shared("fiber a", x0[..., dim_M:], y0[..., dim_M:], tol)
    _check_shared("base velocity", x1[..., :dim_M], y1[..., :dim_M], tol)
    return x1[..., dim_M:] - y1[..., dim_M:]


def strong_sum(x: TAElement, v: AElement, tol: float = _PROJ_TOL) -> TAElement:
    """Translate a tangent by a bundle element over the same base point."""
    _check_shared("base m", x.m, v.m, tol)
    return TAElement(x.m, x.a, x.mdot, x.adot + v.a)


# -- connections -------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionSpec:
    """Polynomial Christoffel data for a full connection.

    gamma maps base coordinates to the flattened coefficient array with
    output index ((k*dim_M + alpha)*dim_A + j): k indexes the result fiber
    coordinate, alpha the base direction, j the input fiber coordinate.
    """

    dim_M: int
    dim_A: int
    gamma: PolyMap

    def __post_init__(self):
        if self.gamma.in_dim != self.dim_M:
            raise ValueError("gamma must take base coordinates")
        if self.gamma.out_dim != self.dim_A * self.dim_M * self.dim_A:
            raise ValueError("gamma must emit dim_A*dim_M*dim_A coefficients")

    @staticmethod
    def flat(dim_M: int, dim_A: int) -> "ConnectionSpec":
        return ConnectionSpec(dim_M, dim_A, PolyMap.zero(dim_M, dim_A * dim_M * dim_A))

    @staticmethod
    def random_poly(rng, dim_M: int, dim_A: int, degree: int = 1, scale: float = 0.5,
                    lattice: int = 0) -> "ConnectionSpec":
        """Random polynomial Christoffel data; lattice > 0 snaps coefficients to
        multiples of 1/lattice so small-degree evaluations stay float-exact."""
        exps = [e for e in itertools.product(range(degree + 1), repeat=dim_M) if sum(e) <= degree]
        rows = []
        for _ in range(dim_A * dim_M * dim_A):
            row = []
            for e in exps:
                c = rng.uniform(-scale, scale)
                if lattice:
                    c = round(c * lattice) / lattice
                row.append((float(c), tuple(e)))
            rows.append(tuple(row))
        return ConnectionSpec(dim_M, dim_A, PolyMap(dim_M, len(rows), tuple(rows)))

    def gamma_tensor(self, m) -> np.ndarray:
        flat = self.gamma.eval_floats(_vec(m))
        return flat.reshape(self.dim_A, self.dim_M, self.dim_A)

    def apply(self, m, w, a) -> np.ndarray:
        """Evaluate the bilinear form: result_k = sum G[k, alpha, j] w_alpha a_j."""
        return np.einsum("kij,i,j->k", self.gamma_tensor(m), _vec(w), _vec(a))

    def apply_jet(self, mj: JetPoint, wj: JetPoint, aj: JetPoint) -> JetPoint:
        """Same bilinear form with jet coordinates throughout, batch axes kept."""
        if mj.dim != self.dim_M or wj.dim != self.dim_M or aj.dim != self.dim_A:
            raise ValueError("jet block dims do not match the connection")
        dm, da = self.dim_M, self.dim_A
        lead = mj.coeffs.shape[:-1]
        gam = self.gamma.eval_jet(mj).coeffs.reshape(lead + (da, dm, da))
        terms = _product(_product(gam, wj.coeffs[..., None, :, None]),
                         aj.coeffs[..., None, None, :])
        return JetPoint._of(terms.reshape(lead + (da, dm * da)).sum(axis=-1))


def connection_K(c: ConnectionSpec, x: TAElement) -> AElement:
    """Vertical projector: retraction of the fiber lift."""
    return AElement(x.m, x.adot + c.apply(x.m, x.mdot, x.a))


def connection_H(c: ConnectionSpec, v: AElement, w) -> TAElement:
    """Horizontal lift of a base tangent w through the point v."""
    w = _vec(w)
    if w.size != v.dim_M:
        raise ValueError("base tangent has dimension %d, expected %d" % (w.size, v.dim_M))
    return TAElement(v.m, v.a, w, -c.apply(v.m, w, v.a))


# -- vector fields -----------------------------------------------------------


def vf_bracket(X: PolyMap, Y: PolyMap):
    """Bracket of two polynomial vector fields on R^k, via depth-2 jets.

    Returns an evaluator m -> bracket vector.  The two prolonged sections are
    assembled as depth-2 jets, one of them flipped, and their strong
    difference is taken; pointwise this equals DY.X - DX.Y.
    """
    k = X.in_dim
    if X.out_dim != k or Y.in_dim != k or Y.out_dim != k:
        raise ValueError("vector fields must map a space to itself")
    graph_X = section_polymap(X)
    graph_Y = section_polymap(Y)

    def evaluate(m) -> np.ndarray:
        m = _vec(m)
        x_pt = JetPoint.from_rows(1, [m, X.eval_floats(m)])
        y_pt = JetPoint.from_rows(1, [m, Y.eval_floats(m)])
        along_x = nest_tangent_pair(graph_Y.eval_jet(x_pt), k)
        # flattened, the flipped depth-2 jet is a tangent of the tangent space
        first = flatten_tangent_pair(flip_c(along_x, 1, 2))
        return strong_difference_jet(first, graph_X.eval_jet(y_pt), k, tol=1e-9)

    return evaluate


def vf_bracket_poly(X: PolyMap, Y: PolyMap) -> PolyMap:
    """The same bracket as exact polynomial algebra: sum_j dY/dx_j X_j - dX/dx_j Y_j.

    Independent of the jet pathway; used to cross-check it and to nest brackets.
    """
    k = X.in_dim
    if X.out_dim != k or Y.in_dim != k or Y.out_dim != k:
        raise ValueError("vector fields must map a space to itself")
    return sum((Y.partial(j) * X[j] - X.partial(j) * Y[j] for j in range(k)),
               PolyMap.zero(k, k))


@dataclass(frozen=True)
class SectionSpec:
    """Polynomial section of the bundle: base point to fiber vector."""

    x_poly: PolyMap

    @property
    def dim_M(self) -> int:
        return self.x_poly.in_dim

    @property
    def dim_A(self) -> int:
        return self.x_poly.out_dim

    def eval(self, m) -> np.ndarray:
        return self.x_poly.eval_floats(_vec(m))


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Polynomial scalar field on the base."""

    f_poly: PolyMap

    def __post_init__(self):
        if self.f_poly.out_dim != 1:
            raise ValueError("scalar fields have one output")

    @property
    def dim_M(self) -> int:
        return self.f_poly.in_dim

    def eval(self, m) -> float:
        return float(self.f_poly.eval_floats(_vec(m))[0])


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
    rho_mat = rho.eval_floats(m).reshape(m.shape[:-1] + (dim_M, dim_A))
    v = np.matmul(rho_mat, X.x_poly.eval_floats(m)[..., None])[..., 0]
    tangent = JetPoint.from_rows(1, [m, v])
    out = f.f_poly.eval_jet(tangent).coeffs[1, ..., 0]
    return float(out) if out.ndim == 0 else out
