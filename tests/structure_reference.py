"""Reference forms of an algebroid's structure for the tests.

reference_c_tensor is the full tensor C[k, i, j] that AlgebroidSpec.c_tensor
used to build before every reading of C went through the one kernel
AlgebroidSpec._c_apply: the stored pairs i < j copied to (i, j) and negated
at (j, i), the diagonal zero.  The fiber equation of a transport must
reproduce its contraction with a fiber vector bit for bit.

c_on_basis reads the same tensor through the public c_apply, one basis pair
(e_i, e_j) per entry.

leibniz_defect is the Leibniz rule of the induced bracket from public names
alone; the leibniz row of check_bracket_laws must reproduce it bit for bit.
"""

import numpy as np

from invalg import SectionSpec, bracket_from_flip, lie_derivative


def reference_c_tensor(spec, m) -> np.ndarray:
    """C[k, i, j] at a base point, or at each point of a (..., dim_M) batch."""
    m = np.asarray(m, dtype=float)
    da = spec.dim_A
    flat = spec.c_pairs.eval_floats(m).reshape(m.shape[:-1] + (da, len(spec.pairs)))
    first, second = np.array(spec.pairs, dtype=np.intp).reshape(-1, 2).T
    tensor = np.zeros(m.shape[:-1] + (da, da, da))
    tensor[..., first, second] = flat
    tensor[..., second, first] = -flat
    return tensor


def c_on_basis(spec, m) -> np.ndarray:
    """C[k, i, j] = C(m)(e_i, e_j)[k] at one base point, by one c_apply call."""
    eye = np.eye(spec.dim_A)
    return np.moveaxis(spec.c_apply(m, eye[:, None], eye[None, :]), -1, 0)


def leibniz_defect(inv, X, Y, f, m) -> np.ndarray:
    """Defect of [X, f Y] = f [X, Y] + (rho(X) f) Y at each point of a batch
    m (N, dim_M): the largest absolute entry of the difference, per point."""
    fy = SectionSpec(f.f_poly * Y.x_poly)
    expect = (f.f_poly.eval_floats(m) * bracket_from_flip(inv, X, Y)(m)
              + lie_derivative(f, X, inv, m)[:, None] * Y.x_poly.eval_floats(m))
    return np.max(np.abs(bracket_from_flip(inv, X, fy)(m) - expect), axis=-1, initial=0.0)
