"""Reference forms of the structure functions C for the tests.

reference_c_tensor is the full tensor C[k, i, j] that AlgebroidSpec.c_tensor
used to build before every reading of C went through the one kernel
AlgebroidSpec._c_apply: the stored pairs i < j copied to (i, j) and negated
at (j, i), the diagonal zero.  The fiber equation of a transport must
reproduce its contraction with a fiber vector bit for bit.

c_on_basis reads the same tensor through the public c_apply, one basis pair
(e_i, e_j) per entry.
"""

import numpy as np


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
