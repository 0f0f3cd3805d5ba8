"""Matrix-group jets, the groupoid flip composite, and differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invalg import catalog
from invalg.algebroid import (
    AlgebroidSpec,
    involution_from_spec,
    sample_prolongation,
    spec_from_flip,
)
from invalg.groupoid import (
    MatrixGroupSpec,
    PairGroupoidSpec,
    _assemble4,
    diag_abelian_group,
    differentiate_group,
    differentiate_pair_groupoid,
    group_catalog,
    group_flip_slots,
    group_involution,
    pair_compose,
    pair_inverse,
    sl2_group,
    so3_group,
)
from invalg.jet import (
    JetPoint,
    JetScalar,
    PolyMap,
    _product,
    join_innermost,
    residual,
    split_innermost,
)
from jet_reference import RefScalar


def jet2(g, g1, g2, g12):
    """The depth-2 matrix jet of a second-order jet through a matrix group:
    base, the two first-order slots and the mixed slot, each (n, n)."""
    return _assemble4(*(np.asarray(m, dtype=float)[None] for m in (g, g1, g2, g12)))


def identity_jet2(n):
    z = np.zeros((n, n))
    return jet2(np.eye(n), z, z, z)


def mul(x, y):
    return _product(x, y, np.matmul)


def rand_jet2(rng, n, integer=False):
    if integer:
        draw = lambda: rng.integers(-3, 4, (n, n)).astype(float)
        g = np.eye(n) + np.triu(draw(), 1)  # unit determinant, exactly invertible
    else:
        draw = lambda: rng.uniform(-1, 1, (n, n))
        g = np.eye(n) + 0.3 * draw()
    return jet2(g, draw(), draw(), draw())


def max_slot_diff(x, y):
    return float(np.max(np.abs(x - y), initial=0.0))


# -- second-order jet arithmetic ----------------------------------------------
# A second-order jet is a depth-2 matrix jet whose two directions are its two
# parameters; the jet product with matmul is its truncated product.


def test_jet2_identity_is_two_sided_unit():
    rng = np.random.default_rng(0)
    x = rand_jet2(rng, 3)
    e = identity_jet2(3)
    assert max_slot_diff(mul(e, x), x) == 0.0
    assert max_slot_diff(mul(x, e), x) == 0.0


def test_jet2_mul_splits_mixed_slot():
    # one first-order factor in each direction multiplies out to the jet
    # whose mixed slot is the matrix product
    X = np.array([[0.0, 2.0], [1.0, 0.0]])
    Y = np.array([[1.0, 0.0], [3.0, -1.0]])
    e = np.eye(2)
    z = np.zeros((2, 2))
    out = mul(jet2(e, X, z, z), jet2(e, z, Y, z))
    assert np.array_equal(out[0], e)
    assert np.array_equal(out[1], X)
    assert np.array_equal(out[2], Y)
    assert np.array_equal(out[3], X @ Y)


def test_jet2_mul_associative():
    rng = np.random.default_rng(7)
    # integer entries make both association orders bitwise identical
    for _ in range(50):
        x, y, z = (rand_jet2(rng, 3, integer=True) for _ in range(3))
        assert max_slot_diff(mul(mul(x, y), z), mul(x, mul(y, z))) == 0.0
    for _ in range(20):
        x, y, z = (rand_jet2(rng, 3) for _ in range(3))
        assert max_slot_diff(mul(mul(x, y), z), mul(x, mul(y, z))) < 1e-12


def test_jet2_mul_size_mismatch():
    with pytest.raises(ValueError):
        mul(identity_jet2(2), identity_jet2(3))
    # a depth-2 jet against one with an inner direction as well
    z = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        mul(identity_jet2(2), _assemble4(np.eye(2)[None] + z, z, z, z))


def test_jet2_inv_first_order_slots():
    # e - eps X inverts e + eps X in either direction: the closed form the
    # group flip takes for (c0pw)^{-1}
    X = np.array([[0.0, 1.0], [-2.0, 0.0]])
    Y = np.array([[1.0, 1.0], [0.0, -1.0]])
    e = np.eye(2)
    z = np.zeros((2, 2))
    for x, x_inv in ((jet2(e, X, z, z), jet2(e, -X, z, z)),
                     (jet2(e, z, Y, z), jet2(e, z, -Y, z))):
        assert max_slot_diff(mul(x, x_inv), identity_jet2(2)) == 0.0
        assert max_slot_diff(mul(x_inv, x), identity_jet2(2)) == 0.0


def test_jet2_inv_mixed_slot():
    # over the identity base the mixed slot of the inverse picks up the
    # anticommutator correction; the product confirms it
    rng = np.random.default_rng(3)
    X = rng.integers(-2, 3, (3, 3)).astype(float)
    Y = rng.integers(-2, 3, (3, 3)).astype(float)
    Z = rng.integers(-2, 3, (3, 3)).astype(float)
    x = jet2(np.eye(3), X, Y, Z)
    inv = jet2(np.eye(3), -X, -Y, -Z + X @ Y + Y @ X)
    assert max_slot_diff(mul(x, inv), identity_jet2(3)) == 0.0
    assert max_slot_diff(mul(inv, x), identity_jet2(3)) == 0.0


# -- group specs --------------------------------------------------------------


def test_group_spec_rejects_dependent_basis():
    L = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixGroupSpec(2, (L, 2.0 * L))


def test_group_spec_rejects_non_closed_basis():
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    EF = np.array([[0.0, 1.0], [1.0, 0.0]])
    # [H, E+F] = 2E - 2F leaves the span
    with pytest.raises(ValueError):
        MatrixGroupSpec(2, (H, EF))


def test_group_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MatrixGroupSpec(3, (np.eye(2),))
    with pytest.raises(ValueError):
        MatrixGroupSpec(2, ())


def test_projection_roundtrip_exact_for_orthogonal_basis():
    spec = so3_group()
    coords = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(spec.project(spec.to_matrix(coords)), coords)


def test_projection_rejects_outside_span():
    spec = so3_group()
    with pytest.raises(ValueError):
        spec.project(np.eye(3))
    with pytest.raises(ValueError):
        spec.as_matrix(np.eye(3))


def test_project_jet_rejects_non_finite_matrix():
    spec = so3_group()
    coords = JetPoint.from_rows(1, [[0.1, math.nan, 0.3], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        spec.project_jet(spec.matrix_jet(coords), 1)


def test_as_matrix_accepts_both_forms():
    spec = sl2_group()
    coords = np.array([1.0, 2.0, -1.0])
    mat = spec.to_matrix(coords)
    assert np.array_equal(spec.as_matrix(coords), mat)
    assert np.array_equal(spec.as_matrix(mat), mat)
    with pytest.raises(ValueError):
        spec.as_matrix(np.zeros(2))


# -- the flip composite -------------------------------------------------------


def flip_at_depth_0(spec, v, w_h, w_v):
    """The group flip on one prolongation pair of basis coordinates: the
    value and velocity rows of the flipped tangent."""
    out = group_involution(spec).flip(JetPoint.constant(v, 0), JetPoint.from_rows(1, [w_h, w_v]))
    return out.row(0), out.row(1)


def test_group_flip_commuting_family_is_plain_swap():
    spec = diag_abelian_group(3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v, wh, wv = rng.uniform(-1, 1, (3, 3))
        a, adot = flip_at_depth_0(spec, v, wh, wv)
        assert np.array_equal(a, v)
        # the commutator cancels only up to reassociation inside the composite
        assert float(np.max(np.abs(adot - wv))) < 1e-14


def test_group_flip_rotation_hand_case():
    # V = L1, W_H = L2, W_V = 0: the correction slot is [W_H, V] = [L2, L1] = -L3
    spec = so3_group()
    a, adot = flip_at_depth_0(spec, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    assert np.array_equal(a, [1.0, 0.0, 0.0])
    assert np.array_equal(adot, [0.0, 0.0, -1.0])


def test_group_flip_source_slot_cancels_exactly():
    spec = so3_group()
    rng = np.random.default_rng(9)
    for _ in range(25):
        v, wh, wv = (spec.to_matrix(rng.uniform(-2, 2, 3)) for _ in range(3))
        g1, g2, g12 = group_flip_slots(spec, v[None], wh[None], wv[None])
        assert float(np.max(np.abs(g2))) == 0.0


def test_group_flip_correction_matches_commutator():
    spec = sl2_group()
    rng = np.random.default_rng(13)
    for _ in range(20):
        cv, cwh, cwv = rng.uniform(-1, 1, (3, 3))
        V, WH, WV = spec.to_matrix(cv), spec.to_matrix(cwh), spec.to_matrix(cwv)
        a, adot = flip_at_depth_0(spec, cv, cwh, cwv)
        expect = spec.project(WV + WH @ V - V @ WH)
        assert float(np.max(np.abs(a - cv))) < 1e-12
        assert float(np.max(np.abs(adot - expect))) < 1e-12


def test_group_flip_sign_against_flip_of_structure_spec():
    # decide the bracket sign by running the same inputs through the two
    # candidate structure-constant flips: only one can agree
    spec = so3_group()
    group = group_involution(spec)
    minus = involution_from_spec(AlgebroidSpec.from_structure(
        0, 3, PolyMap.zero(0, 0),
        [(0, 1, 2, -1.0), (0, 2, 1, 1.0), (1, 2, 0, -1.0)]))
    plus = involution_from_spec(catalog.so3())
    rng = np.random.default_rng(21)
    agree_minus = 0.0
    agree_plus = 0.0
    for _ in range(20):
        pe = sample_prolongation(minus, np.zeros(0), rng)
        out = group.flip_elements(pe)
        ref_m = minus.flip_elements(pe)
        ref_p = plus.flip_elements(pe)
        agree_minus = max(agree_minus, float(np.max(np.abs(out.adot - ref_m.adot))))
        agree_plus = max(agree_plus, float(np.max(np.abs(out.adot - ref_p.adot))))
    assert agree_minus < 1e-9
    assert agree_plus > 1e-3


# -- the object-array route, rebuilt as an oracle -----------------------------
# Matrix jets were once numpy object arrays of JetScalar, multiplied by
# numpy's object matmul; the float-array route must agree with that route.


def to_object(mat):
    """(2**d, n, n) matrix jet -> (n, n) object array of JetScalar."""
    depth = len(mat).bit_length() - 1
    n = mat.shape[1]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = JetScalar(depth, mat[:, i, j])
    return out


def from_object(obj):
    return np.moveaxis(np.array([[e.coeffs for e in row] for row in obj]), -1, 0)


def object_matrix_jet(spec, coords):
    out = np.full((spec.n, spec.n), JetScalar.constant(0.0, coords.depth), dtype=object)
    for c, b in zip(coords.entries, spec.basis):
        out = out + b * c
    return out


def object_project(spec, obj, depth):
    flat = obj.reshape(-1)
    return JetPoint([sum((float(p) * f for p, f in zip(row, flat)),
                         JetScalar.constant(0.0, depth))
                     for row in spec._proj], depth)


def object_mul(x, y):
    g, g1, g2, g12 = x
    h, h1, h2, h12 = y
    return (g @ h, g1 @ h + g @ h1, g2 @ h + g @ h2,
            g12 @ h + g1 @ h2 + g2 @ h1 + g @ h12)


def object_inv(x):
    g, g1, g2, g12 = x
    gi = np.linalg.inv(g)
    return (gi, -(gi @ g1 @ gi), -(gi @ g2 @ gi),
            gi @ (g1 @ gi @ g2 + g2 @ gi @ g1 - g12) @ gi)


def object_flip_slots(spec, V, W_H, W_V):
    e = np.eye(spec.n)
    z = np.zeros((spec.n, spec.n))
    out = object_mul(object_mul((e, z, W_H, W_V), (e, V, z, z)), object_inv((e, z, W_H, z)))
    return out[1:]


def max_gap(mat, obj):
    return float(np.max(np.abs(mat - from_object(obj))))


def random_jet(rng, depth, dim):
    return JetPoint.from_rows(depth, rng.uniform(-1, 1, (1 << depth, dim)))


ORACLE_GROUPS = {"so3": so3_group, "sl2": sl2_group, "diag-abelian(3)": lambda: diag_abelian_group(3)}


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_matrix_jet_route_matches_object_route(name, depth):
    spec = ORACLE_GROUPS[name]()
    flip = group_involution(spec).flip
    n = spec.n
    rng = np.random.default_rng(depth)
    for _ in range(5):
        v = random_jet(rng, depth, spec.dim)
        w = random_jet(rng, depth + 1, spec.dim)
        w_val, w_dot = split_innermost(w)
        objs = [object_matrix_jet(spec, x) for x in (v, w_val, w_dot)]
        mats = [spec.matrix_jet(x) for x in (v, w_val, w_dot)]
        for mat, obj in zip(mats, objs):
            assert max_gap(mat, obj) <= 1e-14
        assert residual(spec.project_jet(mats[0], depth), object_project(spec, objs[0], depth)) <= 1e-14
        slots = group_flip_slots(spec, *mats)
        ref_slots = object_flip_slots(spec, *objs)
        for mat, obj in zip(slots, ref_slots):
            assert max_gap(mat, obj) <= 1e-14
        ref = join_innermost(object_project(spec, ref_slots[0], depth),
                             object_project(spec, ref_slots[2], depth))
        assert residual(flip(v, w), ref) <= 1e-14
        # generic jets off the algebra span, with a base other than the identity
        bases = [np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n)) for _ in range(2)]
        slots = [[rng.uniform(-1, 1, (1 << depth, n, n)) for _ in range(3)] for _ in range(2)]
        as_jet = lambda g, s: _assemble4(np.concatenate((g[None], np.zeros_like(s[0][1:]))), *s)
        prod = mul(*(as_jet(g, s) for g, s in zip(bases, slots)))
        ref_prod = object_mul(*((g, *map(to_object, s)) for g, s in zip(bases, slots)))
        assert np.max(np.abs(prod[0] - ref_prod[0])) <= 1e-14
        assert not np.any(prod[4::4])
        for o in (1, 2, 3):
            assert max_gap(prod[o::4], ref_prod[o]) <= 1e-14


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_group_flip_matches_flip_of_recovered_constants(name, depth):
    # the composite against the flip that the bracket of its own recovered
    # structure constants builds, on one batch of random jets
    spec = ORACLE_GROUPS[name]()
    group = group_involution(spec)
    fitted = involution_from_spec(spec_from_flip(group))
    rng = np.random.default_rng(depth + 17)
    v = JetPoint.from_rows(depth, rng.uniform(-1, 1, (1 << depth, 16, spec.dim)))
    w = JetPoint.from_rows(depth + 1, rng.uniform(-1, 1, (2 << depth, 16, spec.dim)))
    assert residual(group.flip(v, w), fitted.flip(v, w)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 3), n=st.integers(1, 3), data=st.data())
def test_subset_convolution_equals_jet_scalar_products(depth, n, data):
    # small integers keep every product and sum exact on both routes; the
    # object route multiplies by the reference product of the tests
    size = (1 << depth) * n * n
    entries = st.lists(st.integers(-4, 4), min_size=size, max_size=size)
    a, b = (np.array(data.draw(entries), dtype=float).reshape(1 << depth, n, n)
            for _ in range(2))
    as_reference = lambda mat: np.array(
        [[RefScalar(mat[:, i, j]) for j in range(n)] for i in range(n)], dtype=object)
    assert np.array_equal(mul(a, b), from_object(as_reference(a) @ as_reference(b)))


# -- differentiation reports --------------------------------------------------


def test_differentiate_so3():
    inv, report = differentiate_group(so3_group(), samples=30, seed=4)
    assert report.passed
    cross = np.zeros((3, 3, 3))
    eye = np.eye(3)
    for i in range(3):
        for j in range(3):
            cross[:, i, j] = np.cross(eye[i], eye[j])
    assert np.array_equal(inv.spec.c_tensor(np.zeros(0)), -cross)


def test_differentiate_sl2():
    inv, report = differentiate_group(sl2_group(), samples=30, seed=8)
    assert report.passed
    z = np.zeros(0)
    assert np.array_equal(inv.spec.c_tensor(z), -catalog.sl2().c_tensor(z))


def test_differentiate_abelian():
    inv, report = differentiate_group(diag_abelian_group(3), samples=20, seed=1)
    assert report.passed
    assert np.count_nonzero(inv.spec.c_tensor(np.zeros(0))) == 0


# -- pair groupoids -----------------------------------------------------------


def test_pair_compose_requires_matching_middle():
    a = JetPoint.from_rows(1, [[0.0], [1.0]])
    b = JetPoint.from_rows(1, [[0.5], [1.0]])
    assert pair_compose((a, b), (b, a)) == (a, a)
    with pytest.raises(ValueError):
        pair_compose((a, b), (a, b))
    assert pair_inverse((a, b)) == (b, a)


def test_differentiate_pair_groupoid_lands_on_tangent_flip():
    final, report = differentiate_pair_groupoid(PairGroupoidSpec(2), samples=15, seed=6)
    assert report.passed
    # the composite is relabeling only, so agreement is bitwise
    assert report["matches-tangent-flip"].max_residual == 0.0
    assert report["matches-tangent-flip"].tolerance == 0.0


def test_pair_flip_is_shift_of_input():
    # over a point fiber pattern: value keeps the base and picks up the
    # incoming velocity, the whole w-fiber moves to the output velocity
    final, _ = differentiate_pair_groupoid(PairGroupoidSpec(1), samples=2, seed=0)
    v = JetPoint.constant([0.3, 0.7], 0)
    w = JetPoint.from_rows(1, [[0.3, -0.2], [0.7, 0.4]])
    out = final.flip(v, w)
    assert np.array_equal(np.array(out.to_rows()), [[0.3, 0.7], [-0.2, 0.4]])


# -- catalog ------------------------------------------------------------------


def test_group_catalog_names():
    assert group_catalog("so3").name == "so3"
    assert group_catalog("sl2").n == 2
    assert group_catalog("diag-abelian(4)").dim == 4
    assert group_catalog("pair-groupoid(2)").dim == 2
    with pytest.raises(KeyError):
        group_catalog("su5")
    for empty in ("diag-abelian(0)", "pair-groupoid(0)"):
        with pytest.raises(ValueError):
            group_catalog(empty)
