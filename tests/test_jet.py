import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invalg import jet
from invalg import (
    AlgebroidSpec,
    ConnectionSpec,
    ScalarFieldSpec,
    SectionSpec,
    catalog_get,
    catalog_names,
    lie_derivative,
)
from invalg.jet import (
    MAX_DEPTH,
    JetPoint,
    JetScalar,
    PolyMap,
    _max_abs,
    _product,
    add_tangent,
    check_tangent_axioms,
    flip_c,
    insert_zero,
    join_innermost,
    lift_l,
    neg_tangent,
    proj_p,
    promote,
    residual,
    residuals,
    split_innermost,
    sub_tangent,
)
from invalg.report import _fold, _residuals, worst_of
import jet_reference as ref
from jet_reference import padded_product, reference_product


def jp(depth, rows):
    return JetPoint.from_rows(depth, rows)


def test_scalar_arithmetic():
    a = JetScalar(1, (3.0, 1.0))
    b = JetScalar(1, (2.0, 5.0))
    assert (a + b).coeffs == (5.0, 6.0)
    assert (a - b).coeffs == (1.0, -4.0)
    assert (a * b).coeffs == (6.0, 17.0)
    assert (2.0 * a).coeffs == (6.0, 2.0)
    assert (a ** 2).coeffs == (9.0, 6.0)
    assert (-a).coeffs == (-3.0, -1.0)
    assert (1.0 + a).coeffs == (4.0, 1.0)
    assert (1.0 - a).coeffs == (-2.0, -1.0)


def test_scalar_depth2_product():
    # (1 + 2e1 + 3e2 + 4e1e2) * (5 + 6e1 + 7e2 + 8e1e2), worked by hand:
    # value 5, e1: 6+10=16, e2: 7+15=22, e1e2: 8+20+14+18=60
    a = JetScalar(2, (1.0, 2.0, 3.0, 4.0))
    b = JetScalar(2, (5.0, 6.0, 7.0, 8.0))
    assert (a * b).coeffs == (5.0, 16.0, 22.0, 60.0)


def test_scalar_depth3_product_against_reference():
    rng = np.random.default_rng(11)
    a = JetScalar(3, rng.uniform(-1, 1, 8))
    b = JetScalar(3, rng.uniform(-1, 1, 8))
    prod = a * b
    # reference: convolution over subset masks, c[U] = sum_{S subset U} a[S] b[U\S]
    for u in range(8):
        total = 0.0
        s = u
        while True:
            total += a.coeffs[s] * b.coeffs[u ^ s]
            if s == 0:
                break
            s = (s - 1) & u
        assert abs(prod.coeffs[u] - total) < 1e-14


def _jet_arrays(depth, width, elements):
    size = (1 << depth) * width
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=float).reshape(1 << depth, width))


@settings(max_examples=80, deadline=None)
@given(depth=st.integers(0, 3), width=st.integers(1, 3), data=st.data())
def test_product_equals_reference_on_small_integers(depth, width, data):
    # every product and partial sum of small integers is exact on both routes
    a, b = (data.draw(_jet_arrays(depth, width, st.integers(-9, 9))) for _ in range(2))
    got = _product(a, b)
    for col in range(width):
        assert tuple(got[:, col].tolist()) == reference_product(a[:, col], b[:, col])


@settings(max_examples=80, deadline=None)
@given(depth=st.integers(0, 3), width=st.integers(1, 3), data=st.data())
def test_product_is_close_to_reference_on_floats(depth, width, data):
    # relative to the summed magnitudes sum |a[S] b[U - S]| of each mask,
    # which bound the rounding of any summation order
    floats = st.floats(-1.0, 1.0)
    a, b = (data.draw(_jet_arrays(depth, width, floats)) for _ in range(2))
    got = _product(a, b)
    for col in range(width):
        ref = np.array(reference_product(a[:, col], b[:, col]))
        scale = np.array(reference_product(np.abs(a[:, col]), np.abs(b[:, col])))
        assert np.all(np.abs(got[:, col] - ref) <= 1e-15 * scale)


def _relabel(perm) -> np.ndarray:
    """Row gather that moves direction i + 1 to direction perm[i] + 1."""
    index = np.empty(8, dtype=np.intp)
    for m in range(8):
        index[sum(1 << perm[i] for i in range(3) if m >> i & 1)] = m
    return index


@settings(max_examples=80, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_product_commutes_with_relabeling_exactly(width, data):
    a, b = (data.draw(_jet_arrays(3, width, st.floats(-1.0, 1.0))) for _ in range(2))
    prod = _product(a, b)
    for perm in itertools.permutations(range(3)):
        index = _relabel(perm)
        assert np.array_equal(_product(a[index], b[index]), prod[index])


SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan, 1e308)


def _same_bits(x, y) -> bool:
    """Equal shapes and values, NaN in the same places and zeros of the
    same sign."""
    known = ~np.isnan(x)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x[known]), np.signbit(y[known])))


@settings(max_examples=200, deadline=None)
@given(depth=st.integers(0, 4), width=st.integers(1, 3), matrix=st.booleans(),
       special=st.booleans(), data=st.data())
def test_product_reproduces_the_padded_product(depth, width, matrix, special, data):
    # depth 4 is the group flip composite on a depth-2 jet
    shape = (1 << depth,) + ((width, width) if matrix else (width,))
    entries = st.sampled_from(SPECIAL_FLOATS) if special else st.floats(width=64)
    a, b = (data.draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape))
                      .map(lambda xs: np.array(xs, dtype=float).reshape(shape)))
            for _ in range(2))
    mul = np.matmul if matrix else np.multiply
    with np.errstate(all="ignore"):
        assert _same_bits(_product(a, b, mul), padded_product(a, b, mul))


def test_batched_product_reproduces_the_padded_product():
    # random floats with batch axes and the broadcasts of the anchor and C
    rng = np.random.default_rng(3)
    for depth in range(5):
        n = 1 << depth
        for shape_a, shape_b, mul in (((n, 20, 3), (n, 20, 3), np.multiply),
                                      ((n, 20, 3, 4), (n, 20, 1, 4), np.multiply),
                                      ((n, 20, 3, 1), (n, 20, 1, 3), np.multiply),
                                      ((n, 20, 3, 3), (n, 20, 3, 3), np.matmul)):
            a, b = rng.uniform(-2, 2, shape_a), rng.uniform(-2, 2, shape_b)
            assert _same_bits(_product(a, b, mul), padded_product(a, b, mul))


def test_depth_mismatch_rejected():
    with pytest.raises(ValueError):
        JetScalar(1, (1.0, 2.0)) + JetScalar(2, (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        JetScalar(1, (1.0,))
    with pytest.raises(ValueError):
        JetScalar(1, (1.0, 2.0)) ** -1


def test_vertical_lift_frozen():
    x = jp(1, [[1.0], [2.0]])
    lifted = lift_l(x)
    assert lifted.to_rows() == [[1.0], [0.0], [0.0], [2.0]]


def test_square_on_nested_jet_frozen():
    # f(x) = x^2 on the depth-2 jet with value jet (3; 1) and velocity jet (1; 0):
    # value 9, both first-order slots 2*3*1 = 6, mixed slot 2*(3*0 + 1*1) = 2
    f = PolyMap.from_terms(1, [[(1.0, (2,))]])
    x = join_innermost(jp(1, [[3.0], [1.0]]), jp(1, [[1.0], [0.0]]))
    assert x.to_rows() == [[3.0], [1.0], [1.0], [0.0]]
    y = f.eval_jet(x)
    assert y.to_rows() == [[9.0], [6.0], [6.0], [2.0]]


def test_promote_and_project_bookkeeping():
    x = jp(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    up = promote(x)
    assert up.depth == 3
    # the added innermost direction is all zero, so dropping it recovers x
    assert residual(proj_p(up, 3), x) == 0.0
    assert up.row(4).tolist() == [0.0, 0.0]
    # dropping direction 1 keeps the slots without it, relabelled down
    assert proj_p(x, 1).to_rows() == [[1.0, 2.0], [5.0, 6.0]]
    assert proj_p(x, 2).to_rows() == [[1.0, 2.0], [3.0, 4.0]]


def test_insert_zero_sections():
    x = jp(1, [[1.0], [4.0]])
    assert insert_zero(x, 1).to_rows() == [[1.0], [0.0], [4.0], [0.0]]
    assert insert_zero(x, 2).to_rows() == [[1.0], [4.0], [0.0], [0.0]]
    for k in (1, 2):
        assert residual(proj_p(insert_zero(x, k), k), x) == 0.0


def test_flip_relabels_slots():
    x = jp(2, [[0.0], [1.0], [2.0], [3.0]])
    assert flip_c(x, 1, 2).to_rows() == [[0.0], [2.0], [1.0], [3.0]]
    y = jp(3, [[c] for c in range(8)])
    assert flip_c(y, 2, 3).to_rows() == [[0.0], [1.0], [4.0], [5.0], [2.0], [3.0], [6.0], [7.0]]
    assert flip_c(y, 1, 2).to_rows() == [[0.0], [2.0], [1.0], [3.0], [4.0], [6.0], [5.0], [7.0]]


def test_add_tangent_directions():
    x = jp(2, [[1.0], [2.0], [3.0], [4.0]])
    y = jp(2, [[1.0], [5.0], [3.0], [6.0]])
    s = add_tangent(x, y, 1)
    assert s.to_rows() == [[1.0], [7.0], [3.0], [10.0]]
    assert sub_tangent(s, y).to_rows() == x.to_rows()
    z = jp(2, [[1.0], [2.0], [9.0], [6.0]])
    with pytest.raises(ValueError):
        add_tangent(x, z, 1)
    s2 = add_tangent(x, z, 2)
    assert s2.to_rows() == [[1.0], [2.0], [12.0], [10.0]]
    assert neg_tangent(x, 2).to_rows() == [[1.0], [2.0], [-3.0], [-4.0]]


@pytest.mark.parametrize("direction", [0, 3, 5])
def test_maps_refuse_a_direction_the_jet_lacks(direction):
    x = jp(2, [[1.0], [2.0], [3.0], [4.0]])
    message = "^no direction %d in a depth-2 jet$" % direction
    for apply in (proj_p, lift_l, neg_tangent, lambda z, k: add_tangent(z, z, k)):
        with pytest.raises(ValueError, match=message):
            apply(x, direction)


@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_structural_maps_reproduce_the_reference_gathers(depth, batch):
    # bit for bit, a NaN, an infinity and a negative zero among the
    # coefficients, on a C-ordered jet, a take slice and an x[o::4] block
    rng = np.random.default_rng(depth)
    whole = rng.uniform(-1, 1, (1 << depth,) + batch + (9,))
    whole[-1, ..., :6] = [math.nan, -0.0, math.inf, -0.0, math.nan, -math.inf]
    whole = JetPoint._of(whole)
    directions = range(1, depth + 1)

    def same(got: JetPoint, want: np.ndarray) -> None:
        assert got.coeffs.flags.c_contiguous and _same_bits(got.coeffs, want)

    for x in (JetPoint._of(whole.coeffs[..., :3].copy()), whole.take(2, 5),
              JetPoint._of(whole.coeffs[..., 1::4])):
        c = x.coeffs
        for k in directions:
            same(proj_p(x, k), ref.gather(c, ref.proj_map(depth, k)))
            same(neg_tangent(x, k), ref.neg_tangent(c, k))
            # y shares the coefficients without direction k with x
            y = np.where(ref.with_bit(c, k), rng.uniform(-1, 1, c.shape), c)
            same(add_tangent(x, JetPoint._of(y), k), ref.add_tangent(c, y, k))
            if k == 1:
                same(sub_tangent(x, JetPoint._of(y)), ref.add_tangent(c, ref.neg_tangent(y, 1), 1))
            if depth < MAX_DEPTH:
                same(lift_l(x, k), ref.gather(c, ref.lift_map(depth, k)))
        for i, j in itertools.permutations(directions, 2):
            same(flip_c(x, i, j), ref.gather(c, ref.flip_map(depth, i, j)))
        if depth < MAX_DEPTH:
            for k in range(1, depth + 2):
                same(insert_zero(x, k), ref.gather(c, ref.insert_map(depth, k)))


def test_split_join_roundtrip():
    rng = np.random.default_rng(5)
    for depth in (1, 2, 3):
        x = JetPoint.from_rows(depth, rng.uniform(-1, 1, size=(1 << depth, 3)))
        value, vel = split_innermost(x)
        assert value.depth == depth - 1 and vel.depth == depth - 1
        assert residual(join_innermost(value, vel), x) == 0.0


def test_polymap_rejects_maps_it_cannot_evaluate():
    # each of these was accepted and then misevaluated or raised IndexError
    # only once evaluated
    with pytest.raises(ValueError):
        PolyMap.from_terms(2, [[(1.0, (-1, 2))]])
    with pytest.raises(ValueError):
        PolyMap.from_terms(1, [[(1.0, (1.5,))]])
    with pytest.raises(ValueError):
        PolyMap(1, 3, (((1.0, (1,)),),))
    with pytest.raises(ValueError):
        PolyMap(1, 1, (((1.0, (1,)),), ((2.0, (0,)),)))
    with pytest.raises(ValueError):
        PolyMap(1, 1, (((1.0, (1.5,)),),))
    square = PolyMap.from_terms(1, [[(1.0, (2.0,))]])
    assert square.terms == (((1.0, (2,)),),)
    assert square.eval_jet(JetPoint.constant([3.0], 0)).row(0).tolist() == [9.0]


def test_polymap_eval_and_partial():
    # f(u, v) = (u^2 v, u + 3)
    f = PolyMap.from_terms(2, [[(1.0, (2, 1))], [(1.0, (1, 0)), (3.0, (0, 0))]])
    out = f.eval_floats([2.0, 5.0])
    assert out.tolist() == [20.0, 5.0]
    grid = f.eval_floats(np.array([[2.0, 5.0], [1.0, 1.0]]))
    assert grid.tolist() == [[20.0, 5.0], [1.0, 4.0]]
    du = f.partial(0)
    assert du.eval_floats([2.0, 5.0]).tolist() == [20.0, 1.0]
    dv = f.partial(1)
    assert dv.eval_floats([2.0, 5.0]).tolist() == [4.0, 0.0]
    assert f.jacobian_at([2.0, 5.0]).tolist() == [[20.0, 4.0], [1.0, 0.0]]


def _eval_per_term(pm, x):
    """Reference evaluation in the order of the one evaluator, one term at a
    time: each power a repeated product x * x * ..., the powers multiplied in
    input order, the coefficient applied last, the term added into its
    output."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (pm.out_dim,))
    for k, row in enumerate(pm.terms):
        for c, exps in row:
            term = np.ones(x.shape[:-1])
            for i, e in enumerate(exps):
                if e:
                    power = x[..., i]
                    for _ in range(e - 1):
                        power = power * x[..., i]
                    term = term * power
            out[..., k] += c * term
    return out


def _random_jet(rng, dim, depth):
    return JetPoint.from_rows(depth, rng.uniform(-1.0, 1.0, size=(1 << depth, dim)))


def _random_jet_batch(rng, depth, lead, dim):
    return JetPoint._of(rng.uniform(-1.5, 1.5, (1 << depth,) + lead + (dim,)))


def test_compiled_eval_floats_matches_per_term_reference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        in_dim, out_dim = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        rows = [[(float(rng.uniform(-2, 2)), tuple(int(e) for e in rng.integers(0, 5, in_dim)))
                 for _ in range(int(rng.integers(0, 5)))] for _ in range(out_dim)]
        pm = PolyMap(in_dim, out_dim, tuple(tuple(r) for r in rows))
        for lead in ((), (4,), (2, 3)):
            x = rng.uniform(-1.5, 1.5, lead + (in_dim,))
            got = pm.eval_floats(x)
            assert got.shape == lead + (out_dim,)
            # the same products and sums in the same order: equal, not just close
            np.testing.assert_array_equal(got, _eval_per_term(pm, x))
            # float evaluation is the value row of the jet evaluation
            xj = _random_jet_batch(rng, int(rng.integers(1, 4)), lead, in_dim)
            np.testing.assert_array_equal(pm.eval_floats(xj.coeffs[0]), pm.eval_jet(xj).coeffs[0])
    # no inputs: a constant map broadcasts over the leading dimensions
    const = PolyMap.constant([1.5, 0.0, -2.0], 0)
    assert const.eval_floats(np.zeros((2, 0))).tolist() == [[1.5, 0.0, -2.0]] * 2
    with pytest.raises(ValueError):
        const.eval_floats([1.0])
    # so are the anchor, the structure functions and a connection
    for name in catalog_names():
        spec = catalog_get(name)
        dm, da = spec.dim_M, spec.dim_A
        conn = ConnectionSpec.random_poly(rng, dm, da, degree=2)
        for depth in (1, 2, 3):
            mj = _random_jet_batch(rng, depth, (5,), dm)
            aj, bj = (_random_jet_batch(rng, depth, (5,), da) for _ in range(2))
            m, a, b = mj.coeffs[0], aj.coeffs[0], bj.coeffs[0]
            np.testing.assert_array_equal(spec.anchor_apply(m, a),
                                          spec.anchor_apply_jet(mj, aj).coeffs[0])
            np.testing.assert_array_equal(spec.c_apply(m, a, b),
                                          spec.c_apply_jet(mj, aj, bj).coeffs[0])
            wj = _random_jet_batch(rng, depth, (), dm)
            np.testing.assert_array_equal(
                conn.apply(m[0], wj.coeffs[0], a[0]),
                conn.apply_jet(JetPoint._of(mj.coeffs[:, 0]), wj,
                               JetPoint._of(aj.coeffs[:, 0])).coeffs[0])


def test_overflowing_term_stays_in_its_own_output():
    # output 0 overflows to inf; outputs 1 and 2 share the inputs but not the
    # term, so they stay finite (a dense monomial-times-coefficient product
    # would turn them into inf * 0 = NaN)
    pm = PolyMap.from_terms(2, [
        [(1e300, (2, 0))],
        [(0.5, (1, 0)), (1.0, (0, 1))],
        [(3.0, (0, 0))],
    ])
    with np.errstate(over="ignore"):
        out = pm.eval_floats(np.array([[1e10, 2.0], [1.0, 2.0]]))
    assert out[0].tolist() == [np.inf, 0.5e10 + 2.0, 3.0]
    assert out[1].tolist() == [1e300, 2.5, 3.0]
    # a NaN input reaches only the outputs whose terms use it
    nan_in = pm.eval_floats([np.nan, 2.0])
    assert np.isnan(nan_in[0]) and np.isnan(nan_in[1]) and nan_in[2] == 3.0


def _add_at_evaluate(pm: PolyMap, xs: np.ndarray) -> np.ndarray:
    """The evaluator with its former scatter: the terms of the compiled map,
    as eval_jet forms them, added into zeros by np.add.at, which adds each
    output's terms in term order."""
    rows, coef, factors, top = pm._compiled
    mono = np.zeros(xs.shape[:-1] + (len(coef),))
    mono[0] = 1.0
    if factors:
        powers = np.zeros(xs.shape + (top + 1,))
        powers[0, ..., 0] = 1.0
        powers[..., 1] = xs
        for e in range(2, top + 1):
            powers[..., e] = _product(powers[..., e - 1], xs)
        for n, (i, exps, _) in enumerate(factors):
            power = powers[..., i, exps]
            mono = power if n == 0 else np.where(exps > 0, _product(mono, power), mono)
    out = np.zeros(xs.shape[:-1] + (pm.out_dim,))
    lead = math.prod(xs.shape[:-1])
    np.add.at(out.reshape(lead, pm.out_dim), (slice(None), rows),
              (coef * mono).reshape(lead, len(coef)))
    return out


SCATTER_VALUES = (0.0, -0.0, 1.0, -1.5, 1e200, -1e200, math.inf, -math.inf, math.nan)


def test_scatter_reproduces_the_add_at_scatter_bit_for_bit():
    # terms of one output added in term order from +0.0: -0.0 terms, inf
    # against -inf and overflowing products keep their bits, and NaNs their
    # places.  Where two NaNs meet, which one's sign and payload survive is
    # the compiled loop's choice of operand order, which numpy leaves open.
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):
        for _ in range(80):
            in_dim, out_dim = int(rng.integers(0, 4)), int(rng.integers(0, 5))
            rows = [[(float(rng.choice(SCATTER_VALUES + (2.5, -0.25))),
                      tuple(rng.integers(0, 4, in_dim).tolist()))
                     for _ in range(int(rng.integers(0, 6)))] for _ in range(out_dim)]
            pm = PolyMap(in_dim, out_dim, tuple(tuple(r) for r in rows))
            for depth in range(4):
                for lead in ((), (1,), (5,), (2, 3), (0,)):
                    shape = (1 << depth,) + lead + (in_dim,)
                    xs = rng.uniform(-2, 2, shape)
                    special = rng.random(shape) < 0.3
                    xs[special] = rng.choice(SCATTER_VALUES, int(special.sum()))
                    got = pm._evaluate(xs)
                    want = _add_at_evaluate(pm, xs)
                    assert got.dtype == np.float64 and got.shape == want.shape
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(got), nan)
                    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_a_map_without_terms_evaluates_to_float_zeros():
    x = _random_jet_batch(np.random.default_rng(4), 2, (4,), 2)
    out = PolyMap.zero(2, 3).eval_jet(x).coeffs
    assert out.dtype == np.float64 and out.shape == (4, 4, 3) and not out.any()
    for pm, point in ((PolyMap.zero(2, 3), [1.0, 2.0]), (PolyMap.zero(0, 0), np.zeros(0)),
                      (PolyMap.identity(2), np.zeros((0, 2)))):
        out = pm.eval_floats(point)
        assert out.dtype == np.float64
        assert out.shape == np.shape(point)[:-1] + (pm.out_dim,) and not out.any()


def _copy(pm: PolyMap) -> PolyMap:
    """A fresh map with the terms of pm and nothing evaluated yet."""
    return PolyMap(pm.in_dim, pm.out_dim, pm.terms)


def test_eval_jet_returns_the_kept_result_of_an_equal_input():
    f = PolyMap.from_terms(2, [[(1.5, (2, 1)), (-1.0, (0, 3))], [(2.0, (1, 0))]])
    x = _random_jet_batch(np.random.default_rng(2), 2, (3,), 2)
    first = f.eval_jet(x)
    # a hit is the same read-only result, equal to a fresh map's evaluation
    again = f.eval_jet(JetPoint._of(x.coeffs.copy()))
    assert again is first and not again.coeffs.flags.writeable
    assert again.coeffs.tobytes() == _copy(f).eval_jet(x).coeffs.tobytes()
    assert len(f._memo) == 1
    # -0.0 and +0.0 differ in their bytes, and equal bytes of another shape
    # are another input
    f.eval_jet(JetPoint.constant([0.0, 1.0]))
    f.eval_jet(JetPoint.constant([-0.0, 1.0]))
    flat = x.coeffs.reshape(2, 6, 2)
    assert f.eval_jet(JetPoint._of(flat)).coeffs.shape == (2, 6, 2)
    assert len(f._memo) == 4
    assert len({id(out) for out in f._memo.values()}) == 4


def test_eval_jet_keeps_at_most_sixteen_small_float_inputs():
    f = PolyMap.from_terms(1, [[(1.0, (2,))]])
    points = [JetPoint.constant([float(k)]) for k in range(40)]
    results = []
    for k, x in enumerate(points):
        results.append(f.eval_jet(x))
        assert len(f._memo) == min(k + 1, 16)
    # the last 16 inputs are kept: the oldest went first
    assert [key[2] for key in f._memo] == [x.coeffs.tobytes() for x in points[-16:]]
    assert f.eval_jet(points[-1]) is results[-1]
    assert f.eval_jet(points[0]) is not results[0]
    # 4 KiB is kept, one more double is not, and neither is an object array
    g = _copy(f)
    g.eval_jet(JetPoint._of(np.ones((1, 512, 1))))
    assert len(g._memo) == 1
    big = JetPoint._of(np.ones((1, 513, 1)))
    assert g.eval_jet(big) is not g.eval_jet(big)
    objects = JetPoint._of(np.array([[2.0]], dtype=object))
    assert g.eval_jet(objects).to_rows() == [[4.0]]
    assert g.eval_jet(objects) is not g.eval_jet(objects)
    assert len(g._memo) == 1


def _layouts(arr: np.ndarray) -> tuple:
    """Equal values as a C-ordered, a Fortran-ordered and a strided array."""
    strided = np.empty(arr.shape + (2,))[..., 0]
    strided[...] = arr
    return np.ascontiguousarray(arr), np.asfortranarray(arr), strided


def _same_bytes(results) -> bool:
    return all(r.shape == results[0].shape and r.tobytes() == results[0].tobytes()
               for r in results)


def _random_map(rng, in_dim: int, out_dim: int) -> PolyMap:
    return PolyMap.from_terms(in_dim, [
        [(float(rng.uniform(-2, 2)), tuple(rng.integers(0, 3, in_dim).tolist())) for _ in range(2)]
        for _ in range(out_dim)])


def test_results_do_not_depend_on_memory_layout():
    # eval_jet keys a result by the bytes of the input's C-ordered copy, so
    # an input of one layout may get the result computed for another.  The
    # contractions below sum 9 or more entries, where numpy sums contiguous
    # entries pairwise and strided ones in sequence; each layout gets fresh
    # maps, so no result is shared between them.
    rng = np.random.default_rng(5)
    dm, da, pairs = 2, 9, 36
    rho, c_pairs = _random_map(rng, dm, dm * da), _random_map(rng, dm, da * pairs)
    gamma, f, x = _random_map(rng, 3, 27), _random_map(rng, dm, 1), _random_map(rng, dm, da)
    for depth in range(4):
        shape = lambda dim: (1 << depth, 50, dim)
        a, b = rng.uniform(-1, 1, shape(9)), rng.uniform(-1, 1, shape(9))
        assert _same_bytes([_product(u, v) for u, v in zip(_layouts(a), _layouts(b))])
        assert _same_bytes([_copy(c_pairs).eval_jet(JetPoint._of(u)).coeffs
                            for u in _layouts(rng.uniform(-1, 1, shape(dm)))])
        m, u, v = (_layouts(rng.uniform(-1, 1, shape(dim))) for dim in (dm, da, da))
        specs = [AlgebroidSpec(dm, da, _copy(rho), _copy(c_pairs)) for _ in range(3)]
        assert _same_bytes([spec.anchor_apply_jet(JetPoint._of(mi), JetPoint._of(ui)).coeffs
                            for spec, mi, ui in zip(specs, m, u)])
        assert _same_bytes([spec.c_apply_jet(*map(JetPoint._of, (mi, ui, vi))).coeffs
                            for spec, mi, ui, vi in zip(specs, m, u, v)])
        m, w, u = (_layouts(rng.uniform(-1, 1, shape(3))) for _ in range(3))
        conns = [ConnectionSpec(3, 3, _copy(gamma)) for _ in range(3)]
        assert _same_bytes([conn.apply_jet(*map(JetPoint._of, (mi, wi, ui))).coeffs
                            for conn, mi, wi, ui in zip(conns, m, w, u)])
    assert _same_bytes([lie_derivative(ScalarFieldSpec(_copy(f)), SectionSpec(_copy(x)),
                                       AlgebroidSpec(dm, da, _copy(rho), _copy(c_pairs)), m)
                        for m in _layouts(rng.uniform(-1, 1, (50, dm)))])


def test_polymap_compose_matches_pointwise():
    rng = np.random.default_rng(7)
    f = PolyMap.from_terms(2, [[(1.0, (1, 1))], [(2.0, (0, 2)), (-1.0, (1, 0))]])
    g = PolyMap.from_terms(3, [[(1.0, (1, 0, 0)), (1.0, (0, 2, 0))], [(1.0, (0, 0, 1))]])
    fg = f.compose(g)
    assert fg.in_dim == 3 and fg.out_dim == 2
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        direct = f.eval_floats(g.eval_floats(x))
        assert np.max(np.abs(fg.eval_floats(x) - direct)) < 1e-12


def test_polymap_arithmetic_matches_pointwise():
    rng = np.random.default_rng(17)
    f = PolyMap.from_terms(2, [[(1.0, (1, 1)), (2.0, (0, 0))], [(3.0, (2, 0)), (-1.0, (2, 0))]])
    g = PolyMap.from_terms(2, [[(0.5, (0, 1))], [(-2.0, (2, 0)), (1.0, (0, 3))]])
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        fx, gx = f.eval_floats(x), g.eval_floats(x)
        cases = [(f + g, fx + gx), (f - g, fx - gx), (2.5 * f, 2.5 * fx), (f * g, fx * gx),
                 (f[0] * g, fx[0] * gx), (g * f[1], gx * fx[1]), (f[1:], fx[1:])]
        for pm, expected in cases:
            assert np.max(np.abs(pm.eval_floats(x) - expected)) < 1e-12
    # results are canonical: repeated exponents merged, sorted, zeros dropped
    assert (f * 1.0).terms == (((2.0, (0, 0)), (1.0, (1, 1))), ((2.0, (2, 0)),))
    assert (f - f).terms == ((), ())
    with pytest.raises(ValueError):
        f + f[0]
    with pytest.raises(ValueError):
        f * PolyMap.zero(2, 3)


def test_functoriality_exact_on_integer_polynomials():
    # with integer coefficients and integer inputs every float op is exact,
    # so composing then evaluating must agree bit for bit at every depth
    f = PolyMap.from_terms(2, [[(1.0, (1, 1)), (2.0, (0, 1))], [(1.0, (2, 0))]])
    g = PolyMap.from_terms(2, [[(1.0, (1, 0)), (1.0, (0, 1))], [(3.0, (0, 1))]])
    fg = f.compose(g)
    rng = np.random.default_rng(13)
    for depth in (1, 2, 3):
        rows = rng.integers(-3, 4, size=(1 << depth, 2)).astype(float)
        x = JetPoint.from_rows(depth, rows)
        assert residual(fg.eval_jet(x), f.eval_jet(g.eval_jet(x))) == 0.0


def test_structural_naturality_exact():
    # evaluating a polynomial map commutes with each structural relabeling
    # exactly in floating point (multi-term slot sums are exactly rounded)
    rng = np.random.default_rng(17)
    f = PolyMap.from_terms(
        2,
        [
            [(0.3, (2, 1)), (-1.2, (0, 1))],
            [(0.7, (1, 2)), (0.9, (1, 0)), (0.25, (0, 0))],
        ],
    )
    for _ in range(30):
        x3 = JetPoint.from_rows(3, rng.uniform(-1, 1, size=(8, 2)))
        for i, j in ((1, 2), (2, 3), (1, 3)):
            assert residual(f.eval_jet(flip_c(x3, i, j)), flip_c(f.eval_jet(x3), i, j)) == 0.0
        for k in (1, 2, 3):
            assert residual(f.eval_jet(proj_p(x3, k)), proj_p(f.eval_jet(x3), k)) == 0.0
        x2 = JetPoint.from_rows(2, rng.uniform(-1, 1, size=(4, 2)))
        for k in (1, 2, 3):
            assert residual(f.eval_jet(insert_zero(x2, k)), insert_zero(f.eval_jet(x2), k)) == 0.0
        for k in (1, 2):
            assert residual(f.eval_jet(lift_l(x2, k)), lift_l(f.eval_jet(x2), k)) == 0.0


def test_pairing_equalizes_projections():
    # pairing two tangent vectors over one base: 0-section in direction 1
    # plus lift, added along direction 2; projecting direction 2 away lands
    # on the doubled zero section
    a = jp(1, [[2.0], [5.0]])
    b = jp(1, [[2.0], [7.0]])
    mu = add_tangent(insert_zero(b, 1), lift_l(a, 1), 2)
    assert mu.to_rows() == [[2.0], [0.0], [7.0], [5.0]]
    assert proj_p(mu, 2).to_rows() == insert_zero(proj_p(a, 1), 1).to_rows()


def test_tangent_axiom_suite_passes():
    report = check_tangent_axioms(samples=60, seed=3)
    assert report.passed
    names = report.names()
    for expected in (
        "flip-involutive",
        "flip-braid",
        "lift-flip-fixed",
        "lift-coassociative",
        "lift-flip-exchange",
        "add-bundle-laws",
        "lift-zero-additive",
        "flip-id-additive",
    ):
        assert expected in names
    # pure relabelings carry no arithmetic at all
    assert report["flip-involutive"].max_residual == 0.0
    assert report["flip-braid"].max_residual == 0.0
    # worst offender is recorded with the input that produced it
    worst = report["add-bundle-laws"].worst_input
    assert worst is not None


@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken lift and sum"])
def test_tangent_rows_rerun_from_their_worst_input(broken, monkeypatch):
    # each law is a function of its draw table's rows alone: the jets its
    # worst_input lists give its max_residual again, bit for bit, also where
    # a broken lift (a zero section) makes residuals nonzero and a scaled sum
    # makes sums raise
    if broken:
        add = jet.add_tangent
        monkeypatch.setattr(jet, "lift_l", lambda x, direction=1: insert_zero(x, direction))
        monkeypatch.setattr(jet, "add_tangent", lambda x, y, direction=1:
                            JetPoint._of(add(x, y, direction).coeffs * 1.001))
    report = check_tangent_axioms(samples=20, seed=5)
    laws = {name: law for name, law, _ in jet._TANGENT_LAWS}
    assert report.names() == list(laws)
    for row in report.results:
        described = row.worst_input if isinstance(row.worst_input, list) else [row.worst_input]
        # one jet of the worst sample per part, two coordinates each
        jets = [JetPoint.from_rows(j["depth"], np.array(j["coeff_rows"])[:, None])
                for j in described]
        assert {j.coeffs.shape[1:] for j in jets} == {(1, 2)}
        try:
            rerun = np.float64(laws[row.name](*jets)[0])
        except ValueError:  # the fold counts a sample that raises as NaN
            rerun = np.float64(math.nan)
        assert rerun.tobytes() == np.float64(row.max_residual).tobytes()
    failed = [row.name for row in report.results if not row.passed]
    if broken:
        assert failed == ["lift-flip-fixed", "add-bundle-laws"]
        assert math.isnan(report["add-bundle-laws"].max_residual)
    else:
        assert not failed
        assert report["flip-involutive"].max_residual == report["flip-braid"].max_residual == 0.0


def test_residual_is_nan_when_any_difference_is():
    nan = math.nan
    x = jp(1, [[nan, 1.0], [nan, 2.0]])
    assert math.isnan(residual(x, x))
    # a NaN after a finite maximum is not dropped either
    y = jp(1, [[0.0, 9.0], [0.0, nan]])
    assert math.isnan(residual(y, jp(1, [[0.0, 0.0], [0.0, 0.0]])))


def test_reductions_propagate_nan_and_read_zero_on_an_empty_axis():
    nan = math.nan
    x = JetPoint.from_rows(1, [[[0.0, 1.0], [2.0, 3.0]], [[0.5, 0.5], [1.0, 1.0]]])
    y = JetPoint.from_rows(1, [[[0.0, 9.0], [2.0, 3.5]], [[0.5, nan], [1.0, -1.0]]])
    # a NaN after a larger finite difference of the same batch entry is kept
    got = residuals(x, y)
    assert math.isnan(got[0]) and got[1] == 2.0
    got = _max_abs(np.array([[-3.0, nan, 1.0], [-2.0, 0.5, 1.0]]))
    assert math.isnan(got[0]) and got[1] == 2.0
    # so is a NaN in a shared slot of two summands, past a larger finite gap
    shared = x.coeffs.copy()
    shared[0, 0, 0], shared[0, 1, 1] = 5.0, nan
    with pytest.raises(ValueError, match="incompatible summands: shared coefficient differs by nan"):
        add_tangent(x, JetPoint._of(shared), 1)
    # no coordinates: every reduction reads 0.0, and the summands agree
    empty = JetPoint.constant(np.zeros((3, 0)), 1)
    assert residual(empty, empty) == 0.0
    assert residuals(empty, empty).tolist() == [0.0] * 3
    assert _max_abs(np.zeros((3, 0))).tolist() == [0.0] * 3
    assert add_tangent(empty, empty).coeffs.shape == (2, 3, 0)


def test_fold_fails_on_non_finite_residuals():
    cases = [([1e-15, math.nan, 1e-16], 1e-9), ([math.nan, 0.0], 1e-9),
             ([0.0, math.inf, math.nan], 1e-9), ([1e-15, math.inf], math.inf)]
    for values, tolerance in cases:
        result = _fold("r", len(values), lambda rows: values[rows], tolerance, 0,
                       lambda i: repr(values[i]))
        assert not result.passed
        assert not math.isfinite(result.max_residual)
        # the worst input is the first non-finite one
        assert result.worst_input == repr(next(v for v in values if not math.isfinite(v)))

    # a sample whose evaluation raises fails the check as a NaN residual
    inputs = [1e-15, 2.0, 3.0]

    def evaluate(rows):
        if max(inputs[rows]) > 1.0:
            raise ValueError("projection mismatch")
        return inputs[rows]

    result = _fold("r", len(inputs), evaluate, 1e-9, 0, lambda i: repr(inputs[i]))
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_input == "2.0"


def test_worst_of_ranks_non_finite_first():
    assert worst_of([]) == 0.0
    assert worst_of([1e-15, 3e-16]) == 1e-15
    assert math.isnan(worst_of([1e-15, math.nan, 1e-16]))
    assert worst_of(iter([0.0, math.inf, math.nan])) == math.inf


def test_worst_of_an_array_matches_its_parts_one_by_one():
    # an array given whole is folded as the list of its first-axis parts,
    # each converted on its own: same type and same bits, NaN in place
    def per_part(values):
        parts = [np.asarray(r, dtype=float) for r in values]
        if not parts:
            return 0.0
        stack = np.stack(np.broadcast_arrays(*parts))
        index = np.where(np.isfinite(stack), stack, np.inf).argmax(axis=0)
        worst = np.take_along_axis(stack, index[None], axis=0)[0]
        return float(worst) if worst.ndim == 0 else worst

    rng = np.random.default_rng(23)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    cases = [np.empty(0), np.empty((0, 3)), np.empty((3, 0)), np.array([-0.0, 0.0]),
             np.array([[1.0, math.nan], [1.0, 2.0]]), np.array([-math.inf, 5.0])]
    for _ in range(200):
        shape = (int(rng.integers(1, 9)),) + ((int(rng.integers(1, 4)),) if rng.random() < 0.5
                                              else ())
        values = rng.integers(-2, 4, size=shape) / 4.0  # ties are common
        flat = values.reshape(-1)
        for i in rng.choice(flat.size, size=int(rng.integers(0, 3))):
            flat[i] = specials[rng.integers(len(specials))]
        cases.append(values)
    for values in cases:
        got, want = worst_of(values), per_part(values)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_fold_picks_the_sample_worst_of_ranks_worst():
    # random residuals with planted NaN, +-inf, -0.0 and ties: _fold's worst
    # sample is the one the per-sample ranking by sort key picks, and the
    # first sample holding the value worst_of returns, at any tolerance, so
    # re-judging a row (--tolerance) is folding it at that tolerance
    def ranked_pick(values):
        key = lambda r: r if math.isfinite(r) else math.inf
        return max(range(len(values)), key=lambda i: key(values[i]))

    def worst_of_pick(values):
        worst = worst_of(values)
        return next(i for i, r in enumerate(values)
                    if r == worst or (math.isnan(r) and math.isnan(worst)))

    rng = np.random.default_rng(19)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    for _ in range(300):
        values = rng.integers(-2, 4, size=int(rng.integers(1, 9))) / 4.0
        for i in rng.choice(len(values), size=int(rng.integers(0, 3))):
            values[i] = specials[rng.integers(len(specials))]
        result = _fold("ranked", len(values), lambda rows: values[rows], 1e-9, 0,
                       serialize=lambda i: i)
        picked = values.tolist()
        assert result.worst_input == ranked_pick(picked) == worst_of_pick(picked)
        assert np.float64(result.max_residual).tobytes() == values[result.worst_input].tobytes()
        strict = _fold("ranked", len(values), lambda rows: values[rows], 0.0, 0,
                       serialize=lambda i: i)
        assert (strict.worst_input, np.float64(strict.max_residual).tobytes()) \
            == (result.worst_input, np.float64(result.max_residual).tobytes())


def test_corrupted_lift_is_detected(monkeypatch):
    # a "lift" that parks the coefficient in a pure slot instead of the mixed
    # slot behaves like a zero section; the fixed-point law must notice
    def bad_lift(x, direction=1):
        return insert_zero(x, direction)

    from invalg.jet import _law_lift_flip_fixed

    monkeypatch.setattr("invalg.jet.lift_l", bad_lift)
    rng = np.random.default_rng(21)
    worst = max(_law_lift_flip_fixed(_random_jet(rng, 2, 2)) for _ in range(20))
    assert worst > 1e-3


def test_depth_cap_enforced():
    x = jp(3, [[float(c)] for c in range(8)])
    with pytest.raises(ValueError):
        lift_l(x, 1)
    with pytest.raises(ValueError):
        promote(x)
    with pytest.raises(ValueError):
        JetScalar(4, [0.0] * 16)


@pytest.mark.parametrize("depth", [-1, MAX_DEPTH + 1, 7])
def test_every_jet_constructor_refuses_a_depth_out_of_range(depth):
    message = "^depth must be between 0 and %d$" % MAX_DEPTH
    with pytest.raises(ValueError, match=message):
        JetPoint([], depth=depth)
    with pytest.raises(ValueError, match=message):
        JetPoint.constant([1.0], depth=depth)
    with pytest.raises(ValueError, match=message):
        JetPoint.from_rows(depth, [[0.0]] * 2)
    with pytest.raises(ValueError, match=message):
        JetScalar.constant(1.0, depth)
    assert JetPoint([], depth=MAX_DEPTH).coeffs.shape == (1 << MAX_DEPTH, 0)


# -- sample batches -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 3), count=st.integers(1, 6), width=st.integers(1, 3),
       matrix=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_product_is_the_per_sample_product(depth, count, width, matrix, seed):
    # a sample axis between the mask axis and the coefficients changes no bit
    rng = np.random.default_rng(seed)
    shape = (1 << depth, count) + ((width, width) if matrix else (width,))
    a, b = rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape)
    mul = np.matmul if matrix else np.multiply
    per_sample = np.stack([_product(a[:, i], b[:, i], mul) for i in range(count)], axis=1)
    assert np.array_equal(_product(a, b, mul), per_sample)


def test_batched_structural_maps_act_per_sample():
    rng = np.random.default_rng(4)
    x = JetPoint.from_rows(2, rng.uniform(-1, 1, (4, 5, 3)))
    y = JetPoint.from_rows(2, np.concatenate((x.coeffs[:2], rng.uniform(-1, 1, (2, 5, 3)))))
    one = lambda z, i: JetPoint._of(z.coeffs[:, i])
    for i in range(5):
        xi, yi = one(x, i), one(y, i)
        assert one(lift_l(x, 2), i).to_rows() == lift_l(xi, 2).to_rows()
        assert one(flip_c(x), i).to_rows() == flip_c(xi).to_rows()
        assert one(add_tangent(x, y, 2), i).to_rows() == add_tangent(xi, yi, 2).to_rows()
        assert one(x.take(1, 3), i).to_rows() == xi.take(1, 3).to_rows()
    per_sample = residuals(x, y)
    assert per_sample.shape == (5,)
    assert per_sample.tolist() == [residual(one(x, i), one(y, i)) for i in range(5)]
    assert residual(x, y) == max(per_sample)
    # a NaN in one sample is that sample's residual only
    bad = x.coeffs.copy()
    bad[3, 2, 1] = math.nan
    nan_at = np.isnan(residuals(JetPoint._of(bad), x))
    assert nan_at.tolist() == [False, False, True, False, False]


def test_fold_falls_back_to_one_sample_slices():
    # a guard that raises for the whole batch when one sample is bad: only
    # that sample becomes NaN, the others keep their one-sample residuals
    values = np.array([0.25, 3.0, -1.0, 0.5, 3.0, -7.0])
    calls = []

    def evaluate(rows):
        calls.append(rows)
        picked = values[rows]
        if np.any(picked < 0.0):
            raise ValueError("guard met a bad sample")
        return picked * 2.0

    res = _residuals(len(values), evaluate)
    assert calls[0] == slice(None)
    for i, r in enumerate(res):
        if values[i] < 0.0:
            assert math.isnan(r)
        else:
            assert r == evaluate(slice(i, i + 1))[0]
    result = _fold("guarded", len(values), evaluate, 1e-9, 5, serialize=lambda i: i)
    assert not result.passed and math.isnan(result.max_residual)
    assert result.worst_input == 2  # the lowest-index worst sample
    assert result.samples == 6 and result.seed == 5
    # without a bad sample the batch is evaluated once
    values = values[values >= 0.0]
    calls.clear()
    clean = _fold("clean", len(values), evaluate, 1e-9, 5, serialize=lambda i: i)
    assert calls == [slice(None)]
    assert clean.max_residual == 6.0 and clean.worst_input == 1


def test_fold_keeps_a_nan_in_a_later_part():
    # the worst of several parts per sample: the first non-finite part wins,
    # so a NaN in the second part beats a larger finite first part
    first = np.array([0.5, 3.0, 9.0])
    second = np.array([0.1, 0.2, math.nan])
    worst = worst_of([first, second])
    assert worst[:2].tolist() == [0.5, 3.0] and math.isnan(worst[2])
    assert worst_of([np.array([math.inf, 1.0]), np.array([math.nan, 2.0])]).tolist() \
        == [math.inf, 2.0]
    result = _fold("parts", 3, lambda rows: worst_of([first[rows], second[rows]]), 1e-9, 0,
                   serialize=lambda i: i)
    assert math.isnan(result.max_residual) and result.worst_input == 2
