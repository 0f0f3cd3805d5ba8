import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invalg.jet import (
    JetPoint,
    JetScalar,
    PolyMap,
    _product,
    add_tangent,
    apply_poly,
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
from invalg.report import _fold, _residuals, run_check, worst_of
from jet_reference import reference_product


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
    y = apply_poly(f, x)
    assert y.to_rows() == [[9.0], [6.0], [6.0], [2.0]]


def test_promote_and_project_bookkeeping():
    x = jp(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    up = promote(x, 1)
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
    assert sub_tangent(s, y, 1).to_rows() == x.to_rows()
    z = jp(2, [[1.0], [2.0], [9.0], [6.0]])
    with pytest.raises(ValueError):
        add_tangent(x, z, 1)
    s2 = add_tangent(x, z, 2)
    assert s2.to_rows() == [[1.0], [2.0], [12.0], [10.0]]
    assert neg_tangent(x, 2).to_rows() == [[1.0], [2.0], [-3.0], [-4.0]]


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
    """Reference evaluation: one term at a time, added into its output."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (pm.out_dim,))
    for k, row in enumerate(pm.terms):
        for c, exps in row:
            term = np.full(x.shape[:-1], c)
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out[..., k] += term
    return out


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
    # no inputs: a constant map broadcasts over the leading dimensions
    const = PolyMap.constant([1.5, 0.0, -2.0], 0)
    assert const.eval_floats(np.zeros((2, 0))).tolist() == [[1.5, 0.0, -2.0]] * 2
    with pytest.raises(ValueError):
        const.eval_floats([1.0])


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
        assert residual(apply_poly(fg, x), apply_poly(f, apply_poly(g, x))) == 0.0


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
            assert residual(apply_poly(f, flip_c(x3, i, j)), flip_c(apply_poly(f, x3), i, j)) == 0.0
        for k in (1, 2, 3):
            assert residual(apply_poly(f, proj_p(x3, k)), proj_p(apply_poly(f, x3), k)) == 0.0
        x2 = JetPoint.from_rows(2, rng.uniform(-1, 1, size=(4, 2)))
        for k in (1, 2, 3):
            assert residual(apply_poly(f, insert_zero(x2, k)), insert_zero(apply_poly(f, x2), k)) == 0.0
        for k in (1, 2):
            assert residual(apply_poly(f, lift_l(x2, k)), lift_l(apply_poly(f, x2), k)) == 0.0


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


def test_residual_is_nan_when_any_difference_is():
    nan = math.nan
    x = jp(1, [[nan, 1.0], [nan, 2.0]])
    assert math.isnan(residual(x, x))
    # a NaN after a finite maximum is not dropped either
    y = jp(1, [[0.0, 9.0], [0.0, nan]])
    assert math.isnan(residual(y, jp(1, [[0.0, 0.0], [0.0, 0.0]])))


def test_run_check_fails_on_non_finite_residuals():
    cases = [([1e-15, math.nan, 1e-16], 1e-9), ([math.nan, 0.0], 1e-9),
             ([0.0, math.inf, math.nan], 1e-9), ([1e-15, math.inf], math.inf)]
    for values, tolerance in cases:
        result = run_check("r", values, lambda r: r, tolerance, 0, serialize=repr)
        assert not result.passed
        assert not math.isfinite(result.max_residual)
        # the worst input is the first non-finite one
        assert result.worst_input == repr(next(v for v in values if not math.isfinite(v)))

    # a sample whose evaluation raises fails the check as a NaN residual
    def evaluate(r):
        if r > 1.0:
            raise ValueError("projection mismatch")
        return r

    result = run_check("r", [1e-15, 2.0, 3.0], evaluate, 1e-9, 0, serialize=repr)
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_input == "2.0"


def test_worst_of_ranks_non_finite_first():
    assert worst_of([]) == 0.0
    assert worst_of([1e-15, 3e-16]) == 1e-15
    assert math.isnan(worst_of([1e-15, math.nan, 1e-16]))
    assert worst_of(iter([0.0, math.inf, math.nan])) == math.inf


def test_corrupted_lift_is_detected():
    # a "lift" that parks the coefficient in a pure slot instead of the mixed
    # slot behaves like a zero section; the fixed-point law must notice
    def bad_lift(x, direction=1):
        return insert_zero(x, direction)

    from invalg.jet import _law_lift_flip_fixed, _random_jet

    rng = np.random.default_rng(21)
    worst = max(_law_lift_flip_fixed(_random_jet(rng, 2, 2), lift=bad_lift) for _ in range(20))
    assert worst > 1e-3


def test_depth_cap_enforced():
    x = jp(3, [[float(c)] for c in range(8)])
    with pytest.raises(ValueError):
        lift_l(x, 1)
    with pytest.raises(ValueError):
        promote(x, 1)
    with pytest.raises(ValueError):
        JetScalar(4, [0.0] * 16)


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
