import numpy as np
import pytest

from invalg.bundle import (
    AElement,
    ScalarFieldSpec,
    SectionSpec,
    TAElement,
    lie_derivative,
    strong_difference_jet,
    ta_residual,
)
from invalg import catalog
from invalg.algebroid import ProlongElement, _lambda_jet, involution_from_spec, sigma
from invalg.groupoid import pair_compose, so3_group
from invalg.jet import (
    JetPoint,
    PolyMap,
    add_tangent,
    insert_zero,
    lift_l,
    proj_p,
    residual,
    sub_tangent,
)


def lattice(rng, size, scale=64):
    # dyadic samples keep float sums and small products exact, so laws that
    # hold on the nose can be asserted with residual 0.0
    return rng.integers(-2 * scale, 2 * scale + 1, size=size) / scale


def test_lift_lambda_frozen():
    out = _lambda_jet(JetPoint.constant([1.0, 2.0], 0), 1)
    assert out.to_rows() == [[1.0, 0.0], [0.0, 2.0]]


def test_lift_tangent_compatibility():
    # pushing the lift through the tangent functor agrees with the vertical
    # lift of nested tangents, coefficient for coefficient
    rng = np.random.default_rng(2)
    for dm in (1, 2):
        for da in (1, 2):
            v = JetPoint.constant(rng.uniform(-1, 1, (20, dm + da)), 0)
            lifted = _lambda_jet(v, dm)
            assert residual(_lambda_jet(lifted, dm), lift_l(lifted, 1)) == 0.0


def test_lambda_on_zero_section_is_zero_jet():
    v = JetPoint.constant([0.3, -0.7, 0.0, 0.0, 0.0], 0)
    assert residual(_lambda_jet(v, 2), insert_zero(v, 1)) == 0.0


def test_tpi_unit_is_prolonged_zero_section():
    # direction 2 adds in the fibers of T(p); its unit over a tangent is
    # the tangent prolongation of the zero section
    rng = np.random.default_rng(3)
    x = JetPoint.from_rows(2, rng.uniform(-1, 1, (4, 20, 3)))
    unit = insert_zero(proj_p(x, 2), 2)
    assert residual(add_tangent(x, unit, 2), x) == 0.0


def test_interchange_exact():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        q, r1, r2, s1, s2 = (lattice(rng, dim) for _ in range(5))
        # (x, y) and (w, z) share their direction-1 slot, (x, w) and (y, z)
        # their direction-2 slot
        x, y, w, z = (JetPoint.from_rows(2, [q, r, s, lattice(rng, dim)])
                      for r, s in ((r1, s1), (r1, s2), (r2, s1), (r2, s2)))
        lhs = add_tangent(add_tangent(x, y, 2), add_tangent(w, z, 2), 1)
        rhs = add_tangent(add_tangent(x, w, 1), add_tangent(y, z, 1), 2)
        assert residual(lhs, rhs) == 0.0


def test_strong_difference_matches_fiber_composite():
    rng = np.random.default_rng(5)
    for dm in (1, 2, 3):
        for da in (1, 2, 3):
            # tangents sharing both projections: the point (m, a) and the base
            # velocity mdot, with free fiber velocities
            point, mdot = rng.uniform(-1, 1, (10, dm + da)), rng.uniform(-1, 1, (10, dm))
            x, y = (JetPoint.from_rows(1, [point, np.concatenate(
                [mdot, rng.uniform(-1, 1, (10, da))], axis=1)]) for _ in range(2))
            delta = strong_difference_jet(x, y, dm)
            assert np.array_equal(delta, x.row(1)[:, dm:] - y.row(1)[:, dm:])
            # the difference in the outer fiber is the lifted strong difference
            # over the shared point
            lifted = _lambda_jet(JetPoint.constant(
                np.concatenate([point[:, :dm], delta], axis=1), 0), dm)
            assert np.array_equal(sub_tangent(x, y, 1).row(1), lifted.row(1))
            assert float(np.max(np.abs(strong_difference_jet(x, x, dm)))) == 0.0


def test_projection_guards_reject_nan():
    # a NaN mismatch compares false against any tolerance, so each guard
    # must reject it rather than let it through as a match
    nan = float("nan")
    y = JetPoint.from_rows(1, [[0.1, 1.0], [0.3, 0.2]])
    with pytest.raises(ValueError):
        strong_difference_jet(JetPoint.from_rows(1, [[0.1, 1.0], [nan, 0.5]]), y, 1)
    with pytest.raises(ValueError):
        strong_difference_jet(JetPoint.from_rows(1, [[nan, 1.0], [0.3, 0.5]]), y, 1)
    mat = so3_group().to_matrix([1.0, 2.0, 3.0])
    mat[0, 1] = nan
    with pytest.raises(ValueError):
        so3_group().project(mat)
    with pytest.raises(ValueError):
        add_tangent(JetPoint.from_rows(1, [[nan], [1.0]]), JetPoint.from_rows(1, [[0.2], [1.0]]))
    a = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        pair_compose((a, np.array([[nan], [1.0]])), (a, a))
    inv = involution_from_spec(catalog.tangent(1))
    pe = ProlongElement(AElement([0.3], [1.0]), TAElement([0.3], [0.5], [nan], [0.0]))
    with pytest.raises(ValueError):
        sigma(inv, pe)


def test_ta_residual_is_the_residual_of_the_two_jets():
    rng = np.random.default_rng(4)
    inf, nan = float("inf"), float("nan")
    for _ in range(20):
        x, y = (TAElement(*(lattice(rng, n) for n in (2, 3, 2, 3))) for _ in range(2))
        assert ta_residual(x, y) == residual(x.to_jet(), y.to_jet()) > 0.0
    # an inf in the m block and a NaN in a later block: NaN, as residual gives
    x = TAElement([inf, 0.0], [0.0], [0.0, 0.0], [nan])
    y = TAElement([0.0, 0.0], [0.0], [0.0, 0.0], [0.0])
    assert np.isnan(ta_residual(x, y)) and np.isnan(residual(x.to_jet(), y.to_jet()))
    # over a point base the m and mdot blocks are empty
    x, y = TAElement([], [1.0], [], [2.0]), TAElement([], [1.0], [], [-0.5])
    assert ta_residual(x, y) == residual(x.to_jet(), y.to_jet()) == 2.5


def test_ta_jet_roundtrip_and_projections():
    x = TAElement([1.0, 2.0], [3.0], [4.0, 5.0], [6.0])
    j = x.to_jet()
    assert ta_residual(TAElement.from_jet(j, 2), x) == 0.0
    # outer projection of the jet is the underlying point
    assert proj_p(j, 1).row(0).tolist() == [1.0, 2.0, 3.0]
    assert x.p_proj().m.tolist() == [1.0, 2.0]
    m, mdot = x.tpi_proj()
    assert m.tolist() == [1.0, 2.0] and mdot.tolist() == [4.0, 5.0]


def test_lie_derivative():
    f = ScalarFieldSpec(PolyMap.from_terms(1, [[(1.0, (2,))]]))
    X = SectionSpec(PolyMap.constant([1.0], 1))
    rho = PolyMap.constant([1.0], 1)
    for m in (-1.0, 0.0, 0.5, 2.0):
        assert abs(lie_derivative(f, X, rho, [m]) - 2.0 * m) < 1e-14
    const = ScalarFieldSpec(PolyMap.constant([4.2], 1))
    assert lie_derivative(const, X, rho, [0.3]) == 0.0
    rng = np.random.default_rng(15)
    g = ScalarFieldSpec(PolyMap.from_terms(1, [[(0.5, (3,)), (-2.0, (1,))]]))
    for _ in range(20):
        m = rng.uniform(-1, 1, 1)
        lf, lg = lie_derivative(f, X, rho, m), lie_derivative(g, X, rho, m)
        fg = ScalarFieldSpec(PolyMap.from_terms(1, [list(f.f_poly.terms[0]) + list(g.f_poly.terms[0])]))
        assert abs(lie_derivative(fg, X, rho, m) - (lf + lg)) < 1e-12
