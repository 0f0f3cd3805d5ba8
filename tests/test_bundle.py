import numpy as np
import pytest

from invalg.bundle import (
    AElement,
    ConnectionSpec,
    ScalarFieldSpec,
    SectionSpec,
    TAElement,
    a_residual,
    add_in_fiber,
    connection_H,
    connection_K,
    flatten_tangent_pair,
    lambda_polymap,
    lie_derivative,
    lift_lambda,
    nest_tangent_pair,
    strong_difference,
    strong_sum,
    sub_in_fiber,
    ta_residual,
    vf_bracket,
    vf_bracket_poly,
    xi_section,
    zero_p,
    zero_tpi,
)
from invalg import catalog
from invalg.algebroid import ProlongElement, involution_from_spec, sigma
from invalg.groupoid import pair_compose, so3_group
from invalg.jet import JetPoint, PolyMap, add_tangent, lift_l, proj_p, residual


def lattice(rng, size, scale=64):
    # dyadic samples keep float sums and small products exact, so laws that
    # hold on the nose can be asserted with residual 0.0
    return rng.integers(-2 * scale, 2 * scale + 1, size=size) / scale


def random_ta(rng, dm, da):
    return TAElement(
        rng.uniform(-1, 1, dm), rng.uniform(-1, 1, da),
        rng.uniform(-1, 1, dm), rng.uniform(-1, 1, da),
    )


def compatible_pair(rng, dm, da, draw=None):
    draw = draw or (lambda size: rng.uniform(-1, 1, size))
    m, a, mdot = draw(dm), draw(da), draw(dm)
    return (
        TAElement(m, a, mdot, draw(da)),
        TAElement(m, a, mdot, draw(da)),
    )


def test_lift_lambda_frozen():
    out = lift_lambda(AElement([1.0], [2.0]))
    assert out.m.tolist() == [1.0]
    assert out.a.tolist() == [0.0]
    assert out.mdot.tolist() == [0.0]
    assert out.adot.tolist() == [2.0]


def test_lift_tangent_compatibility():
    # pushing the lift through the tangent functor agrees with the vertical
    # lift of nested tangents, coefficient for coefficient
    rng = np.random.default_rng(2)
    for _ in range(50):
        dm, da = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        v = AElement(rng.uniform(-1, 1, dm), rng.uniform(-1, 1, da))
        lam = lambda_polymap(dm, da)
        base_jet = lift_lambda(v).to_jet()
        pushed = nest_tangent_pair(lam.eval_jet(base_jet), dm + da)
        assert residual(pushed, lift_l(base_jet, 1)) == 0.0


def test_lambda_on_zero_section_is_zero_jet():
    m = np.array([0.3, -0.7])
    v = xi_section(m, 3)
    assert ta_residual(lift_lambda(v), zero_p(v)) == 0.0


def test_add_in_fiber_basic():
    x = TAElement([1.0], [2.0], [3.0], [4.0])
    y = TAElement([1.0], [2.0], [5.0], [6.0])
    s = add_in_fiber(x, y, "p")
    assert s.mdot.tolist() == [8.0] and s.adot.tolist() == [10.0]
    assert s.a.tolist() == [2.0]
    z = TAElement([1.0], [7.0], [3.0], [6.0])
    s2 = add_in_fiber(x, z, "Tpi")
    assert s2.a.tolist() == [9.0] and s2.adot.tolist() == [10.0]
    assert s2.mdot.tolist() == [3.0]
    with pytest.raises(ValueError):
        add_in_fiber(x, z, "p")
    with pytest.raises(ValueError):
        add_in_fiber(x, TAElement([1.0], [2.0], [9.0], [0.0]), "Tpi")
    with pytest.raises(ValueError):
        add_in_fiber(x, y, "sideways")


def test_tpi_unit_is_prolonged_zero_section():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_ta(rng, 2, 3)
        unit = zero_tpi(x.m, x.mdot, x.dim_A)
        assert ta_residual(add_in_fiber(x, unit, "Tpi"), x) == 0.0


def test_interchange_exact():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dm, da = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = lattice(rng, dm)
        a1, a2 = lattice(rng, da), lattice(rng, da)
        u1, u2 = lattice(rng, dm), lattice(rng, dm)
        x = TAElement(m, a1, u1, lattice(rng, da))
        y = TAElement(m, a2, u1, lattice(rng, da))
        w = TAElement(m, a1, u2, lattice(rng, da))
        z = TAElement(m, a2, u2, lattice(rng, da))
        lhs = add_in_fiber(add_in_fiber(x, y, "Tpi"), add_in_fiber(w, z, "Tpi"), "p")
        rhs = add_in_fiber(add_in_fiber(x, w, "p"), add_in_fiber(y, z, "p"), "Tpi")
        assert ta_residual(lhs, rhs) == 0.0


def test_strong_difference_matches_fiber_composite():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dm, da = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x, y = compatible_pair(rng, dm, da)
        delta = strong_difference(x, y)
        assert np.array_equal(delta.a, x.adot - y.adot)
        composite = sub_in_fiber(sub_in_fiber(x, y, "p"), zero_p(y.p_proj()), "Tpi")
        assert ta_residual(composite, lift_lambda(delta)) == 0.0
    x, _ = compatible_pair(rng, 2, 2)
    assert float(np.max(np.abs(strong_difference(x, x).a))) == 0.0


def test_projection_guards_reject_nan():
    # a NaN mismatch compares false against any tolerance, so each guard
    # must reject it rather than let it through as a match
    nan = float("nan")
    with pytest.raises(ValueError):
        strong_difference(TAElement([0.1], [1.0], [nan], [0.5]),
                          TAElement([0.1], [1.0], [0.3], [0.2]))
    with pytest.raises(ValueError):
        add_in_fiber(TAElement([nan], [1.0], [0.3], [0.5]),
                     TAElement([0.1], [1.0], [0.3], [0.2]), "p")
    mat = so3_group().to_matrix([1.0, 2.0, 3.0])
    mat[0, 1] = nan
    with pytest.raises(ValueError):
        so3_group().project(mat)
    with pytest.raises(ValueError):
        add_tangent(JetPoint.from_rows(1, [[nan], [1.0]]), JetPoint.from_rows(1, [[0.2], [1.0]]))
    a = JetPoint.from_rows(1, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        pair_compose((a, JetPoint.from_rows(1, [[nan], [1.0]])), (a, a))
    inv = involution_from_spec(catalog.tangent(1))
    pe = ProlongElement(AElement([0.3], [1.0]), TAElement([0.3], [0.5], [nan], [0.0]))
    with pytest.raises(ValueError):
        sigma(inv, pe)


def test_strong_sum_inverse_and_associativity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dm, da = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        draw = lambda size: lattice(rng, size)
        x, y = compatible_pair(rng, dm, da, draw=draw)
        assert ta_residual(strong_sum(y, strong_difference(x, y)), x) == 0.0
        u = AElement(x.m, draw(da))
        u2 = AElement(x.m, draw(da))
        both = strong_sum(strong_sum(x, u), u2)
        merged = strong_sum(x, AElement(u.m, u.a + u2.a))
        assert ta_residual(both, merged) == 0.0
        assert ta_residual(strong_sum(x, xi_section(x.m, da)), x) == 0.0
    # the composite the coordinate form collapses: lift, pad with the zero
    # over the point, then translate in the outer fiber
    x = TAElement([0.5], [0.25], [0.75], [0.125])
    u = AElement([0.5], [0.375])
    composite = add_in_fiber(
        add_in_fiber(lift_lambda(u), zero_p(x.p_proj()), "Tpi"), x, "p"
    )
    assert ta_residual(composite, strong_sum(x, u)) == 0.0


def test_connection_K_laws():
    rng = np.random.default_rng(7)
    flat = ConnectionSpec.flat(2, 3)
    x = random_ta(rng, 2, 3)
    assert np.array_equal(connection_K(flat, x).a, x.adot)
    for _ in range(20):
        c = ConnectionSpec.random_poly(rng, 2, 3, degree=2)
        v = AElement(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3))
        assert a_residual(connection_K(c, lift_lambda(v)), v) == 0.0
        assert a_residual(connection_K(c, zero_p(v)), xi_section(v.m, 3)) == 0.0


def test_connection_H_laws():
    rng = np.random.default_rng(8)
    flat = ConnectionSpec.flat(2, 2)
    v = AElement([0.1, 0.2], [0.3, 0.4])
    w = np.array([1.0, -1.0])
    h = connection_H(flat, v, w)
    assert np.array_equal(h.mdot, w) and np.array_equal(h.adot, np.zeros(2))
    for _ in range(20):
        c = ConnectionSpec.random_poly(rng, 2, 2, degree=2)
        v = AElement(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        w = rng.uniform(-1, 1, 2)
        h = connection_H(c, v, w)
        # section of the joint projection
        assert np.array_equal(h.m, v.m) and np.array_equal(h.a, v.a)
        assert np.array_equal(h.mdot, w)
        # horizontal then vertical lands on the zero section, exactly
        assert a_residual(connection_K(c, h), xi_section(v.m, 2)) == 0.0


def test_connection_decomposition_exact():
    rng = np.random.default_rng(9)
    for _ in range(50):
        dm, da = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        c = ConnectionSpec.random_poly(rng, dm, da, degree=1, scale=1.0, lattice=16)
        x = TAElement(lattice(rng, dm, 16), lattice(rng, da, 16),
                      lattice(rng, dm, 16), lattice(rng, da, 16))
        rebuilt = add_in_fiber(
            connection_H(c, x.p_proj(), x.mdot),
            add_in_fiber(lift_lambda(connection_K(c, x)), zero_p(x.p_proj()), "Tpi"),
            "p",
        )
        assert ta_residual(rebuilt, x) == 0.0


def test_fiber_prop_identities():
    # the chain of coordinate identities around the strong difference
    rng = np.random.default_rng(10)
    for _ in range(40):
        dm, da = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x, y = compatible_pair(rng, dm, da)
        lam = lift_lambda(AElement(x.m, rng.uniform(-1, 1, da)))
        a = random_ta(rng, dm, da)
        a = TAElement(x.m, a.a, a.mdot, a.adot)

        lhs2 = add_in_fiber(add_in_fiber(lam, zero_p(a.p_proj()), "Tpi"), a, "p")
        rhs2 = add_in_fiber(
            add_in_fiber(lam, zero_tpi(a.m, a.mdot, da), "p"), a, "Tpi"
        )
        assert ta_residual(lhs2, rhs2) == 0.0

        lhs3 = sub_in_fiber(sub_in_fiber(x, y, "p"), zero_p(y.p_proj()), "Tpi")
        rhs3 = sub_in_fiber(sub_in_fiber(x, y, "Tpi"), zero_tpi(y.m, y.mdot, da), "p")
        assert ta_residual(lhs3, rhs3) == 0.0

        # both projections of the collapsed difference are zero sections
        m4, mdot4 = lhs3.tpi_proj()
        assert float(np.max(np.abs(mdot4))) == 0.0
        assert np.array_equal(m4, y.m)
        assert a_residual(rhs3.p_proj(), xi_section(y.m, da)) == 0.0
        assert a_residual(lhs3.p_proj(), xi_section(x.m, da)) == 0.0


def test_nest_flatten_roundtrip():
    rng = np.random.default_rng(11)
    x = JetPoint.from_rows(2, rng.uniform(-1, 1, size=(4, 3)))
    assert residual(nest_tangent_pair(flatten_tangent_pair(x), 3), x) == 0.0
    j = x.to_rows()
    flat = flatten_tangent_pair(x)
    assert flat.row(0).tolist() == j[0] + j[2]
    assert flat.row(1).tolist() == j[1] + j[3]


def test_ta_jet_roundtrip_and_projections():
    x = TAElement([1.0, 2.0], [3.0], [4.0, 5.0], [6.0])
    j = x.to_jet()
    assert ta_residual(TAElement.from_jet(j, 2), x) == 0.0
    # outer projection of the jet is the underlying point
    assert proj_p(j, 1).row(0).tolist() == [1.0, 2.0, 3.0]
    assert x.p_proj().m.tolist() == [1.0, 2.0]
    m, mdot = x.tpi_proj()
    assert m.tolist() == [1.0, 2.0] and mdot.tolist() == [4.0, 5.0]


def test_vf_bracket_known_values():
    one = PolyMap.constant([1.0], 1)
    ident = PolyMap.identity(1)
    # D(x)*1 - D(1)*x = 1
    ev = vf_bracket(one, ident)
    for m in (-0.5, 0.0, 2.0):
        assert abs(ev([m])[0] - 1.0) < 1e-14
    same = vf_bracket(ident, ident)
    assert abs(same([0.7])[0]) == 0.0


def random_field(rng, k, degree=3):
    rows = []
    import itertools
    exps = [e for e in itertools.product(range(degree + 1), repeat=k) if sum(e) <= degree]
    for _ in range(k):
        chosen = [e for e in exps if rng.uniform() < 0.6] or [exps[0]]
        rows.append(tuple((float(rng.uniform(-1, 1)), tuple(e)) for e in chosen))
    return PolyMap(k, k, tuple(rows))


def test_vf_bracket_jet_route_matches_derivative_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        X, Y = random_field(rng, k), random_field(rng, k)
        ev = vf_bracket(X, Y)
        oracle = vf_bracket_poly(X, Y)
        for _ in range(5):
            m = rng.uniform(-1, 1, k)
            assert np.max(np.abs(ev(m) - oracle.eval_floats(m))) < 1e-12


def test_vf_bracket_bilinear_and_alternating():
    rng = np.random.default_rng(13)
    k = 2
    X, X2, Y = random_field(rng, k), random_field(rng, k), random_field(rng, k)
    a, b = 0.7, -1.3
    combo = PolyMap(
        k, k,
        tuple(
            tuple((a * c, e) for c, e in X.terms[i]) + tuple((b * c, e) for c, e in X2.terms[i])
            for i in range(k)
        ),
    )
    left = vf_bracket(combo, Y)
    r1, r2 = vf_bracket(X, Y), vf_bracket(X2, Y)
    for _ in range(10):
        m = rng.uniform(-1, 1, k)
        assert np.max(np.abs(left(m) - (a * r1(m) + b * r2(m)))) < 1e-12
        fwd, bwd = vf_bracket(X, Y), vf_bracket(Y, X)
        assert np.max(np.abs(fwd(m) + bwd(m))) < 1e-12


def test_vf_bracket_jacobi():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(15):
        k = int(rng.integers(1, 4))
        X, Y, Z = (random_field(rng, k) for _ in range(3))
        inner_yz = vf_bracket_poly(Y, Z)
        inner_xy = vf_bracket_poly(X, Y)
        inner_zx = vf_bracket_poly(Z, X)
        t1, t2, t3 = vf_bracket(X, inner_yz), vf_bracket(Z, inner_xy), vf_bracket(Y, inner_zx)
        for _ in range(5):
            m = rng.uniform(-1, 1, k)
            worst = max(worst, float(np.max(np.abs(t1(m) + t2(m) + t3(m)))))
    assert worst < 1e-9


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
