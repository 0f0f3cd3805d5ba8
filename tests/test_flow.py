import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invalg.algebroid import AlgebroidSpec, InvolutionAlgebroid, involution_from_spec
from invalg.bundle import AElement
from invalg.catalog import (
    abelian,
    action_so3_r3,
    get as catalog_get,
    names as catalog_names,
    so3,
    tangent,
)
from invalg.cli import load_fixture
from invalg.flow import (
    MAX_STEPS,
    AHomotopyVariation,
    APathVariation,
    FiberPath,
    FiberSurface,
    HomotopyTransport,
    PathTransport,
    _affine_anchor,
    _affine_rk4,
    _fiber_coefficients,
    _square_stages,
    _step_count,
    _transport_rows,
    ahomotopy_transport,
    alg1_residuals,
    alg2_residuals,
    apath_transport,
    expm,
    grid_derivative,
    inf_ahomotopy_vee,
    inf_ahomotopy_wedge,
    inf_apath_vee,
    inf_apath_wedge,
    rk4_solve,
)
from invalg.jet import JetPoint, PolyMap
from invalg.report import quiet
from structure_reference import reference_c_tensor

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def tangent_member():
    # blocks (0.4 + t^2, 2t, 1 + t^3, 3t^2): the fiber matches the base speed
    # and the velocity blocks are the t-derivative of a deformation
    phi = PolyMap.from_terms(1, [
        ((0.4, (0,)), (1.0, (2,))),
        ((2.0, (1,)),),
        ((1.0, (0,)), (1.0, (3,))),
        ((3.0, (2,)),),
    ])
    return APathVariation(1, 1, phi, 1.0)


def action_generic_variation(spec):
    # not a member; used where only the flow equations themselves matter
    m0 = np.array([0.3, -0.2, 0.5])
    b0 = np.array([0.2, -0.1, 0.4])
    mdot0 = involution_from_spec(spec).anchor_apply(m0, b0)
    rows = [
        ((m0[0], (0,)), (0.2, (1,))),
        ((m0[1], (0,)), (1.0, (2,))),
        ((m0[2], (0,)), (-0.1, (3,))),
        ((0.4, (1,)),),
        ((1.0, (0,)), (-1.0, (1,))),
        ((0.5, (2,)),),
        ((mdot0[0], (0,)), (0.3, (1,))),
        ((mdot0[1], (0,)), (-0.3, (2,))),
        ((mdot0[2], (0,)), (0.6, (1,))),
        ((0.1, (0,)), (1.0, (1,))),
        ((0.2, (3,)),),
        ((-0.3, (0,)), (0.5, (2,))),
    ]
    return APathVariation(3, 3, PolyMap.from_terms(1, rows), 1.0), m0, b0


def quadratic_anchor():
    # rank 1 over a line with anchor m^2 and zero bracket
    spec = AlgebroidSpec.from_structure(1, 1, PolyMap.from_terms(1, [((1.0, (2,)),)]), [])
    return involution_from_spec(spec)


def quadratic_anchor_path(m0: float):
    # driven by a = 1 the base solves m' = m^2, so m(t) = m0 / (1 - m0 t)
    phi = PolyMap.from_terms(1, [((m0, (0,)),), ((1.0, (0,)),), ((m0 * m0, (0,)),), ()])
    return quadratic_anchor(), APathVariation(1, 1, phi, 1.0), AElement([m0], [1.0])


def so3_path():
    # over a point the base is empty and the fiber equation carries the bracket
    rows = [((1.0, (1,)),), ((0.5, (0,)), (1.0, (2,))), ((-1.0, (0,)),),
            ((1.0, (0,)),), ((1.0, (1,)), (0.3, (0,))), ()]
    return APathVariation(0, 3, PolyMap.from_terms(1, rows), 1.0), AElement([], [0.0, 0.5, -1.0])


def stepwise_transport(inv, phi, a0, h):
    # the split equations one RK4 stage at a time: the base at half steps,
    # then the affine fiber equation along it, as rk4_solve integrates them
    n = max(1, round(phi.t_end / h))
    half = phi.t_end / (2 * n)
    _, base = rk4_solve(lambda t, m: inv.anchor_apply(m, phi.blocks(t).a), a0.m, phi.t_end, half)
    blocks = phi.phi.eval_floats((np.arange(2 * n + 1) * half)[:, None])
    mats, offs = _fiber_coefficients(inv, blocks, base)

    def fiber_field(t, b):
        k = round(t / half)
        return mats[k] @ b + offs[k]

    _, fiber = rk4_solve(fiber_field, a0.a, phi.t_end, 2 * half)
    return base[::2], fiber


def holonomic_homotopy():
    # gamma(s,t) = (st, s+t); delta is a polynomial deformation vanishing at
    # the corner, so both transports must reproduce delta itself
    gamma = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (1, 0)), (1.0, (0, 1))),
    ])
    delta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)), (0.5, (1, 0))),
        ((1.0, (2, 0)), (-1.0, (0, 1)), (1.0, (1, 3))),
    ])
    h0 = gamma.stack(gamma.partial(0)).stack(delta).stack(delta.partial(0))
    h1 = gamma.stack(gamma.partial(1)).stack(delta).stack(delta.partial(1))
    return AHomotopyVariation(2, 2, h0, h1), gamma, delta


# -- fixed-step integrator ----------------------------------------------------


def test_rk4_constant_field_is_exact():
    times, states = rk4_solve(lambda t, x: np.zeros(2), [1.5, -0.5], 1.0, 0.1)
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.array_equal(states, np.tile([1.5, -0.5], (11, 1)))


def test_rk4_exponential_growth():
    _, states = rk4_solve(lambda t, x: x, [1.0], 1.0, 1e-3)
    assert abs(states[-1][0] - math.e) < 1e-10


def test_rk4_matches_expm_on_linear_system():
    rng = np.random.default_rng(7)
    mat = rng.uniform(-0.5, 0.5, (4, 4))
    x0 = rng.uniform(-1.0, 1.0, 4)
    _, states = rk4_solve(lambda t, x: mat @ x, x0, 1.0, 1e-3)
    assert float(np.max(np.abs(states[-1] - expm(mat) @ x0))) < 1e-8


def test_rk4_divergence_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="diverged"):
            rk4_solve(lambda t, x: x * x, [2.0], 1.0, 1e-3)


def test_rk4_rejects_bad_parameters():
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="step"):
            rk4_solve(lambda t, x: x, [1.0], 1.0, h)
    with pytest.raises(ValueError):
        rk4_solve(lambda t, x: x, [1.0], -1.0, 0.1)


def sequential_affine_rk4(mats, offs, x0, h):
    # the step maps applied one after another, each to the state before it:
    # the reference for the prefix products of _affine_rk4
    steps, rows, d = offs.shape
    f = np.zeros((steps, rows, d + 1, d + 1))
    f[..., :d, :d] = mats
    f[..., :d, d] = offs
    one = np.eye(d + 1)
    k1, mid, end = f[:-1:2], f[1::2], f[2::2]
    k2 = mid @ (one + (h / 2) * k1)
    k3 = mid @ (one + (h / 2) * k2)
    k4 = end @ (one + h * k3)
    maps = one + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    states = np.empty((len(maps) + 1, rows, d + 1, 1))
    states[0, :, :d, 0] = x0
    states[0, :, d] = 1.0
    for i, step in enumerate(maps):
        states[i + 1] = step @ states[i]
    bad = ~np.isfinite(states[1:]).all(axis=(1, 2, 3))
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError("trajectory diverged at t = %g" % (i * h + h))
    return states[:, :, :d, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 64, 1001])
@pytest.mark.parametrize("rows", [1, 11])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_affine_rk4_prefix_products_match_sequential_steps(d, rows, n):
    rng = np.random.default_rng(1000 * d + 10 * rows + n)
    mats = rng.uniform(-1.0, 1.0, (2 * n + 1, rows, d, d))
    offs = rng.uniform(-1.0, 1.0, (2 * n + 1, rows, d))
    x0 = rng.uniform(-1.0, 1.0, (rows, d))
    got = _affine_rk4(mats, offs, x0, 1.0 / n)
    want = sequential_affine_rk4(mats, offs, x0, 1.0 / n)
    assert got.shape == want.shape == (n + 1, rows, d)
    assert np.array_equal(got[0], x0)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def exploding_system(n: int, rows: int = 1):
    # x' = 1000 x: each step multiplies by about 2.7, so the state overflows
    # near t = 0.71 from x0 = 1, and the step products overflow there too
    mats = np.full((2 * n + 1, rows, 1, 1), 1000.0)
    return mats, np.zeros((2 * n + 1, rows, 1))


def divergence_time(solve, *args) -> str:
    with quiet(), pytest.raises(ArithmeticError, match="diverged") as caught:
        solve(*args)
    return str(caught.value)


@pytest.mark.parametrize("x0", [1.0, -3e5, 1e-100])
def test_affine_rk4_divergence_time_matches_sequential_steps(x0):
    # from 1e-100 the state overflows near t = 0.94, after the products do
    mats, offs = exploding_system(1000)
    start = np.array([[x0]])
    got = divergence_time(_affine_rk4, mats, offs, start, 1e-3)
    assert got == divergence_time(sequential_affine_rk4, mats, offs, start, 1e-3)


def test_affine_rk4_overflowing_products_need_not_diverge():
    # the step products overflow near t = 0.71, but a state that starts at
    # 1e-300 (or at exactly 0) stays finite up to t = 1, as in the step loop
    mats, offs = exploding_system(1000, 2)
    start = np.array([[1e-300], [0.0]])
    with quiet():
        got = _affine_rk4(mats, offs, start, 1e-3)
        want = sequential_affine_rk4(mats, offs, start, 1e-3)
    assert np.all(np.isfinite(got)) and got[-1, 0, 0] > 1e120
    assert np.array_equal(got, want)


# -- matrix exponential -------------------------------------------------------


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_of_the_empty_matrix_is_the_empty_identity():
    out = expm(np.zeros((0, 0)))
    assert out.shape == (0, 0) and out.dtype == np.eye(0).dtype


def test_expm_diagonal():
    out = expm(np.diag([1.0, -2.0, 0.5]))
    ref = np.diag(np.exp([1.0, -2.0, 0.5]))
    assert float(np.max(np.abs(out - ref))) < 1e-12 * float(np.max(ref))


def test_expm_rotation():
    th = 0.77
    out = expm(np.array([[0.0, -th], [th, 0.0]]))
    ref = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    assert float(np.max(np.abs(out - ref))) < 1e-14


def test_expm_symmetric_eigenbasis():
    c, s = math.cos(0.3), math.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    a = q @ np.diag([3.0, -7.0]) @ q.T
    ref = q @ np.diag([math.exp(3.0), math.exp(-7.0)]) @ q.T
    rel = float(np.max(np.abs(expm(a) - ref))) / float(np.max(np.abs(ref)))
    assert rel < 1e-12


def test_expm_nilpotent_is_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(expm(n), np.eye(2) + n)


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_expm_matches_scipy_including_large_norms():
    # norms of 10-50 take the kernel through six to eight squarings, which the
    # norm-2 integrator comparison above never reaches
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 6):
        for norm in (0.3, 2.0, 10.0, 25.0, 50.0):
            a = rng.standard_normal((n, n))
            a *= norm / np.linalg.norm(a, 2)
            ref = scipy_expm(a)
            assert np.max(np.abs(expm(a) - ref)) <= 1e-10 * np.max(np.abs(ref))
            # a skew matrix exponentiates to a rotation, entries at most 1
            skew = a - a.T
            assert np.max(np.abs(expm(skew) - scipy_expm(skew))) <= 1e-12


# -- path variations and membership -------------------------------------------


def test_tangent_member_has_zero_residuals():
    inv = involution_from_spec(tangent(1))
    res = tangent_member().membership_residual(inv)
    assert res["anchor"] < 1e-12
    assert res["variation"] < 1e-12


def test_membership_flags_anchor_violation():
    inv = involution_from_spec(tangent(1))
    phi = tangent_member()
    rows = list(phi.phi.terms)
    rows[1] = rows[1] + ((0.3, (0,)),)  # fiber no longer matches base speed
    bad = APathVariation(1, 1, PolyMap(1, 4, tuple(rows)), 1.0)
    res = bad.membership_residual(inv)
    assert res["anchor"] > 1e-3
    assert res["variation"] < 1e-12


def test_membership_flags_variation_violation():
    inv = involution_from_spec(tangent(1))
    phi = tangent_member()
    rows = list(phi.phi.terms)
    rows[3] = ((7.0, (2,)),)  # fiber velocity detached from the base velocity
    bad = APathVariation(1, 1, PolyMap(1, 4, tuple(rows)), 1.0)
    res = bad.membership_residual(inv)
    assert res["anchor"] < 1e-12
    assert res["variation"] > 1e-3


def test_membership_needs_two_nodes_per_axis():
    # both variations have a defect of 1.0 at every node; a grid of no node
    # would read 0.0 and one of a single node sees no second time or node
    inv = involution_from_spec(tangent(1))
    path = APathVariation(1, 1, PolyMap.from_terms(1, [((0.4, (0,)),), ((1.0, (0,)),), (), ()]))
    square = AHomotopyVariation(1, 1, PolyMap.zero(2, 4),
                                PolyMap.from_terms(2, [((1.0, (0, 0)),), (), (), ()]))
    for grid in (2, 33):
        assert path.membership_residual(inv, grid)["anchor"] == 1.0
    for grid in (2, 9):
        assert square.membership_residual(inv, grid)["paired-base"] == 1.0
    for grid in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least two nodes per axis, got %d" % grid):
            path.membership_residual(inv, grid)
        with pytest.raises(ValueError, match="at least two nodes per axis, got %d" % grid):
            square.membership_residual(inv, grid)


def test_variation_shape_checks():
    with pytest.raises(ValueError):
        APathVariation(1, 1, PolyMap.zero(2, 4), 1.0)
    with pytest.raises(ValueError):
        APathVariation(1, 1, PolyMap.zero(1, 3), 1.0)
    with pytest.raises(ValueError):
        APathVariation(1, 1, PolyMap.zero(1, 4), 0.0)


# -- path transport -----------------------------------------------------------


def test_transport_tangent_closed_form():
    inv = involution_from_spec(tangent(1))
    run = apath_transport(inv, tangent_member(), AElement([0.4], [1.0]), 1e-3)
    t = run.times
    assert float(np.max(np.abs(run.base[:, 0] - (0.4 + t ** 2)))) < 1e-8
    assert float(np.max(np.abs(run.fiber[:, 0] - (1.0 + t ** 3)))) < 1e-8
    assert run.anchor_residual < 1e-6


def test_transport_flip_route_matches_spec_route():
    inv = involution_from_spec(tangent(1))
    bare = InvolutionAlgebroid(1, 1, inv.rho, inv.flip)
    a0 = AElement([0.4], [1.0])
    run_s = apath_transport(inv, tangent_member(), a0, 1e-2)
    run_f = apath_transport(bare, tangent_member(), a0, 1e-2)
    assert float(np.max(np.abs(run_s.fiber - run_f.fiber))) < 1e-12
    assert float(np.max(np.abs(run_s.base - run_f.base))) < 1e-12


def test_transport_abelian_base_frozen():
    inv = involution_from_spec(abelian())
    # zero anchor: base cannot move and the fiber integrates its own velocity
    phi = PolyMap.from_terms(1, [
        ((0.3, (0,)),),
        ((1.0, (1,)),), ((1.0, (2,)),),
        (),
        ((1.0, (0,)),), ((2.0, (1,)),),
    ])
    run = apath_transport(inv, APathVariation(1, 2, phi, 1.0),
                          AElement([0.3], [0.5, -0.5]), 1e-3)
    assert np.all(run.base == 0.3)
    assert run.anchor_residual == 0.0
    t = run.times
    ref = np.stack([0.5 + t, -0.5 + t ** 2], axis=1)
    assert float(np.max(np.abs(run.fiber - ref))) < 1e-10


def test_transport_rejects_noncomposable_start():
    inv = involution_from_spec(tangent(1))
    with pytest.raises(ValueError, match="composable"):
        apath_transport(inv, tangent_member(), AElement([0.9], [1.0]))
    with pytest.raises(ValueError, match="composable"):
        apath_transport(inv, tangent_member(), AElement([0.4], [0.3]))
    # a NaN gap is no small gap: it fails the tolerance rather than diverging
    # later in the integration
    with pytest.raises(ValueError, match="composable"):
        apath_transport(inv, tangent_member(), AElement([math.nan], [1.0]), h=1e-2)


def test_coefficient_routes_agree_on_curved_anchor():
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    bare = InvolutionAlgebroid(3, 3, inv.rho, inv.flip)
    phi, m0, _ = action_generic_variation(spec)
    # a (time, base point) table, as the transport batches it
    blocks = phi.phi.eval_floats(np.array([0.0, 0.3, 0.7, 1.0])[:, None, None])
    blocks = np.broadcast_to(blocks, (4, 2, 12))
    base = np.stack([m0, m0 + (0.2, -0.4, 0.1)])
    base = np.broadcast_to(base, (4, 2, 3))
    mat_s, off_s = _fiber_coefficients(inv, blocks, base)
    mat_f, off_f = _fiber_coefficients(bare, blocks, base)
    assert mat_s.shape == mat_f.shape == (4, 2, 3, 3)
    assert off_s.shape == off_f.shape == (4, 2, 3)
    assert float(np.max(np.abs(mat_s - mat_f))) < 1e-12
    assert float(np.max(np.abs(off_s - off_f))) < 1e-12
    assert float(np.max(np.abs(mat_s[1, 1]))) > 0.1  # the anchor is curved here


def jacobian_route(inv, a_t):
    # the affine base equation from the anchor's Jacobian and its matrix at
    # the origin, each contracted with a_t by its own product
    origin = np.zeros(inv.dim_M)
    slope = inv.rho.jacobian_at(origin).reshape(inv.dim_M, inv.dim_A, inv.dim_M)
    return (np.einsum("ijk,...j->...ik", slope, a_t), a_t @ inv.anchor_matrix(origin).T)


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_get(n).rho.degree <= 1])
def test_affine_anchor_is_the_jacobian_route_exactly(name):
    inv = involution_from_spec(catalog_get(name))
    a_t = np.random.default_rng(3).uniform(-1, 1, (9, 2, inv.dim_A))
    mats, offs = _affine_anchor(inv, a_t)
    want_mats, want_offs = jacobian_route(inv, a_t)
    assert mats.shape == want_mats.shape == (9, 2, inv.dim_M, inv.dim_M)
    assert np.array_equal(mats, want_mats) and np.array_equal(offs, want_offs)


def non_dyadic_anchor(rng, dim_A: int = 3):
    # an affine anchor over the plane with random coefficients
    rho = PolyMap.from_terms(2, [[(c, e) for c, e in zip(rng.uniform(-1, 1, 3),
                                                            [(0, 0), (1, 0), (0, 1)])]
                                 for _ in range(2 * dim_A)])
    pairs = dim_A * (dim_A - 1) // 2
    return involution_from_spec(AlgebroidSpec(2, dim_A, rho, PolyMap.zero(2, dim_A * pairs)))


def test_affine_anchor_matches_jacobian_route_on_non_dyadic_anchor():
    rng = np.random.default_rng(11)
    inv = non_dyadic_anchor(rng)
    a_t = rng.uniform(-1, 1, (9, 2, 3))
    got, want = _affine_anchor(inv, a_t), jacobian_route(inv, a_t)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert float(np.max(np.abs(g - w))) <= 1e-15
    assert float(np.max(np.abs(got[0]))) > 0.1  # the anchor does depend on m


def anchor_kernel_route(inv, a_t):
    # the affine base equation from rho(m) a_t at m = 0, e_1, ..., e_dim_M,
    # each read from the anchor kernel in one call over those probes
    dm = inv.dim_M
    probes = np.vstack([np.zeros(dm), np.eye(dm)])
    probes = probes.reshape((dm + 1,) + (1,) * (a_t.ndim - 1) + (dm,))
    at = inv._anchor(probes[None], a_t[None])[0]
    return np.moveaxis(at[1:] - at[0], 0, -1), at[0]


NON_DYADIC_FIBERS = {"non-dyadic": 3, "non-dyadic-8": 8, "non-dyadic-12": 12}


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_get(n).rho.degree <= 1]
                         + list(NON_DYADIC_FIBERS))
def test_affine_anchor_is_the_anchor_kernel_bit_for_bit(name):
    # _affine_anchor contracts the anchor with a_t by its own loop; it must
    # give the kernel's bits, the sign of a zero included.  With 8 or more
    # fiber indices the kernel's reduce no longer adds in index order, and
    # the two agree within rounding of the sum of the products' magnitudes.
    rng = np.random.default_rng(3)
    if name in NON_DYADIC_FIBERS:
        inv = non_dyadic_anchor(rng, NON_DYADIC_FIBERS[name])
    else:
        inv = involution_from_spec(catalog_get(name))
    dm, da = inv.dim_M, inv.dim_A
    a_t = rng.uniform(-1, 1, (9, 2, da))
    (mats, offs), (want_mats, want_offs) = _affine_anchor(inv, a_t), anchor_kernel_route(inv, a_t)
    assert mats.shape == want_mats.shape and offs.shape == want_offs.shape
    if da < 8:
        assert mats.tobytes() == want_mats.tobytes() and offs.tobytes() == want_offs.tobytes()
        return
    # |rho(p)| |a_t| summed over the fiber index at each probe p = 0, e_1, ...
    rho = inv.anchor_matrix(np.vstack([np.zeros(dm), np.eye(dm)]))
    scale = np.abs(rho[:, None, None] * a_t[..., None, :]).sum(axis=-1)
    bound = 4 * np.finfo(float).eps
    assert np.all(np.abs(offs - want_offs) <= bound * scale[0])
    mat_scale = np.moveaxis(scale[1:] + scale[0], 0, -1)
    assert np.all(np.abs(mats - want_mats) <= bound * mat_scale)


def random_curved_spec(rng, dim_M: int, dim_A: int) -> AlgebroidSpec:
    # random structure functions of degree <= 2 over the base, non-dyadic
    # coefficients; the anchor plays no part in the fiber matrix
    exps = [e for e in itertools.product(range(3), repeat=dim_M) if sum(e) <= 2]
    rows = dim_A * dim_A * (dim_A - 1) // 2
    c_pairs = PolyMap.from_terms(dim_M, [list(zip(rng.uniform(-2, 2, len(exps)).tolist(), exps))
                                         for _ in range(rows)])
    return AlgebroidSpec(dim_M, dim_A, PolyMap.zero(dim_M, dim_M * dim_A), c_pairs)


CURVED_FIBERS = {"random curved": 4, "random curved 5": 5, "random curved 8": 8}


@pytest.mark.parametrize("name", catalog_names() + list(CURVED_FIBERS))
def test_fiber_matrix_is_the_reflected_tensor_contraction(name):
    # column i of the fiber matrix is C(m)(e_i, a_phi) from the C kernel; the
    # fiber equation once contracted the full reflected tensor with a_phi by
    # matmul.  Every catalog column sums at most one nonzero product, so the
    # two agree bit for bit.  A generic C sums several, and matmul may fuse
    # its multiply-adds (OpenBLAS does): there the kernel gives the bits of
    # the sum in index order, each product rounded (with fewer than 8 pairs
    # its reduce runs in sequence), within rounding of matmul.  With 8 or
    # more pairs (dim_A >= 5) the reduce no longer adds in index order, and
    # the kernel agrees with the in-order sum within the same rounding.
    rng = np.random.default_rng(17)
    if name in CURVED_FIBERS:
        spec = random_curved_spec(rng, 2, CURVED_FIBERS[name])
    else:
        spec = catalog_get(name)
    inv = involution_from_spec(spec)
    dm, da = spec.dim_M, spec.dim_A
    blocks = rng.uniform(-2, 2, (7, 3, 2 * (dm + da)))
    base = rng.uniform(-2, 2, (7, 3, dm))
    mats, offs = _fiber_coefficients(inv, blocks, base)
    a_phi, adot_phi = blocks[..., dm:dm + da], blocks[..., 2 * dm + da:]
    tensor = reference_c_tensor(spec, base)
    want = np.matmul(tensor, a_phi[..., None, :, None])[..., 0]
    assert mats.shape == want.shape == (7, 3, da, da)
    assert offs.tobytes() == np.ascontiguousarray(adot_phi).tobytes()
    if name not in CURVED_FIBERS:
        assert mats.tobytes() == want.tobytes()
        return
    in_order = tensor[..., 0] * a_phi[..., None, None, 0]
    for j in range(1, da):
        in_order = in_order + tensor[..., j] * a_phi[..., None, None, j]
    scale = np.abs(tensor * a_phi[..., None, None, :]).sum(axis=-1)
    bound = 4 * np.finfo(float).eps * scale
    if da < 5:
        assert mats.tobytes() == in_order.tobytes()
    else:
        assert np.all(np.abs(mats - in_order) <= bound)
    assert np.all(np.abs(mats - want) <= bound)
    assert not np.array_equal(mats[0, 0], mats[1, 1])  # C varies with m


def test_affine_anchor_on_a_point_base_is_empty():
    # so3 lives over a point: the base equation has no rows and no columns
    inv = involution_from_spec(so3())
    a_t = np.random.default_rng(5).uniform(-1, 1, (7, 3, inv.dim_A))
    mats, offs = _affine_anchor(inv, a_t)
    assert mats.shape == (7, 3, 0, 0) and offs.shape == (7, 3, 0)


@pytest.mark.parametrize("case", ["tangent-path fixture", "curved action"])
def test_transport_matches_solve_ivp(case):
    # an independent adaptive integrator on the joint (base, fiber) equation
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    if case == "tangent-path fixture":
        fx = load_fixture(str(FIXTURES / "tangent-path.json"))
        spec, phi, a0 = fx["spec"], fx["variation"], fx["initial"]
    else:
        spec = action_so3_r3()
        phi, m0, b0 = action_generic_variation(spec)
        a0 = AElement(m0, b0)
    dm = spec.dim_M

    def joint(t, x):
        m, b = x[:dm], x[dm:]
        v = phi.blocks(t)
        return np.concatenate([spec.anchor_apply(m, v.a), v.adot + spec.c_apply(m, b, v.a)])

    run = apath_transport(involution_from_spec(spec), phi, a0, 1e-3)
    ref = solve_ivp(joint, (0.0, phi.t_end), np.concatenate([a0.m, a0.a]), method="DOP853",
                    t_eval=run.times, rtol=1e-12, atol=1e-12)
    assert ref.success
    assert float(np.max(np.abs(run.base - ref.y[:dm].T))) < 1e-9
    assert float(np.max(np.abs(run.fiber - ref.y[dm:].T))) < 1e-9


def test_flip_velocity_affine_in_fiber():
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    phi, m0, _ = action_generic_variation(spec)
    blocks = phi.blocks(0.4)

    def velocity(b):
        v = JetPoint.constant(np.concatenate([m0, b]), 0)
        w = JetPoint.from_rows(1, [np.concatenate([blocks.m, blocks.a]),
                                   np.concatenate([blocks.mdot, blocks.adot])])
        out = inv.flip(v, w)
        return np.array([e.coeffs[1] for e in out.entries[3:]])

    rng = np.random.default_rng(3)
    b1, b2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    lam = 0.37
    mix = velocity(lam * b1 + (1 - lam) * b2)
    ref = lam * velocity(b1) + (1 - lam) * velocity(b2)
    assert float(np.max(np.abs(mix - ref))) < 1e-12


def test_transport_matches_coupled_solve():
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    phi, m0, b0 = action_generic_variation(spec)

    def joint(t, x):
        m, b = x[:3], x[3:]
        v = phi.blocks(t)
        return np.concatenate([inv.anchor_apply(m, v.a),
                               v.adot + spec.c_apply(m, b, v.a)])

    _, states = rk4_solve(joint, np.concatenate([m0, b0]), 1.0, 1e-3)
    run = apath_transport(inv, phi, AElement(m0, b0), 1e-3)
    assert float(np.max(np.abs(run.base - states[:, :3]))) < 1e-8
    assert float(np.max(np.abs(run.fiber - states[:, 3:]))) < 1e-8


def test_transport_anchor_identity_on_curved_member():
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    # fiber blocks parallel to the base point sit in the anchor kernel, so
    # the base stays put while the fiber still has to track the identity
    m0 = np.array([0.6, -0.3, 0.2])
    rows = [((m0[k], (0,)),) for k in range(3)]
    rows += [((m0[k], (1,)), (0.5 * m0[k], (2,))) for k in range(3)]  # a = (t + .5t^2) m0
    rows += [(), (), ()]
    rows += [((0.3 * m0[k], (2,)),) for k in range(3)]  # fiber velocity in the kernel too
    phi = APathVariation(3, 3, PolyMap.from_terms(1, rows), 1.0)
    member = phi.membership_residual(inv)
    assert max(member.values()) < 1e-12
    run = apath_transport(inv, phi, AElement(m0, 0.7 * m0), 1e-3)
    assert run.anchor_residual < 1e-6


def test_transport_convergence_order():
    inv = involution_from_spec(tangent(1))
    c = 50.0 / 7.0
    phi = APathVariation(1, 1, PolyMap.from_terms(1, [
        ((0.4, (0,)), (c, (7,))),
        ((50.0, (6,)),),
        (),
        (),
    ]), 1.0)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        run = apath_transport(inv, phi, AElement([0.4], [0.0]), h)
        errors.append(abs(run.base[-1][0] - (0.4 + c)))
    assert 12.0 <= errors[0] / errors[1] <= 20.0
    assert 12.0 <= errors[1] / errors[2] <= 20.0


def test_curved_fixture_error_falls_at_fourth_order():
    # RK4 is not exact on this variation, so a wrong stage shows: the end
    # point error against a fine run falls by about 2**4 when h halves
    fx = load_fixture(str(FIXTURES / "curved-path.json"))
    inv = involution_from_spec(fx["spec"])

    def end_point(h):
        run = apath_transport(inv, fx["variation"], fx["initial"], h)
        return np.concatenate([run.base[-1], run.fiber[-1]])

    ref = end_point(1e-4)
    coarse, fine = (float(np.max(np.abs(end_point(h) - ref))) for h in (0.1, 0.05))
    assert 12.0 <= coarse / fine <= 20.0


def test_transport_on_quadratic_anchor():
    # the base equation is nonlinear here, so it cannot be one affine map a step
    inv, phi, a0 = quadratic_anchor_path(0.5)
    run = apath_transport(inv, phi, a0, 1e-3)
    assert abs(run.base[-1, 0] - 1.0) < 1e-9
    assert np.array_equal(run.fiber, np.ones_like(run.fiber))


def test_transport_divergence_raises():
    # from m0 = 2 the base blows up at t = 0.5; no numpy warning may pre-empt it
    inv, phi, a0 = quadratic_anchor_path(2.0)
    with pytest.raises(ArithmeticError, match="diverged"):
        apath_transport(inv, phi, a0, 1e-3)


@pytest.mark.parametrize("h", [0.1, 0.01, 1e-3])
@pytest.mark.parametrize("case", ["so3", "curved action"])
def test_transport_matches_stepwise_split_solve(case, h):
    if case == "so3":
        inv = involution_from_spec(so3())
        phi, a0 = so3_path()
    else:
        spec = action_so3_r3()
        inv = involution_from_spec(spec)
        phi, m0, b0 = action_generic_variation(spec)
        a0 = AElement(m0, b0)
    run = apath_transport(inv, phi, a0, h)
    base, fiber = stepwise_transport(inv, phi, a0, h)
    assert run.base.shape == base.shape and run.fiber.shape == fiber.shape
    assert float(np.max(np.abs(run.base - base), initial=0.0)) < 1e-13
    assert float(np.max(np.abs(run.fiber - fiber))) < 1e-13


def test_transport_rejects_bad_steps():
    inv = involution_from_spec(tangent(2))
    hv, _, _ = holonomic_homotopy()
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="step"):
            apath_transport(involution_from_spec(tangent(1)), tangent_member(),
                            AElement([0.4], [1.0]), h)
        with pytest.raises(ValueError, match="step"):
            ahomotopy_transport(inv, hv, AElement([0.0, 0.0], [0.0, 0.0]), h)


def test_step_cap_is_checked_before_anything_is_allocated():
    # t_end = 1e300 would overflow np.arange, and t_end = 1e7 at h = 1e-3
    # would ask it for 4e10 quarter times; both are refused at once
    a0 = AElement([0.4], [1.0])
    phi = tangent_member().phi
    hv, _, _ = holonomic_homotopy()
    calls = [lambda t_end=t_end: apath_transport(involution_from_spec(tangent(1)),
                                                 APathVariation(1, 1, phi, t_end), a0, 1e-3)
             for t_end in (1e300, 1e7)]
    calls.append(lambda: rk4_solve(lambda t, x: x, [1.0], 1e7, 1e-3))
    calls.append(lambda: ahomotopy_transport(involution_from_spec(tangent(2)), hv,
                                             AElement([0.0, 0.0], [0.0, 0.0]),
                                             1.0 / (MAX_STEPS + 1)))
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the cap of %d" % MAX_STEPS):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_step_cap_bounds_the_steps_asked_for_not_the_half_steps(monkeypatch):
    # a nonlinear base is solved at half steps, 2 * MAX_STEPS of them at the
    # cap; only the steps the caller asks for, times the rows solved as one
    # state (22 for a homotopy on the default grid), are held to MAX_STEPS
    inv, phi, a0 = quadratic_anchor_path(0.5)
    _, hv, b0 = quadratic_anchor_homotopy()
    path = apath_transport(inv, phi, a0, 1.0 / 40)
    square = ahomotopy_transport(inv, hv, b0, 1.0 / 40)
    monkeypatch.setattr("invalg.flow.MAX_STEPS", 40)
    capped = apath_transport(inv, phi, a0, 1.0 / 40)
    assert len(capped.times) == 41
    assert np.array_equal(capped.fiber, path.fiber) and np.array_equal(capped.base, path.base)
    with pytest.raises(ValueError, match="over the cap of 40"):
        apath_transport(inv, phi, a0, 1.0 / 41)
    monkeypatch.setattr("invalg.flow.MAX_STEPS", 22 * 40)
    capped = ahomotopy_transport(inv, hv, b0, 1.0 / 40)
    assert all(np.array_equal(getattr(capped, f), getattr(square, f))
               for f in ("base0", "fiber0", "base1", "fiber1", "discrepancy"))
    with pytest.raises(ValueError, match="takes 50 steps of 22 rows up to 1.0, over the cap of 880"):
        ahomotopy_transport(inv, hv, b0, 1.0 / 41)


# -- homotopy variations and transport ----------------------------------------


def test_holonomic_homotopy_is_member():
    inv = involution_from_spec(tangent(2))
    hv, _, _ = holonomic_homotopy()
    res = hv.membership_residual(inv)
    assert max(res.values()) < 1e-9


def test_homotopy_transport_path_independent():
    inv = involution_from_spec(tangent(2))
    hv, gamma, delta = holonomic_homotopy()
    run = ahomotopy_transport(inv, hv, AElement([0.0, 0.0], [0.0, 0.0]), 1e-3)
    assert run.discrepancy < 1e-6
    for i, s in enumerate(run.s_nodes):
        for j, t in enumerate(run.t_nodes):
            assert float(np.max(np.abs(run.fiber0[i, j] - delta.eval_floats([s, t])))) < 1e-8
            assert float(np.max(np.abs(run.base0[i, j] - gamma.eval_floats([s, t])))) < 1e-8


def test_homotopy_transport_runs_on_broken_pairing():
    inv = involution_from_spec(tangent(2))
    hv, gamma, delta = holonomic_homotopy()
    extra = PolyMap.from_terms(2, [((3.0, (1, 1)),), ((-2.0, (2, 1)),)])
    delta_bad = PolyMap(2, 2, tuple(delta.terms[k] + extra.terms[k] for k in range(2)))
    h1_bad = gamma.stack(gamma.partial(1)).stack(delta_bad).stack(delta_bad.partial(1))
    broken = AHomotopyVariation(2, 2, hv.h0, h1_bad)

    res = broken.membership_residual(inv)
    assert res["horizontal"] < 1e-9
    assert res["vertical"] < 1e-9
    assert res["paired-base"] > 1e-3
    assert res["continuity"] > 1e-3

    run = ahomotopy_transport(inv, broken, AElement([0.0, 0.0], [0.0, 0.0]), 1e-3)
    assert run.discrepancy > 1e-3
    assert abs(run.discrepancy - 3.0) < 1e-6  # the planted mismatch at (1,1)


def curved_action_homotopy(spec):
    # not a member: both directions sweep one generic path at other speeds
    phi, m0, b0 = action_generic_variation(spec)
    along = lambda cs, ct: PolyMap.from_terms(2, [[(cs, (1, 0)), (ct, (0, 1))]])
    hv = AHomotopyVariation(3, 3, phi.phi.compose(along(1.0, 0.5)),
                            phi.phi.compose(along(0.3, 1.0)))
    return hv, AElement(m0, b0)


def test_homotopy_flip_route_matches_spec_route():
    # a curved anchor with nonzero structure functions, so the coefficients
    # read off flip evaluations differ from entry to entry of the table
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    bare = InvolutionAlgebroid(3, 3, inv.rho, inv.flip)
    hv, a0 = curved_action_homotopy(spec)
    run_s = ahomotopy_transport(inv, hv, a0, 0.1, grid=3)
    run_f = ahomotopy_transport(bare, hv, a0, 0.1, grid=3)
    for ours, theirs in ((run_s.base0, run_f.base0), (run_s.fiber0, run_f.fiber0),
                         (run_s.base1, run_f.base1), (run_s.fiber1, run_f.fiber1)):
        assert ours.shape == theirs.shape
        assert float(np.max(np.abs(ours - theirs))) < 1e-12
    assert run_s.discrepancy > 1e-3  # not a member, so the two orders differ
    assert abs(run_s.discrepancy - run_f.discrepancy) < 1e-12


def per_order_homotopy(inv, hv, a0, h, grid=11):
    # one integration order at a time, its spine and then its rows, the
    # second order transposed at the end: the oracle of the batched stages
    segments = grid - 1
    n = max(segments, _step_count(1.0, h))
    n = ((n + segments - 1) // segments) * segments
    nodes = np.linspace(0.0, 1.0, grid)
    stage_times = np.arange(4 * n + 1) * (1.0 / (4 * n))
    at_nodes = slice(None, None, n // segments)

    def surface(first_dir: bool):
        edge_pm, row_pm = (hv.h1, hv.h0) if first_dir else (hv.h0, hv.h1)
        _, spine_base, spine_fiber = _transport_rows(
            inv, _square_stages(edge_pm, [0.0], stage_times, not first_dir), a0.m, a0.a, 1.0)
        _, base, fiber = _transport_rows(
            inv, _square_stages(row_pm, nodes, stage_times, first_dir),
            spine_base[at_nodes, 0], spine_fiber[at_nodes, 0], 1.0)
        base, fiber = base[at_nodes], fiber[at_nodes]
        if first_dir:
            return base, fiber
        return base.swapaxes(0, 1), fiber.swapaxes(0, 1)

    with quiet():
        return surface(True) + surface(False)


def quadratic_anchor_homotopy():
    # the base equation of anchor m^2 is solved stage by stage; not a
    # member, but composable with its start (m, a) = (0.25, 1)
    h0 = PolyMap.from_terms(2, [
        ((0.25, (0, 0)), (0.2, (1, 0)), (-0.1, (0, 1))),
        ((1.0, (0, 0)), (0.5, (0, 1))),
        ((0.0625, (0, 0)), (1.0, (1, 0))),
        ((0.3, (1, 1)),),
    ])
    h1 = PolyMap.from_terms(2, [
        ((0.25, (0, 0)), (0.2, (1, 0)), (-0.1, (0, 1))),
        ((1.0, (0, 0)), (-1.0, (1, 0))),
        ((0.0625, (0, 0)), (0.4, (0, 1))),
        ((0.1, (0, 0)),),
    ])
    return quadratic_anchor(), AHomotopyVariation(1, 1, h0, h1), AElement([0.25], [1.0])


def homotopy_case(case):
    if case == "holonomic":
        zero = AElement([0.0, 0.0], [0.0, 0.0])
        return involution_from_spec(tangent(2)), holonomic_homotopy()[0], zero
    if case == "quadratic anchor":
        return quadratic_anchor_homotopy()
    spec = action_so3_r3()
    inv = involution_from_spec(spec)
    if case == "curved action, flip route":
        inv = InvolutionAlgebroid(3, 3, inv.rho, inv.flip)
    return (inv,) + curved_action_homotopy(spec)


@pytest.mark.parametrize("h", [0.1, 0.01])
@pytest.mark.parametrize("case", ["holonomic", "curved action, spec route",
                                  "curved action, flip route", "quadratic anchor"])
def test_homotopy_transport_matches_per_order_solves_bit_for_bit(case, h):
    inv, hv, a0 = homotopy_case(case)
    run = ahomotopy_transport(inv, hv, a0, h)
    expected = per_order_homotopy(inv, hv, a0, h)
    for got, want in zip((run.base0, run.fiber0, run.base1, run.fiber1), expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    if case != "holonomic":
        assert run.discrepancy > 1e-3  # not members, so the two orders differ


def test_homotopy_transport_divergence_raises():
    # anchor m^2 with constant blocks (2, 1, 4, 0) in both directions: each
    # spine solves m' = m^2 from m = 2, which blows up at t = 0.5
    const = lambda c: ((c, (0, 0)),)
    part = PolyMap.from_terms(2, [const(2.0), const(1.0), const(4.0), ()])
    hv = AHomotopyVariation(1, 1, part, part)
    with pytest.raises(ArithmeticError, match=r"^trajectory diverged at t = 0\.5015$"):
        ahomotopy_transport(quadratic_anchor(), hv, AElement([2.0], [1.0]), 1e-3)


def test_homotopy_transport_rejects_noncomposable_start():
    inv = involution_from_spec(tangent(2))
    hv, _, _ = holonomic_homotopy()
    with pytest.raises(ValueError, match="composable"):
        ahomotopy_transport(inv, hv, AElement([0.2, 0.0], [0.0, 0.0]), 1e-2)


# -- differentiation and integration maps -------------------------------------


def test_vee_path_satisfies_all_conditions():
    inv = involution_from_spec(action_so3_r3())
    chi = PolyMap.from_terms(1, [
        ((1.0, (1,)),),
        ((1.0, (2,)), (-0.5, (3,))),
        ((2.0, (1,)), (1.0, (3,))),
    ])
    phi = inf_apath_vee(inv, chi, [0.3, -0.2, 0.5])
    res = alg1_residuals(inv, phi)
    assert max(res.values()) < 1e-12


def test_vee_rejects_nonzero_start():
    inv = involution_from_spec(tangent(1))
    with pytest.raises(ValueError, match="start at zero"):
        inf_apath_vee(inv, PolyMap.from_terms(1, [((1.0, (0,)),)]), [0.0])


def test_vee_then_wedge_recovers_fiber_path():
    inv = involution_from_spec(action_so3_r3())
    chi = PolyMap.from_terms(1, [
        ((1.0, (1,)),),
        ((1.0, (2,)), (-0.5, (3,))),
        ((2.0, (1,)), (1.0, (3,))),
    ])
    phi = inf_apath_vee(inv, chi, [0.3, -0.2, 0.5])
    path = inf_apath_wedge(inv, phi, 1e-3)
    ref = np.array([chi.eval_floats([t]) for t in path.times])
    assert float(np.max(np.abs(path.values - ref))) < 1e-6
    assert np.array_equal(path.m, np.array([0.3, -0.2, 0.5]))


def test_wedge_then_vee_recovers_variation():
    inv = involution_from_spec(tangent(2))
    m0 = np.array([0.7, -0.3])
    q = PolyMap.from_terms(1, [
        ((1.0, (2,)), (0.5, (4,))),
        ((1.0, (1,)), (-1.0, (3,))),
    ])
    # a member assembled by hand, not through the differentiation map
    phi_map = PolyMap.constant(m0, 1).stack(PolyMap.zero(1, 2)).stack(q).stack(q.partial(0))
    phi = APathVariation(2, 2, phi_map, 1.0)
    path = inf_apath_wedge(inv, phi, 1e-3)

    # reconstruct the variation blocks from the integrated fiber path alone
    h = path.times[1] - path.times[0]
    qd = q.partial(0)
    q_ref = np.array([q.eval_floats([t]) for t in path.times])
    qd_ref = np.array([qd.eval_floats([t]) for t in path.times])
    assert float(np.max(np.abs(path.values - q_ref))) < 1e-6
    assert float(np.max(np.abs(grid_derivative(path.values, h) - qd_ref))) < 1e-6


def test_wedge_rejects_nonmember():
    inv = involution_from_spec(tangent(1))
    # nonzero fiber value block violates the defining conditions
    phi = APathVariation(1, 1, PolyMap.from_terms(1, [
        ((0.4, (0,)),), ((1.0, (1,)),), (), (),
    ]), 1.0)
    with pytest.raises(ValueError, match="infinitesimal"):
        inf_apath_wedge(inv, phi)


def test_homotopy_vee_satisfies_all_conditions():
    inv = involution_from_spec(action_so3_r3())
    eta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (2, 0)), (-0.5, (0, 1))),
        ((1.0, (3, 2)),),
    ])
    hv = inf_ahomotopy_vee(inv, eta, [0.3, -0.2, 0.5])
    res = alg2_residuals(inv, hv)
    assert max(res.values()) < 1e-9


def test_homotopy_vee_rejects_nonzero_start():
    inv = involution_from_spec(tangent(1))
    with pytest.raises(ValueError, match="start at zero"):
        inf_ahomotopy_vee(inv, PolyMap.from_terms(2, [((2.0, (0, 0)),)]), [0.0])


def test_vee_rejects_nan_start():
    # a NaN start is no zero start: the guard must not pass it
    inv = involution_from_spec(tangent(1))
    with pytest.raises(ValueError, match="start at zero"):
        inf_apath_vee(inv, PolyMap.from_terms(1, [((math.nan, (0,)),)]), [0.0])
    with pytest.raises(ValueError, match="start at zero"):
        inf_ahomotopy_vee(inv, PolyMap.from_terms(2, [((math.nan, (0, 0)),)]), [0.0])


def test_homotopy_vee_then_wedge_recovers_surface():
    inv = involution_from_spec(action_so3_r3())
    eta = PolyMap.from_terms(2, [
        ((1.0, (1, 1)),),
        ((1.0, (2, 0)), (-0.5, (0, 1))),
        ((1.0, (3, 2)),),
    ])
    hv = inf_ahomotopy_vee(inv, eta, [0.3, -0.2, 0.5])
    surf = inf_ahomotopy_wedge(inv, hv, 1e-3)
    worst = 0.0
    for i, s in enumerate(surf.s_nodes):
        for j, t in enumerate(surf.t_nodes):
            ref = eta.eval_floats([s, t])
            worst = max(worst, float(np.max(np.abs(surf.values[i, j] - ref))))
    assert worst < 1e-6


def test_homotopy_wedge_rejects_nonmember():
    inv = involution_from_spec(tangent(1))
    bad = AHomotopyVariation(1, 1,
                             PolyMap.from_terms(2, [((0.4, (0, 0)),), ((1.0, (1, 0)),), (), ()]),
                             PolyMap.from_terms(2, [((0.4, (0, 0)),), ((1.0, (0, 1)),), (), ()]))
    with pytest.raises(ValueError, match="infinitesimal"):
        inf_ahomotopy_wedge(inv, bad)


def test_homotopy_wedge_judges_the_start_at_its_membership_tolerance():
    # a base speed of 1e-7 at the origin is the one defect: the start gap of
    # the zero vector equals h0's source-constant defect, so the wedge's own
    # membership check at 1e-9 rejects it, as in the path twin
    inv = involution_from_spec(tangent(1))
    eta = PolyMap.from_terms(2, [((1.0, (1, 1)), (0.5, (2, 0)))])
    hv = inf_ahomotopy_vee(inv, eta, [0.3])
    speed = PolyMap.constant([0.0, 0.0, 1e-7, 0.0], 2)
    hv = AHomotopyVariation(1, 1, hv.h0 + speed, hv.h1 + speed)
    res = alg2_residuals(inv, hv)
    assert res.pop("source-constant") == 1e-7 and max(res.values()) == 0.0
    with pytest.raises(ValueError, match="infinitesimal"):
        inf_ahomotopy_wedge(inv, hv, 1e-2)
    with pytest.raises(ValueError, match="not composable"):
        ahomotopy_transport(inv, hv, AElement([0.3], [0.0]), 1e-2)


# -- sampled output helpers ---------------------------------------------------


def test_transport_csv_round_trips():
    inv = involution_from_spec(tangent(1))
    run = apath_transport(inv, tangent_member(), AElement([0.4], [1.0]), 0.1)
    lines = run.to_csv().strip().split("\n")
    assert len(lines) == len(run.times)
    first = [float(x) for x in lines[0].split(",")]
    assert first == [0.0, 0.4, 1.0]
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0 and len(last) == 3


def test_surface_csv_shape():
    inv = involution_from_spec(tangent(2))
    hv, _, _ = holonomic_homotopy()
    run = ahomotopy_transport(inv, hv, AElement([0.0, 0.0], [0.0, 0.0]), 0.05, grid=5)
    lines = run.to_csv().strip().split("\n")
    assert len(lines) == 25
    assert all(len(line.split(",")) == 4 for line in lines)


def joined_csv(rows) -> str:
    # every number formatted on its own and joined row by row: the reference
    # for the one-pass table formatting of to_csv
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)


def square_rows(s_nodes, t_nodes, values):
    return [[s, t, *values[i, j]] for i, s in enumerate(s_nodes) for j, t in enumerate(t_nodes)]


def test_path_csv_bytes_match_joined_rows():
    runs = [apath_transport(involution_from_spec(so3()), *so3_path(), 0.01),  # no base block
            apath_transport(involution_from_spec(tangent(1)), tangent_member(),
                            AElement([0.4], [1.0]), 0.002),
            PathTransport(np.array([0.5]), np.zeros((1, 0)),
                          np.array([[1 / 3, -0.0, math.nan, -math.inf, 5e-324]]), 0.0)]
    assert runs[0].base.shape[1] == 0 and len(runs[2].times) == 1
    for run in runs:
        want = joined_csv([t, *run.base[i], *run.fiber[i]] for i, t in enumerate(run.times))
        assert run.to_csv() == want


def test_fiber_path_csv_bytes_match_joined_rows():
    inv = involution_from_spec(action_so3_r3())
    chi = PolyMap.from_terms(1, [((1.0, (1,)),), ((1.0, (2,)),), ((2.0, (1,)), (1.0, (3,)))])
    path = inf_apath_wedge(inv, inf_apath_vee(inv, chi, [0.3, -0.2, 0.5]), 0.01)
    one = FiberPath(np.zeros(0), np.array([1.0]), np.array([[0.1]]))
    for fp in (path, one):
        assert fp.to_csv() == joined_csv([t, *fp.values[i]] for i, t in enumerate(fp.times))


def test_square_csv_bytes_match_joined_rows():
    hv, _, _ = holonomic_homotopy()
    run = ahomotopy_transport(involution_from_spec(tangent(2)), hv,
                              AElement([0.0, 0.0], [0.0, 0.0]), 0.01, grid=6)
    assert run.to_csv() == joined_csv(square_rows(run.s_nodes, run.t_nodes, run.fiber0))
    inv = involution_from_spec(action_so3_r3())
    eta = PolyMap.from_terms(2, [((1.0, (1, 1)),), ((1.0, (2, 0)),), ((1.0, (3, 2)),)])
    surf = inf_ahomotopy_wedge(inv, inf_ahomotopy_vee(inv, eta, [0.3, -0.2, 0.5]), 0.05, grid=4)
    one = FiberSurface(np.zeros(0), np.array([0.0]), np.array([1.0]), np.array([[[2.5, -1e300]]]))
    for sf in (surf, one):
        assert sf.to_csv() == joined_csv(square_rows(sf.s_nodes, sf.t_nodes, sf.values))
    single = HomotopyTransport(np.array([0.0]), np.array([1.0]), *[np.ones((1, 1, 2))] * 4, 0.0)
    assert single.to_csv() == "0,1,1,1\n"


def test_grid_derivative_exact_on_quartics():
    t = np.linspace(0.0, 1.0, 101)
    vals = t ** 4 - 2.0 * t ** 2 + t
    ref = 4.0 * t ** 3 - 4.0 * t + 1.0
    assert float(np.max(np.abs(grid_derivative(vals, t[1] - t[0]) - ref))) < 1e-10


def test_grid_derivative_fourth_order_on_smooth_data():
    t = np.linspace(0.0, 1.0, 101)
    d = grid_derivative(np.sin(3.0 * t), t[1] - t[0])
    assert float(np.max(np.abs(d - 3.0 * np.cos(3.0 * t)))) < 1e-6


def test_grid_derivative_needs_five_samples():
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(4), 0.1)
