"""Flip construction, axiom suite, and bracket recovery."""

import contextlib
import itertools
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invalg import algebroid, catalog, cli, groupoid, jet
from invalg.algebroid import (
    AlgebroidSpec,
    InvolutionAlgebroid,
    ProlongElement,
    _NestedBracket,
    _SectionTable,
    _random_section_poly,
    _sample_pairs,
    bracket_from_flip,
    braid_permutations,
    check_axioms,
    check_bracket_laws,
    check_yang_baxter,
    flip_from_bracket,
    involution_from_spec,
    roundtrip_bracket,
    sample_double_prolongation,
    sample_prolongation,
    sigma,
    spec_from_flip,
)
from invalg.bundle import (
    AElement,
    ConnectionSpec,
    ScalarFieldSpec,
    SectionSpec,
    TAElement,
    strong_difference_jet,
)
from invalg.groupoid import (
    PairGroupoidSpec,
    differentiate_group,
    differentiate_pair_groupoid,
    group_involution,
    sl2_group,
    so3_group,
)
from invalg.jet import (
    JetPoint,
    PolyMap,
    _max_abs,
    _product,
    check_tangent_axioms,
    join_innermost,
    residual,
    split_innermost,
)
from invalg.report import _fold, _residuals, quiet
from structure_reference import c_on_basis, leibniz_defect, reference_c_tensor


def const_section(vec, dim_M=0):
    return SectionSpec(PolyMap.constant(np.asarray(vec, dtype=float), dim_M))


def pe_jets(pe):
    v = JetPoint.constant(np.concatenate([pe.v.m, pe.v.a]), 0)
    return v, pe.w.to_jet()


# -- spec construction and structure functions --------------------------------


def test_from_structure_rejects_bad_entries():
    with pytest.raises(ValueError):
        AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [(1, 0, 2, 1.0)])
    with pytest.raises(ValueError):
        AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [(1, 1, 2, 1.0)])
    with pytest.raises(ValueError):
        AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0), [(0, 1, 3, 1.0)])
    with pytest.raises(ValueError):
        AlgebroidSpec.from_structure(0, 3, PolyMap.zero(0, 0),
                                     [(0, 1, 2, 1.0), (0, 1, 2, 2.0)])


@pytest.mark.parametrize("value", [np.int64(2), np.float32(0.5), 2, 0.5],
                         ids=["int64", "float32", "int", "float"])
def test_from_structure_takes_any_real_constant(value):
    got = AlgebroidSpec.from_structure(0, 2, PolyMap.zero(0, 0), [(0, 1, 0, value)])
    want = AlgebroidSpec.from_structure(0, 2, PolyMap.zero(0, 0), [(0, 1, 0, float(value))])
    assert got == want
    assert got.c_pairs.terms == (((float(value), ()),), ())
    assert type(got.c_pairs.terms[0][0][0]) is float


def test_c_apply_matches_cross_product():
    spec = catalog.so3()
    rng = np.random.default_rng(3)
    m = np.zeros(0)
    for _ in range(20):
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert np.allclose(spec.c_apply(m, a, b), np.cross(a, b), atol=1e-15)


def test_c_apply_antisymmetry_is_exact():
    spec = catalog.lie_algebra_bundle()
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.uniform(-1, 1, 1)
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        fwd = spec.c_apply(m, a, b)
        bwd = spec.c_apply(m, b, a)
        assert np.all(fwd + bwd == 0.0)
        jf = spec.c_apply_jet(JetPoint.constant(m, 0), JetPoint.constant(a, 0),
                              JetPoint.constant(b, 0))
        jb = spec.c_apply_jet(JetPoint.constant(m, 0), JetPoint.constant(b, 0),
                              JetPoint.constant(a, 0))
        assert all(x.coeffs[0] + y.coeffs[0] == 0.0 for x, y in zip(jf.entries, jb.entries))


def test_structure_functions_reject_fiber_vectors_of_the_wrong_length():
    spec = catalog.action_so3_r3()
    m, a = np.zeros(3), np.ones(3)
    for bad in (np.ones(2), np.ones(4)):
        message = "fiber dim %d, expected 3" % len(bad)
        for args in ((m, bad, a), (m, a, bad)):
            with pytest.raises(ValueError, match=message):
                spec.c_apply(*args)
            with pytest.raises(ValueError, match=message):
                spec.c_apply_jet(*(JetPoint.constant(x, 1) for x in args))
        for slot in range(3):
            fibers = [a, a, a]
            fibers[slot] = bad
            with pytest.raises(ValueError, match=message):
                spec.jacobiator(m, *fibers)
        # inside a fold the refused sample is a NaN residual, not an escape
        result = _fold("c", 2, lambda rows: _max_abs(spec.c_apply(m, bad, a)), 1.0, 0)
        assert math.isnan(result.max_residual) and not result.passed


def test_c_tensor_reflection():
    # the pairs i < j are stored; c_apply reads (j, i) as their negative
    spec = catalog.so3()
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[k, i, j], eps[k, j, i] = 1.0, -1.0
    assert np.array_equal(c_on_basis(spec, np.zeros(0)), eps)
    assert np.array_equal(reference_c_tensor(spec, np.zeros(0)), eps)


def test_anchor_jet_matches_matrix():
    spec = catalog.action_so3_r3()
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, a = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        expected = np.cross(a, m)
        assert np.allclose(spec.anchor_apply(m, a), expected, atol=1e-14)
        jet_val = spec.anchor_apply_jet(JetPoint.constant(m, 0), JetPoint.constant(a, 0))
        assert np.allclose(jet_val.row(0), expected, atol=1e-14)
    # a fiber vector of the wrong length is rejected, not broadcast
    with pytest.raises(ValueError):
        spec.anchor_apply(m, a[:1])


# -- well-formedness predicate ------------------------------------------------


def test_well_formed_valid_fixtures():
    for name in ["abelian", "tangent-r2", "so3", "sl2", "action-so3-r3",
                 "lie-algebra-bundle"]:
        report = catalog.get(name).well_formed(samples=30, seed=1)
        assert report.passed, "%s: %s" % (name, report.to_text())


def test_broken_jacobi_defect_is_e2():
    spec = catalog.broken_jacobi()
    e = np.eye(3)
    defect = spec.jacobiator(np.zeros(0), e[0], e[1], e[2])
    assert np.array_equal(defect, np.array([0.0, 1.0, 0.0]))
    report = spec.well_formed(samples=30, seed=1)
    assert not report["jacobi"].passed
    assert report["jacobi"].max_residual > 1e-3
    assert report["anchor-compatible"].passed


def _jacobiator_by_polynomials(spec, m, a, b, c):
    x, y, z = (PolyMap.constant(v, spec.dim_M) for v in (a, b, c))
    return sum(spec.bracket_poly(spec.bracket_poly(p, q), r).eval_floats(m)
               for p, q, r in ((x, y, z), (y, z, x), (z, x, y)))


def test_jacobiator_matches_polynomial_brackets():
    specs = {name: catalog.get(name) for name in catalog.names()}
    for group in (so3_group(), sl2_group()):
        specs["recovered " + group.name] = spec_from_flip(group_involution(group))
    # the catalog has no entry whose bracket varies along a nonzero anchor,
    # so no derivative term; polynomial data of no particular structure has
    rng = np.random.default_rng(9)
    poly = lambda: [(float(rng.uniform(-1, 1)), e) for e in ((0, 0), (1, 0), (0, 2), (1, 1))]
    specs["polynomial"] = AlgebroidSpec.from_structure(
        2, 3, PolyMap.from_terms(2, [poly() for _ in range(6)]),
        [(i, j, k, poly()) for i, j in ((0, 1), (0, 2), (1, 2)) for k in range(3)])
    for name, spec in specs.items():
        for _ in range(10):
            m = rng.uniform(-1, 1, spec.dim_M)
            a, b, c = (rng.uniform(-1, 1, spec.dim_A) for _ in range(3))
            direct = spec.jacobiator(m, a, b, c)
            assert float(np.max(np.abs(direct - _jacobiator_by_polynomials(spec, m, a, b, c)))) \
                <= 1e-12, name


def test_incompatible_anchor_fails_compatibility():
    report = catalog.incompatible_anchor().well_formed(samples=30, seed=1)
    assert report["jacobi"].passed
    assert not report["anchor-compatible"].passed
    assert report["anchor-compatible"].max_residual > 1e-3


# -- samplers and element invariants ------------------------------------------


def test_sampled_elements_satisfy_constraints_exactly():
    # so3 sits over a point: its double constraint compares empty base blocks
    rng = np.random.default_rng(7)
    for spec in (catalog.action_so3_r3(), catalog.so3()):
        for _ in range(10):
            m = rng.uniform(-1, 1, spec.dim_M)
            pe = sample_prolongation(spec, m, rng)
            assert pe.residual(spec) == 0.0
            dpe = sample_double_prolongation(spec, m, rng)
            assert dpe.residual(spec) == 0.0


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_base_laws_read_zero_on_a_point_base(name):
    # target and anchor-morphism evaluate their empty base blocks like any
    # other base, and read exactly 0.0
    inv = involution_from_spec(catalog.get(name))
    assert check_axioms(inv, samples=20, seed=3)["target"].max_residual == 0.0
    laws = check_bracket_laws(inv, samples=10, seed=3)
    assert laws["anchor-morphism"].max_residual == 0.0


def test_sigma_rejects_invalid_pairs():
    spec = catalog.tangent(2)
    inv = involution_from_spec(spec)
    m = np.array([0.3, -0.4])
    bad = ProlongElement(
        AElement(m, np.array([1.0, 2.0])),
        TAElement(m, np.array([0.5, 0.5]), np.array([9.0, 9.0]), np.zeros(2)),
    )
    with pytest.raises(ValueError):
        sigma(inv, bad)


def test_sigma_is_an_involution():
    spec = catalog.action_so3_r3()
    inv = involution_from_spec(spec)
    rng = np.random.default_rng(11)
    for _ in range(10):
        pe = sample_prolongation(spec, rng.uniform(-1, 1, 3), rng)
        back = sigma(inv, sigma(inv, pe))
        assert np.max(np.abs(back.v.a - pe.v.a)) < 1e-12
        assert np.max(np.abs(back.w.a - pe.w.a)) < 1e-12
        assert np.max(np.abs(back.w.mdot - pe.w.mdot)) < 1e-12
        assert np.max(np.abs(back.w.adot - pe.w.adot)) < 1e-12


# -- the flip over a point base: frozen tangent formula -----------------------


def test_point_base_flip_components():
    inv = involution_from_spec(catalog.so3())
    v = JetPoint.constant(np.array([1.0, 0.0, 0.0]), 0)
    w = JetPoint.from_rows(1, [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    out = inv.flip(v, w)
    # (v, w_H, w_V) -> (v, w_V + [v, w_H]); e1 x e2 = e3
    assert np.array_equal(out.row(0), [1.0, 0.0, 0.0])
    assert np.array_equal(out.row(1), [0.0, 0.0, 3.0])


def test_point_base_tangent_flip_formula():
    # depth-1 v = (a; b), depth-2 w with rows (c, e, d, f) at masks 0,1,2,3
    # maps to rows (a, b, d+[a,c], f+[a,e]+[b,c]) where [x,y] = cross(x,y)
    inv = involution_from_spec(catalog.so3())
    a, b = [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]
    c, e = [1.0, 0.0, 1.0], [0.0, 3.0, 1.0]
    d, f = [2.0, 1.0, 0.0], [1.0, 1.0, 1.0]
    v = JetPoint.from_rows(1, [a, b])
    w = JetPoint.from_rows(2, [c, e, d, f])
    out = inv.flip(v, w)
    assert np.array_equal(out.row(0), a)
    assert np.array_equal(out.row(1), b)
    assert np.array_equal(out.row(2), [4.0, 0.0, -2.0])
    assert np.array_equal(out.row(3), [4.0, 1.0, 3.0])

    rng = np.random.default_rng(13)
    for _ in range(20):
        rows = rng.uniform(-1, 1, (6, 3))
        v = JetPoint.from_rows(1, rows[:2])
        w = JetPoint.from_rows(2, [rows[2], rows[4], rows[3], rows[5]])
        out = inv.flip(v, w)
        expect2 = rows[3] + np.cross(rows[0], rows[2])
        expect3 = rows[5] + np.cross(rows[0], rows[4]) + np.cross(rows[1], rows[2])
        assert np.max(np.abs(out.row(2) - expect2)) < 1e-15
        assert np.max(np.abs(out.row(3) - expect3)) < 1e-15


@pytest.mark.parametrize("route", ["spec", "connection"])
def test_spec_flips_reject_jets_of_the_wrong_width(route):
    spec = catalog.action_so3_r3()
    inv = involution_from_spec(spec) if route == "spec" else flip_from_bracket(spec)
    rng = np.random.default_rng(3)
    v = {n: JetPoint.constant(rng.uniform(-1, 1, n), 0) for n in (5, 6, 7)}
    w = {n: JetPoint.from_rows(1, rng.uniform(-1, 1, (2, n))) for n in (5, 6, 7)}
    assert inv.flip(v[6], w[6]).coeffs.shape == (2, 6)
    for nv, nw in ((7, 6), (6, 7), (7, 7), (5, 6), (6, 5)):
        with pytest.raises(ValueError, match="flip needs 6 coordinates, got %d and %d" % (nv, nw)):
            inv.flip(v[nv], w[nw])


# -- the array kernels against JetPoint compositions of the same arithmetic ---


def _anchor_by_jetpoints(spec, mj, aj):
    rho = spec.rho.eval_jet(mj).coeffs
    rho = rho.reshape(rho.shape[:-1] + (spec.dim_M, spec.dim_A))
    return JetPoint._of(_product(rho, aj.coeffs[..., None, :]).sum(axis=-1))


def _t_rho_by_jetpoints(spec, w):
    mj = w.take(0, spec.dim_M)
    return join_innermost(mj, _anchor_by_jetpoints(spec, mj, w.take(spec.dim_M, w.dim)))


def _canonical_flip_by_jetpoints(spec, v, w):
    dm, da = spec.dim_M, spec.dim_A
    w_val, w_dot = split_innermost(w)
    mj, av = v.take(0, dm), v.take(dm, dm + da)
    aw, aw_dot = w_val.take(dm, dm + da), w_dot.take(dm, dm + da)
    dot = spec.anchor_apply_jet(mj, aw).concat(aw_dot + spec.c_apply_jet(mj, av, aw))
    return join_innermost(mj.concat(av), dot)


def _connection_flip_by_jetpoints(spec, conn, v, w):
    dm, da = spec.dim_M, spec.dim_A
    w_val, w_dot = split_innermost(w)
    mj, av = v.take(0, dm), v.take(dm, dm + da)
    aw, mw_dot, aw_dot = w_val.take(dm, dm + da), w_dot.take(0, dm), w_dot.take(dm, dm + da)
    u_w, u_v = spec.anchor_apply_jet(mj, aw), spec.anchor_apply_jet(mj, av)
    gamma_wv = conn.apply_jet(mj, u_w, av)
    alpha2 = (gamma_wv - conn.apply_jet(mj, u_v, aw) + (aw_dot + conn.apply_jet(mj, mw_dot, aw))
              - spec.c_apply_jet(mj, aw, av))
    return join_innermost(mj.concat(av), u_w.concat(alpha2 - gamma_wv))


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _planted(rng, shape):
    """Uniform doubles with about one entry in eight an inf, -inf or NaN."""
    out = rng.uniform(-2, 2, shape)
    special = rng.random(shape) < 0.125
    out[special] = rng.choice([math.inf, -math.inf, math.nan], int(special.sum()))
    return out


@pytest.mark.parametrize("name", catalog.names())
def test_array_kernels_match_the_jetpoint_composition_bit_for_bit(name):
    spec = catalog.get(name)
    dm, da = spec.dim_M, spec.dim_A
    rng = np.random.default_rng(31)
    conn = ConnectionSpec.random_poly(rng, dm, da)
    canonical, connection = involution_from_spec(spec), flip_from_bracket(spec, conn)
    with np.errstate(all="ignore"):
        for depth in range(3):
            for batch in ((), (5,), (2, 3)):
                shape = lambda rows, dim: (rows,) + batch + (dim,)
                v = JetPoint._of(_planted(rng, shape(1 << depth, dm + da)))
                w = JetPoint._of(_planted(rng, shape(2 << depth, dm + da)))
                assert _same_bits(canonical.flip(v, w).coeffs,
                                  _canonical_flip_by_jetpoints(spec, v, w).coeffs)
                assert _same_bits(connection.flip(v, w).coeffs,
                                  _connection_flip_by_jetpoints(spec, conn, v, w).coeffs)
                assert _same_bits(algebroid.t_rho_jet(spec, v).coeffs,
                                  _t_rho_by_jetpoints(spec, v).coeffs)
                mj, aj = v.take(0, dm), v.take(dm, dm + da)
                assert _same_bits(spec.anchor_apply_jet(mj, aj).coeffs,
                                  _anchor_by_jetpoints(spec, mj, aj).coeffs)
                m, a = mj.coeffs[0], aj.coeffs[0]
                want = _anchor_by_jetpoints(spec, JetPoint.constant(m), JetPoint.constant(a))
                assert _same_bits(spec.anchor_apply(m, a), want.row(0))


# -- connection independence of the composite route ---------------------------


def test_composite_flip_with_flat_connection_is_canonical():
    spec = catalog.action_so3_r3()
    canonical = involution_from_spec(spec)
    composite = flip_from_bracket(spec)
    rng = np.random.default_rng(17)
    for _ in range(50):
        pe = sample_prolongation(spec, rng.uniform(-1, 1, 3), rng)
        v, w = pe_jets(pe)
        assert residual(composite.flip(v, w), canonical.flip(v, w)) == 0.0


def test_composite_flip_is_connection_independent():
    spec = catalog.action_so3_r3()
    rng = np.random.default_rng(19)
    conn = ConnectionSpec.random_poly(rng, 3, 3, degree=1)
    with_gamma = flip_from_bracket(spec, conn)
    flat = flip_from_bracket(spec)
    worst = 0.0
    for _ in range(100):
        pe = sample_prolongation(spec, rng.uniform(-1, 1, 3), rng)
        v, w = pe_jets(pe)
        worst = max(worst, residual(with_gamma.flip(v, w), flat.flip(v, w)))
    assert worst < 1e-12


def test_composite_flip_point_base():
    composite = flip_from_bracket(catalog.sl2())
    v = JetPoint.constant(np.array([1.0, 0.0, 0.0]), 0)  # H
    w = JetPoint.from_rows(1, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # (E; 0)
    out = composite.flip(v, w)
    assert np.array_equal(out.row(0), [1.0, 0.0, 0.0])
    assert np.array_equal(out.row(1), [0.0, 2.0, 0.0])  # [H, E] = 2E


# -- axiom suite --------------------------------------------------------------


def test_axioms_tangent_plane_exact():
    report = check_axioms(involution_from_spec(catalog.tangent(2)), samples=40, seed=2)
    assert report.passed
    for name in report.names():
        assert report[name].max_residual < 1e-12, name


def test_axioms_valid_fixtures():
    for name in ["so3", "sl2", "action-so3-r3", "lie-algebra-bundle", "abelian"]:
        inv = involution_from_spec(catalog.get(name))
        report = check_axioms(inv, samples=40, seed=3)
        assert report.passed, "%s: %s" % (name, report.to_text())


def test_axioms_composite_route():
    rng = np.random.default_rng(23)
    conn = ConnectionSpec.random_poly(rng, 3, 3, degree=1)
    inv = flip_from_bracket(catalog.action_so3_r3(), conn)
    report = check_axioms(inv, samples=30, seed=4)
    assert report.passed, report.to_text()


@pytest.mark.parametrize("name", ["abelian", "tangent-r2", "so3", "sl2", "action-so3-r3",
                                  "lie-algebra-bundle"])
def test_source_and_zero_sections_are_exact(name):
    # the sampler and both flips read the anchor off the one jet evaluator,
    # so the laws that compare a flip against the sampled anchor read 0.0
    spec = catalog.get(name)
    for inv in (involution_from_spec(spec), flip_from_bracket(spec)):
        for seed in range(6):
            report = check_axioms(inv, samples=200, seed=seed)
            assert report["source"].max_residual == 0.0, (seed, report.to_text())
            assert report["zero-sections"].max_residual == 0.0, (seed, report.to_text())


def test_broken_jacobi_fails_flip_axiom_only():
    report = check_axioms(involution_from_spec(catalog.broken_jacobi()),
                          samples=40, seed=5)
    assert not report["flip"].passed
    assert report["flip"].max_residual > 1e-3
    for name in ["projection", "unit", "involution", "source", "zero-sections"]:
        assert report[name].passed, name
        assert report[name].max_residual < 1e-12, name


def test_incompatible_anchor_fails_target():
    report = check_axioms(involution_from_spec(catalog.incompatible_anchor()),
                          samples=40, seed=6)
    assert not report["target"].passed
    assert report["target"].max_residual > 1e-3
    for name in ["projection", "unit", "involution", "source"]:
        assert report[name].passed, name


def test_target_residual_matches_hand_computation():
    # anchor (1, m) with zero bracket: the only mismatched slot of the target
    # law is the mixed second derivative, off by a_v x a_w in the plane
    spec = catalog.incompatible_anchor()
    inv = involution_from_spec(spec)
    m = np.array([0.5])
    pe = ProlongElement(
        AElement(m, np.array([1.0, 2.0])),
        TAElement(m, np.array([3.0, 1.0]),
                  spec.anchor_apply(m, np.array([1.0, 2.0])), np.zeros(2)),
    )
    from invalg.algebroid import t_rho_jet
    from invalg.jet import flip_c
    v, w = pe_jets(pe)
    lhs = t_rho_jet(inv, inv.flip(v, w))
    rhs = flip_c(t_rho_jet(inv, w), 1, 2)
    assert abs(residual(lhs, rhs) - 5.0) < 1e-12


# -- Yang-Baxter form ---------------------------------------------------------


def test_yang_baxter_valid_and_broken():
    ok = check_yang_baxter(involution_from_spec(catalog.action_so3_r3()),
                           samples=30, seed=8)
    assert ok.passed, ok.to_text()
    bad = check_yang_baxter(involution_from_spec(catalog.broken_jacobi()),
                            samples=30, seed=8)
    assert not bad["yang-baxter"].passed
    assert bad["yang-baxter"].max_residual > 1e-3
    assert bad["permutation-braid"].passed


def test_braid_permutations_agree():
    p1, p2, expected = braid_permutations()
    t = tuple(range(7))
    assert p1(p2(p1(t))) == p2(p1(p2(t))) == expected(t)


# -- brackets recovered from flips --------------------------------------------


def test_bracket_from_flip_tangent_line():
    spec = catalog.tangent(1)
    inv = involution_from_spec(spec)
    X = SectionSpec(PolyMap.constant(np.array([1.0]), 1))
    Y = SectionSpec(PolyMap(1, 1, (((1.0, (1,)),),)))  # Y(m) = m
    bracket = bracket_from_flip(inv, X, Y)
    for m in [-0.7, 0.0, 0.4]:
        assert abs(bracket(np.array([m]))[0] - 1.0) < 1e-14


def test_bracket_from_flip_so3_structure():
    inv = involution_from_spec(catalog.so3())
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            got = bracket_from_flip(inv, const_section(e[i]), const_section(e[j]))(np.zeros(0))
            assert np.array_equal(got, np.cross(e[i], e[j]))


def one_draw_per_term_section_poly(rng, dm, da, degree=2):
    """The random section as first written, one rng call per candidate
    monomial and one per kept term: the oracle of the batched draws."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=dm) if sum(e) <= degree]
    rows = []
    for _ in range(da):
        chosen = [e for e in exps if rng.uniform() < 0.7] or [exps[0]]
        rows.append(tuple((float(rng.uniform(-1, 1)), tuple(e)) for e in chosen))
    return PolyMap(dm, da, tuple(rows))


@pytest.mark.parametrize("dm, da, degree", [(0, 1, 2), (0, 3, 2), (1, 1, 2), (1, 2, 3),
                                            (2, 2, 2), (2, 1, 3), (3, 1, 2), (3, 3, 2)])
def test_random_sections_draw_the_stream_of_one_draw_per_term(dm, da, degree):
    for seed in range(25):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):  # consecutive draws, as a check makes them
            got = _random_section_poly(rng, dm, da, degree)
            assert got.terms == one_draw_per_term_section_poly(oracle, dm, da, degree).terms
            assert all(type(c) is float for row in got.terms for c, _ in row)
        assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("fixture", ["so3.json", "action-cross.json"])
def test_check_json_is_byte_identical_under_the_section_oracle(capsys, fixture):
    path = str(Path(__file__).resolve().parent.parent / "fixtures" / fixture)
    printed = []
    for draw in (_random_section_poly, one_draw_per_term_section_poly):
        with mock.patch.object(algebroid, "_random_section_poly", draw):
            assert cli.main(["check", path, "--format", "json", "--samples", "20",
                             "--seed", "1"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_bracket_laws_so3_and_action():
    report = check_bracket_laws(involution_from_spec(catalog.so3()),
                                samples=30, seed=9)
    assert report.passed, report.to_text()
    report = check_bracket_laws(involution_from_spec(catalog.action_so3_r3()),
                                samples=30, seed=10)
    assert report.passed, report.to_text()
    # the vector-field bracket of R^2 satisfies Jacobi through the flip
    report = check_bracket_laws(involution_from_spec(catalog.tangent(2)),
                                samples=30, seed=11)
    assert report.passed, report.to_text()


def test_bracket_laws_take_two_or_three_sections():
    # two given sections stand for X, Y, Z = X; any other count is refused
    # rather than raising IndexError or dropping a section unread
    inv = involution_from_spec(catalog.action_so3_r3())
    rng = np.random.default_rng(8)
    X, Y, Z = (SectionSpec(_random_section_poly(rng, 3, 3)) for _ in range(3))
    two = check_bracket_laws(inv, sections=[X, Y], samples=6, seed=2)
    assert two == check_bracket_laws(inv, sections=[X, Y, X], samples=6, seed=2)
    assert two.passed, two.to_text()
    assert check_bracket_laws(inv, sections=[X, Y, Z], samples=6, seed=2).passed
    for sections in ([], [X], [X, Y, Z, X]):
        with pytest.raises(ValueError, match="two or three sections, got %d" % len(sections)):
            check_bracket_laws(inv, sections=sections, samples=6, seed=2)


def graph_route_bracket(inv, X, Y, m):
    """The bracket [X, Y] of PolyMap sections through the graph maps
    m -> (m, S(m)), one pair per flip call."""
    graph = lambda S: PolyMap.identity(inv.dim_M).stack(S)
    xv, yv = X.eval_floats(m), Y.eval_floats(m)
    w = graph(Y).eval_jet(JetPoint.from_rows(1, [m, inv.anchor_apply(m, xv)]))
    second = graph(X).eval_jet(JetPoint.from_rows(1, [m, inv.anchor_apply(m, yv)]))
    v = JetPoint.constant(np.concatenate([m, xv], axis=-1), 0)
    return strong_difference_jet(inv.flip(v, w), second, inv.dim_M)


@pytest.mark.parametrize("route", ["spec", "connection"])
@pytest.mark.parametrize("name", catalog.names())
def test_stacked_brackets_match_one_pair_at_a_time(name, route):
    spec = catalog.get(name)
    rng = np.random.default_rng(17)
    dm, da = spec.dim_M, spec.dim_A
    if route == "spec":
        inv = involution_from_spec(spec)
    else:
        inv = flip_from_bracket(spec, ConnectionSpec.random_poly(rng, dm, da))
    polys = [_random_section_poly(rng, dm, da) for _ in range(3)]
    points = rng.uniform(-1, 1, (7, dm))
    pairs = [(0, 1), (1, 0), (2, 0), (1, 2), (2, 2)]
    stacked = _SectionTable(inv, polys, points).brackets(pairs)
    assert stacked.shape == (len(pairs), 7, da)
    for (i, j), got in zip(pairs, stacked):
        expected = bracket_from_flip(inv, SectionSpec(polys[i]), SectionSpec(polys[j]))(points)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, graph_route_bracket(inv, polys[i], polys[j], points))
    # and at one unbatched base point
    single = bracket_from_flip(inv, SectionSpec(polys[0]), SectionSpec(polys[1]))(points[0])
    assert np.array_equal(single, stacked[0, 0])


@pytest.mark.parametrize("name", catalog.names())
def test_nested_bracket_on_jets_matches_bracket_poly(name):
    spec = catalog.get(name)
    rng = np.random.default_rng(23)
    dm, da = spec.dim_M, spec.dim_A
    Y, Z = (_random_section_poly(rng, dm, da) for _ in range(2))
    nested, oracle = _NestedBracket(spec, Y, Z), spec.bracket_poly(Y, Z)
    mj = JetPoint.from_rows(1, rng.uniform(-1, 1, (2, 6, dm)))
    assert _max_abs(nested._eval_coeffs(mj.coeffs) - oracle.eval_jet(mj).coeffs).max() <= 1e-13
    m = mj.coeffs[0]
    assert _max_abs(nested.eval_floats(m) - oracle.eval_floats(m)).max() <= 1e-13


def test_flipped_c_in_the_nested_brackets_fails_the_bracket_laws():
    # with the sign of C flipped in every nested bracket the nested sections
    # are no longer brackets.  Over a point base a nested bracket is C alone,
    # so the flip negates all three terms of the Jacobi sum and leaves it at
    # zero: there the flip-field morphism, which reads [X, Y], catches it,
    # and over a base with a moving anchor the Jacobi law does too.
    original = _NestedBracket._eval_coeffs

    def flipped(self, m):
        c = self.spec._c_apply(m, self.S._eval_coeffs(m), self.T._eval_coeffs(m))
        return original(self, m) - c - c

    reports = {}
    for name in ("so3", "action-so3-r3"):
        inv = involution_from_spec(catalog.get(name))
        assert check_bracket_laws(inv, samples=10, seed=4).passed
        with mock.patch.object(_NestedBracket, "_eval_coeffs", flipped):
            reports[name] = check_bracket_laws(inv, samples=10, seed=4)
    assert reports["so3"]["flip-field-morphism"].max_residual > 0.1
    assert reports["action-so3-r3"]["bracket-jacobi"].max_residual > 0.1
    assert reports["action-so3-r3"]["flip-field-morphism"].max_residual > 0.1


def test_a_raising_flip_sample_is_nan_only_in_the_laws_that_flip_it():
    spec = catalog.action_so3_r3()
    canonical = involution_from_spec(spec)
    rng = np.random.default_rng(8)
    sections = [SectionSpec(_random_section_poly(rng, 3, 3)) for _ in range(3)]
    # with sections given, the base points are the first draw of the seed
    marked = np.random.default_rng(5).uniform(-1, 1, (9, 3))[4]

    def guarded(v, w):
        if np.any(np.all(v.coeffs[0, ..., :3] == marked, axis=-1)):
            raise ValueError("guard refuses the marked sample")
        return canonical.flip(v, w)

    def residuals_by_law(inv):
        seen = {}

        def spy(name, count, evaluate, *args, **kwargs):
            seen[name] = np.array(_residuals(count, evaluate))
            return _fold(name, count, evaluate, *args, **kwargs)

        with mock.patch.object(algebroid, "_fold", spy):
            report = check_bracket_laws(inv, sections=sections, samples=9, seed=5)
        return report, seen

    _, clean = residuals_by_law(canonical)
    report, seen = residuals_by_law(InvolutionAlgebroid(3, 3, spec.rho, guarded, spec=spec))
    at_points = {"bracket-antisymmetric", "bracket-bilinear", "bracket-jacobi", "anchor-morphism",
                 "leibniz"}
    assert set(seen) == at_points | {"flip-field-morphism", "flip-field-additive"}
    for name, res in seen.items():
        if name in at_points:
            assert np.flatnonzero(np.isnan(res)).tolist() == [4], name
            assert report[name].worst_input == marked.tolist()
            res = np.delete(res, 4)
            assert res.tolist() == np.delete(clean[name], 4).tolist(), name
        else:
            assert res.tolist() == clean[name].tolist(), name
            assert report[name].passed


def test_leibniz_rule():
    spec = catalog.action_so3_r3()
    inv = involution_from_spec(spec)
    X = SectionSpec(PolyMap(3, 3, (
        ((1.0, (0, 0, 0)), (0.5, (1, 0, 0))),
        ((1.0, (0, 1, 0)),),
        ((-0.5, (0, 0, 2)),),
    )))
    Y = SectionSpec(PolyMap(3, 3, (
        ((1.0, (0, 0, 1)),),
        ((1.0, (0, 0, 0)),),
        ((0.25, (1, 1, 0)),),
    )))
    f = ScalarFieldSpec(PolyMap(3, 1, (
        ((1.0, (0, 0, 0)), (2.0, (1, 0, 0)), (-1.0, (0, 2, 1))),
    )))
    points = np.random.default_rng(11).uniform(-1, 1, (30, 3))
    defect = leibniz_defect(inv, X, Y, f, points)
    assert np.all(defect <= 1e-9), defect


@pytest.mark.parametrize("route", ["spec", "connection"])
@pytest.mark.parametrize("name", catalog.names())
def test_the_suite_leibniz_row_is_the_public_oracle_on_its_own_field(name, route):
    # with sections given, the suite's base points are the first draw of its
    # seed and its field the last
    spec = catalog.get(name)
    dm, da = spec.dim_M, spec.dim_A
    rng = np.random.default_rng(31)
    if route == "spec":
        inv = involution_from_spec(spec)
    else:
        inv = flip_from_bracket(spec, ConnectionSpec.random_poly(rng, dm, da))
    sections = [SectionSpec(_random_section_poly(rng, dm, da)) for _ in range(3)]
    for seed in (1, 42):
        row = check_bracket_laws(inv, sections=sections, samples=12, seed=seed)["leibniz"]
        replay = np.random.default_rng(seed)
        points = replay.uniform(-1, 1, (12, dm))
        replay.uniform(-1, 1, (12, dm + da))  # the total-space points
        f = ScalarFieldSpec(_random_section_poly(replay, dm, 1))
        defect = leibniz_defect(inv, sections[0], sections[1], f, points)
        worst = int(np.argmax(defect))
        assert row.max_residual.hex() == float(defect[worst]).hex()
        assert row.worst_input == points[worst].tolist()
        assert (row.samples, row.seed, row.passed) == (12, seed, bool(defect[worst] <= 1e-9))


def test_roundtrip_bracket_and_flip():
    report = roundtrip_bracket(catalog.action_so3_r3(), samples=30, seed=12)
    assert report.passed, report.to_text()
    assert report["bracket-roundtrip"].max_residual < 1e-12

    report = roundtrip_bracket(catalog.sl2(), samples=30, seed=13)
    assert report.passed, report.to_text()
    assert report["flip-roundtrip"].max_residual == 0.0

    # on the tangent algebroid of R^k the polynomial bracket is the
    # vector-field bracket DY.X - DX.Y, and the flip reproduces it
    for k in (1, 2, 3):
        report = roundtrip_bracket(catalog.tangent(k), samples=30, seed=13 + k)
        assert report.passed, report.to_text()
        assert report["bracket-roundtrip"].max_residual < 1e-12


def test_spec_recovery_is_exact_over_a_point():
    for name in ["so3", "sl2"]:
        spec = catalog.get(name)
        recovered = spec_from_flip(involution_from_spec(spec))
        assert recovered.c_pairs.terms == spec.c_pairs.terms
    with pytest.raises(ValueError):
        spec_from_flip(involution_from_spec(catalog.tangent(1)))


def test_nan_anchor_fails_source_and_yang_baxter():
    # folds that kept their first argument over a later NaN passed these two
    # checks at 0.0
    rho = PolyMap.from_terms(1, [[(math.nan, (0,))], [(1.0, (1,))]])
    inv = involution_from_spec(AlgebroidSpec(1, 2, rho, PolyMap.zero(1, 2)))
    report = check_axioms(inv, samples=20)
    report.extend(check_yang_baxter(inv, samples=20))
    for name in ("source", "zero-sections", "yang-baxter"):
        assert not report[name].passed
        assert math.isnan(report[name].max_residual)
    # a NaN in the second compared block is not dropped either
    spec = catalog.tangent(1)
    pe = sample_prolongation(spec, [0.3], np.random.default_rng(0))
    assert pe.residual(spec) == 0.0
    bad = ProlongElement(pe.v, TAElement(pe.w.m, pe.w.a, [math.nan], pe.w.adot))
    assert math.isnan(bad.residual(spec))
    assert math.isnan(residual(pe.w.to_jet(), bad.w.to_jet()))


# -- sample batches -------------------------------------------------------------


@contextlib.contextmanager
def sliced_folds(*modules):
    """Check every law folded in the given modules: its batched residuals
    must equal, bit for bit, the same evaluator run on one-sample slices.
    Yields the names of the laws compared."""
    compared = []

    def spy(name, count, evaluate, *args, **kwargs):
        with quiet():
            batched = np.broadcast_to(np.asarray(evaluate(slice(None)), dtype=float), (count,))
            sliced = np.array([np.reshape(evaluate(slice(i, i + 1)), -1)[0]
                               for i in range(count)], dtype=float)
        assert batched.tobytes() == sliced.tobytes(), name
        compared.append(name)
        return _fold(name, count, evaluate, *args, **kwargs)

    with contextlib.ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "_fold", spy))
        yield compared


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(catalog.names()), route=st.sampled_from(["spec", "connection"]),
       seed=st.integers(0, 2 ** 16))
def test_batched_laws_match_one_sample_slices(name, route, seed):
    spec = catalog.get(name)
    rng = np.random.default_rng(seed)
    if route == "spec":
        inv = involution_from_spec(spec)
    else:
        inv = flip_from_bracket(spec, ConnectionSpec.random_poly(rng, spec.dim_M, spec.dim_A))
    sections = [SectionSpec(_random_section_poly(rng, spec.dim_M, spec.dim_A)) for _ in range(2)]
    with sliced_folds(algebroid) as compared:
        check_axioms(inv, samples=5, seed=seed)
        check_yang_baxter(inv, samples=4, seed=seed)
        check_bracket_laws(inv, samples=4, seed=seed)
        check_bracket_laws(inv, sections=sections, samples=4, seed=seed)
        spec.well_formed(samples=4, seed=seed)
    assert len(compared) == 9 + 2 + 7 + 7 + 2


def test_batched_tangent_and_group_laws_match_one_sample_slices():
    with sliced_folds(jet, algebroid, groupoid) as compared:
        check_tangent_axioms(samples=30, seed=2)
        differentiate_group(so3_group(), samples=6, seed=2)
        differentiate_pair_groupoid(PairGroupoidSpec(2), samples=6, seed=2)
    assert {"add-bundle-laws", "bracket-antisymmetric", "matches-tangent-flip",
            "jacobi"} <= set(compared)


def test_a_raising_sample_is_the_only_nan():
    # a flip whose guard refuses one kind of sample: the batch raises, and
    # the fold runs the same evaluator on one-sample slices
    spec = catalog.so3()
    canonical = involution_from_spec(spec)

    def guarded(v, w):
        if np.any(v.coeffs[0, ..., 0] > 0.9):
            raise ValueError("guard refuses the sample")
        return canonical.flip(v, w)

    inv = InvolutionAlgebroid(0, 3, spec.rho, guarded, spec=spec)
    # the pairs check_axioms draws at seed 5
    pairs = _sample_pairs(inv, np.random.default_rng(5), 30, double=True)
    bad = np.flatnonzero(pairs.v[:, 0] > 0.9)
    assert 0 < len(bad) < 5

    def speed(rows):
        return _max_abs(inv.flip(pairs.v_jet(rows), pairs.w_jet(rows)).coeffs[1])

    res = np.array(_residuals(30, speed))
    assert np.flatnonzero(np.isnan(res)).tolist() == bad.tolist()
    good = np.setdiff1d(np.arange(30), bad)
    assert res[good].tolist() == [speed(slice(i, i + 1))[0] for i in good]
    result = _fold("speed", 30, speed, 10.0, 5, pairs.describe)
    assert math.isnan(result.max_residual) and result.worst_input == pairs.describe(bad[0])
    # through a whole suite: the check fails on the first refused sample
    report = check_axioms(inv, samples=30, seed=5)
    assert math.isnan(report["projection"].max_residual)
    assert report["projection"].worst_input == pairs.describe(bad[0])



def _suite_involution(name, route, seed):
    if route == "group":
        spec = groupoid.group_catalog(name)
        return groupoid._routes(spec)[0](spec)
    spec = catalog.get(name)
    if route == "spec":
        return involution_from_spec(spec)
    rng = np.random.default_rng(seed)
    return flip_from_bracket(spec, ConnectionSpec.random_poly(rng, spec.dim_M, spec.dim_A))


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("name,route", [
    *((name, route) for name in catalog.names() for route in ("spec", "connection")),
    *((name, "group") for name in ("so3", "sl2", "diag-abelian(3)", "pair-groupoid(2)")),
])
def test_involution_rows_rerun_from_their_worst_input(name, route, seed, monkeypatch):
    # every sampled row of the involution suites reads one batch of double
    # prolongations row by row: the draw its worst_input records, as the
    # only row of a batch, gives its max_residual and worst_input again,
    # bit for bit
    inv = _suite_involution(name, route, seed)
    dm = inv.dim_M
    report = check_axioms(inv, samples=12, seed=seed)
    report.extend(check_yang_baxter(inv, samples=12, seed=seed))
    sampled = [row for row in report.results if row.name != "permutation-braid"]
    assert len(sampled) == 10
    for row in sampled:
        worst = row.worst_input
        # the drawn slots: m, a_v, a_w, adot_w, then the fiber rows of x by mask
        draw = np.concatenate([worst["m"], worst["a_v"], worst["w"][0], worst["w"][2],
                               np.array(worst["x"])[:, dm:].reshape(-1)])
        monkeypatch.setattr(algebroid, "_sample_pairs", lambda owner, rng, count, double=False:
                            algebroid._prolongation_pairs(owner, draw[None]))
        suite = check_yang_baxter if row.name == "yang-baxter" else check_axioms
        rerun = suite(inv, samples=1, seed=seed)[row.name]
        assert np.float64(rerun.max_residual).tobytes() == np.float64(row.max_residual).tobytes()
        assert rerun.worst_input == worst

def test_library_checks_stay_silent_on_overflow():
    # an anchor term of 1e308 overflows inside the checks; the non-finite
    # residuals fail them, and numpy prints no warning about it
    rho = PolyMap.from_terms(1, [[(1.0, (0,)), (1e308, (2,))], [(1.0, (1,))]])
    inv = involution_from_spec(AlgebroidSpec.from_structure(1, 2, rho, [(0, 1, 0, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_axioms(inv, samples=20, seed=3)
        report.extend(check_yang_baxter(inv, samples=10, seed=3))
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["target", "flip", "yang-baxter"]
    assert not any(math.isfinite(r.max_residual) for r in failed)
    # evaluating a polynomial directly keeps numpy's warnings
    square_plus = PolyMap.from_terms(2, [[(1.0, (2, 0)), (1.0, (0, 1))]])
    with pytest.warns(RuntimeWarning):
        square_plus.eval_jet(JetPoint.from_rows(1, [[math.inf, 0.5], [1.0, 0.0]]))
