"""Transport along path and homotopy variations as ODE flows.

A variation of admissible paths is a four-block polynomial curve in the
tangent of the total space; transporting a fiber element along it means
solving the flow equation whose right side is the flip of the moving element
against the variation.  The base equation closes on its own, and the fiber
equation is affine in the fiber, so the solver runs in two stages: base
first on a refined grid, then the affine fiber system along it.

Both stages read a stage table: the variation is evaluated once, in one
call, at every time an RK4 stage of the refined grid asks for, and the fiber
coefficients (matrix, offset) are computed from that table at every
refined-grid time in one batch.  One RK4 step of an affine system is an
affine map, so the step maps of every step are built in one batch and
composed by a blocked prefix scan (Blelloch 1990): doubling inside blocks
of eight steps, then across the block totals.  The fiber always takes that
route, and so does the base when the anchor has degree at most 1 in the
base point, its matrix and offset contracted from the anchor at 0, e_1,
..., e_dim_M one fiber index at a time, the table axis innermost; for
an anchor of degree 2 or more the base equation is nonlinear and is solved
stage by stage.  Several transports along different variations run as
rows of one state; a path transport is the one-row case, and a homotopy
transport integrates the spines of both orders as one state, then the rows
of both orders as one state.  The tables of a solve grow with its rows
times its steps, so MAX_STEPS bounds that product before anything is
allocated.  The same machinery gives the differentiation / integration maps
between fiber paths and infinitesimal variations.
"""

from __future__ import annotations

import numpy as np

from .algebroid import InvolutionAlgebroid, ProlongElement
from .bundle import AElement, TAElement
from .jet import JetPoint, PolyMap, _max_abs, flip_c, residuals
from .report import _Frozen, _Value, quiet, worst_of

MAX_STEPS = 10 ** 6  # the most rows x steps a caller may ask for, checked before it allocates
_GRID = 11  # nodes per axis of a homotopy transport's output grid
_PATH_GRID, _SQUARE_GRID = 33, 9  # membership grids: times of a path, nodes per axis of a square


def rk4_solve(field, x0, t_end: float, h: float):
    """Classical fourth-order Runge-Kutta with a fixed step.

    The step is snapped so an integer number of steps lands on t_end
    exactly; samples cover t = 0 through t_end inclusive.
    """
    if t_end <= 0:
        raise ValueError("final time must be positive")
    return _rk4(field, x0, t_end, _step_count(t_end, h))


def _rk4(field, x0, t_end: float, n: int):
    """rk4_solve in n steps, past its checks of t_end and the step."""
    hs = t_end / n
    x = np.array(x0, dtype=float).reshape(-1)
    times = np.empty(n + 1)
    states = np.empty((n + 1, x.size))
    times[0] = 0.0
    states[0] = x
    for i in range(n):
        t = i * hs
        k1 = np.asarray(field(t, x))
        k2 = np.asarray(field(t + hs / 2, x + (hs / 2) * k1))
        k3 = np.asarray(field(t + hs / 2, x + (hs / 2) * k2))
        k4 = np.asarray(field(t + hs, x + hs * k3))
        x = x + (hs / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise ArithmeticError("trajectory diverged at t = %g" % (t + hs))
        times[i + 1] = (i + 1) * hs
        states[i + 1] = x
    return times, states


def _step_count(t_end: float, h: float, rows: int = 1, multiple: int = 1) -> int:
    """Number of fixed steps of about h that land on t_end: at least one,
    rounded up to a multiple of multiple, and at most MAX_STEPS row-steps
    for rows transports solved as one state."""
    if not (0 < h < np.inf and np.isfinite(t_end / h)):
        raise ValueError("step %r gives no finite step count up to %r" % (h, t_end))
    n = -(-max(1, int(round(t_end / h))) // multiple) * multiple
    if rows * n > MAX_STEPS:
        steps = "steps" if rows == 1 else "steps of %d rows" % rows
        raise ValueError("step %r takes %.7g %s up to %r, over the cap of %d"
                         % (h, n, steps, t_end, MAX_STEPS))
    return n


def _nodes(grid: int, end: float = 1.0) -> np.ndarray:
    """grid evenly spaced nodes from 0 to end, at least the two ends."""
    if grid < 2:
        raise ValueError("a grid needs at least two nodes per axis, got %d" % grid)
    return np.linspace(0.0, end, grid)


def _square_steps(h: float, grid: int = _GRID) -> int:
    """_step_count of a homotopy transport on grid >= 2 nodes per axis: its 2
    grid rows solved as one state in a multiple of its grid - 1 segments."""
    return _step_count(1.0, h, 2 * grid, grid - 1)


def _rk4_step_maps(mats, offs, h: float) -> np.ndarray:
    """The homogeneous (d + 1) x (d + 1) maps (n, rows, d + 1, d + 1) of the
    n RK4 steps of the affine system x' = M(t) x + o(t), with M and o given
    at every half step: mats (2n + 1, rows, d, d), offs (2n + 1, rows, d).
    One RK4 step of an affine system is an affine map, so all n are built
    in one batch."""
    steps, rows, d = offs.shape
    f = np.zeros((steps, rows, d + 1, d + 1))
    f[..., :d, :d] = mats
    f[..., :d, d] = offs
    one = np.eye(d + 1)
    k1, mid, end = f[:-1:2], f[1::2], f[2::2]
    k2 = mid @ (one + (h / 2) * k1)
    k3 = mid @ (one + (h / 2) * k2)
    k4 = end @ (one + h * k3)
    return one + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


_BLOCK = 8  # steps per block of the prefix scan in _affine_rk4


def _affine_rk4(mats, offs, x0, h: float) -> np.ndarray:
    """Fixed-step RK4 of the affine system x' = M(t) x + o(t), with M and o
    given at every half step: mats (2n + 1, rows, d, d), offs (2n + 1, rows,
    d), x0 (rows, d).  Composing the step maps is associative, so the states
    come from a blocked prefix scan (Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190, 1990): the step maps are cut into blocks
    of _BLOCK, the last padded with identity maps; each block's prefix
    products come from log2 _BLOCK batched doubling rounds, and the block
    totals are composed by doubling.  Every block start is one product of a
    composed total with x0, and every state one product of its in-block
    prefix with its block start, about 3n products in all where doubling
    over every step takes n log2 n.  A product can overflow where the state
    it gives does not, so when a state is non-finite the steps are replayed
    one at a time, and the divergence is reported at the first step whose
    state is non-finite.  Returns the states (n + 1, rows, d)."""
    rows, d = offs.shape[1:]
    maps = _rk4_step_maps(mats, offs, h)
    n = len(maps)
    blocks = -(-n // _BLOCK)
    scan = np.empty((blocks * _BLOCK, rows, d + 1, d + 1))
    scan[:n] = maps
    scan[n:] = np.eye(d + 1)
    scan = scan.reshape((blocks, _BLOCK) + scan.shape[1:])
    shift = 1
    while shift < _BLOCK:  # scan[b, i] becomes step bB + i @ ... @ step bB
        scan[:, shift:] = scan[:, shift:] @ scan[:, :-shift]
        shift *= 2
    totals = scan[:-1, -1].copy()  # totals[b] becomes block b @ ... @ block 0
    shift = 1
    while shift < len(totals):
        totals[shift:] = totals[shift:] @ totals[:-shift]
        shift *= 2
    starts = np.empty((blocks, rows, d + 1, 1))
    starts[0, :, :d, 0] = x0
    starts[0, :, d] = 1.0
    starts[1:] = totals @ starts[0]
    states = np.empty((n + 1, rows, d + 1, 1))
    states[0] = starts[0]
    states[1:] = (scan @ starts[:, None]).reshape((-1,) + states.shape[1:])[:n]
    if not np.isfinite(states[1:]).all():
        for i, step in enumerate(maps):
            states[i + 1] = step @ states[i]
            if not np.isfinite(states[i + 1]).all():
                raise ArithmeticError("trajectory diverged at t = %g" % (i * h + h))
    return states[:, :, :d, 0]


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor kernel."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm takes a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm needs finite entries")
    norm = float(np.max(np.abs(a), initial=0.0)) * a.shape[0]
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    scaled = a / float(2 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ scaled / k
        result = result + term
        if (float(np.max(np.abs(term), initial=0.0))
                <= 1e-17 * max(1.0, float(np.max(np.abs(result), initial=0.0)))):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _split_blocks(arr, dm: int, da: int):
    """The four blocks along the last axis: base, fiber, base and fiber velocity."""
    arr = np.asarray(arr, dtype=float)
    n = dm + da
    return arr[..., :dm], arr[..., dm:n], arr[..., n:n + dm], arr[..., n + dm:]


class APathVariation(_Value):
    """Polynomial curve of prolongation data: four blocks (base point,
    fiber point, base velocity, fiber velocity) as functions of one time
    parameter.  Nothing is forced at construction beyond shapes, so
    ill-formed curves are representable for negative tests; membership is a
    measurement."""

    _fields = ("dim_M", "dim_A", "phi", "t_end")

    def __init__(self, dim_M: int, dim_A: int, phi: PolyMap, t_end: float = 1.0):
        if phi.in_dim != 1:
            raise ValueError("path variation is a curve in one parameter")
        if phi.out_dim != 2 * (dim_M + dim_A):
            raise ValueError("path variation needs four blocks of output")
        if not t_end > 0:
            raise ValueError("final time must be positive")
        self.__dict__.update(dim_M=dim_M, dim_A=dim_A, phi=phi, t_end=t_end)

    def blocks(self, t: float) -> TAElement:
        m, a, mdot, adot = _split_blocks(self.phi.eval_floats([t]), self.dim_M, self.dim_A)
        return TAElement(m, a, mdot, adot)

    def membership_residual(self, inv: InvolutionAlgebroid, grid: int = _PATH_GRID) -> dict:
        """Largest defect of the two defining identities of a variation of
        admissible paths over a uniform time grid: the anchor matching the
        base speed, and its derivative matching along the variation.  The
        grid, at least two times, is one batch of depth-1 jets."""
        times = _nodes(grid, self.t_end)[:, None]
        jet = self.phi.eval_jet(JetPoint.from_rows(1, [times, np.ones_like(times)]))
        anchor, variation = _path_defects(inv, jet, 1)
        return {"anchor": worst_of(anchor), "variation": worst_of(variation)}


def _path_defects(inv: InvolutionAlgebroid, jet: JetPoint, mask: int) -> tuple:
    """The two path-variation identities of a batch of jets of blocks along
    the parameter direction of one mask, one defect per batch entry: the
    anchor matching the base speed, and its derivative matching along the
    variation."""
    m, a, mdot, adot = _split_blocks(jet.coeffs[0], inv.dim_M, inv.dim_A)
    m_d, _, mdot_d, _ = _split_blocks(jet.coeffs[mask], inv.dim_M, inv.dim_A)
    vel = inv.anchor_apply_jet(JetPoint.from_rows(1, [m, mdot]), JetPoint.from_rows(1, [a, adot]))
    return _max_abs(vel.row(0) - m_d), _max_abs(vel.row(1) - mdot_d)


class AHomotopyVariation(_Value):
    """Two polynomial surfaces of prolongation data over the unit square,
    one for each parameter direction, sharing base blocks.  As with path
    variations the defining identities are measured, not forced."""

    _fields = ("dim_M", "dim_A", "h0", "h1")

    def __init__(self, dim_M: int, dim_A: int, h0: PolyMap, h1: PolyMap):
        for part in (h0, h1):
            if part.in_dim != 2:
                raise ValueError("homotopy variation is a surface in two parameters")
            if part.out_dim != 2 * (dim_M + dim_A):
                raise ValueError("homotopy variation needs four blocks of output")
        self.__dict__.update(dim_M=dim_M, dim_A=dim_A, h0=h0, h1=h1)

    def membership_residual(self, inv: InvolutionAlgebroid, grid: int = _SQUARE_GRID) -> dict:
        """Defects of the four identities an admissible homotopy variation
        satisfies: shared base blocks, each direction a path variation, and
        the flip exchanging the two directions' prolongations.  The grid, at
        least two nodes per axis, s major, is one batch of depth-2 jets."""
        dm, da = self.dim_M, self.dim_A
        n = dm + da
        nodes = _nodes(grid)
        square = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        e_s, e_t = (np.broadcast_to(e, square.shape) for e in np.eye(2))
        x = JetPoint.from_rows(2, [square, e_s, e_t, np.zeros_like(square)])
        j0, j1 = self.h0.eval_jet(x), self.h1.eval_jet(x)
        c0, c1 = j0.coeffs, j1.coeffs

        # the exchange identity, evaluated through the flip itself
        v = JetPoint.from_rows(1, [c0[0, :, :n], c0[0, :, n:]])
        ts_h1 = JetPoint.from_rows(2, [c1[0, :, :n], c1[1, :, :n], c1[0, :, n:], c1[1, :, n:]])
        lhs = inv.flip(v, flip_c(ts_h1, 1, 2))
        tt_h0 = JetPoint.from_rows(2, [c0[0, :, :n], c0[2, :, :n], c0[0, :, n:], c0[2, :, n:]])
        found = {
            "horizontal": worst_of(_path_defects(inv, j0, 1)),
            "vertical": worst_of(_path_defects(inv, j1, 2)),
            "continuity": residuals(lhs, flip_c(tt_h0, 1, 2)),
            "paired-base": worst_of([residuals(j0.take(0, dm), j1.take(0, dm)),
                                     residuals(j0.take(n, n + dm), j1.take(n, n + dm))]),
        }
        return {name: worst_of(values) for name, values in found.items()}


class PathTransport(_Frozen):
    """Sampled solution of a transport along a path variation, with the
    measured defect of the anchor identity it must satisfy."""

    def __init__(self, times: np.ndarray, base: np.ndarray, fiber: np.ndarray,
                 anchor_residual: float):
        self.__dict__.update(times=times, base=base, fiber=fiber, anchor_residual=anchor_residual)

    def to_csv(self) -> str:
        return _csv(self.times, self.base, self.fiber)


def _csv(*columns) -> str:
    """One line per row of the columns side by side (a 1-d array is one
    column), each number in round-trip form.  The whole table is formatted
    by one % over one flat list, with no Python list built per row."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def _square_csv(s_nodes, t_nodes, values) -> str:
    """One line s, t, values[i, j] per node of a square grid, s major."""
    s, t = (axis.ravel() for axis in np.meshgrid(s_nodes, t_nodes, indexing="ij"))
    return _csv(s, t, values.reshape(s.size, values.shape[-1]))


def _fiber_coefficients(inv: InvolutionAlgebroid, blocks: np.ndarray, base: np.ndarray):
    """The affine right side (matrix, offset) of the fiber equation at every
    entry of a table: blocks (..., 2(dim_M + dim_A)) of variations, base
    (..., dim_M) of points on the base trajectory.  Read off the attached
    structure data in one batch when present, and otherwise from one batched
    flip of the fiber vectors 0, e_1, ..., e_dim_A at every entry."""
    dm, da = inv.dim_M, inv.dim_A
    _, a_phi, mdot_phi, adot_phi = _split_blocks(blocks, dm, da)
    if inv.spec is not None:
        mats = np.matmul(inv.spec.c_tensor(base), a_phi[..., None, :, None])[..., 0]
        return mats, adot_phi

    lead = base.shape[:-1]
    probes = np.vstack((np.zeros(da), np.eye(da))).reshape((da + 1,) + (1,) * len(lead) + (da,))
    shape = (da + 1,) + lead
    v = np.concatenate((np.broadcast_to(base, shape + (dm,)),
                        np.broadcast_to(probes, shape + (da,))), axis=-1)
    w = np.stack((np.concatenate((base, a_phi), axis=-1),
                  np.concatenate((mdot_phi, adot_phi), axis=-1)))
    w = np.broadcast_to(w[:, None], (2,) + shape + (dm + da,))
    velocity = inv.flip(JetPoint.constant(v, 0), JetPoint._of(w)).coeffs[1, ..., dm:]
    offs = velocity[0]
    return np.moveaxis(velocity[1:] - offs, 0, -1), offs


def _affine_anchor(inv: InvolutionAlgebroid, a_t: np.ndarray):
    """The base equation m' = rho(m) a_t of an anchor of degree <= 1, for
    a_t (steps, rows, dim_A), as its matrix (steps, rows, dim_M, dim_M) and
    offset (steps, rows, dim_M): rho(m) a = rho(0) a + sum_k m_k (rho(e_k) -
    rho(0)) a, with rho read off the one anchor evaluator at 0, e_1, ...,
    e_dim_M.  The contraction with a_t runs one fiber index at a time,
    adding in index order, with the table axis innermost."""
    dm, da = inv.dim_M, inv.dim_A
    lead = a_t.shape[:-1]
    rho = inv.anchor_matrix(np.vstack([np.zeros(dm), np.eye(dm)]))[..., None]
    a = np.ascontiguousarray(np.reshape(a_t, (-1, da)).T)
    at = np.zeros((dm + 1, dm, a.shape[1]))  # (probe, base index, table)
    for j in range(da):
        at += rho[:, :, j] * a[j]
    mats = (at[1:] - at[0]).transpose(2, 1, 0).reshape(lead + (dm, dm))
    return mats, at[0].T.reshape(lead + (dm,))


def _transport_rows(inv: InvolutionAlgebroid, stages: np.ndarray, m0, a0, t_end: float):
    """Transport one fiber element per row along that row's path variation,
    all rows as one state.  stages (rows, 4n + 1, 2(dim_M + dim_A)) holds the
    variations at every quarter step of the n steps.  The base flows first at
    half steps, whose RK4 stages fall on quarter steps; then the affine fiber
    system at full steps, its coefficients tabulated once per half step.
    Returns the times, base (n + 1, rows, dim_M) and fiber (n + 1, rows, dim_A)."""
    dm, da = inv.dim_M, inv.dim_A
    rows, count, _ = stages.shape
    n = (count - 1) // 4
    a_phi = _split_blocks(stages, dm, da)[1]
    if inv.rho.degree <= 1:  # the base equation is affine too
        base = _affine_rk4(*_affine_anchor(inv, a_phi.swapaxes(0, 1)), m0, t_end / (2 * n))
    else:
        quarter = t_end / (count - 1)

        def base_field(t, m):
            k = round(t / quarter)  # step i of _rk4 asks for k = 2i, 2i + 1 and 2i + 2
            return inv.anchor_apply(m.reshape(rows, dm), a_phi[:, k]).reshape(-1)

        base = _rk4(base_field, m0, t_end, 2 * n)[1].reshape(2 * n + 1, rows, dm)
    mats, offs = _fiber_coefficients(inv, stages[:, ::2].swapaxes(0, 1), base)
    fiber = _affine_rk4(mats, offs, a0, t_end / n)
    return np.arange(n + 1) * (t_end / n), base[::2], fiber


def apath_transport(inv: InvolutionAlgebroid, phi: APathVariation, a0: AElement,
                    h: float = 1e-3) -> PathTransport:
    """Transport a fiber element along a path variation: the base point
    follows the anchor of the variation's fiber block and the fiber follows
    the affine equation read off from the flip.  a0 must be composable with
    the blocks at time 0 within 1e-9 (a NaN gap never is).  The anchor
    identity the result satisfies is measured and returned, not assumed."""
    dm, da = inv.dim_M, inv.dim_A
    n = _step_count(phi.t_end, h)
    with quiet():
        gap = ProlongElement(a0, phi.blocks(0.0)).residual(inv)
        if not gap <= 1e-9:
            raise ValueError(
                "initial element is not composable with the variation (defect %.3e)" % gap)

        quarter_times = np.arange(4 * n + 1) * (phi.t_end / (4 * n))
        stages = phi.phi.eval_floats(quarter_times[:, None])
        times, base, fiber = _transport_rows(inv, stages[None], a0.m, a0.a, phi.t_end)
        base, fiber = base[:, 0], fiber[:, 0]
        m_phi, _, mdot_phi, _ = _split_blocks(stages[::4], dm, da)
        worst = worst_of([
            float(np.max(np.abs(base - m_phi), initial=0.0)),
            float(np.max(np.abs(inv.anchor_apply(base, fiber) - mdot_phi), initial=0.0)),
        ])
    return PathTransport(times, base, fiber, worst)


def _square_stages(pm: PolyMap, fixed, times: np.ndarray, along_s: bool) -> np.ndarray:
    """A surface variation on lines of the unit square, one row per fixed
    value: (rows, len(times), out_dim), moving along s or along t."""
    moving, still = np.broadcast_arrays(times[None, :], np.asarray(fixed, dtype=float)[:, None])
    return pm.eval_floats(np.stack((moving, still) if along_s else (still, moving), axis=-1))


class HomotopyTransport(_Frozen):
    """Both integration orders of a transport over the unit square and
    their largest disagreement."""

    def __init__(self, s_nodes: np.ndarray, t_nodes: np.ndarray, base0: np.ndarray,
                 fiber0: np.ndarray, base1: np.ndarray, fiber1: np.ndarray, discrepancy: float):
        self.__dict__.update(s_nodes=s_nodes, t_nodes=t_nodes, base0=base0, fiber0=fiber0,
                             base1=base1, fiber1=fiber1, discrepancy=discrepancy)

    def to_csv(self) -> str:
        return _square_csv(self.s_nodes, self.t_nodes, self.fiber0)


def ahomotopy_transport(inv: InvolutionAlgebroid, hv: AHomotopyVariation, a0: AElement,
                        h: float = 1e-3, grid: int = _GRID) -> HomotopyTransport:
    """Transport a fiber element over the unit square both ways: vertically
    then horizontally, and in the transposed order.  For well-formed
    homotopy variations the two surfaces agree; the discrepancy is measured
    and returned either way."""
    with quiet():
        start = TAElement(*_split_blocks(hv.h0.eval_floats([0.0, 0.0]), hv.dim_M, hv.dim_A))
        gap = ProlongElement(a0, start).residual(inv)
    if not gap <= 1e-9:
        raise ValueError(
            "initial element is not composable with the homotopy (defect %.3e)" % gap)
    return _homotopy_transport(inv, hv, a0, h, grid)


def _homotopy_transport(inv: InvolutionAlgebroid, hv: AHomotopyVariation, a0: AElement,
                        h: float, grid: int) -> HomotopyTransport:
    """ahomotopy_transport past its check that a0 is composable with hv."""
    nodes = _nodes(grid)
    n = _square_steps(h, grid)
    with quiet():
        stage_times = np.arange(4 * n + 1) * (1.0 / (4 * n))  # the quarter steps
        at_nodes = slice(None, None, n // (grid - 1))

        # the spines of both orders, one row each: along t on the edge s = 0
        # under h1, and along s on the edge t = 0 under h0
        spines = np.concatenate((_square_stages(hv.h1, [0.0], stage_times, False),
                                 _square_stages(hv.h0, [0.0], stage_times, True)))
        _, base, fiber = _transport_rows(
            inv, spines, np.tile(a0.m, (2, 1)), np.tile(a0.a, (2, 1)), 1.0)
        # then the rows of both orders from the spine nodes: along s on every
        # row t = t_j under h0, and along t on every row s = s_i under h1
        rows = np.concatenate((_square_stages(hv.h0, nodes, stage_times, True),
                               _square_stages(hv.h1, nodes, stage_times, False)))
        spine_nodes = lambda x: x[at_nodes].swapaxes(0, 1).reshape(2 * grid, x.shape[-1])
        _, base, fiber = _transport_rows(inv, rows, spine_nodes(base), spine_nodes(fiber), 1.0)
        base, fiber = base[at_nodes], fiber[at_nodes]  # (along the rows, rows, dim)
        base0, base1 = base[:, :grid], base[:, grid:].swapaxes(0, 1)
        fiber0, fiber1 = fiber[:, :grid], fiber[:, grid:].swapaxes(0, 1)
        discrepancy = worst_of([
            float(np.max(np.abs(base0 - base1), initial=0.0)),
            float(np.max(np.abs(fiber0 - fiber1), initial=0.0)),
        ])
    return HomotopyTransport(nodes, nodes, base0, fiber0, base1, fiber1, discrepancy)


# -- differentiation and integration between fiber data and variations --------


def inf_apath_vee(inv: InvolutionAlgebroid, chi: PolyMap, m) -> APathVariation:
    """Differentiate a fiber path starting at zero into an infinitesimal
    path variation: the flip of the zero section against the path's tangent,
    which in blocks reads (m, 0, anchor applied to the path, its speed)."""
    dm, da = inv.dim_M, inv.dim_A
    if chi.in_dim != 1 or chi.out_dim != da:
        raise ValueError("fiber path must map one parameter to fiber coordinates")
    start = chi.eval_floats([0.0])
    if not float(np.max(np.abs(start), initial=0.0)) <= 1e-12:
        raise ValueError("fiber path must start at zero")
    m = np.asarray(m, dtype=float).reshape(dm)
    anchored = PolyMap.linear(inv.anchor_matrix(m)).compose(chi)
    blocks = PolyMap.constant(m, 1).stack(PolyMap.zero(1, da)).stack(anchored)
    return APathVariation(dm, da, blocks.stack(chi.partial(0)), 1.0)


def alg1_residuals(inv: InvolutionAlgebroid, phi: APathVariation) -> dict:
    """Defects of the three conditions cutting out infinitesimal path
    variations: zero value part over a constant base, no base speed at the
    start, and the path-variation identity, over the membership grid."""
    dm, da = inv.dim_M, inv.dim_A
    start = phi.blocks(0.0)
    bm, ba, _, _ = _split_blocks(
        phi.phi.eval_floats(_nodes(_PATH_GRID, phi.t_end)[:, None]), dm, da)
    return {
        "starts-at-zero": worst_of([float(np.max(np.abs(ba), initial=0.0)),
                                    float(np.max(np.abs(bm - start.m), initial=0.0))]),
        "source-constant": float(np.max(np.abs(start.mdot), initial=0.0)),
        "variation": worst_of(phi.membership_residual(inv, _PATH_GRID).values()),
    }


class FiberPath(_Frozen):
    """Sampled path through a single fiber."""

    def __init__(self, m: np.ndarray, times: np.ndarray, values: np.ndarray):
        self.__dict__.update(m=m, times=times, values=values)

    def to_csv(self) -> str:
        return _csv(self.times, self.values)


def inf_apath_wedge(inv: InvolutionAlgebroid, phi: APathVariation, h: float = 1e-3) -> FiberPath:
    """Integrate an infinitesimal path variation (alg1_residuals at most 1e-9)
    into a fiber path from zero by transporting the zero vector along it.  The
    base must not move along the way; that is verified, not assumed."""
    defect = worst_of(alg1_residuals(inv, phi).values())
    if not defect <= 1e-9:
        raise ValueError(
            "curve is not an infinitesimal path variation (defect %.3e)" % defect)
    m = phi.blocks(0.0).m
    run = apath_transport(inv, phi, AElement(m, np.zeros(inv.dim_A)), h)
    drift = float(np.max(np.abs(run.base - m), initial=0.0))
    if not drift <= 1e-9:
        raise ArithmeticError("base point drifted by %.3e during integration" % drift)
    return FiberPath(m, run.times, run.fiber)


def inf_ahomotopy_vee(inv: InvolutionAlgebroid, eta: PolyMap, m) -> AHomotopyVariation:
    """Differentiate a fiber surface through zero into an infinitesimal
    homotopy variation, one direction at a time."""
    dm, da = inv.dim_M, inv.dim_A
    if eta.in_dim != 2 or eta.out_dim != da:
        raise ValueError("fiber surface must map two parameters to fiber coordinates")
    start = eta.eval_floats([0.0, 0.0])
    if not float(np.max(np.abs(start), initial=0.0)) <= 1e-12:
        raise ValueError("fiber surface must start at zero")
    m = np.asarray(m, dtype=float).reshape(dm)
    anchored = PolyMap.linear(inv.anchor_matrix(m)).compose(eta)

    blocks = PolyMap.constant(m, 2).stack(PolyMap.zero(2, da)).stack(anchored)
    return AHomotopyVariation(dm, da, blocks.stack(eta.partial(0)), blocks.stack(eta.partial(1)))


def alg2_residuals(inv: InvolutionAlgebroid, hv: AHomotopyVariation) -> dict:
    """Defects of the five conditions cutting out infinitesimal homotopy
    variations, plus the shared-base pairing of the two halves."""
    dm, da = inv.dim_M, inv.dim_A
    nodes = _nodes(_SQUARE_GRID)
    square = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    m, _, _, _ = _split_blocks(hv.h0.eval_floats([0.0, 0.0]), dm, da)
    starts, source = [], []
    for pm in (hv.h0, hv.h1):
        bm, ba, _, _ = _split_blocks(pm.eval_floats(square), dm, da)
        starts += [float(np.max(np.abs(ba), initial=0.0)),
                   float(np.max(np.abs(bm - m), initial=0.0))]
        mdot = _split_blocks(pm.eval_floats([0.0, 0.0]), dm, da)[2]
        source.append(float(np.max(np.abs(mdot), initial=0.0)))
    return {"starts-at-zero": worst_of(starts), "source-constant": worst_of(source),
            **hv.membership_residual(inv, _SQUARE_GRID)}


class FiberSurface(_Frozen):
    """Sampled surface through a single fiber."""

    def __init__(self, m: np.ndarray, s_nodes: np.ndarray, t_nodes: np.ndarray,
                 values: np.ndarray):
        self.__dict__.update(m=m, s_nodes=s_nodes, t_nodes=t_nodes, values=values)

    def to_csv(self) -> str:
        return _square_csv(self.s_nodes, self.t_nodes, self.values)


def inf_ahomotopy_wedge(inv: InvolutionAlgebroid, hv: AHomotopyVariation, h: float = 1e-3,
                        grid: int = _GRID) -> FiberSurface:
    """Integrate an infinitesimal homotopy variation, alg2_residuals at most
    1e-9, into a fiber surface by transporting the zero vector over the
    square; both integration orders are run and must agree."""
    defect = worst_of(alg2_residuals(inv, hv).values())
    if not defect <= 1e-9:
        raise ValueError(
            "surface is not an infinitesimal homotopy variation (defect %.3e)" % defect)
    dm, da = inv.dim_M, inv.dim_A
    m = _split_blocks(hv.h0.eval_floats([0.0, 0.0]), dm, da)[0]
    # the start gap of (m, 0) is h0's source-constant defect, bounded above
    run = _homotopy_transport(inv, hv, AElement(m, np.zeros(da)), h, grid)
    drift = float(np.max(np.abs(np.stack([run.base0, run.base1]) - m), initial=0.0))
    if not drift <= 1e-9:
        raise ArithmeticError("base point drifted by %.3e during integration" % drift)
    return FiberSurface(m, run.s_nodes, run.t_nodes, run.fiber0)


def grid_derivative(values, spacing: float) -> np.ndarray:
    """Fourth-order finite-difference derivative of data sampled uniformly
    along its first axis, with one-sided stencils at the edges.  Needs five
    samples along that axis."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[0] < 5:
        raise ValueError("need at least five samples along the axis")
    out = np.empty_like(v)
    out[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / 12
    out[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / 12
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / 12
    out[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / 12
    out[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / 12
    return out / spacing
