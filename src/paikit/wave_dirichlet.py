"""Leapfrog solver for wave problems with Dirichlet boundary data.

The equation is taken in the form ``d2u/dt2 - c^2 lap u = F`` (the source
convention of the auxiliary control problems), discretized on the interior
nodes as ``M x'' = -K_ii x - K_ib g + M F`` with the boundary nodes pinned
to the data ``g``.  Backward problems (data given at t = T) are realized as
forward runs under t -> T - t with the velocity sign flipped.

With F = 0 and g = 0 the scheme conserves the staggered discrete energy
``v' M v + x^{n+1} . K x^n`` exactly; the reported integer-step energies are
second-order samplings of the continuous functionals and therefore drift
only at O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import SpeedField
from .grid import Discretization
from .wave_forward import NumericalError, WaveTrajectory, time_grid
from . import norms


@dataclass
class DirichletProblem:
    speed: SpeedField
    u0: np.ndarray                  # full-grid nodal field
    u1: np.ndarray
    T: float
    F: object = None                # None | callable(t)->field | (N+1, n_nodes)
    g_bc: object = None             # None | callable(t)->(nb,) | (N+1, nb)
    direction: str = "forward"
    cfl: float = 0.5

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', "
                             f"got {self.direction!r}")


@dataclass
class NormalTrace:
    values: np.ndarray        # (N+1, n_trace) outward normal derivative samples
    dt: float
    T: float
    weights: np.ndarray       # surface quadrature weights per trace entry
    node_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    def l2_norm_sq(self) -> float:
        w_t = norms.time_weights(self.values.shape[0], self.dt)
        return float((w_t[:, None] * self.weights[None, :] * self.values**2).sum())


@dataclass
class DirichletRun:
    """What one Dirichlet solve keeps of its interior levels (forward time order)."""

    x: np.ndarray | None      # (N+1, n_history) levels on the history nodes
    g: np.ndarray | None      # (N+1, nb) boundary data, None for zero data
    layer: np.ndarray         # (N+1, n_layer) levels on ``disc.layer_idx``
    head: np.ndarray          # (3, n_inside) levels 0, 1, 2
    tail: np.ndarray          # (3, n_inside) levels N-2, N-1, N
    trace: np.ndarray | None = None   # (N+1, n_trace), set by simulate_dirichlet

    def reversed(self) -> DirichletRun:
        """The same run indexed by t -> T - t."""
        def rev(a):
            return None if a is None else a[::-1].copy()
        return DirichletRun(x=rev(self.x), g=rev(self.g), layer=rev(self.layer),
                            head=rev(self.tail), tail=rev(self.head),
                            trace=rev(self.trace))


def layer_trace(run: DirichletRun, disc: Discretization) -> np.ndarray:
    """The normal trace ``T_i x + T_b g`` of every level, formed from the
    boundary layer, the only interior nodes the trace reads."""
    trace = (disc.trace_inside[:, disc.layer_idx] @ run.layer.T).T
    if run.g is not None:
        trace += (disc.trace_boundary @ run.g.T).T
    return np.ascontiguousarray(trace)


def _level_series(data, N: int, dt: float, width: int, what: str) -> np.ndarray | None:
    """Boundary data or a source (None, callable(t) or (N+1, width)) per level."""
    if data is None:
        return None
    if callable(data):
        return np.stack([np.broadcast_to(np.asarray(data(n * dt), dtype=float), (width,))
                         for n in range(N + 1)])
    arr = np.asarray(data, dtype=float)
    if arr.shape != (N + 1, width):
        raise ValueError(f"{what} must have shape {(N + 1, width)}, got {arr.shape}")
    return arr


class DirichletOperator:
    """The pinned-boundary leapfrog's arrays on the time grid of one
    ``(speed, T, cfl[, n_steps])``.

    ``leapfrog_dirichlet`` steps with them and ``transpose`` runs the same
    steps backwards, so the adjoint of the homogeneous run ``(a, b) -> x``
    is exact.
    """

    def __init__(self, speed: SpeedField, T: float, cfl: float,
                 n_steps: int | None = None):
        disc = speed.domain.disc
        self.speed, self.disc = speed, disc
        self.N, self.dt = time_grid(speed, T, cfl, n_steps)
        self.ii = disc.inside_idx
        self.K = disc.K_ii_step
        self.M = (speed.c_inv2 * disc.w_vol)[self.ii]
        self.layer = disc.layer_idx

    @cached_property
    def K_ib(self):
        """The rows of ``K_ib`` on the layer, the only ones with entries;
        sliced on first use, as only runs with boundary data and HUM read it."""
        return self.disc.K_ib[self.layer]

    def staggered_energy(self, run: DirichletRun) -> float:
        """The run's final ``v' M v + x[N] . K x[N-1]``, ``v = (x[N] - x[N-1]) / dt``:
        the energy the homogeneous scheme conserves exactly."""
        x_prev, x_last = run.tail[1], run.tail[2]
        v = (x_last - x_prev) / self.dt
        return float((self.M * v * v).sum() + x_last @ (self.K @ x_prev))

    def transpose(self, src: np.ndarray | None,
                  terminal: np.ndarray | None = None):
        """Exact transpose of the homogeneous run ``(a, b) -> x``.

        The level sources are ``src`` on the boundary layer, (N+1, n_layer),
        plus ``terminal`` on every interior node at level N.  Returns
        ``(a_bar, b_bar)``.  Three level buffers rotate through the sweep.
        """
        N, dt, M, Kii, adj = self.N, self.dt, self.M, self.K, self.layer
        n_in = self.ii.size
        bar_next = np.zeros(n_in) if terminal is None else np.array(terminal, dtype=float)
        bar_cur = np.zeros(n_in)
        bar_prev = np.empty(n_in)
        if src is not None:
            bar_next[adj] += src[N]        # x_bar[N], complete
            bar_cur[adj] = src[N - 1]      # x_bar[N-1], awaiting step-N terms
        t_M = np.empty(n_in)
        tmp = np.empty(n_in)
        for n in range(N - 1, 0, -1):
            t = bar_next
            # x_bar[n] += 2 t - dt^2 Kii (t / M)
            np.divide(t, M, out=t_M)
            k = Kii @ t_M
            k *= dt**2
            np.multiply(t, 2.0, out=tmp)
            tmp -= k
            bar_cur += tmp
            # x_bar[n-1] = (source at n-1) - t
            bar_prev.fill(0.0)
            if src is not None:
                bar_prev[adj] = src[n - 1]
            bar_prev -= t
            bar_next, bar_cur, bar_prev = bar_cur, bar_prev, bar_next
        # bar_next = x_bar[1], bar_cur = x_bar[0]
        u = bar_next
        a_bar = bar_cur + u - 0.5 * dt**2 * (Kii @ (u / M))
        b_bar = dt * u
        return a_bar, b_bar


def leapfrog_dirichlet(op: DirichletOperator, u0: np.ndarray, u1: np.ndarray, *,
                       g: np.ndarray | None = None, F: np.ndarray | None = None,
                       start_pair=None, history=None) -> DirichletRun:
    """Forward-in-time pinned-boundary leapfrog on the interior nodes.

    ``g`` is the boundary data per level, (N+1, nb); ``None`` means zero.
    ``start_pair`` seeds the first two interior levels directly (exact
    leapfrog state, e.g. for bit-reversible backward runs) instead of the
    Taylor start from (u0, u1).

    Every run keeps the boundary layer and the first and last three levels;
    ``layer_trace`` forms the normal trace from the layer.  ``history``
    selects the positions in ``inside_idx`` whose every level is kept in
    ``DirichletRun.x``: ``None`` keeps none, ``slice(None)`` all, an index
    array just those.
    """
    N, dt, ii, Kii, M, layer = op.N, op.dt, op.ii, op.K, op.M, op.layer
    # boundary forcing K_ib g per level; zero off the layer
    Kg = None if g is None else np.ascontiguousarray((op.K_ib @ g.T).T)

    lay = np.empty((N + 1, layer.size))
    head = np.empty((3, ii.size))
    x = None if history is None else np.empty((N + 1, ii[history].size))

    def minus_acc(level, n):
        """The negated acceleration (K_ii x + K_ib g[n]) / M - F[n], formed
        in the sparse product's output.  Negation is exact, so stepping with
        it gives the same bits as stepping with the acceleration."""
        k = Kii @ level
        if Kg is not None:
            k[layer] += Kg[n]
        k /= M
        if F is not None:
            k -= F[n][ii]
        return k

    if start_pair is not None:
        prev, cur = (np.array(v, dtype=float) for v in start_pair)
    else:
        prev = u0[ii]
        cur = prev + dt * u1[ii] - 0.5 * dt**2 * minus_acc(prev, 0)
    nxt = np.empty_like(cur)
    for n, level in ((0, prev), (1, cur)):
        lay[n] = level[layer]
        head[n] = level
        if x is not None:
            x[n] = level[history]

    for n in range(1, N):
        # x[n+1] = 2 x[n] - x[n-1] - dt^2 ((K_ii x[n] + K_ib g[n]) / M - F[n])
        k = minus_acc(cur, n)
        k *= dt**2
        np.multiply(cur, 2.0, out=nxt)
        nxt -= prev
        nxt -= k
        if n % 200 == 0 and not np.isfinite(nxt).all():
            raise NumericalError(f"non-finite field at step {n + 1}")
        lay[n + 1] = nxt[layer]
        if n == 1:
            head[2] = nxt
        if x is not None:
            x[n + 1] = nxt[history]
        prev, cur, nxt = cur, nxt, prev
    if not np.isfinite(cur).all():
        raise NumericalError(f"non-finite field at step {N}")
    # after the last rotation nxt holds level N-2
    return DirichletRun(x=x, g=g, layer=lay, head=head,
                        tail=np.stack([nxt, prev, cur]))


def simulate_dirichlet(problem: DirichletProblem, *, history=None,
                       track_energy: bool = False, n_steps: int | None = None):
    """Solve the Dirichlet problem; returns ``(WaveTrajectory, NormalTrace)``.

    ``direction="backward"`` interprets (u0, u1) as data at t = T and returns
    histories indexed by physical (forward) time.  ``history`` selects the
    grid nodes whose every level of the full field is kept in
    ``WaveTrajectory.states``: ``None`` keeps none, ``slice(None)`` all, an
    index array just those.  ``track_energy`` keeps every interior level in
    ``traj.run.x`` for ``dirichlet_energy_series``.
    """
    speed, domain = problem.speed, problem.speed.domain
    disc = domain.disc
    op = DirichletOperator(speed, problem.T, problem.cfl, n_steps)
    N, dt = op.N, op.dt
    g = _level_series(problem.g_bc, N, dt, disc.boundary.idx.size, "boundary data")
    F = _level_series(problem.F, N, dt, disc.n_nodes, "source")

    backward = problem.direction == "backward"
    if backward:
        g = g[::-1].copy() if g is not None else None
        F = F[::-1].copy() if F is not None else None
        u1 = -np.asarray(problem.u1, dtype=float)
    else:
        u1 = np.asarray(problem.u1, dtype=float)
    u0 = np.asarray(problem.u0, dtype=float)

    # when the boundary data starts at zero the initial field must too;
    # controls of transposition type may jump on at t = 0+
    scale = max(np.abs(u0).max(), 0.0 if g is None else np.abs(g).max(), 1.0)
    if g is None or np.abs(g[0]).max() <= 1e-14 * scale:
        if np.abs(u0[disc.boundary.idx]).max() > 1e-10 * scale:
            raise ValueError("u0 does not vanish on the boundary although the "
                             "boundary data starts at zero")

    keep = None                     # positions in inside_idx of the history nodes
    if history is not None:
        nodes = np.arange(disc.n_nodes)[history]
        inner = disc.inside_mask[nodes]
        keep = np.searchsorted(disc.inside_idx, nodes[inner])
    run = leapfrog_dirichlet(op, u0, u1, g=g, F=F,
                             history=slice(None) if track_energy else keep)
    if backward:
        run = run.reversed()
    run.trace = layer_trace(run, disc)

    states = None
    if history is not None:
        states = np.zeros((N + 1, nodes.size))
        states[:, inner] = run.x[:, keep] if track_energy else run.x
        bpos = disc.boundary_pos[nodes]
        if run.g is not None:
            states[:, bpos >= 0] = run.g[:, bpos[bpos >= 0]]

    g_last = (None, None) if run.g is None else (run.g[N], run.g[N - 1])
    x = run.tail
    traj = WaveTrajectory(
        dt=dt, n_steps=N,
        final_state=(disc.scatter(x[2], g_last[0]), disc.scatter(x[1], g_last[1])),
        # second-order one-sided velocity at level N
        final_velocity=disc.scatter((3.0 * x[2] - 4.0 * x[1] + x[0]) / (2.0 * dt)),
        states=states,
        energies=dirichlet_energy_series(run, op) if track_energy else None,
        run=run)
    trace = NormalTrace(run.trace, dt, problem.T,
                        disc.trace.weights.copy(), disc.trace.node_idx.copy(),
                        meta={"a": speed.a, "n": domain.grid_resolution,
                              "dim": domain.dimension, "direction": problem.direction})
    return traj, trace


def dirichlet_energy_series(run: DirichletRun, op: DirichletOperator) -> dict:
    """Integer-step energies of a run on ``op``: unweighted form and the
    c^-2-weighted invariant.

    Reads every interior level, so ``run.x`` must hold the full history.
    """
    disc, dt = op.disc, op.dt
    w = disc.w_vol[op.ii]
    t, ep, ew = [], [], []
    for n in range(1, op.N):
        v = (run.x[n + 1] - run.x[n - 1]) / (2.0 * dt)
        full = disc.scatter(run.x[n], None if run.g is None else run.g[n])
        ep.append(float((w * v * v).sum() + disc.grad_quadratic(full, op.speed.c2)))
        ew.append(float((op.M * v * v).sum() + disc.grad_quadratic(full)))
        t.append(n * dt)
    return {"times": np.asarray(t), "unweighted": np.asarray(ep),
            "weighted": np.asarray(ew)}


@dataclass
class TranspositionReport:
    lhs: float            # int <psi, F>_{c^-2} dt
    rhs: float
    term_initial: float   # -<psi0, dt v_F(0)>_{c^-2}
    term_velocity: float  # <psi1, v_F(0)>_{c^-2}
    term_boundary: float  # -int dn v_F g
    residual_rel: float


def transposition_check(speed: SpeedField, psi0: np.ndarray, psi1: np.ndarray,
                        g_bc, F, T: float, *, cfl: float = 0.5) -> TranspositionReport:
    """Defect of the duality identity defining transposition solutions.

    ``psi`` solves the Dirichlet problem with data (psi0, psi1, g); ``v_F``
    solves the backward problem with interior source F and zero data.  All
    volume pairings are c^-2-weighted grid inner products.
    """
    domain = speed.domain
    disc = domain.disc
    psi_traj, _ = simulate_dirichlet(
        DirichletProblem(speed, psi0, psi1, T, F=None, g_bc=g_bc, cfl=cfl),
        history=slice(None))
    N = psi_traj.n_steps
    dt = psi_traj.dt
    v_traj, v_trace = simulate_dirichlet(
        DirichletProblem(speed, np.zeros(disc.n_nodes), np.zeros(disc.n_nodes),
                         T, F=F, g_bc=None, direction="backward", cfl=cfl),
        n_steps=N)

    w_t = norms.time_weights(N + 1, dt)
    wgt = disc.w_vol * speed.c_inv2

    F_series = _level_series(F, N, dt, disc.n_nodes, "source")
    lhs = 0.0
    if F_series is not None:
        for n in range(N + 1):
            lhs += w_t[n] * float((wgt * psi_traj.states[n] * F_series[n]).sum())

    # the backward run's first three levels; its boundary data is zero
    v0, v1, v2 = (disc.scatter(x) for x in v_traj.run.head)
    dv0 = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * dt)
    term_i = -float((wgt * psi0 * dv0).sum())
    term_v = float((wgt * psi1 * v0).sum())
    g_series = _level_series(g_bc, N, dt, disc.boundary.idx.size, "boundary data")
    term_b = 0.0
    if g_series is not None:
        # map boundary-node data onto the trace rows (face-based rows on masks)
        g_on_trace = g_series[:, disc.boundary_pos[disc.trace.node_idx]]
        term_b = -float((w_t[:, None] * disc.trace.weights[None, :]
                         * v_trace.values * g_on_trace).sum())
    rhs = term_i + term_v + term_b
    scale = max(abs(lhs), abs(rhs), abs(term_i), abs(term_v), abs(term_b), 1e-30)
    return TranspositionReport(lhs, rhs, term_i, term_v, term_b,
                               abs(lhs - rhs) / scale)
