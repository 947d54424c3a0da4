"""Wave problems with Dirichlet boundary data on the shared leapfrog.

The equation is taken in the form ``d2u/dt2 - c^2 lap u = F`` (the source
convention of the auxiliary control problems), discretized on the interior
nodes as ``M x'' = -K_ii x - K_ib g + M F`` with the boundary nodes pinned
to the data ``g``.  ``dirichlet_leapfrog`` is ``wave_forward.Leapfrog`` on
the interior nodes with ``K_ii`` and no damping; it watches the boundary
layer, where ``K_ib g`` acts and from which the normal trace is formed.
The run and its trace come back in ``wave_forward.WaveTrajectory`` and
``wave_forward.BoundaryTrace``, the records of the damped run too.  Its step
reads ``B = 2 I - dt^2 M^-1 K_ii`` and subtracts ``dt^2 M^-1 K_ib g`` on
the layer and adds ``dt^2 F``.
Backward problems (data given at t = T) are realized as forward runs
under t -> T - t with the velocity sign flipped.

With F = 0 and g = 0 the scheme conserves the staggered discrete energy
``v' M v + x^{n+1} . K x^n`` exactly; the reported integer-step energies are
second-order samplings of the continuous functionals and therefore drift
only at O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SpeedField
from .grid import Discretization
from .wave_forward import (BoundaryTrace, Leapfrog, LeapfrogRun, WaveTrajectory,
                           end_levels, nodal, time_grid)
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
    cfl: float | None = None        # None: the dimension's wave_forward.CFL

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', "
                             f"got {self.direction!r}")
        n_nodes = self.speed.domain.grid.n_nodes
        nodal("u0", self.u0, n_nodes)
        nodal("u1", self.u1, n_nodes)


def layer_trace(run: LeapfrogRun, disc: Discretization) -> np.ndarray:
    """The normal trace ``T_i x + T_b g`` of every level of a run on
    ``dirichlet_leapfrog``, formed from the boundary layer it watches, the
    only interior nodes the trace reads."""
    trace = run.watched @ disc.trace_layer_T
    if run.g is not None:
        trace += (disc.trace_boundary @ run.g.T).T
    return trace


def _level_series(data, N: int, dt: float, width: int, what: str) -> np.ndarray | None:
    """Boundary data or a source (None, callable(t) or (N+1, width)) per
    level; a callable returns one value or ``width`` values per time."""
    if data is None:
        return None
    if callable(data):
        arr = np.empty((N + 1, width))
        for n in range(N + 1):
            level = np.asarray(data(n * dt), dtype=float)
            if level.ndim > 1 or level.size not in (1, width):
                raise ValueError(f"{what} must have shape ({width},) at each time, "
                                 f"got {level.shape} at t={n * dt:.6g}")
            arr[n] = level
    else:
        arr = np.asarray(data, dtype=float)
    if arr.shape != (N + 1, width):
        raise ValueError(f"{what} must have shape {(N + 1, width)}, got {arr.shape}")
    return arr


def dirichlet_leapfrog(speed: SpeedField, N: int, dt: float) -> Leapfrog:
    """The pinned-boundary leapfrog on the interior nodes with ``K_ii``,
    watching the boundary layer ``disc.layer_idx``: its levels are all the
    normal trace and the co-normal flux read, and ``K_ib g`` lives there."""
    disc = speed.domain.disc
    return Leapfrog(disc.K_ii_step, (speed.c_inv2 * disc.w_vol)[disc.inside_idx],
                    N, dt, disc.layer_idx, None)


def boundary_load(disc: Discretization, g: np.ndarray) -> np.ndarray:
    """``K_ib g`` per level on the boundary layer, (N+1, n_layer)."""
    return np.ascontiguousarray((disc.K_ib_layer @ g.T).T)


def simulate_dirichlet(problem: DirichletProblem, *, history=None,
                       track_energy: bool = False):
    """Solve the Dirichlet problem; returns ``(WaveTrajectory, BoundaryTrace)``,
    the trace holding the outward normal derivative on the trace rows.

    ``direction="backward"`` interprets (u0, u1) as data at t = T and returns
    histories indexed by physical (forward) time.  ``history`` selects the
    grid nodes whose every level of the full field is kept in
    ``WaveTrajectory.states``: ``None`` keeps none, ``slice(None)`` all, an
    index array just those.  ``track_energy`` keeps every interior level in
    ``traj.run.x`` for ``dirichlet_energy_series``.
    """
    speed, domain = problem.speed, problem.speed.domain
    disc = domain.disc
    ii = disc.inside_idx
    N, dt = time_grid(speed, problem.T, problem.cfl)
    op = dirichlet_leapfrog(speed, N, dt)
    g = _level_series(problem.g_bc, N, dt, disc.boundary.idx.size, "boundary data")
    F = _level_series(problem.F, N, dt, disc.n_nodes, "source")

    backward = problem.direction == "backward"
    if backward:
        g = g[::-1].copy() if g is not None else None
        u1 = -np.asarray(problem.u1, dtype=float)
    else:
        u1 = np.asarray(problem.u1, dtype=float)
    u0 = np.asarray(problem.u0, dtype=float)
    if F is not None:               # on the interior nodes, in stepping order
        F = F[::-1, ii] if backward else F[:, ii]

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
        keep = np.searchsorted(ii, nodes[inner])
    load = None if g is None else boundary_load(disc, g)
    x0 = u0[ii]
    run = op.run(x0, op.start(x0, u1[ii], load, F), load=load, F=F,
                 history=slice(None) if track_energy else keep)
    run.g = g
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

    (x_N, x_prev), v_N = end_levels(run, dt)
    # the boundary nodes read the data's levels and its one-sided derivative
    g_end = (None,) * 3 if run.g is None else \
        (run.g[N], run.g[N - 1], norms.time_derivative(run.g[-3:], dt)[-1])
    traj = WaveTrajectory(
        op, run, (disc.scatter(x_N, g_end[0]), disc.scatter(x_prev, g_end[1])),
        disc.scatter(v_N, g_end[2]), states=states,
        energies=dirichlet_energy_series(run, speed, dt) if track_energy else None)
    trace = BoundaryTrace(run.trace, dt, problem.T,
                          disc.trace.weights.copy(), disc.trace.node_idx.copy(),
                          meta={"a": speed.a, "n": domain.grid_resolution,
                                "dim": domain.dimension, "direction": problem.direction})
    return traj, trace


def dirichlet_energy_series(run: LeapfrogRun, speed: SpeedField, dt: float) -> dict:
    """Integer-step energies of a Dirichlet run: unweighted form and the
    c^-2-weighted invariant.

    Reads every interior level, so ``run.x`` must hold the full history.
    """
    disc = speed.domain.disc
    w = disc.w_vol[disc.inside_idx]
    M = speed.c_inv2[disc.inside_idx] * w
    t, ep, ew = [], [], []
    for n in range(1, run.x.shape[0] - 1):
        v = (run.x[n + 1] - run.x[n - 1]) / (2.0 * dt)
        full = disc.scatter(run.x[n], None if run.g is None else run.g[n])
        ep.append(float((w * v * v).sum() + disc.grad_quadratic(full, speed.c2)))
        ew.append(float((M * v * v).sum() + disc.grad_quadratic(full)))
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
                        g_bc, F, T: float) -> TranspositionReport:
    """Defect of the duality identity defining transposition solutions.

    ``psi`` solves the Dirichlet problem with data (psi0, psi1, g); ``v_F``
    solves the backward problem with interior source F and zero data.  All
    volume pairings are c^-2-weighted grid inner products.
    """
    disc = speed.domain.disc
    N, dt = time_grid(speed, T)
    # the source is evaluated once, here, and handed to the backward run
    F_series = _level_series(F, N, dt, disc.n_nodes, "source")
    psi_traj, _ = simulate_dirichlet(
        DirichletProblem(speed, psi0, psi1, T, F=None, g_bc=g_bc),
        history=slice(None))
    v_traj, v_trace = simulate_dirichlet(
        DirichletProblem(speed, np.zeros(disc.n_nodes), np.zeros(disc.n_nodes),
                         T, F=F_series, g_bc=None, direction="backward"))

    w_t = norms.time_weights(N + 1, dt)
    wgt = disc.w_vol * speed.c_inv2

    lhs = 0.0
    if F_series is not None:
        for n in range(N + 1):
            lhs += w_t[n] * float((wgt * psi_traj.states[n] * F_series[n]).sum())

    # the backward run's first three levels; its boundary data is zero
    head = v_traj.run.head
    v0, dv0 = disc.scatter(head[0]), disc.scatter(norms.time_derivative(head, dt)[0])
    term_i = -float((wgt * psi0 * dv0).sum())
    term_v = float((wgt * psi1 * v0).sum())
    g_series = psi_traj.run.g       # the forward run's data, in physical order
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
