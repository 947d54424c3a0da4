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

import numpy as np

from .geometry import Domain, SpeedField
from .wave_forward import (CFLError, NumericalError, WaveTrajectory,
                           n_steps_for, stable_dt)


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


@dataclass
class NormalTrace:
    values: np.ndarray        # (N+1, n_trace) outward normal derivative samples
    dt: float
    T: float
    weights: np.ndarray       # surface quadrature weights per trace entry
    node_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    def l2_norm_sq(self) -> float:
        w_t = np.full(self.values.shape[0], self.dt)
        w_t[0] = w_t[-1] = 0.5 * self.dt
        return float((w_t[:, None] * self.weights[None, :] * self.values**2).sum())


@dataclass
class DirichletRun:
    """Raw interior history of one Dirichlet solve (forward time order)."""

    x: np.ndarray             # (N+1, n_inside)
    g: np.ndarray             # (N+1, nb) boundary data
    trace: np.ndarray         # (N+1, n_trace)
    dt: float

    def velocity_at(self, n: int) -> np.ndarray:
        """Second-order one-sided velocity at an endpoint index."""
        if n == 0:
            return (-3.0 * self.x[0] + 4.0 * self.x[1] - self.x[2]) / (2.0 * self.dt)
        return (3.0 * self.x[n] - 4.0 * self.x[n - 1] + self.x[n - 2]) / (2.0 * self.dt)


def _boundary_series(g_bc, N: int, dt: float, nb: int) -> np.ndarray:
    if g_bc is None:
        return np.zeros((N + 1, nb))
    if callable(g_bc):
        return np.stack([np.broadcast_to(np.asarray(g_bc(n * dt), dtype=float), (nb,))
                         for n in range(N + 1)])
    arr = np.asarray(g_bc, dtype=float)
    if arr.shape != (N + 1, nb):
        raise ValueError(f"boundary data must have shape {(N + 1, nb)}, got {arr.shape}")
    return arr


def _source_series(F, N: int, dt: float, n_nodes: int):
    if F is None:
        return None
    if callable(F):
        return np.stack([np.asarray(F(n * dt), dtype=float) for n in range(N + 1)])
    arr = np.asarray(F, dtype=float)
    if arr.shape != (N + 1, n_nodes):
        raise ValueError(f"source must have shape {(N + 1, n_nodes)}, got {arr.shape}")
    return arr


def leapfrog_dirichlet(speed: SpeedField, u0: np.ndarray, u1: np.ndarray,
                       T: float, *, g: np.ndarray | None = None,
                       F: np.ndarray | None = None, cfl: float = 0.5,
                       n_steps: int | None = None, start_pair=None,
                       nan_check_every: int = 200) -> DirichletRun:
    """Forward-in-time pinned-boundary leapfrog on the interior nodes.

    ``start_pair`` seeds the first two interior levels directly (exact
    leapfrog state, e.g. for bit-reversible backward runs) instead of the
    Taylor start from (u0, u1).
    """
    domain = speed.domain
    disc = domain.disc
    if n_steps is None:
        N = n_steps_for(T, stable_dt(domain, speed.c_max, cfl))
    else:
        N = n_steps
        if T / N > stable_dt(domain, speed.c_max, cfl) * (1 + 1e-12):
            raise CFLError(f"{N} steps violate the CFL bound for T={T}")
    dt = T / N
    ii = disc.inside_idx
    nb = disc.boundary.idx.size
    Kii, Kib = disc.K_ii, disc.K_ib
    Ti, Tb = disc.trace_inside, disc.trace_boundary
    M = (speed.c_inv2 * disc.w_vol)[ii]

    g = np.zeros((N + 1, nb)) if g is None else g
    # boundary forcing K_ib g per level, on the boundary-adjacent layer (the
    # only rows of K_ib that hold entries)
    adj = disc.adjacent_idx
    Kg = np.ascontiguousarray((Kib[adj] @ g.T).T)
    x = np.empty((N + 1, ii.size))

    if start_pair is not None:
        x[0], x[1] = start_pair
    else:
        x[0] = u0[ii]
        r0 = -(Kii @ x[0]) - Kib @ g[0]
        acc0 = r0 / M + (F[0][ii] if F is not None else 0.0)
        x[1] = x[0] + dt * u1[ii] + 0.5 * dt**2 * acc0

    for n in range(1, N):
        # x[n+1] = 2 x[n] - x[n-1] + dt^2 ((-(Kii x[n]) - K_ib g[n]) / M + F[n])
        acc = Kii @ x[n]
        np.negative(acc, out=acc)
        acc[adj] -= Kg[n]
        acc /= M
        if F is not None:
            acc += F[n][ii]
        acc *= dt**2
        x_next = x[n + 1]
        np.multiply(x[n], 2.0, out=x_next)
        x_next -= x[n - 1]
        x_next += acc
        if n % nan_check_every == 0 and not np.isfinite(x_next).all():
            raise NumericalError(f"non-finite field at step {n + 1}")
    if not np.isfinite(x[N]).all():
        raise NumericalError(f"non-finite field at step {N}")

    # the normal trace Ti x + Tb g of every level at once; Ti reads x only
    # on the columns that hold entries
    cols = np.unique(Ti.indices)
    trace = np.ascontiguousarray((Ti[:, cols] @ x[:, cols].T).T + (Tb @ g.T).T)
    return DirichletRun(x=x, g=g, trace=trace, dt=dt)


def simulate_dirichlet(problem: DirichletProblem, *, snapshot_stride: int = 0,
                       store_states: bool = False, track_energy: bool = False,
                       n_steps: int | None = None):
    """Solve the Dirichlet problem; returns ``(WaveTrajectory, NormalTrace)``.

    ``direction="backward"`` interprets (u0, u1) as data at t = T and returns
    histories indexed by physical (forward) time.
    """
    speed, domain = problem.speed, problem.speed.domain
    disc = domain.disc
    if n_steps is None:
        N = n_steps_for(problem.T, stable_dt(domain, speed.c_max, problem.cfl))
    else:
        N = n_steps
    dt = problem.T / N
    nb = disc.boundary.idx.size
    g = _boundary_series(problem.g_bc, N, dt, nb)
    F = _source_series(problem.F, N, dt, disc.n_nodes)

    backward = problem.direction == "backward"
    if backward:
        g = g[::-1].copy()
        F = F[::-1].copy() if F is not None else None
        u1 = -np.asarray(problem.u1, dtype=float)
    else:
        u1 = np.asarray(problem.u1, dtype=float)
    u0 = np.asarray(problem.u0, dtype=float)

    # when the boundary data starts at zero the initial field must too;
    # controls of transposition type may jump on at t = 0+
    scale = max(np.abs(u0).max(), np.abs(g).max(), 1.0)
    if np.abs(g[0]).max() <= 1e-14 * scale:
        if np.abs(u0[disc.boundary.idx]).max() > 1e-10 * scale:
            raise ValueError("u0 does not vanish on the boundary although the "
                             "boundary data starts at zero")

    run = leapfrog_dirichlet(speed, u0, u1, problem.T, g=g, F=F,
                             cfl=problem.cfl, n_steps=N)

    if backward:
        run = DirichletRun(x=run.x[::-1].copy(), g=run.g[::-1].copy(),
                           trace=run.trace[::-1].copy(), dt=run.dt)

    energies = None
    if track_energy:
        energies = dirichlet_energy_series(run, speed)

    keep = snapshot_stride > 0
    if keep:
        snap_id = list(range(0, N + 1, snapshot_stride))
        if snap_id[-1] != N:
            snap_id.append(N)
        snaps = np.stack([disc.scatter(run.x[n], run.g[n]) for n in snap_id])
        snap_t = np.asarray(snap_id) * dt
    states = None
    if store_states:
        states = np.empty((N + 1, disc.n_nodes))
        for n in range(N + 1):
            states[n] = disc.scatter(run.x[n], run.g[n])

    vel_N = disc.scatter(run.velocity_at(N))
    traj = WaveTrajectory(
        dt=dt, n_steps=N, snapshot_stride=snapshot_stride,
        snapshot_times=snap_t if keep else np.array([]),
        snapshots=snaps if keep else None,
        final_state=(disc.scatter(run.x[N], run.g[N]),
                     disc.scatter(run.x[N - 1], run.g[N - 1])),
        final_velocity=vel_N, states=states)
    traj.energies = energies
    traj.run = run
    trace = NormalTrace(run.trace.copy(), dt, problem.T,
                        disc.trace.weights.copy(), disc.trace.node_idx.copy(),
                        meta={"a": speed.a, "n": domain.grid_resolution,
                              "dim": domain.dimension, "direction": problem.direction})
    return traj, trace


def dirichlet_energy_series(run: DirichletRun, speed: SpeedField) -> dict:
    """Integer-step energies: unweighted form and the c^-2-weighted invariant."""
    disc = speed.domain.disc
    ii = disc.inside_idx
    w = disc.w_vol[ii]
    m = (speed.c_inv2 * disc.w_vol)[ii]
    N = run.x.shape[0] - 1
    t, ep, ew = [], [], []
    for n in range(1, N):
        v = (run.x[n + 1] - run.x[n - 1]) / (2.0 * run.dt)
        full = disc.scatter(run.x[n], run.g[n])
        ep.append(float((w * v * v).sum() + disc.grad_quadratic(full, speed.c2)))
        ew.append(float((m * v * v).sum() + disc.grad_quadratic(full)))
        t.append(n * run.dt)
    return {"times": np.asarray(t), "unweighted": np.asarray(ep),
            "weighted": np.asarray(ew)}


def normal_trace(trajectory: WaveTrajectory, domain: Domain) -> NormalTrace:
    """Normal-derivative trace recomputed from stored full-field snapshots."""
    if trajectory.states is None and (trajectory.snapshots is None
                                      or trajectory.snapshot_stride != 1):
        raise ValueError("trajectory must store every step "
                         "(snapshot_stride=1 or store_states=True)")
    fields = trajectory.states if trajectory.states is not None else trajectory.snapshots
    disc = domain.disc
    vals = np.stack([disc.trace.apply(f) for f in fields])
    return NormalTrace(vals, trajectory.dt, trajectory.dt * trajectory.n_steps,
                       disc.trace.weights.copy(), disc.trace.node_idx.copy())


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
        store_states=True)
    N = psi_traj.n_steps
    dt = psi_traj.dt
    v_traj, v_trace = simulate_dirichlet(
        DirichletProblem(speed, np.zeros(disc.n_nodes), np.zeros(disc.n_nodes),
                         T, F=F, g_bc=None, direction="backward", cfl=cfl),
        store_states=True, n_steps=N)

    w_t = np.full(N + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    wgt = disc.w_vol * speed.c_inv2

    F_series = _source_series(F, N, dt, disc.n_nodes)
    lhs = 0.0
    if F_series is not None:
        for n in range(N + 1):
            lhs += w_t[n] * float((wgt * psi_traj.states[n] * F_series[n]).sum())

    v0 = v_traj.states[0]
    dv0 = (-3.0 * v_traj.states[0] + 4.0 * v_traj.states[1]
           - v_traj.states[2]) / (2.0 * dt)
    term_i = -float((wgt * psi0 * dv0).sum())
    term_v = float((wgt * psi1 * v0).sum())
    g_series = _boundary_series(g_bc, N, dt, disc.boundary.idx.size)
    # map boundary-node data onto the trace rows (face-based rows on masks)
    if disc.kind == "rectangle":
        g_on_trace = g_series
    else:
        pos = {int(nd): k for k, nd in enumerate(disc.boundary.idx)}
        cols = np.asarray([pos[int(nd)] for nd in disc.trace.node_idx])
        g_on_trace = g_series[:, cols]
    term_b = -float((w_t[:, None] * disc.trace.weights[None, :]
                     * v_trace.values * g_on_trace).sum())
    rhs = term_i + term_v + term_b
    scale = max(abs(lhs), abs(rhs), abs(term_i), abs(term_v), abs(term_b), 1e-30)
    return TranspositionReport(lhs, rhs, term_i, term_v, term_b,
                               abs(lhs - rhs) / scale)
