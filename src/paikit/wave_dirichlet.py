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

from .geometry import SpeedField
from .grid import Discretization
from .wave_forward import (CFLError, NumericalError, WaveTrajectory,
                           n_steps_for, stable_dt)
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
    dt: float
    trace: np.ndarray | None = None   # (N+1, n_trace), set by simulate_dirichlet

    def final_velocity(self) -> np.ndarray:
        """Second-order one-sided velocity at level N."""
        x = self.tail
        return (3.0 * x[2] - 4.0 * x[1] + x[0]) / (2.0 * self.dt)

    def reversed(self) -> DirichletRun:
        """The same run indexed by t -> T - t."""
        def rev(a):
            return None if a is None else a[::-1].copy()
        return DirichletRun(x=rev(self.x), g=rev(self.g), layer=rev(self.layer),
                            head=rev(self.tail), tail=rev(self.head), dt=self.dt,
                            trace=rev(self.trace))


def layer_trace(run: DirichletRun, disc: Discretization) -> np.ndarray:
    """The normal trace ``T_i x + T_b g`` of every level, formed from the
    boundary layer, the only interior nodes the trace reads."""
    trace = (disc.trace_inside[:, disc.layer_idx] @ run.layer.T).T
    if run.g is not None:
        trace += (disc.trace_boundary @ run.g.T).T
    return np.ascontiguousarray(trace)


def _boundary_series(g_bc, N: int, dt: float, nb: int) -> np.ndarray | None:
    if g_bc is None:
        return None
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
                       history=None) -> DirichletRun:
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
    Kii = disc.K_ii_step
    M = (speed.c_inv2 * disc.w_vol)[ii]
    layer = disc.layer_idx
    # boundary forcing K_ib g per level; zero off the layer
    Kg = None if g is None else np.ascontiguousarray((disc.K_ib[layer] @ g.T).T)

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
                        tail=np.stack([nxt, prev, cur]), dt=dt)


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
    run = leapfrog_dirichlet(speed, u0, u1, problem.T, g=g, F=F,
                             cfl=problem.cfl, n_steps=N,
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
    traj = WaveTrajectory(
        dt=dt, n_steps=N,
        final_state=(disc.scatter(run.tail[2], g_last[0]),
                     disc.scatter(run.tail[1], g_last[1])),
        final_velocity=disc.scatter(run.final_velocity()), states=states,
        energies=dirichlet_energy_series(run, speed) if track_energy else None,
        run=run)
    trace = NormalTrace(run.trace, dt, problem.T,
                        disc.trace.weights.copy(), disc.trace.node_idx.copy(),
                        meta={"a": speed.a, "n": domain.grid_resolution,
                              "dim": domain.dimension, "direction": problem.direction})
    return traj, trace


def dirichlet_energy_series(run: DirichletRun, speed: SpeedField) -> dict:
    """Integer-step energies: unweighted form and the c^-2-weighted invariant.

    Reads every interior level, so ``run.x`` must hold the full history.
    """
    disc = speed.domain.disc
    ii = disc.inside_idx
    w = disc.w_vol[ii]
    m = (speed.c_inv2 * disc.w_vol)[ii]
    N = run.x.shape[0] - 1
    t, ep, ew = [], [], []
    for n in range(1, N):
        v = (run.x[n + 1] - run.x[n - 1]) / (2.0 * run.dt)
        full = disc.scatter(run.x[n], None if run.g is None else run.g[n])
        ep.append(float((w * v * v).sum() + disc.grad_quadratic(full, speed.c2)))
        ew.append(float((m * v * v).sum() + disc.grad_quadratic(full)))
        t.append(n * run.dt)
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

    F_series = _source_series(F, N, dt, disc.n_nodes)
    lhs = 0.0
    if F_series is not None:
        for n in range(N + 1):
            lhs += w_t[n] * float((wgt * psi_traj.states[n] * F_series[n]).sum())

    # the backward run's first three levels; its boundary data is zero
    v0, v1, v2 = (disc.scatter(x) for x in v_traj.run.head)
    dv0 = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * dt)
    term_i = -float((wgt * psi0 * dv0).sum())
    term_v = float((wgt * psi1 * v0).sum())
    g_series = _boundary_series(g_bc, N, dt, disc.boundary.idx.size)
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
