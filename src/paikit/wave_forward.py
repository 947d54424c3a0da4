"""Leapfrog solver for the damped-boundary wave problem.

Solves ``c^-2 d2p/dt2 - lap p = 0`` with ``dn p + beta dt p = 0`` on the
boundary, as the lumped weak form

    M p'' = -K p - C p'      M = diag(c^-2 w_vol), C = diag(beta w_surf)

with centered damping, which is explicit because M and C are diagonal.  At
boundary nodes this reduces exactly to the ghost-value closure
``ghost = interior - 2 dx beta dt p``.  The scheme dissipates the staggered
discrete energy

    E^{n+1/2} = v' M v + p^{n+1} . K p^n,   v = (p^{n+1} - p^n)/dt

exactly: E^{n+1/2} - E^{n-1/2} = -2 dt (dt p)' C (dt p), which is the
discrete counterpart of E'(t) = -2 int beta |dt p|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, SpeedField
from .initial_data import InitialData, check_compatibility
from . import norms


class CFLError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def stable_dt(domain: Domain, c_max: float, cfl: float) -> float:
    d = domain.dimension
    if not (0.0 < cfl <= 0.999 / np.sqrt(d)):
        raise CFLError(f"cfl factor {cfl} exceeds the stability bound "
                       f"{1.0 / np.sqrt(d):.3f} for dimension {d}")
    return cfl * domain.grid.h_min / c_max


def n_steps_for(T: float, dt_max: float) -> int:
    # at least 4 steps so the one-sided endpoint formulas are defined
    return max(4, int(np.ceil(T / dt_max - 1e-12)))


@dataclass
class WaveTrajectory:
    dt: float
    n_steps: int
    final_state: tuple                    # (p_N, p_{N-1})
    final_velocity: np.ndarray | None = None
    states: np.ndarray | None = None      # (N+1, n_history) if requested
    c_run: float | None = None            # empirical stability constant
    energies: dict | None = None
    run: object = None                    # solver-internal history, if kept
    snapshots: None = None                # always None; perfbench/tracer.py reads it


@dataclass
class BoundaryTrace:
    values: np.ndarray        # (N+1, nb) pressure on the boundary nodes
    dt: float
    T: float
    weights: np.ndarray       # surface quadrature weights per node
    node_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def dvalues(self) -> np.ndarray:
        return norms.time_derivative(self.values, self.dt)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


@dataclass
class EnergyReport:
    times: np.ndarray         # half-step times (n + 1/2) dt
    E: np.ndarray
    dissipation_times: np.ndarray
    dissipation: np.ndarray   # -2 int beta |dt p|^2 at integer steps
    identity_defect: float    # max |dE - dt * dissipation| (exact up to roundoff)

    @property
    def E0(self) -> float:
        return float(self.E[0])

    def is_nonincreasing(self, tol_rel: float = 1e-8) -> bool:
        return bool(np.all(np.diff(self.E) <= tol_rel * abs(self.E0) + 1e-300))


def energy(p: np.ndarray, dp: np.ndarray, speed: SpeedField, domain: Domain) -> float:
    """E = int c^-2 |dt p|^2 + |grad p|^2 for one state (pointwise form)."""
    disc = domain.disc
    kinetic = float((disc.w_vol * speed.c_inv2 * dp * dp).sum())
    return kinetic + disc.grad_quadratic(p)


def simulate_forward(speed: SpeedField, data: InitialData, T: float, *,
                     cfl: float = 0.5, source=None, history=None,
                     check_compat: bool = True, nan_check_every: int = 50):
    """Run the damped-boundary problem to time T.

    ``history`` selects the nodes whose every time level is kept in
    ``WaveTrajectory.states``: ``None`` keeps none, ``slice(None)`` the full
    field, an index array just those nodes.

    Returns ``(WaveTrajectory, BoundaryTrace, EnergyReport)``.
    """
    domain = speed.domain
    if domain.shape != "rectangle":
        raise NotImplementedError(
            "the damped-boundary solver supports rectangle domains; "
            "disk/ball domains are available through the Dirichlet solver")
    disc = domain.disc
    if check_compat:
        rep = check_compatibility(data, speed, domain)
        if not rep.weak_wellposed:
            raise ValueError(
                f"initial data violates dn f + beta g = 0 on the boundary "
                f"(relative residual {rep.res_boundary_rel:.3e})")

    dt = stable_dt(domain, speed.c_max, cfl)
    N = n_steps_for(T, dt)
    dt = T / N
    K = disc.K
    M = speed.c_inv2 * disc.w_vol
    C = np.zeros(disc.n_nodes)
    C[disc.boundary.idx] = data.beta * disc.boundary.weights
    A_plus = M / dt**2 + C / (2.0 * dt)
    A_minus = M / dt**2 - C / (2.0 * dt)
    inv_Ap = 1.0 / A_plus

    b_idx = disc.boundary.idx
    f, g = data.f, data.g

    def src(n):
        return source(n * dt) if source is not None else None

    p_prev = f.copy()
    r0 = -(K @ f) - C * g
    s0 = src(0)
    p_cur = f + dt * g + 0.5 * dt**2 * (r0 / M + (s0 if s0 is not None else 0.0))

    trace_vals = np.empty((N + 1, b_idx.size))
    trace_vals[0] = p_prev[b_idx]
    trace_vals[1] = p_cur[b_idx]

    E = np.empty(N)
    diss = np.empty(N - 1)
    v = (p_cur - p_prev) / dt
    E[0] = float(v @ (M * v) + p_cur @ (K @ p_prev))

    states = None
    if history is not None:
        states = np.empty((N + 1, p_cur[history].size))
        states[0], states[1] = p_prev[history], p_cur[history]

    for n in range(1, N):
        Kp = K @ p_cur
        rhs = (2.0 / dt**2) * (M * p_cur) - Kp - A_minus * p_prev
        s = src(n)
        if s is not None:
            rhs = rhs + M * s
        p_next = rhs * inv_Ap
        if n % nan_check_every == 0 or n == N - 1:
            if not np.isfinite(p_next).all():
                raise NumericalError(f"non-finite field at step {n + 1}")
        dlt = (p_next - p_prev) / (2.0 * dt)
        diss[n - 1] = -2.0 * float(dlt @ (C * dlt))
        vv = (p_next - p_cur) / dt
        E[n] = float(vv @ (M * vv) + p_next @ Kp)
        trace_vals[n + 1] = p_next[b_idx]
        if states is not None:
            states[n + 1] = p_next[history]
        p_older, p_prev, p_cur = p_prev, p_cur, p_next

    defect = float(np.abs(np.diff(E) - dt * diss).max()) if N > 1 else 0.0
    data_scale = data.norms.get("f_h1", norms.grid_h1(f, disc)) ** 2 \
        + data.norms.get("g_l2", norms.grid_l2(g, disc)) ** 2
    c_run = float(E.max() / data_scale) if data_scale > 0 else 0.0

    traj = WaveTrajectory(
        dt=dt, n_steps=N, final_state=(p_cur, p_prev),
        final_velocity=(3.0 * p_cur - 4.0 * p_prev + p_older) / (2.0 * dt),
        states=states, c_run=c_run)
    trace = BoundaryTrace(trace_vals, dt, T, disc.boundary.weights.copy(),
                          b_idx.copy(),
                          meta={"a": speed.a, "eps": speed.eps,
                                "n": domain.grid_resolution, "T": T,
                                "domain_shape": domain.shape,
                                "dim": domain.dimension})
    report = EnergyReport(
        times=(np.arange(N) + 0.5) * dt, E=E,
        dissipation_times=np.arange(1, N) * dt, dissipation=diss,
        identity_defect=defect)
    return traj, trace, report


def trace_norms(trace: BoundaryTrace, domain: Domain) -> dict:
    """H1, H^{3/2} and t^{-1/2}-weighted norms of a boundary trace."""
    if trace.n_samples < 4:
        raise ValueError("trace too short for the norm quadratures")
    disc = domain.disc
    ds = disc.boundary.ds if domain.dimension == 2 else None
    w_b = trace.weights
    y = trace.values
    w_t = norms.time_weights(trace.n_samples, trace.dt)
    l2 = float(np.sqrt(((w_t[:, None] * w_b[None, :]) * y * y).sum()))
    return {
        "l2": l2,
        "h1": norms.trace_h1_norm(y, trace.dt, w_b, ds),
        "h32": norms.trace_h32_norm(y, trace.dt, trace.T, w_b, ds),
        "weighted_t": norms.trace_weighted_t_norm(y, trace.dt, w_b),
    }
