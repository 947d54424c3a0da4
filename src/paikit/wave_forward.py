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


def time_grid(speed: SpeedField, T: float, cfl: float,
              n_steps: int | None = None) -> tuple[int, float]:
    """The leapfrog's ``(N, dt)`` on [0, T]: the fewest stable steps, or
    ``n_steps`` if given, which must then satisfy the CFL bound."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon T={T} must be positive and finite")
    dt_max = stable_dt(speed.domain, speed.c_max, cfl)
    if n_steps is None:
        N = n_steps_for(T, dt_max)
    else:
        N = n_steps
        if T / N > dt_max * (1 + 1e-12):
            raise CFLError(f"{N} steps violate the CFL bound for T={T}")
    return N, T / N


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
    operator: DampedOperator | None = None  # the damped run's step arrays


@dataclass
class BoundaryTrace:
    values: np.ndarray        # (N+1, nb) pressure on the boundary nodes
    dt: float
    T: float
    weights: np.ndarray       # surface quadrature weights per node
    node_idx: np.ndarray
    meta: dict = field(default_factory=dict)

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


class DampedOperator:
    """The damped leapfrog's diagonals for one ``(speed, beta, dt)``.

    ``simulate_forward`` steps with them and ``transpose`` runs the same
    steps backwards, so the adjoint of ``(f, g) -> trace`` is exact.
    """

    def __init__(self, speed: SpeedField, beta: np.ndarray, dt: float):
        disc = speed.domain.disc
        self.dt = dt
        self.K = disc.K_step
        self.b_idx = disc.boundary.idx
        self.M = speed.c_inv2 * disc.w_vol
        self.C_b = beta * disc.boundary.weights      # C is zero off the boundary
        self.C = np.zeros(disc.n_nodes)
        self.C[self.b_idx] = self.C_b
        self.A_plus = self.M / dt**2 + self.C / (2.0 * dt)
        self.A_minus = self.M / dt**2 - self.C / (2.0 * dt)
        self.inv_Ap = 1.0 / self.A_plus

    def force(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``M p''(0) = -K f - C g`` for the data ``p(0) = f``, ``p'(0) = g``."""
        return -(self.K @ f) - self.C * g

    def transpose(self, r: np.ndarray, band=None, states=None):
        """The transpose of ``(f, g) -> trace`` applied to the cotangent ``r``.

        ``r`` holds one row per trace level, (N+1, nb).  Returns ``(f_bar,
        g_bar, p1_bar, m_bar)``: the adjoint data, the adjoint of level 1
        (through which the start step depends on M) and, when ``states``
        holds the forward history on the nodes ``band``, the sweep's part of
        the sensitivity to M there (else None).
        """
        K, M, dt, b_idx = self.K, self.M, self.dt, self.b_idx
        N = r.shape[0] - 1
        n_nodes = M.size
        # three level buffers rotate through the sweep; t, tmp, t_b and d2p
        # are scratch, so the loop allocates nothing but the sparse product
        bar_next, bar_cur, bar_prev = (np.zeros(n_nodes) for _ in range(3))
        bar_next[b_idx] = r[N]                 # p_bar[N], complete
        bar_cur[b_idx] = r[N - 1]              # p_bar[N-1], awaiting step-N terms
        t = np.empty(n_nodes)
        tmp = np.empty(n_nodes)
        m_bar = None
        if states is not None:
            m_bar = np.zeros(band.size)
            t_b = np.empty(band.size)
            d2p = np.empty(band.size)
        for n in range(N - 1, 0, -1):
            # a divide, not a product with 1 / A_plus: the gradient's bits
            np.divide(bar_next, self.A_plus, out=t)
            # bar_cur += (2 / dt^2) M t - K t
            np.multiply(M, t, out=tmp)
            tmp *= 2.0 / dt**2
            tmp -= K @ t
            bar_cur += tmp
            # bar_prev = (r[n - 1] on the boundary nodes) - A_minus t
            bar_prev.fill(0.0)
            bar_prev[b_idx] = r[n - 1]
            np.multiply(self.A_minus, t, out=tmp)
            bar_prev -= tmp
            if m_bar is not None:
                # m_bar += t (2 p[n] - p[n+1] - p[n-1]) / dt^2 on the band
                np.multiply(states[n], 2.0, out=d2p)
                d2p -= states[n + 1]
                d2p -= states[n - 1]
                np.take(t, band, out=t_b)
                d2p *= t_b
                d2p /= dt**2
                m_bar += d2p
            bar_next, bar_cur, bar_prev = bar_cur, bar_prev, bar_next
        # bar_next = p_bar[1], bar_cur = p_bar[0]
        u1 = bar_next
        w = 0.5 * dt**2 * (u1 / M)
        f_bar = bar_cur + u1 - K @ w
        g_bar = dt * u1 - self.C * w
        return f_bar, g_bar, u1, m_bar


def simulate_forward(speed: SpeedField, data: InitialData, T: float, *,
                     cfl: float = 0.5, history=None, check_compat: bool = True,
                     ledger: bool = True):
    """Run the damped-boundary problem to time T.

    ``history`` selects the nodes whose every time level is kept in
    ``WaveTrajectory.states``: ``None`` keeps none, ``slice(None)`` the full
    field, an index array just those nodes.  ``ledger`` computes the energy
    ledger (``E``, the dissipation, the identity defect and ``c_run``);
    without it the third return value and ``traj.c_run`` are None.

    Returns ``(WaveTrajectory, BoundaryTrace, EnergyReport | None)``.
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

    N, dt = time_grid(speed, T, cfl)
    op = DampedOperator(speed, data.beta, dt)
    K, M, A_minus, inv_Ap = op.K, op.M, op.A_minus, op.inv_Ap
    b_idx = op.b_idx
    f = data.f

    # three rotating level buffers and one scratch; none is a caller's array
    p_prev = f.copy()
    p_cur = f + dt * data.g + 0.5 * dt**2 * (op.force(f, data.g) / M)
    p_next = np.empty_like(p_cur)
    s = np.empty_like(p_cur)

    trace_vals = np.empty((N + 1, b_idx.size))
    np.take(p_prev, b_idx, out=trace_vals[0])
    np.take(p_cur, b_idx, out=trace_vals[1])

    if ledger:
        E = np.empty(N)
        v = (p_cur - p_prev) / dt
        E[0] = float(v @ (M * v) + p_cur @ (K @ p_prev))

    states = keep = None
    if history is not None:
        keep = np.arange(disc.n_nodes)[history]
        states = np.empty((N + 1, keep.size))
        np.take(p_prev, keep, out=states[0])
        np.take(p_cur, keep, out=states[1])

    for n in range(1, N):
        # p[n+1] = ((2 / dt^2) M p[n] - K p[n] - A_minus p[n-1]) / A_plus
        Kp = K @ p_cur
        np.multiply(M, p_cur, out=s)
        s *= 2.0 / dt**2
        s -= Kp
        np.multiply(A_minus, p_prev, out=p_next)
        np.subtract(s, p_next, out=p_next)
        p_next *= inv_Ap
        if (n % 50 == 0 or n == N - 1) and not np.isfinite(p_next).all():
            raise NumericalError(f"non-finite field at step {n + 1}")
        np.take(p_next, b_idx, out=trace_vals[n + 1])
        if states is not None:
            np.take(p_next, keep, out=states[n + 1])
        if ledger:
            # E[n] = v' M v + p[n+1] . K p[n],  v = (p[n+1] - p[n]) / dt
            pKp = p_next @ Kp
            np.subtract(p_next, p_cur, out=s)
            s /= dt
            np.multiply(M, s, out=Kp)
            E[n] = float(s @ Kp + pKp)
        p_prev, p_cur, p_next = p_cur, p_next, p_prev

    # after the last rotation p_next holds level N-2
    traj = WaveTrajectory(
        dt=dt, n_steps=N, final_state=(p_cur, p_prev),
        final_velocity=(3.0 * p_cur - 4.0 * p_prev + p_next) / (2.0 * dt),
        states=states, operator=op)
    trace = BoundaryTrace(trace_vals, dt, T, disc.boundary.weights.copy(),
                          b_idx.copy(),
                          meta={"a": speed.a, "eps": speed.eps,
                                "n": domain.grid_resolution, "T": T,
                                "domain_shape": domain.shape,
                                "dim": domain.dimension})
    if not ledger:
        return traj, trace, None

    # the dissipation -2 dlt' C dlt, dlt = (p[n+1] - p[n-1]) / (2 dt), read
    # from the trace because C is zero off the boundary
    dlt = (trace_vals[2:] - trace_vals[:-2]) / (2.0 * dt)
    diss = -2.0 * np.einsum("ij,ij->i", dlt, op.C_b * dlt)
    defect = float(np.abs(np.diff(E) - dt * diss).max())
    data_scale = norms.grid_h1(f, disc) ** 2 + norms.grid_l2(data.g, disc) ** 2
    traj.c_run = float(E.max() / data_scale) if data_scale > 0 else 0.0
    report = EnergyReport(
        times=(np.arange(N) + 0.5) * dt, E=E,
        dissipation_times=np.arange(1, N) * dt, dissipation=diss,
        identity_defect=defect)
    return traj, trace, report


def trace_norms(trace: BoundaryTrace, domain: Domain) -> dict:
    """L2, H1, H^{3/2} and t^{-1/2}-weighted norms of a boundary trace."""
    if trace.n_samples < 4:
        raise ValueError("trace too short for the norm quadratures")
    ds = domain.disc.boundary.ds if domain.dimension == 2 else None
    return norms.trace_norms(trace.values, trace.dt, trace.T, trace.weights, ds)
