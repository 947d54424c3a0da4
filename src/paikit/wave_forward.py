"""The leapfrog for ``c^-2 d2u/dt2 - lap u = 0`` under both boundary conditions.

The damped-boundary forward problem (``simulate_forward``) and the Dirichlet
problems of observability and control (``wave_dirichlet``) step the lumped
weak form ``M x'' = -K x - C x' + S``, ``M = diag(c^-2 w_vol)``, with one
operator, ``Leapfrog``, on its nodes.  With ``A = dt^2 M^-1 K`` the scheme is

    x[n+1] = 2 x[n] - x[n-1] - A x[n] + dt^2 M^-1 S[n]

where ``C = 0``, and it steps as one sparse product and one update,

    x[n+1] = B x[n] - q x[n-1] + dt^2 M^-1 S[n],   B = D (2 I - A),

with ``B`` built once, and ``D = q = 1`` off the damping.

* Damped boundary, ``dn p + beta dt p = 0``: every node with ``K``, no
  source, and ``C = diag(beta w_surf)`` on the boundary, where the centered
  damping blends the free value ``x_free`` above with the older level by
  fixed weights,

      x[n+1] = a x_free + b x[n-1],   a = m / (m + c),  b = c / (m + c),
      m = M / dt^2,  c = C / (2 dt),

  so ``D = a`` and ``q = a - b`` there.  That is
  ``(m + c) x[n+1] = 2 m x[n] - K x[n] - (m - c) x[n-1]``, explicit because
  M and C are diagonal, and at boundary nodes exactly the ghost-value
  closure ``ghost = interior - 2 dx beta dt p``.
* Dirichlet data ``g``: the interior nodes with ``K_ii``, no damping, and the
  source ``S = -K_ib g + M F``.

Without a source the scheme dissipates the staggered discrete energy
``E^{n+1/2} = v' M v + x^{n+1} . K x^n``, ``v = (x^{n+1} - x^n)/dt``,
exactly: E^{n+1/2} - E^{n-1/2} = -2 dt (dt x)' C (dt x), the discrete
counterpart of E'(t) = -2 int beta |dt p|^2; it conserves it where C = 0.
``Leapfrog.transpose`` runs the same steps backwards with ``B'``, so the
adjoint of the forward map and the HUM Gramian built on it are exact.  Both
families return a ``WaveTrajectory``: the run's operator and
``LeapfrogRun``, and on the grid nodes its end levels (``end_levels``) and
the history asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import Domain, SpeedField
from .initial_data import InitialData, check_compatibility
from . import norms


# default Courant factor per dimension, dt = CFL[d] h_min / c_max; the
# limits are 1/sqrt(2) and 1/sqrt(3), and in 2-d the time and 5-point space
# errors disperse with opposite signs, so the trace error falls as it rises
CFL = {2: 0.65, 3: 0.5}
CHECK_EVERY = 50        # steps between checks for a non-finite field
MIN_STEPS = 4           # the one-sided endpoint formulas need 4 steps
ENERGY_TOL_REL = 1e-8   # largest energy rise per step, relative to E0, of a decay


class CFLError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def stable_dt(domain: Domain, c_max: float, cfl: float | None) -> float:
    """``cfl h_min / c_max``; ``cfl=None`` is the dimension's ``CFL``."""
    d = domain.dimension
    if cfl is None:
        cfl = CFL[d]
    if not (0.0 < cfl <= 0.999 / np.sqrt(d)):
        raise CFLError(f"cfl factor {cfl} exceeds the stability bound "
                       f"{1.0 / np.sqrt(d):.3f} for dimension {d}")
    return cfl * domain.grid.h_min / c_max


def n_steps_for(T: float, dt_max: float) -> int:
    return max(MIN_STEPS, int(np.ceil(T / dt_max - 1e-12)))


def time_grid(speed: SpeedField, T: float,
              cfl: float | None = None) -> tuple[int, float]:
    """The leapfrog's ``(N, dt)`` on [0, T]: the fewest steps stable at the
    Courant factor ``cfl`` (None: the dimension's ``CFL``), and at least
    ``MIN_STEPS``."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon T={T} must be positive and finite")
    N = n_steps_for(T, stable_dt(speed.domain, speed.c_max, cfl))
    return N, T / N


@dataclass
class BoundaryTrace:
    values: np.ndarray        # (N+1, n_trace) damped: pressure, Dirichlet: dn u
    dt: float
    T: float
    weights: np.ndarray       # surface quadrature weights per trace entry
    node_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def l2_norm_sq(self) -> float:
        w_t = norms.time_weights(self.n_samples, self.dt)
        return float(w_t @ ((self.values * self.values) @ self.weights))


@dataclass
class EnergyReport:
    times: np.ndarray         # half-step times (n + 1/2) dt
    E: np.ndarray
    dissipation_times: np.ndarray
    dissipation: np.ndarray   # -2 int beta |dt p|^2 at integer steps
    identity_defect: float    # max |dE - dt * dissipation| (exact up to roundoff)
    c_run: float              # max E / (|f|^2_H1 + |g|^2_L2): empirical constant

    @property
    def E0(self) -> float:
        return float(self.E[0])


def nodal(name: str, values, n_nodes: int) -> np.ndarray:
    """``values`` as a float array with one entry per grid node, or a
    ValueError naming the field."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n_nodes,):
        raise ValueError(f"{name} must have shape ({n_nodes},), got {arr.shape}")
    return arr


@dataclass
class LeapfrogRun:
    """What one run keeps of its levels, in the order they were stepped."""

    watched: np.ndarray       # (N+1, n_watch) every level on the watched nodes
    x: np.ndarray | None      # (N+1, n_history) every level on the history nodes
    head: np.ndarray          # (3, n) levels 0, 1, 2
    tail: np.ndarray          # (3, n) levels N-2, N-1, N
    E: np.ndarray | None      # (N,) staggered energies E^{n+1/2}, if asked for
    g: np.ndarray | None      # (N+1, nb) Dirichlet data, None for zero data
    trace: np.ndarray | None  # (N+1, n_trace) Dirichlet normal trace

    def reversed(self) -> LeapfrogRun:
        """The same run indexed by t -> T - t."""
        def rev(a):
            return None if a is None else a[::-1].copy()
        return LeapfrogRun(watched=rev(self.watched), x=rev(self.x),
                           head=rev(self.tail), tail=rev(self.head), E=rev(self.E),
                           g=rev(self.g), trace=rev(self.trace))


class Leapfrog:
    """The leapfrog on one set of nodes and one time grid ``(N, dt)``.

    ``K`` (in stepping form) and the diagonal ``M`` act on the operator's
    nodes.  A step is one sparse product and one vector update,

        x[n+1] = B x[n] - q x[n-1],   B = D (2 I - A),  A = dt^2 M^-1 K,

    with ``D = a`` and ``q = a - b`` on the damped nodes and 1 elsewhere
    (``q`` is None when undamped).  ``B`` is built once in the storage of
    ``K`` and the reverse sweeps its exact transpose ``B_T``, built on the
    first ``transpose``.  ``watch`` holds the positions whose every level a
    run records: the boundary for the damped trace, the boundary layer for
    the Dirichlet flux.  The damping ``C`` (None: undamped) acts there only,
    and so do the boundary loads of undamped runs.  ``start`` takes the
    first step, ``run`` the others and ``transpose`` runs both backwards.
    """

    def __init__(self, K, M: np.ndarray, N: int, dt: float, watch: np.ndarray,
                 C: np.ndarray | None):
        if N < MIN_STEPS:
            raise ValueError(f"n_steps={N} is below the {MIN_STEPS} steps the "
                             f"one-sided endpoint formulas need")
        self.K, self.M, self.N, self.dt = K, M, N, dt
        self.watch, self.C = watch, C
        s = dt**2 / M
        self._load_scale = s[watch]           # dt^2 M^-1 on the watched nodes
        D = np.ones(M.size)
        self.D, self._neg_q = D, None
        if C is not None:
            m = M[watch] / dt**2
            c = C / (2.0 * dt)
            a, b = m / (m + c), c / (m + c)
            D[watch] = a
            self._neg_q = -D
            self._neg_q[watch] = b - a
        # each entry -(D_i dt^2 / M_i) K_ij in the layout of K (DIA keeps its
        # diagonals, CSR its index arrays), and 2 D_i added on the diagonal
        r = -(D * s)
        if K.format == "dia":
            self.B = K.multiply(r[:, None])
        else:
            self.B = sp.csr_matrix((K.data * np.repeat(r, np.diff(K.indptr)),
                                    K.indices, K.indptr), shape=K.shape)
        self.B.setdiag(self.B.diagonal() + 2.0 * D)

    @cached_property
    def B_T(self):
        """The transpose of ``B`` in its storage, with each row's columns in
        ascending order as in ``B``."""
        T = self.B.T
        if T.format == "dia":
            order = np.argsort(T.offsets)
            return sp.dia_matrix((T.data[order], T.offsets[order]), shape=T.shape)
        return T.tocsr()

    def force(self, x0: np.ndarray, v0: np.ndarray) -> np.ndarray:
        """``M x''(0) = -K x0 - C v0`` for ``x(0) = x0``, ``x'(0) = v0``
        without loads or sources."""
        out = -(self.K @ x0)
        if self.C is not None:
            out[self.watch] -= self.C * v0[self.watch]
        return out

    def start(self, x0: np.ndarray, v0: np.ndarray, load=None, F=None) -> np.ndarray:
        """Level 1 of the Taylor start ``x0 + dt v0 + dt^2/2 x''(0)`` from
        ``x(0) = x0``, ``x'(0) = v0`` and level 0 of ``load`` and ``F``,
        given per level as ``run`` takes them."""
        if self.C is not None:
            load = [self.C * v0[self.watch]]    # damped runs carry no other load
        # -dt^2 x''(0) = A x0 + dt^2 M^-1 load[0] - dt^2 F[0], with
        # A x0 = 2 x0 - D^-1 B x0
        Bx = self.B @ x0
        d2x = 2.0 * x0 - Bx / self.D
        if load is not None:
            d2x[self.watch] += self._load_scale * load[0]
        if F is not None:
            d2x -= self.dt**2 * F[0]
        return x0 + self.dt * v0 - 0.5 * d2x

    def energy(self, x_next: np.ndarray, x: np.ndarray, Kx: np.ndarray) -> float:
        """The staggered energy ``v' M v + x_next . K x``,
        ``v = (x_next - x) / dt``, from ``Kx = K x``."""
        v = x_next - x
        v /= self.dt
        v *= v
        return float(v @ self.M + x_next @ Kx)

    def run(self, x0: np.ndarray, x1: np.ndarray, load=None, F=None, history=None,
            ledger: bool = False) -> LeapfrogRun:
        """Step from the levels ``x0`` and ``x1`` to level N.

        ``load`` (N+1, n_watch) is added to ``K x`` on the watched nodes and
        ``F`` (N+1, n) is the source per unit mass, each per level; ``None``
        means zero, and a damped run takes neither.  ``history`` selects the
        positions whose every level is kept in ``LeapfrogRun.x``: ``None``
        keeps none, ``slice(None)`` all, an index array just those.
        ``ledger`` records the staggered energy of every step in
        ``LeapfrogRun.E``.
        """
        if self.C is not None and (load is not None or F is not None):
            raise ValueError("a damped run takes no loads or sources")
        N, dt2, w, B, neg_q = self.N, self.dt**2, self.watch, self.B, self._neg_q
        # the levels, none a caller's array, and scratch for the watched
        # nodes, for the older level's or the source's term and for K x
        prev, cur = np.array(x0, dtype=float), np.array(x1, dtype=float)
        on_w = np.empty(w.size)
        tmp = np.empty_like(cur)
        Kx = np.empty_like(cur) if ledger else None
        watched = np.empty((N + 1, w.size))
        head = np.empty((3, cur.size))
        x = None if history is None else np.empty((N + 1, cur[history].size))
        E = np.empty(N) if ledger else None
        for n, level in ((0, prev), (1, cur)):
            watched[n] = level[w]
            head[n] = level
            if x is not None:
                x[n] = level[history]
        if ledger:
            E[0] = self.energy(cur, prev, self.K @ prev)

        for n in range(1, N):
            # x[n+1] = B x[n] - q x[n-1] - dt^2 M^-1 load[n] + dt^2 F[n]
            nxt = B @ cur
            if ledger:
                # K x[n] = M (2 x[n] - D^-1 B x[n]) / dt^2, from the product
                # the step took
                np.multiply(cur, 2.0, out=Kx)
                np.divide(nxt, self.D, out=tmp)
                Kx -= tmp
                Kx *= self.M
                Kx /= dt2
            if neg_q is None:
                nxt -= prev
            else:
                np.multiply(neg_q, prev, out=tmp)
                nxt += tmp
            if load is not None:
                np.multiply(load[n], self._load_scale, out=on_w)
                nxt[w] -= on_w
            if F is not None:
                np.multiply(F[n], dt2, out=tmp)
                nxt += tmp
            if (n % CHECK_EVERY == 0 or n == N - 1) and not np.isfinite(nxt).all():
                raise NumericalError(f"non-finite field at step {n + 1}")
            watched[n + 1] = nxt[w]
            if n == 1:
                head[2] = nxt
            if x is not None:
                x[n + 1] = nxt[history]
            if ledger:
                E[n] = self.energy(nxt, cur, Kx)
            older, prev, cur = prev, cur, nxt
        return LeapfrogRun(watched=watched, x=x, head=head,
                           tail=np.stack([older, prev, cur]), E=E, g=None, trace=None)

    def transpose(self, r, terminal=None, band=None, states=None):
        """The exact transpose of ``(x0, v0) -> (watched levels, level N)``:
        ``start`` and ``run`` without loads or sources.

        ``r`` (N+1, n_watch) is the cotangent of the watched levels (None:
        zero) and ``terminal`` that of level N.  Returns ``(x0_bar, v0_bar,
        x1_bar, m_bar)``: the adjoint data, the adjoint of level 1 (through
        which the start depends on M) and, when ``states`` holds the forward
        levels on the positions ``band``, the steps' part of the sensitivity
        to M there (else None).  Each step back is
        ``x_bar[n] = B' x_bar[n+1] - q x_bar[n+2] + r[n]``; three level
        buffers rotate through the sweep.
        """
        N, dt, M, w, C = self.N, self.dt, self.M, self.watch, self.C
        B_T, neg_q = self.B_T, self._neg_q
        bar_next = np.zeros(M.size) if terminal is None else np.array(terminal, dtype=float)
        bar_cur, bar_prev = np.zeros(M.size), np.empty(M.size)
        if r is not None:
            bar_next[w] += r[N]            # x_bar[N], complete
            bar_cur[w] = r[N - 1]          # x_bar[N-1], awaiting step-N terms
        m_bar = None
        if states is not None:
            m_bar = np.zeros(band.size)
            d2x = np.empty(band.size)
            # d x[n+1] / dM = (2 x[n] - x[n+1] - x[n-1]) / den, den = dt^2 (m + c):
            # M where C = 0, and the blend weight's share on the damped nodes
            den = M.copy()
            if C is not None:
                den[w] += 0.5 * dt * C
            den = den[band]
        for n in range(N - 1, 0, -1):
            t = bar_next
            if m_bar is not None:
                # m_bar += x_bar[n+1] (2 x[n] - x[n+1] - x[n-1]) / den on the band
                np.multiply(states[n], 2.0, out=d2x)
                d2x -= states[n + 1]
                d2x -= states[n - 1]
                d2x *= t[band]
                d2x /= den
                m_bar += d2x
            bar_cur += B_T @ t             # x_bar[n] += B' t
            # x_bar[n-1] = r[n-1] - q t
            if neg_q is None:
                np.negative(t, out=bar_prev)
            else:
                np.multiply(neg_q, t, out=bar_prev)
            if r is not None:
                bar_prev[w] += r[n - 1]
            bar_next, bar_cur, bar_prev = bar_cur, bar_prev, bar_next
        # bar_next = x_bar[1], bar_cur = x_bar[0]: the start's transpose,
        # with A' u = 2 u - B' (u / D)
        u = bar_next
        A_T_u = 2.0 * u - B_T @ (u / self.D)
        x0_bar = bar_cur + u - 0.5 * A_T_u
        v0_bar = dt * u
        if C is not None:
            v0_bar[w] -= 0.5 * C * (self._load_scale * u[w])
        return x0_bar, v0_bar, u, m_bar


@dataclass
class WaveTrajectory:
    """One run of either family: its operator, the levels it kept and, on
    the grid nodes, the end levels and the requested history."""

    operator: Leapfrog
    run: LeapfrogRun
    final_state: tuple                    # (p_N, p_{N-1}) on the grid nodes
    final_velocity: np.ndarray            # one-sided dt p at level N
    states: np.ndarray | None             # (N+1, n_history) if requested
    energies: dict | None                 # Dirichlet integer-step energies if requested
    snapshots = None                      # not a field; perfbench/tracer.py reads it

    @property
    def dt(self) -> float:
        return self.operator.dt

    @property
    def n_steps(self) -> int:
        return self.operator.N


def end_levels(run: LeapfrogRun, dt: float):
    """Levels ``(N, N-1)`` of a run and its second-order one-sided velocity
    at level N, on the operator's nodes."""
    x = run.tail
    return (x[2], x[1]), norms.time_derivative(x, dt)[-1]


def simulate_forward(speed: SpeedField, data: InitialData, T: float, *,
                     cfl: float | None = None, history=None, check_compat: bool = True,
                     ledger: bool = True):
    """Run the damped-boundary problem to time T.

    ``history`` selects the nodes whose every time level is kept in
    ``WaveTrajectory.states``: ``None`` keeps none, ``slice(None)`` the full
    field, an index array just those nodes.  ``ledger`` computes the energy
    ledger (``E``, the dissipation, the identity defect and ``c_run``);
    without it the third return value is None.

    Returns ``(WaveTrajectory, BoundaryTrace, EnergyReport | None)``.
    """
    domain = speed.domain
    if domain.shape != "rectangle":
        raise NotImplementedError(
            "the damped-boundary solver supports rectangle domains; "
            "disk/ball domains are available through the Dirichlet solver")
    disc = domain.disc
    f = nodal("f", data.f, disc.n_nodes)
    g = nodal("g", data.g, disc.n_nodes)
    if check_compat:
        rep = check_compatibility(data, speed, domain)
        if not rep.weak_wellposed:
            raise ValueError(
                f"initial data violates dn f + beta g = 0 on the boundary "
                f"(relative residual {rep.res_boundary_rel:.3e})")

    N, dt = time_grid(speed, T, cfl)
    b_idx = disc.boundary.idx
    op = Leapfrog(disc.K_step, speed.c_inv2 * disc.w_vol, N, dt, b_idx,
                  data.beta * disc.boundary.weights)
    run = op.run(f, op.start(f, g), history=history, ledger=ledger)
    traj = WaveTrajectory(op, run, *end_levels(run, dt), states=run.x, energies=None)
    trace = BoundaryTrace(run.watched, dt, T, disc.boundary.weights.copy(),
                          b_idx.copy(),
                          meta={"a": speed.a, "eps": speed.eps,
                                "n": domain.grid_resolution, "T": T,
                                "domain_shape": domain.shape,
                                "dim": domain.dimension})
    if not ledger:
        return traj, trace, None

    # the dissipation -2 dlt' C dlt, dlt = (p[n+1] - p[n-1]) / (2 dt), read
    # from the trace because C is zero off the boundary
    E = run.E
    dlt = (trace.values[2:] - trace.values[:-2]) / (2.0 * dt)
    diss = -2.0 * np.einsum("ij,ij->i", dlt, op.C * dlt)
    data_scale = norms.grid_h1(f, disc) ** 2 + norms.grid_l2(g, disc) ** 2
    report = EnergyReport(
        times=(np.arange(N) + 0.5) * dt, E=E,
        dissipation_times=np.arange(1, N) * dt, dissipation=diss,
        identity_defect=float(np.abs(np.diff(E) - dt * diss).max()),
        c_run=float(E.max() / data_scale) if data_scale > 0 else 0.0)
    return traj, trace, report


def trace_norms(trace: BoundaryTrace, domain: Domain) -> dict:
    """L2, H1, H^{3/2} and t^{-1/2}-weighted norms of a boundary trace."""
    return trace_norm_evaluator(trace, domain)(trace.values)


def trace_norm_evaluator(trace: BoundaryTrace, domain: Domain) -> norms.TraceNorms:
    """``norms.TraceNorms`` for the time grid and boundary of ``trace``."""
    ds = domain.disc.boundary.ds if domain.dimension == 2 else None
    return norms.TraceNorms(trace.n_samples, trace.dt, trace.T, trace.weights, ds)
