"""Boundary exact control by conjugate-gradient HUM, and the representation
identity that links the control to the inclusion perturbation.

The control operator maps an initial velocity ``phi0`` to Dirichlet boundary
data ``v`` such that the solution of

    d2phi/dt2 - c^2 lap phi = 0,  phi(0) = 0,  dt phi(0) = phi0,  phi|bdry = v

is steered to rest at T.  HUM realizes ``v`` as the normal trace of a
backward homogeneous solve from unknown final data ``z = (z0, z1)``; the
Gramian is assembled as ``T^* W T`` with the exact algebraic transpose of
the discrete solve, so its symmetry defect is at roundoff and plain CG in
the c^-2-weighted inner product applies.

All volume duality pairings are evaluated as c^-2-weighted grid inner
products of the regular grid representatives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import CONTRAST_CONTROL_LO, HORIZON_DIAMS, SpeedField
from .initial_data import InitialData
from .wave_dirichlet import boundary_load, dirichlet_leapfrog, layer_trace
from .wave_forward import LeapfrogRun, nodal, simulate_forward, time_grid
from . import norms

log = logging.getLogger(__name__)

N_PROBES = 3            # random pairs of the Gramian symmetry check


class ControlError(RuntimeError):
    pass


@dataclass
class ControlProblem:
    speed: SpeedField               # the reference speed (c2 of the pair)
    phi0: np.ndarray                # initial velocity to be steered to rest
    T: float
    tol: float = 1e-4               # relative final-energy target
    max_iter: int = 200

    def __post_init__(self):
        a = self.speed.a
        if not (CONTRAST_CONTROL_LO < a <= 1.0):
            raise ControlError(
                f"contrast a={a} outside the exact-controllability regime (3/4, 1]")
        T_ref = HORIZON_DIAMS * self.speed.domain.diam
        if abs(self.T - T_ref) > 1e-9 * T_ref:
            raise ControlError(f"control horizon must be T = 4 diam = {T_ref:.6g}")
        if self.speed.domain.shape != "rectangle":
            raise NotImplementedError("HUM control is implemented on rectangle domains")
        nodal("phi0", self.phi0, self.speed.domain.grid.n_nodes)


@dataclass
class ControlCertificate:
    control: np.ndarray             # (N+1, nb) Dirichlet boundary data
    final_energy_rel: float         # of the certified controlled run
    convergence: np.ndarray         # (iterations, 2): per CG iteration the
                                    # relative residual and the relative final
                                    # energy read from it
    lambda_norm_emp: float          # ||v||_L2((0,T)x bdry) / ||phi0||_{L2(c^-2)}
    sup_state_const: float          # max_t ||phi(t)||_L2 / ||phi0||_{L2(c^-2)}
    n_steps: int
    dt: float

    @property
    def iterations(self) -> int:
        return len(self.convergence)


class _HumOperator:
    """HUM's flux, its scale, the Riesz map and the time weights on the
    time grid of one ``dirichlet_leapfrog`` (``wave``), whose run and exact
    transpose every solve uses.

    The duality between the pinned-boundary controlled run and backward
    homogeneous runs holds exactly for the discrete scheme when the control
    is paired through the variational co-normal flux ``K_ib' w`` with
    trapezoid-in-time weights.  Building the Gramian and right-hand side
    from that identity makes "Gramian residual -> 0" equivalent to "final
    two-level state of the certified run -> 0", so the certificate can meet
    tight energy targets instead of flooring at the discretization error.

    The flux reads the interior history only on the boundary layer
    (``disc.layer_idx``, which holds the rows of ``K_ib`` with entries), and
    its transpose writes sources only there, so the solves keep that layer
    and nothing more.  Every kept entry goes through the same floating-point
    operations as on the full history, so the Gramian is the same to the
    last bit.
    """

    def __init__(self, speed: SpeedField, T: float):
        disc = speed.domain.disc
        self.disc = disc
        self.wave = dirichlet_leapfrog(speed, *time_grid(speed, T))
        # flux normalization: sum of w_face / h over each boundary node's
        # interior faces, so that K_ib' w / scale ~ dn w in function units
        f = disc.faces
        bmask = np.zeros(disc.n_nodes, dtype=bool)
        bmask[disc.boundary.idx] = True
        cross = bmask[f.i] != bmask[f.j]
        scale = np.zeros(disc.n_nodes)
        np.add.at(scale, np.where(bmask[f.i], f.i, f.j)[cross], (f.w / f.h)[cross])
        self.flux_scale = scale[disc.boundary.idx]
        self.flux_alive = self.flux_scale > 0
        # s-order time weights of the exact duality (s = T - t):
        # physical tau_0 = dt/2, tau_n = dt, tau_N = 0
        self.tau_s = np.full(self.wave.N + 1, self.wave.dt)
        self.tau_s[0] = 0.0
        self.tau_s[-1] = 0.5 * self.wave.dt

    def flux(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Variational co-normal flux K_ib' x per level, (N+1, nb), of the
        homogeneous run from the interior data (a, b)."""
        run = self.wave.run(a, self.wave.start(a, b))
        return (self.disc.K_ib_layer.T @ run.watched.T).T

    def control_of(self, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
        """HUM Dirichlet control in function units, physical time order."""
        g = self.flux(z0, -z1)
        g[:, self.flux_alive] /= self.flux_scale[self.flux_alive]
        g[:, ~self.flux_alive] = 0.0
        return g[::-1].copy()

    def riesz_inv(self, d0: np.ndarray, d1: np.ndarray):
        # CG runs in the H_0^1 x L^2 energy inner product; the Riesz map of
        # the position component is a Laplace solve (classical HUM
        # preconditioning, keeps the iteration count mesh-independent)
        return self.disc.K_ii_lu.solve(d0), d1 / self.wave.M

    def gramian_apply(self, z0: np.ndarray, z1: np.ndarray):
        q = self.flux(z0, -z1)
        s = np.zeros_like(q)
        s[:, self.flux_alive] = (self.tau_s[:, None] * q[:, self.flux_alive]
                                 / self.flux_scale[self.flux_alive])
        a_bar, b_bar, _, _ = self.wave.transpose(boundary_load(self.disc, s))
        return self.riesz_inv(a_bar, -b_bar)

    def rhs(self, phi0_int: np.ndarray):
        """Riesz representer of z -> (w at t=0, M phi0), by exact transpose."""
        a_bar, b_bar, _, _ = self.wave.transpose(None, terminal=self.wave.M * phi0_int)
        return self.riesz_inv(a_bar, -b_bar)

    def final_levels(self, r0: np.ndarray, r1: np.ndarray):
        """Levels ``(N, N-1)`` of the controlled run whose Gramian residual is
        ``(r0, r1)``.

        For the loaded run ``u`` and a homogeneous run ``psi`` of ``wave``,
        ``W_n = psi_n . M u_{n+1} - psi_{n+1} . M u_n`` changes by
        ``-dt^2 psi_n . L_n`` per step (``M A = dt^2 K`` is symmetric), the
        identity ``rhs`` and ``gramian_apply`` encode.  So the residual
        ``b - G z`` is a fixed linear image of the controlled run's final
        levels, which this inverts: ``x_N = -r1`` and
        ``x_{N-1} = x_N - M^-1 (dt K r0 + dt^2/2 K x_N)``.  At ``z = 0`` it
        gives the uncontrolled run's levels.
        """
        wave = self.wave
        x_N = -r1
        x_prev = x_N - (wave.dt * (wave.K @ r0)
                        + 0.5 * wave.dt**2 * (wave.K @ x_N)) / wave.M
        return x_N, x_prev

    def inner(self, x0, x1, y0, y1) -> float:
        """H_0^1 x L^2(c^-2) energy inner product."""
        return float(x0 @ (self.wave.K @ y0) + (self.wave.M * x1 * y1).sum())


def hum_control(problem: ControlProblem) -> ControlCertificate:
    """Conjugate-gradient HUM.

    Every iteration reads the controlled run's final energy from the CG
    residual (``_HumOperator.final_levels``).  CG stops at the first
    iteration whose energy meets ``problem.tol``, when the residual reaches
    roundoff or at ``max_iter``; one controlled run then certifies that
    iterate, and its energy is the one the certificate reports.
    """
    return _certified(problem)[0]


def _certified(problem: ControlProblem
               ) -> tuple[ControlCertificate, LeapfrogRun | None]:
    """``hum_control``'s certificate and the run that certified it: every
    interior level in ``run.x`` and the control in ``run.g``.  A zero
    velocity needs no control and leaves no run (None)."""
    speed = problem.speed
    domain = speed.domain
    disc = domain.disc
    op = _HumOperator(speed, problem.T)
    wave = op.wave
    N, dt = wave.N, wave.dt
    phi0 = np.asarray(problem.phi0, dtype=float)
    phi0_norm = float(np.sqrt((speed.c_inv2 * disc.w_vol * phi0 * phi0).sum()))

    if phi0_norm == 0.0:
        control = np.zeros((N + 1, disc.boundary.idx.size))
        return ControlCertificate(control, 0.0, np.empty((0, 2)), 0.0, 0.0,
                                  N, dt), None

    ii = disc.inside_idx
    rest, phi1 = np.zeros(ii.size), phi0[ii]

    def staggered_energy(x_N, x_prev):
        """``v' M v + x[N] . K x[N-1]``, which the homogeneous scheme
        conserves exactly."""
        return wave.energy(x_N, x_prev, wave.K @ x_prev)

    b0, b1 = op.rhs(phi1)
    # the residual at z = 0 is b: the uncontrolled run's final energy
    E_ref = staggered_energy(*op.final_levels(b0, b1))
    if E_ref <= 0:
        raise ControlError("uncontrolled run carries no final energy to remove")

    z0 = np.zeros(ii.size)
    z1 = np.zeros(ii.size)
    r0, r1 = b0.copy(), b1.copy()
    p0, p1 = r0.copy(), r1.copy()
    rr = op.inner(r0, r1, r0, r1)
    bb = rr
    convergence = []
    for it in range(1, problem.max_iter + 1):
        g0, g1 = op.gramian_apply(p0, p1)
        alpha = rr / op.inner(p0, p1, g0, g1)
        z0 += alpha * p0
        z1 += alpha * p1
        r0 -= alpha * g0
        r1 -= alpha * g1
        rr_new = op.inner(r0, r1, r0, r1)
        e_rel = staggered_energy(*op.final_levels(r0, r1)) / E_ref
        convergence.append((np.sqrt(rr_new / bb), e_rel))
        log.debug("hum iter %d: residual %.3e final energy %.3e",
                  it, *convergence[-1])
        if e_rel <= problem.tol or rr_new <= 1e-16 * bb:
            break
        beta = rr_new / rr
        p0 = r0 + beta * p0
        p1 = r1 + beta * p1
        rr = rr_new

    # the certified run: the iterate's control and the levels it leaves
    control = op.control_of(z0, z1)
    load = boundary_load(disc, control)
    run = wave.run(rest, wave.start(rest, phi1, load), load=load,
                   history=slice(None))
    run.g = control
    e_rel = staggered_energy(run.tail[2], run.tail[1]) / E_ref
    if e_rel > problem.tol:
        raise ControlError(
            f"CG-HUM did not reach the energy target within {problem.max_iter} "
            f"iterations (final energy {e_rel:.3e}, CG residual "
            f"{np.sqrt(op.inner(r0, r1, r0, r1) / bb):.3e})")

    # sup_t ||phi(t)||_L2 over the full field: the interior levels and the
    # control on the boundary
    sq_norms = (np.einsum("ni,ni,i->n", run.x, run.x, disc.w_vol[ii])
                + np.einsum("nb,nb,b->n", control, control,
                            disc.w_vol[disc.boundary.idx]))
    sup_state = float(np.sqrt(sq_norms.max()))

    w_t = norms.time_weights(N + 1, dt)
    v_l2 = float(np.sqrt((w_t[:, None] * disc.trace.weights[None, :]
                          * control**2).sum()))
    return ControlCertificate(
        control=control, final_energy_rel=e_rel, convergence=np.array(convergence).reshape(-1, 2),
        lambda_norm_emp=v_l2 / phi0_norm, sup_state_const=sup_state / phi0_norm,
        n_steps=N, dt=dt), run


def gramian_symmetry_defect(speed: SpeedField, T: float, rng) -> float:
    """Relative symmetry defect <Gx, y> - <x, Gy> on random probes."""
    op = _HumOperator(speed, T)
    worst = 0.0
    for _ in range(N_PROBES):
        x0, x1, y0, y1 = (rng.normal(size=op.wave.M.size) for _ in range(4))
        gx = op.gramian_apply(x0, x1)
        gy = op.gramian_apply(y0, y1)
        lhs = op.inner(gx[0], gx[1], y0, y1)
        rhs = op.inner(x0, x1, gy[0], gy[1])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst


@dataclass
class RepresentationResidual:
    A: float            # <phi0, f>_{c2^-2} with f = f2 - f1
    B: float            # int control * beta dt(p2 - p1) over the boundary
    C: float            # int dn(phi) * (p2 - p1) over the boundary
    D: float            # <c2^2(c1^-2 - c2^-2) d2t p1, phi>_{c2^-2}
    residual_rel: float
    meta: dict = field(default_factory=dict)


def representation_residual(speed1: SpeedField, speed2: SpeedField,
                            data1: InitialData, data2: InitialData,
                            phi0: np.ndarray, *, tol: float = 1e-4,
                            max_iter: int = 200) -> RepresentationResidual:
    """Defect of the weak identity tying the speed perturbation to the data.

    Conventions: ``p = p2 - p1`` and ``f = f2 - f1`` (this pairing makes the
    source of the difference equation ``c2^2 (c1^-2 - c2^-2) d2t p1``); all
    volume pairings carry the ``c2^-2`` weight.  The controlled field
    ``phi`` is the run that certified its HUM control.
    """
    domain = speed2.domain
    if speed1.domain is not domain and speed1.domain != domain:
        raise ValueError("both speed fields must share one domain")
    disc = domain.disc
    T = HORIZON_DIAMS * domain.diam
    certificate, run = _certified(
        ControlProblem(speed2, phi0, T, tol=tol, max_iter=max_iter))
    N, dt = certificate.n_steps, certificate.dt
    # the D pairing lives on the support of coef, which the inclusions keep
    # clear of the boundary, so phi and p1 are kept only there.  The run,
    # with its full interior history, is released before the damped runs
    coef = speed2.c2 * (speed1.c_inv2 - speed2.c_inv2)
    S = np.flatnonzero(coef)
    if run is None:                 # zero velocity: phi = 0 at every level
        dnphi = np.zeros((N + 1, disc.trace.weights.size))
        phi_S = np.zeros((N + 1, S.size))
    else:
        dnphi = layer_trace(run, disc)
        phi_S = run.x[:, np.searchsorted(disc.inside_idx, S)]
        del run

    traj1, trace1, _ = simulate_forward(speed1, data1, T, history=S, ledger=False)
    traj2, trace2, _ = simulate_forward(speed2, data2, T, ledger=False)
    if traj1.n_steps != N or traj2.n_steps != N:
        raise ControlError("time grids of the forward and control runs differ")

    w_t = norms.time_weights(N + 1, dt)
    w_vol = disc.w_vol
    beta = data2.beta

    # A: c2^-2-weighted pairing of phi0 with the pressure difference
    f_diff = data2.f - data1.f
    A = float((w_vol * speed2.c_inv2 * phi0 * f_diff).sum())

    # B: control against beta * dt(p2 - p1) on the boundary
    p_b = trace2.values - trace1.values
    dp_b = norms.time_derivative(p_b, dt)
    w_surf = disc.boundary.weights
    B = float((w_t[:, None] * w_surf[None, :] * certificate.control
               * beta[None, :] * dp_b).sum())

    # C: one-sided normal derivative of the controlled field against p
    C = float((w_t[:, None] * disc.trace.weights[None, :] * dnphi * p_b).sum())

    # D: weighted volume pairing with the second time derivative of p1
    s1 = traj1.states
    d2 = np.empty_like(s1)
    d2[1:N] = (s1[2:] - 2.0 * s1[1:N] + s1[:N - 1]) / dt**2
    op1 = traj1.operator
    d2[0] = (op1.force(data1.f, data1.g) / op1.M)[S]
    d2[N] = (2.0 * s1[N] - 5.0 * s1[N - 1] + 4.0 * s1[N - 2] - s1[N - 3]) / dt**2
    kernel = np.zeros(S.size)
    for n in range(N + 1):
        kernel += w_t[n] * d2[n] * phi_S[n]
    D = float(((w_vol * speed2.c_inv2 * coef)[S] * kernel).sum())

    scale = max(abs(A), abs(B), abs(C), abs(D), 1e-30)
    return RepresentationResidual(A, B, C, D, abs(A + B + C - D) / scale,
                                  meta={"n": domain.grid_resolution, "T": T,
                                        "dt": dt, "iterations": certificate.iterations,
                                        "final_energy_rel": certificate.final_energy_rel})
