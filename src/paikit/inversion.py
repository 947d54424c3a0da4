"""Single-measurement shape inversion and Lipschitz-stability scans.

The forward map is

    radial coefficients -> smoothed indicator -> (c, D, mu)
        -> fluence u (diffusion solve) -> f = Gamma mu u
        -> g (harmonic extension of -beta^-1 dn f)
        -> damped wave run -> boundary trace

and the misfit is half the squared H1((0,T) x bdry) distance to the
observed trace plus a quadratic penalty on the oscillatory coefficients.
The gradient is assembled by transposing every stage of the discrete
forward map exactly (the continuous adjoint of the damped problem,
discretized with the same leapfrog, coincides with this transpose), so the
finite-difference check passes near roundoff.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from ._fork import fork_map
from .geometry import (CONTRAST_CONTROL_LO, HORIZON_DIAMS, Domain, GeometryError,
                       SpeedField, StarInclusion, _smoothstep_prime, build_speed_field)
from .initial_data import (BETA, InitialData, OpticalCoefficients,
                           ReverseInequalityReport, check_resolved_pairs,
                           diffusion_system, harmonic_g_transpose,
                           make_initial_data, solve_spd)
from .norms import TraceForm, grid_h1
from .wave_forward import BoundaryTrace, WaveTrajectory, simulate_forward, time_grid

log = logging.getLogger(__name__)

TOL_G = 1e-6              # L-BFGS stops once |grad| falls by this factor
LBFGS_MEM = 8             # (s, y) pairs kept by L-BFGS
DATA_FLOOR = 1e-10        # smallest trace difference a scan pair may have
WINDOW_DIAMS = 1.0        # diameters of trace the bracket and first stage fit
MAX_BACKTRACKS = 30       # step halvings of one line search before it fails
ARMIJO = 1e-4             # sufficient-decrease factor of the line search
HAUSDORFF_SAMPLES = 1024  # boundary points per inclusion of hausdorff_distance


@dataclass
class InverseProblem:
    observed: BoundaryTrace
    a: float
    optics: OpticalCoefficients
    domain: Domain
    x0: tuple
    k_max: int
    beta: float | np.ndarray = BETA
    gamma: float = 0.0

    def __post_init__(self):
        if not (CONTRAST_CONTROL_LO < self.a < 1.0):
            raise ValueError("inversion requires contrast a in (3/4, 1)")
        if self.domain.dimension != 2 or self.domain.shape != "rectangle":
            raise NotImplementedError("inversion is implemented on 2-d rectangles")
        meta = self.observed.meta
        if meta and meta.get("n") not in (None, self.domain.grid_resolution):
            raise ValueError("observed trace resolution does not match the domain")

    def inclusion_of(self, params: np.ndarray) -> StarInclusion:
        return StarInclusion.from_params(self.x0, params, self.k_max)


@dataclass
class _Forward:
    incl: StarInclusion
    speed: SpeedField
    data: InitialData              # f, g and the fluence u behind f
    band: np.ndarray | None        # nodes where M = c^-2 w_vol depends on params
    traj: WaveTrajectory           # its operator and the history on the band
    trace: BoundaryTrace
    J_mis: float


def _penalty(params: np.ndarray, gamma: float):
    """gamma ||params[1:]||^2 and its gradient over ``params[1:]``."""
    hi = params[1:]
    return gamma * float(hi @ hi), 2.0 * gamma * hi


def _objective(params: np.ndarray, J_mis: float, g_mis: np.ndarray,
               gamma: float):
    """The misfit and its gradient with the penalty of ``gamma`` added."""
    J_reg, g_reg = _penalty(params, gamma)
    grad = g_mis.copy()
    grad[1:] += g_reg
    return J_mis + J_reg, grad


def _forward(params: np.ndarray, problem: InverseProblem,
             need_history: bool) -> _Forward:
    domain = problem.domain
    incl = problem.inclusion_of(params)
    speed = build_speed_field(incl, problem.a, domain)
    data = make_initial_data(problem.optics, speed, domain, beta=problem.beta)

    # chi = smoothstep(-rho / eps) is constant off the band |rho| < eps, so
    # the parameters reach M = c^-2 w_vol, and the adjoint needs the
    # forward history, only there
    band = np.flatnonzero(np.abs(speed.rho) < speed.eps) if need_history else None

    T = problem.observed.T
    traj, trace, _ = simulate_forward(speed, data, T, history=band,
                                      check_compat=False, ledger=False)
    if trace.values.shape != problem.observed.values.shape:
        raise ValueError("forward trace shape does not match the observation; "
                         "check T and the resolution")
    res = trace.values - problem.observed.values
    J_mis = 0.5 * TraceForm.of(trace, domain.disc).norm_sq(res)
    return _Forward(incl=incl, speed=speed, data=data, band=band, traj=traj,
                    trace=trace, J_mis=J_mis)


def misfit(params: np.ndarray, problem: InverseProblem) -> float:
    """J = 0.5 ||trace(params) - observed||^2_H1 + gamma ||high modes||^2."""
    params = np.asarray(params, dtype=float)
    J_mis = _forward(params, problem, need_history=False).J_mis
    return J_mis + _penalty(params, problem.gamma)[0]


def _wave_adjoint(fw: _Forward, problem: InverseProblem):
    """Transpose of the damped leapfrog; returns (f_bar, g_bar, m_bar).

    ``m_bar`` is the sensitivity to ``M w_vol^-1`` on ``fw.band`` only,
    where ``fw.traj.states`` holds the forward history.  Off the band M does
    not depend on the parameters, so what the full field would add there
    never reaches the gradient.  Each band entry is computed by the same
    operations as on the full field, so it is the same to the last bit.
    """
    op, band, dt = fw.traj.operator, fw.band, fw.traj.dt
    res = fw.trace.values - problem.observed.values
    r = TraceForm.of(fw.trace, problem.domain.disc).apply(res)  # dJ/dtrace
    f_bar, g_bar, u1, M_bar = op.transpose(r, band=band, states=fw.traj.states)
    # the start step's dependence on M through p1 = ... + dt^2/2 M^-1 r0
    r0 = op.force(fw.data.f, fw.data.g)[band]
    Mb = op.M[band]
    M_bar += -0.5 * dt**2 * u1[band] * r0 / (Mb * Mb)
    m_bar = M_bar * problem.domain.disc.w_vol[band]
    return f_bar, g_bar, m_bar


def _misfit_gradient(fw: _Forward, problem: InverseProblem) -> np.ndarray:
    """Exact gradient of ``fw.J_mis`` over the radial coefficients.

    ``fw`` must come from ``_forward(..., need_history=True)``.  The penalty
    is not included (``_objective`` adds it).
    """
    domain = problem.domain
    disc = domain.disc
    f_bar, g_bar, m_bar = _wave_adjoint(fw, problem)
    f_bar = f_bar + harmonic_g_transpose(g_bar, problem.beta, domain)

    # f = Gamma mu u
    gam = problem.optics.grueneisen
    u = fw.data.u
    D, mu = problem.optics.fields(fw.speed.chi)
    u_bar = gam * mu * f_bar
    mu_bar = gam * u * f_bar

    # diffusion solve transpose: A(D, mu) u = b, b parameter-free
    A, b, act = diffusion_system(problem.optics, fw.speed.chi, disc)
    wadj = np.zeros(disc.n_nodes)
    wadj[act] = solve_spd(A, u_bar[act], disc, rtol=1e-12)
    mu_bar = mu_bar - wadj * disc.w_vol * u
    faces = disc.faces
    du = u[faces.j] - u[faces.i]
    dw = wadj[faces.j] - wadj[faces.i]
    Df_bar = -(du * dw) * faces.w / faces.h**2
    Di, Dj = D[faces.i], D[faces.j]
    den = (Di + Dj) ** 2
    D_bar = np.zeros(disc.n_nodes)
    np.add.at(D_bar, faces.i, Df_bar * 2.0 * Dj * Dj / den)
    np.add.at(D_bar, faces.j, Df_bar * 2.0 * Di * Di / den)

    # collapse onto the indicator on the band, where it depends on params
    op = problem.optics
    a = problem.a
    band = fw.band
    chi_bar = (m_bar * (-2.0 * (a - 1.0) / fw.speed.c**3)[band]
               + mu_bar[band] * (op.mu_in - op.mu_out)
               + D_bar[band] * (op.D_in - op.D_out))

    # indicator -> radial coefficients through the smoothed level set
    eps = fw.speed.eps
    sprime = _smoothstep_prime(-fw.speed.rho[band] / eps) / eps
    theta = fw.incl.angles_of(domain.grid.coords[band])
    jac = fw.incl.radius_jacobian(theta)
    return jac.T @ (chi_bar * sprime)


def adjoint_gradient(params: np.ndarray, problem: InverseProblem):
    """Misfit value and its exact gradient over the radial coefficients."""
    params = np.asarray(params, dtype=float)
    fw = _forward(params, problem, need_history=True)
    return _objective(params, fw.J_mis, _misfit_gradient(fw, problem),
                      problem.gamma)


@dataclass
class ReconstructionResult:
    inclusion_hat: StarInclusion
    params_hat: np.ndarray
    misfit_history: list
    grad_norm_history: list
    horizon_history: list         # the horizon T each entry was taken on
    n_iterations: int
    converged: bool
    message: str
    f_hat: np.ndarray


def _max_nearest_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Largest squared distance from a point of ``a`` to its nearest point of
    ``b`` (as many points), each entry summed as ``dx^2 + dy^2``.

    The distance to ``b``'s point of the same index bounds a point's nearest
    distance from above, so nearest distances are taken, 64 points at a
    time, only while some bound still exceeds the largest one found.
    """
    bound = ((a - b) ** 2).sum(axis=1)
    order = np.argsort(bound)[::-1]
    best = 0.0
    for start in range(0, order.size, 64):
        rows = order[start:start + 64]
        if bound[rows[0]] <= best:
            break
        d2 = np.subtract.outer(a[rows, 0], b[:, 0])
        d2 *= d2
        dy = np.subtract.outer(a[rows, 1], b[:, 1])
        dy *= dy
        d2 += dy
        best = max(best, float(d2.min(axis=1).max()))
    return best


def hausdorff_distance(incl1: StarInclusion, incl2: StarInclusion) -> float:
    b1 = incl1.boundary_points(HAUSDORFF_SAMPLES)
    b2 = incl2.boundary_points(HAUSDORFF_SAMPLES)
    # the square root is monotone and correctly rounded, so taking it once at
    # the end changes no bit
    return float(np.sqrt(max(_max_nearest_sq(b1, b2), _max_nearest_sq(b2, b1))))


def symmetric_difference_area(incl1: StarInclusion, incl2: StarInclusion) -> float:
    n = 2048
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r1 = incl1.radius(th)
    r2 = incl2.radius(th)
    if np.allclose(incl1.x0, incl2.x0):
        return float(0.5 * np.abs(r1 * r1 - r2 * r2).sum() * (2.0 * np.pi / n))
    # different centers: Monte-Carlo-free box quadrature on a common grid
    lo = np.minimum(incl1.x0, incl2.x0) - max(r1.max(), r2.max()) * 1.2
    hi = np.maximum(incl1.x0, incl2.x0) + max(r1.max(), r2.max()) * 1.2
    m = 400
    xs = np.linspace(lo[0], hi[0], m)
    ys = np.linspace(lo[1], hi[1], m)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    s1 = incl1.level_set(pts) < 0
    s2 = incl2.level_set(pts) < 0
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float((s1 != s2).sum() * cell)


def _descend(problem: InverseProblem, params: np.ndarray,
             max_iter: int) -> ReconstructionResult:
    """Limited-memory quasi-Newton descent with Armijo backtracking from
    ``params``, on ``problem``'s horizon, for at most ``max_iter`` iterations.

    When ``problem.gamma`` is 0 the penalty is fixed from the initial state,
    in a copy of the problem.
    """
    # each point's forward runs once, with the band history its gradient
    # needs; only its f is kept once the gradient is taken
    fw = _forward(params, problem, need_history=True)
    J_mis, g_mis, f = fw.J_mis, _misfit_gradient(fw, problem), fw.data.f
    del fw
    if problem.gamma == 0.0 and J_mis > 0.0:
        # project-default regularization, fixed from the initial state; a
        # copy carries it, so the caller's problem is left as it was
        problem = dataclasses.replace(
            problem, gamma=1e-6 * J_mis / max(float(params @ params), 1e-30))
    J, grad = _objective(params, J_mis, g_mis, problem.gamma)
    g_scale = max(np.linalg.norm(grad), 1e-300)
    obs_scale = TraceForm.of(problem.observed,
                             problem.domain.disc).norm_sq(problem.observed.values)

    misfit_history = [J]
    grad_history = [np.linalg.norm(grad)]
    s_list, y_list = [], []
    converged = False
    message = "max iterations reached"
    it = 0
    if J <= 1e-12 * max(obs_scale, 1e-300):
        converged, message = True, "initial guess already matches the data"
    while not converged and it < max_iter:
        q = grad.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            a_i = (s @ q) / (y @ s)
            alphas.append(a_i)
            q -= a_i * y
        if y_list:
            y_last, s_last = y_list[-1], s_list[-1]
            q *= (s_last @ y_last) / (y_last @ y_last)
        else:
            q *= 0.01 * max(abs(params[0]), problem.domain.grid.h_min) / g_scale
        for s, y, a_i in zip(s_list, y_list, reversed(alphas)):
            b_i = (y @ q) / (y @ s)
            q += (a_i - b_i) * s
        direction = -q
        slope = grad @ direction
        if slope >= 0:
            direction = -grad
            slope = -float(grad @ grad)

        # cap the initial step so the radius moves at most one grid cell,
        # which keeps the iterates inside the data basin of the oscillatory
        # trace misfit; the cap relaxes automatically as the gradient decays
        radial_move = float(np.abs(direction).sum())
        step = min(1.0, problem.domain.grid.h_min / max(radial_move, 1e-300))
        for _ in range(MAX_BACKTRACKS):
            trial = params + step * direction
            fw = None                   # a rejected trial goes before the next runs
            try:
                fw = _forward(trial, problem, need_history=True)
            except GeometryError:       # the trial shape is inadmissible
                step *= 0.5
                continue
            J_trial = fw.J_mis + _penalty(trial, problem.gamma)[0]
            if J_trial <= J + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            message = f"line search failed after {MAX_BACKTRACKS} backtracks"
            break

        J_new, grad_new = _objective(trial, fw.J_mis,
                                     _misfit_gradient(fw, problem), problem.gamma)
        f = fw.data.f
        del fw
        s_vec = trial - params
        y_vec = grad_new - grad
        if (s_vec @ y_vec) > 1e-14 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > LBFGS_MEM:
                s_list.pop(0)
                y_list.pop(0)
        params, J, grad = trial, J_new, grad_new
        misfit_history.append(J)
        grad_history.append(np.linalg.norm(grad))
        it += 1
        log.debug("iter %d: J=%.6e |g|=%.3e step=%g T=%g", it, J, grad_history[-1],
                  step, problem.observed.T)
        if grad_history[-1] <= TOL_G * g_scale:
            converged, message = True, "gradient tolerance reached"
        elif J <= 1e-12 * max(obs_scale, 1e-300):
            converged, message = True, "misfit at the noiseless floor"

    # f of the last accepted point is the initial pressure of params_hat
    return ReconstructionResult(
        inclusion_hat=problem.inclusion_of(params), params_hat=params,
        misfit_history=misfit_history, grad_norm_history=grad_history,
        horizon_history=[problem.observed.T] * len(misfit_history),
        n_iterations=it, converged=converged, message=message, f_hat=f)


def _window_levels(problem: InverseProblem) -> int:
    """The window's step count: of the counts ``n <= N`` for which a
    forward run to ``n dt`` takes exactly ``n`` steps (``time_grid`` rounds
    ``n + 1`` up to an 11-smooth length), the one nearest to
    ``ceil(WINDOW_DIAMS diam / dt)``, ties toward the longer.

    Every forward speed is 1 off the inclusion, so its ``c_max`` and time
    grid are the background's; ``n = N`` always qualifies.
    """
    obs = problem.observed
    N = obs.n_samples - 1
    target = min(N, int(np.ceil(WINDOW_DIAMS * problem.domain.diam / obs.dt)))
    speed = build_speed_field(None, 1.0, problem.domain)
    for d in range(N + 1):
        for n in (target + d, target - d):
            if 0 < n <= N and time_grid(speed, n * obs.dt)[0] == n:
                return n
    return N


def reconstruct(problem: InverseProblem, initial_guess: StarInclusion, *,
                max_iter: int = 100, r0_bracket: int = 5) -> ReconstructionResult:
    """Limited-memory quasi-Newton descent with Armijo backtracking, first on
    the direct arrivals, then on the whole horizon.

    The window is the observed trace's first ``WINDOW_DIAMS`` diameter: the
    direct arrivals, which reach every boundary node within one diameter at
    c <= 1.  It keeps the level count nearest that diameter at which a
    forward run's time grid matches the observation's (``_window_levels``),
    at most a few levels off ``ceil(diam / dt)``.  The trace misfit
    oscillates in the base radius once the horizon holds several
    reverberations, so descent alone can walk away from the data basin.  A
    coarse probe of ``2 r0_bracket + 1`` radii (two grid cells apart) around
    the guess, scored on the window, picks the best basin first; set
    ``r0_bracket=0`` to skip it.  The descent then fits the
    window, and from that point the whole horizon, which judges the final
    point; ``max_iter`` bounds the iterations of both stages together.  A
    horizon no longer than the window, or ``max_iter=0``, takes one stage on
    the whole horizon.  Modes the guess lacks up to ``problem.k_max`` start
    at zero; a guess with more modes is rejected.
    """
    k = problem.k_max
    cos_c, sin_c = initial_guess.cos_coeffs, initial_guess.sin_coeffs
    if initial_guess.k_max > k:
        raise ValueError(f"initial guess has {initial_guess.k_max} radial modes, "
                         f"more than k_max = {k}")
    params = np.zeros(1 + 2 * k)
    params[0] = initial_guess.r0
    params[1:1 + len(cos_c)] = cos_c
    params[1 + k:1 + k + len(sin_c)] = sin_c

    obs = problem.observed
    N = obs.n_samples - 1
    # fitted against a view of the observed trace's first levels, never a
    # copy or a write
    n_keep = _window_levels(problem)
    window = dataclasses.replace(problem, observed=dataclasses.replace(
        obs, values=obs.values[:n_keep + 1], T=n_keep * obs.dt))

    if r0_bracket > 0:
        h = problem.domain.grid.h_min

        def bracket_misfit(j):
            trial = params.copy()
            trial[0] = params[0] + 2.0 * h * j
            try:
                return trial[0], misfit(trial, window)
            except GeometryError:
                return trial[0], None

        best = (np.inf, params[0])
        for r0, Jt in fork_map(bracket_misfit, range(-r0_bracket, r0_bracket + 1)):
            if Jt is not None and Jt < best[0]:
                best = (Jt, r0)
        params[0] = best[1]
        log.debug("bracket: r0 -> %.4f (J=%.4e over %d of %d levels)",
                  params[0], best[0], n_keep, N)

    if n_keep == N or max_iter == 0:
        return _descend(problem, params, max_iter)
    # a window stage that stops early, on a failed line search or the
    # budget, still hands its last accepted point on
    fit = _descend(window, params, max_iter)
    res = _descend(problem, fit.params_hat, max_iter - fit.n_iterations)
    if res.converged and res.n_iterations == 0 and fit.n_iterations > 0:
        res.message = "window fit already matches the full horizon"
    return dataclasses.replace(
        res, misfit_history=fit.misfit_history + res.misfit_history,
        grad_norm_history=fit.grad_norm_history + res.grad_norm_history,
        horizon_history=fit.horizon_history + res.horizon_history,
        n_iterations=fit.n_iterations + res.n_iterations)


@dataclass
class StabilityScanReport:
    rows: list                    # per-pair records
    C_emp1: float                 # max (1-a) ||chi1-chi2||_inf / ||p1-p2||_H1
    C_emp2: float                 # max ||f1-f2||_H1 / (H32 + weighted-t)
    d_emp: float                  # min ||f1-f2||_H1 (reverse-inequality probe)
    a0_emp: float                 # max(3/4, 1 - d_emp / (6 C_emp1))
    meta: dict = field(default_factory=dict)


def stability_scan(pairs, a: float, model: OpticalCoefficients, domain: Domain,
                   *, beta=BETA) -> StabilityScanReport:
    """Both sides of the stability estimates over a list of inclusion pairs,
    each run to T = 4 diam."""
    T = HORIZON_DIAMS * domain.diam
    disc = domain.disc

    def solve_one(incl):
        speed = build_speed_field(incl, a, domain)
        data = make_initial_data(model, speed, domain, beta=beta)
        _, trace, _ = simulate_forward(speed, data, T, ledger=False)
        return speed.indicator_crisp(), data.f, trace

    # every pair is checked before any solve; then one solve per distinct
    # inclusion, which the pair rows share
    check_resolved_pairs(pairs, domain)
    distinct = list(dict.fromkeys(incl for pair in pairs for incl in pair))
    solved = dict(zip(distinct, fork_map(solve_one, distinct)))
    # every trace has the scan's time grid, so the rows share one trace
    # form and one difference buffer
    first = solved[distinct[0]][2]
    norms_of = TraceForm.of(first, disc)
    diff = np.empty_like(first.values)

    def row(k):
        i1, i2 = pairs[k]
        ind1, f1, tr1 = solved[i1]
        ind2, f2, tr2 = solved[i2]
        tn = norms_of(np.subtract(tr1.values, tr2.values, out=diff))
        if tn["h1"] <= DATA_FLOOR:
            raise ValueError(f"pair {k}: boundary data difference below the "
                             f"identifiability floor {DATA_FLOOR}")
        return {
            "pair": k, "a": a,
            "indicator_sup": float(np.abs(ind1 - ind2).max()),
            "one_minus_a": 1.0 - a,
            "p_h1": tn["h1"], "p_h32": tn["h32"],
            "p_weighted_t": tn["weighted_t"],
            "f_h1": grid_h1(f1 - f2, disc),
            "hausdorff": hausdorff_distance(i1, i2),
            "symdiff_area": symmetric_difference_area(i1, i2),
        }

    rows = fork_map(row, range(len(pairs)))
    # each row's f_h1 is the reverse-inequality probe's distance for its pair
    probe = ReverseInequalityReport.of(model, [r["f_h1"] for r in rows])
    C1 = max((1.0 - a) * r["indicator_sup"] / r["p_h1"] for r in rows)
    C2 = max(r["f_h1"] / (r["p_h32"] + r["p_weighted_t"]) for r in rows)
    a0 = max(CONTRAST_CONTROL_LO, 1.0 - probe.d_emp / (6.0 * C1))
    return StabilityScanReport(rows=rows, C_emp1=float(C1), C_emp2=float(C2),
                               d_emp=probe.d_emp, a0_emp=float(a0),
                               meta={"T": T, "n": domain.grid_resolution,
                                     "n_pairs": len(rows),
                                     "model_admissible": probe.admissible})
