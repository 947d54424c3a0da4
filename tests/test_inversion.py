import copy
import dataclasses
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit import cli, geometry, inversion
from paikit.geometry import GeometryError
from paikit.initial_data import InitialData, as_boundary_beta
from paikit.inversion import (InverseProblem, adjoint_gradient,
                              hausdorff_distance, misfit, reconstruct,
                              stability_scan, symmetric_difference_area)
from paikit.norms import grid_h1
from paikit.wave_forward import BoundaryTrace, NumericalError, trace_norms
from conftest import diffusion_pressure, read_only


X0 = (0.5, 0.5)


def observe(domain, inclusion, a=0.9, optics=None, diams=4.0):
    optics = optics or pk.OpticalCoefficients()
    sf = pk.build_speed_field(inclusion, a, domain)
    data = pk.make_initial_data(optics, sf, domain)
    return pk.simulate_forward(sf, data, diams * domain.diam)[1]


@pytest.fixture(scope="module")
def setup32():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25, (0.0, 0.0, 0.03))
    obs = observe(domain, truth, optics=optics)
    problem = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                             x0=X0, k_max=3, gamma=1e-8)
    return domain, optics, truth, obs, problem


def test_misfit_zero_at_truth(setup32):
    domain, optics, truth, obs, problem = setup32
    prob0 = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                           x0=X0, k_max=3, gamma=0.0)
    J = misfit(truth.params, prob0)
    scale = trace_norms(obs, domain)["h1"] ** 2
    assert J <= 1e-12 * scale


def test_invalid_params_rejected(setup32):
    _, _, _, _, problem = setup32
    with pytest.raises(GeometryError):
        misfit(np.array([1e-4, 0, 0, 0, 0, 0, 0]), problem)


def test_misfit_locally_quadratic(monkeypatch):
    # the quadratic model needs the probe step inside the smoothed interface
    # band (2 dx <= eps/4, so eps = 8 h); the pressure jump makes the trace
    # misfit grow like |delta| once the front moves by more than its own width
    monkeypatch.setattr(geometry, "SMOOTHING_CELLS", 8.0)
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 64)
    optics = pk.OpticalCoefficients()
    h = domain.grid.h_min
    truth = pk.StarInclusion(X0, 0.25, (0.0, 0.0, 0.03))
    sf = pk.build_speed_field(truth, 0.9, domain)
    assert sf.eps == 8.0 * h
    data = pk.make_initial_data(optics, sf, domain)
    obs = pk.simulate_forward(sf, data, 4.0 * domain.diam)[1]
    problem = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                             x0=X0, k_max=3, gamma=0.0)
    deltas = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]) * h
    base = truth.params
    J0 = misfit(base, problem)
    vals = []
    for d in deltas:
        p = base.copy()
        p[0] += d
        vals.append(misfit(p, problem) - J0)
    vals = np.asarray(vals)
    coef = (deltas**2 @ vals) / (deltas**2 @ deltas**2)
    fit = coef * deltas**2
    ss_res = float(((vals - fit) ** 2).sum())
    ss_tot = float(((vals - vals.mean()) ** 2).sum())
    assert 1.0 - ss_res / ss_tot >= 0.99


def test_gradient_matches_finite_differences(setup32):
    _, _, truth, _, problem = setup32
    guess = np.array([0.22, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005])
    J, grad = adjoint_gradient(guess, problem)
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = rng.normal(size=guess.size)
        d /= np.linalg.norm(d)
        h = 1e-4
        fd = (misfit(guess + h * d, problem) - misfit(guess - h * d, problem)) / (2 * h)
        assert abs(grad @ d - fd) <= 1e-3 * abs(fd)


def test_gradient_stationary_at_truth(setup32):
    domain, optics, truth, obs, _ = setup32
    prob0 = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                           x0=X0, k_max=3, gamma=0.0)
    guess = np.array([0.22, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005])
    _, g_guess = adjoint_gradient(guess, prob0)
    _, g_truth = adjoint_gradient(truth.params, prob0)
    assert np.linalg.norm(g_truth) <= 1e-6 * np.linalg.norm(g_guess)


def _full_history(fw, problem):
    """The forward history over the whole field, the trace cotangent and the
    damped run's ``(N, dt, K, M, C)`` with C over every node."""
    disc = problem.domain.disc
    traj = pk.simulate_forward(fw.speed, fw.data, problem.observed.T,
                               history=slice(None), check_compat=False)[0]
    assert np.array_equal(traj.states[:, fw.band], fw.traj.states)
    C = np.zeros(disc.n_nodes)
    C[disc.boundary.idx] = as_boundary_beta(problem.beta, disc) * disc.boundary.weights
    r = inversion._trace_form(problem, fw.traj.n_steps + 1, fw.traj.dt).apply(
        fw.trace - problem.observed.values)
    return traj.states, r, (fw.traj.n_steps, fw.traj.dt, disc.K,
                            fw.speed.c_inv2 * disc.w_vol, C)


def _seeded(disc, r):
    def seed(n):
        out = np.zeros(disc.n_nodes)
        out[disc.boundary.idx] = r[n]
        return out
    return seed


def _start_m_bar(fw, problem, K, M, C, dt, u1, M_bar):
    """The Taylor start's part of the sensitivity to M, on the band."""
    r0 = -(K @ fw.data.f) - C * fw.data.g
    M_bar += -0.5 * dt**2 * u1 * r0 / (M * M)
    return (M_bar * problem.domain.disc.w_vol)[fw.band]


def full_history_adjoint(fw, problem):
    """Reverse sweep over the whole field's forward history (the reference).

    Reruns the forward problem keeping every node, sweeps back with fresh
    temporaries in every step and restricts ``m_bar`` to the band at the end.
    """
    disc = problem.domain.disc
    p, r, (N, dt, K, M, C) = _full_history(fw, problem)
    b_idx = disc.boundary.idx
    m = M[b_idx] / dt**2
    c = C[b_idx] / (2.0 * dt)
    a, b = m / (m + c), c / (m + c)
    D, q = np.ones(M.size), np.ones(M.size)
    D[b_idx], q[b_idx] = a, a - b
    # B = D (2 I - dt^2 M^-1 K), each entry -(D_i dt^2 / M_i) K_ij
    B = sp.csr_matrix(K.multiply((-(D * (dt**2 / M)))[:, None]))
    B.setdiag(B.diagonal() + 2.0 * D)
    B.sort_indices()
    seed = _seeded(disc, r)
    M_bar = np.zeros(disc.n_nodes)
    bar_next, bar_cur = seed(N), seed(N - 1)
    for n in range(N - 1, 0, -1):
        t = bar_next
        M_bar += t * (2.0 * p[n] - p[n + 1] - p[n - 1]) / (M + 0.5 * dt * C)
        bar_cur += B.T @ t
        bar_prev = seed(n - 1) - q * t
        bar_next, bar_cur = bar_cur, bar_prev
    u1 = bar_next
    A_T_u1 = 2.0 * u1 - B.T @ (u1 / D)                      # (dt^2 M^-1 K)' u1
    return (bar_cur + u1 - 0.5 * A_T_u1, dt * u1 - 0.5 * C * ((dt**2 / M) * u1),
            _start_m_bar(fw, problem, K, M, C, dt, u1, M_bar))


def _damped_order_adjoint(fw, problem):
    """The sweep back through the step ``A_plus p[n+1] = (2 / dt^2) M p[n] -
    K p[n] - A_minus p[n-1]`` that the damped runs took before the two
    boundary conditions shared one step: the same scheme, rounded another
    way."""
    disc = problem.domain.disc
    p, r, (N, dt, K, M, C) = _full_history(fw, problem)
    A_plus = M / dt**2 + C / (2.0 * dt)
    A_minus = M / dt**2 - C / (2.0 * dt)
    seed = _seeded(disc, r)
    M_bar = np.zeros(disc.n_nodes)
    bar_next, bar_cur = seed(N), seed(N - 1)
    for n in range(N - 1, 0, -1):
        t = bar_next / A_plus
        bar_cur += (2.0 / dt**2) * (M * t) - K @ t
        bar_prev = seed(n - 1) - A_minus * t
        M_bar += t * (2.0 * p[n] - p[n + 1] - p[n - 1]) / dt**2
        bar_next, bar_cur = bar_cur, bar_prev
    u1 = bar_next
    return (bar_cur + u1 - 0.5 * dt**2 * (K @ (u1 / M)),
            dt * u1 - 0.5 * dt**2 * (C * (u1 / M)),
            _start_m_bar(fw, problem, K, M, C, dt, u1, M_bar))


@pytest.mark.parametrize("guess", [
    [0.22, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005],      # finite-difference setup
    [0.24, 0.02, -0.01, 0.015, 0.01, 0.012, -0.008],  # all three modes
])
def test_band_history_gradient_is_bit_identical(setup32, guess, monkeypatch):
    _, _, _, _, problem = setup32
    guess = np.array(guess)
    fw = inversion._forward(guess, problem, need_history=True)
    n_nodes = problem.domain.disc.n_nodes
    assert 0 < fw.band.size < n_nodes // 4
    assert fw.traj.states.shape == (fw.traj.n_steps + 1, fw.band.size)
    J, grad = adjoint_gradient(guess, problem)
    monkeypatch.setattr(inversion, "_wave_adjoint", full_history_adjoint)
    J_ref, grad_ref = adjoint_gradient(guess, problem)
    assert J == J_ref
    assert np.array_equal(grad, grad_ref)


def test_step_order_moves_gradient_at_roundoff(setup32, monkeypatch):
    # the sweep of the blended step and that of the damped order transpose
    # one scheme: the gradients agree to roundoff
    _, _, _, _, problem = setup32
    guess = np.array([0.24, 0.02, -0.01, 0.015, 0.01, 0.012, -0.008])
    _, grad = adjoint_gradient(guess, problem)
    monkeypatch.setattr(inversion, "_wave_adjoint", _damped_order_adjoint)
    _, grad_ref = adjoint_gradient(guess, problem)
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


def test_read_only_inputs(setup32):
    # the solvers step on buffers of their own, never on a caller's array
    domain, optics, truth, obs, problem = setup32
    sf = pk.build_speed_field(truth, 0.9, domain)
    data = pk.make_initial_data(optics, sf, domain)
    frozen = InitialData(read_only(data.f), read_only(data.g),
                         read_only(data.beta), read_only(data.u))
    for ledger in (True, False):
        ref = pk.simulate_forward(sf, data, 1.0, ledger=ledger)
        out = pk.simulate_forward(sf, frozen, 1.0, ledger=ledger)
        assert np.array_equal(out[1].values, ref[1].values)
        assert all(np.array_equal(a, b)
                   for a, b in zip(out[0].final_state, ref[0].final_state))
    guess = np.array([0.22, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005])
    frozen_obs = BoundaryTrace(read_only(obs.values), obs.dt, obs.T,
                               obs.weights, obs.node_idx, obs.meta)
    frozen_problem = dataclasses.replace(problem, observed=frozen_obs)
    assert misfit(read_only(guess), frozen_problem) == misfit(guess, problem)
    J, grad = adjoint_gradient(read_only(guess), frozen_problem)
    J_ref, grad_ref = adjoint_gradient(guess, problem)
    assert J == J_ref and np.array_equal(grad, grad_ref)


def test_regularizer_gradient_exact(setup32):
    domain, optics, truth, obs, _ = setup32
    guess = np.array([0.22, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005])
    gam = 1e-3
    p1 = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                        x0=X0, k_max=3, gamma=gam)
    p2 = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                        x0=X0, k_max=3, gamma=2 * gam)
    _, g1 = adjoint_gradient(guess, p1)
    _, g2 = adjoint_gradient(guess, p2)
    expected = np.zeros_like(guess)
    expected[1:] = 2.0 * gam * guess[1:]
    assert np.abs((g2 - g1) - expected).max() <= 1e-12


def test_reconstruct_returns_immediately_at_truth(setup32):
    domain, optics, truth, _, _ = setup32
    obs_guess = observe(domain, truth, optics=optics)
    prob = InverseProblem(observed=obs_guess, a=0.9, optics=optics,
                          domain=domain, x0=X0, k_max=3)
    res = reconstruct(prob, truth, r0_bracket=0)
    assert res.n_iterations == 0
    assert "matches" in res.message


def test_reconstruct_leaves_gamma_when_gradient_raises(setup32, monkeypatch):
    # the default regularization is set after the first gradient; a failure
    # after that point must not leave it on the caller's problem
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    seen = []
    real = inversion._misfit_gradient

    def failing_after_first(fw, problem):
        seen.append(problem.gamma)
        if len(seen) > 1:
            raise NumericalError("injected failure")
        return real(fw, problem)

    monkeypatch.setattr(inversion, "_misfit_gradient", failing_after_first)
    with pytest.raises(NumericalError):
        reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=0)
    assert seen[0] == 0.0 and seen[1] > 0.0
    assert prob.gamma == 0.0


def _reference_descend(problem, params, max_iter, *, tol_g, lbfgs_mem,
                       max_backtracks, armijo):
    """One descent stage as it ran each point's forward up to three times:
    the public ``misfit`` in the line search, ``adjoint_gradient`` again at
    the accepted point and at the regularization restart, and a fresh
    diffusion solve for ``f_hat``."""
    J, grad = adjoint_gradient(params, problem)
    if problem.gamma == 0.0 and J > 0.0:
        problem = dataclasses.replace(
            problem, gamma=1e-6 * J / max(float(params @ params), 1e-30))
        J, grad = adjoint_gradient(params, problem)
    g_scale = max(np.linalg.norm(grad), 1e-300)
    obs_scale = inversion._trace_form(problem, problem.observed.n_samples,
                                      problem.observed.dt).norm_sq(
                                          problem.observed.values)
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
        radial_move = float(np.abs(direction).sum())
        step = min(1.0, problem.domain.grid.h_min / max(radial_move, 1e-300))
        accepted = False
        for _ in range(max_backtracks):
            trial = params + step * direction
            try:
                J_trial = misfit(trial, problem)
            except GeometryError:
                step *= 0.5
                continue
            if J_trial <= J + armijo * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = f"line search failed after {max_backtracks} backtracks"
            break
        J_new, grad_new = adjoint_gradient(trial, problem)
        s_vec = trial - params
        y_vec = grad_new - grad
        if (s_vec @ y_vec) > 1e-14 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > lbfgs_mem:
                s_list.pop(0)
                y_list.pop(0)
        params, J, grad = trial, J_new, grad_new
        misfit_history.append(J)
        grad_history.append(np.linalg.norm(grad))
        it += 1
        if grad_history[-1] <= tol_g * g_scale:
            converged, message = True, "gradient tolerance reached"
        elif J <= 1e-12 * max(obs_scale, 1e-300):
            converged, message = True, "misfit at the noiseless floor"
    incl_hat = problem.inclusion_of(params)
    speed_hat = pk.build_speed_field(incl_hat, problem.a, problem.domain)
    data_hat = pk.make_initial_data(problem.optics, speed_hat, problem.domain,
                                    beta=problem.beta)
    return inversion.ReconstructionResult(
        inclusion_hat=incl_hat, params_hat=params,
        misfit_history=misfit_history, grad_norm_history=grad_history,
        horizon_history=[problem.observed.T] * len(misfit_history),
        n_iterations=it, converged=converged, message=message,
        f_hat=data_hat.f)


def _reference_reconstruct(problem, initial_guess, *, max_iter=100, tol_g=1e-6,
                           lbfgs_mem=8, max_backtracks=30, armijo=1e-4,
                           r0_bracket=5):
    """``reconstruct`` with its radius bracket scored on the whole horizon,
    then a descent on a copy of the first diameter of the observed trace and
    one on the whole horizon from that point, with one iteration budget; a
    horizon no longer than that is fitted in one descent."""
    params = initial_guess.params.copy()
    k = problem.k_max
    if params.size != 1 + 2 * k:
        full = np.zeros(1 + 2 * k)
        full[0] = params[0]
        ka = len(initial_guess.cos_coeffs)
        kb = len(initial_guess.sin_coeffs)
        full[1:1 + ka] = initial_guess.params[1:1 + ka]
        full[1 + k:1 + k + kb] = initial_guess.params[1 + ka:]
        params = full
    if r0_bracket > 0:
        h = problem.domain.grid.h_min
        best = (np.inf, params[0])
        for j in range(-r0_bracket, r0_bracket + 1):
            trial = params.copy()
            trial[0] = params[0] + 2.0 * h * j
            try:
                Jt = misfit(trial, problem)
            except (GeometryError, ValueError):
                continue
            if Jt < best[0]:
                best = (Jt, trial[0])
        params[0] = best[1]
    obs = problem.observed
    n_keep = _bracket_window(obs, problem.domain)
    kw = {"tol_g": tol_g, "lbfgs_mem": lbfgs_mem,
          "max_backtracks": max_backtracks, "armijo": armijo}
    if n_keep == obs.n_samples - 1:
        return _reference_descend(problem, params, max_iter, **kw)
    window = dataclasses.replace(problem, observed=BoundaryTrace(
        obs.values[:n_keep + 1].copy(), obs.dt, n_keep * obs.dt, obs.weights,
        obs.node_idx, obs.meta))
    fit = _reference_descend(window, params, max_iter, **kw)
    res = _reference_descend(problem, fit.params_hat,
                             max_iter - fit.n_iterations, **kw)
    if res.converged and res.n_iterations == 0 and fit.n_iterations > 0:
        res.message = "window fit already matches the full horizon"
    return dataclasses.replace(
        res, misfit_history=fit.misfit_history + res.misfit_history,
        grad_norm_history=fit.grad_norm_history + res.grad_norm_history,
        horizon_history=fit.horizon_history + res.horizon_history,
        n_iterations=fit.n_iterations + res.n_iterations)


def _call_log(path):
    """(record, read): one line per call in ``path``, which forked workers share."""
    def record(line):
        with open(path, "a") as fh:
            fh.write(line + "\n")

    def read():
        return path.read_text().splitlines() if path.exists() else []
    return record, read


def _count_forward_runs(monkeypatch, path):
    """Reader of the ``history`` argument of every forward run, in call order."""
    record, read = _call_log(path)
    real = inversion.simulate_forward

    def counted(*args, **kwargs):
        record("none" if kwargs.get("history") is None else "band")
        return real(*args, **kwargs)

    monkeypatch.setattr(inversion, "simulate_forward", counted)
    return lambda: [None if h == "none" else h for h in read()]


@pytest.mark.parametrize("case", ["bracket", "no_bracket", "line_search_fails",
                                  "matches", "one_diameter"])
def test_reconstruct_matches_reference_flow(setup32, case, monkeypatch, tmp_path):
    domain, optics, truth, obs, _ = setup32
    if case == "one_diameter":
        obs = observe(domain, truth, optics=optics, diams=1.0)
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    # high modes in the guess, so the default penalty is nonzero from the start
    guess = pk.StarInclusion(X0, 0.22, (0.0, 0.01), (0.005, 0.0))
    kw = {"max_iter": 3, "r0_bracket": 1 if case == "bracket" else 0}
    ref_kw = {}
    if case == "line_search_fails":
        # no step can meet this sufficient-decrease condition
        ref_kw = {"armijo": 1e6, "max_backtracks": 2}
        monkeypatch.setattr(inversion, "ARMIJO", 1e6)
        monkeypatch.setattr(inversion, "MAX_BACKTRACKS", 2)
    elif case == "matches":
        guess = truth
    ref = _reference_reconstruct(prob, guess, **kw, **ref_kw)
    read_calls = _count_forward_runs(monkeypatch, tmp_path / "forward_runs")
    res = reconstruct(prob, guess, **kw)
    calls = read_calls()
    assert np.array_equal(res.params_hat, ref.params_hat)
    assert res.misfit_history == ref.misfit_history
    assert res.grad_norm_history == ref.grad_norm_history
    assert res.horizon_history == ref.horizon_history
    assert np.array_equal(res.f_hat, ref.f_hat)
    assert res.inclusion_hat == ref.inclusion_hat
    assert (res.n_iterations, res.converged, res.message) == (
        ref.n_iterations, ref.converged, ref.message)
    assert prob.gamma == 0.0
    if case == "bracket":
        assert res.n_iterations >= 2
        # every trial was accepted: the bracket's 3 misfits, then each
        # stage's start point with history and one run per iteration
        assert len(calls) == 2 * 1 + 1 + 2 + res.n_iterations
        assert all(h is None for h in calls[:3])
        assert all(h is not None for h in calls[3:])
    elif case == "no_bracket":
        assert res.n_iterations >= 2
        assert len(calls) == 2 + res.n_iterations
    elif case == "line_search_fails":
        # each stage's start point, then its 2 rejected trials
        assert res.n_iterations == 0 and "line search failed" in res.message
        assert len(calls) == 2 * (1 + 2)
    elif case == "matches":
        assert res.n_iterations == 0
        assert res.message == "initial guess already matches the data"
        assert len(calls) == 2
    else:
        # a horizon no longer than the window is fitted in one stage
        assert res.n_iterations >= 2
        assert res.horizon_history == [obs.T] * (1 + res.n_iterations)
        assert len(calls) == 1 + res.n_iterations


@pytest.mark.parametrize("error", [ValueError, GeometryError])
def test_line_search_backtracks_only_on_inadmissible_shapes(setup32, monkeypatch,
                                                            error):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    guess = pk.StarInclusion(X0, 0.22, (0.0, 0.01), (0.005, 0.0))
    real = inversion._forward
    points = []

    def first_trial_fails(params, problem, need_history):
        points.append(params.copy())
        if len(points) == 2:        # the line search's first trial
            raise error("injected failure")
        return real(params, problem, need_history)

    monkeypatch.setattr(inversion, "_forward", first_trial_fails)
    if error is GeometryError:
        # an inadmissible shape halves the step and the search goes on
        res = reconstruct(prob, guess, max_iter=1, r0_bracket=0)
        assert res.n_iterations == 1
        assert np.allclose(points[2] - points[0], 0.5 * (points[1] - points[0]),
                           rtol=1e-12, atol=0.0)
    else:
        # any other error is a fault of the run, not of the step
        with pytest.raises(ValueError, match="injected failure") as exc:
            reconstruct(prob, guess, max_iter=1, r0_bracket=0)
        assert type(exc.value) is ValueError
        assert len(points) == 2


def test_reconstruct_pads_guess_of_fewer_modes(setup32):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    # cosine and sine tuples of different lengths, both short of k_max
    guess = pk.StarInclusion(X0, 0.22, (0.0, 0.01), (0.005,))
    res = reconstruct(prob, guess, max_iter=0, r0_bracket=0)
    assert np.array_equal(res.params_hat, [0.22, 0.0, 0.01, 0.0, 0.005, 0.0, 0.0])
    with pytest.raises(ValueError, match="k_max = 3"):
        reconstruct(prob, pk.StarInclusion(X0, 0.22, (0.0, 0.0, 0.0, 0.01)),
                    r0_bracket=0)


def test_zero_budget_takes_one_stage_on_the_full_horizon(setup32, monkeypatch):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    horizons = []
    real = inversion.simulate_forward

    def counted(speed, data, T, **kwargs):
        horizons.append(T)
        return real(speed, data, T, **kwargs)

    monkeypatch.setattr(inversion, "simulate_forward", counted)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.22), max_iter=0, r0_bracket=0)
    assert horizons == [obs.T]
    assert res.horizon_history == [obs.T]
    assert res.n_iterations == 0


def _bracket_window(observed, domain):
    """The bracket's last trace level: one diameter, within the record."""
    N = observed.n_samples - 1
    return min(N, int(np.ceil(domain.diam / observed.dt)))


def _full_horizon_winner(problem, guess_r0, r0_bracket):
    """The radius the bracket picked when it scored the whole trace."""
    h = problem.domain.grid.h_min
    best = (np.inf, guess_r0)
    for j in range(-r0_bracket, r0_bracket + 1):
        trial = np.zeros(1 + 2 * problem.k_max)
        trial[0] = guess_r0 + 2.0 * h * j
        try:
            J = misfit(trial, problem)
        except GeometryError:
            continue
        if J < best[0]:
            best = (J, trial[0])
    return best[1]


def test_reconstruct_logs_bracket_and_iterations(setup32, caplog):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    with caplog.at_level(logging.DEBUG, logger="paikit.inversion"):
        res = reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=1, max_iter=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "paikit.inversion"]
    assert lines[0].startswith("bracket: r0 -> ")
    n_keep = _bracket_window(obs, domain)
    assert lines[0].endswith(f" over {n_keep} of {obs.n_samples - 1} levels)")
    assert [ln.split(":")[0] for ln in lines[1:]] == [
        f"iter {k}" for k in range(1, res.n_iterations + 1)]


def test_reconstruct_read_only_inputs(setup32):
    # the bracket's window is a view of the observed values: a write-protected
    # trace gives the same result, and the guess is left as it was
    domain, optics, _, obs, _ = setup32
    guess = pk.StarInclusion(X0, 0.22, (0.0, 0.01), (0.005, 0.0))
    kept = copy.deepcopy(guess)
    frozen_obs = BoundaryTrace(read_only(obs.values), obs.dt, obs.T,
                               read_only(obs.weights), obs.node_idx, obs.meta)
    results = [reconstruct(InverseProblem(observed=trace, a=0.9, optics=optics,
                                          domain=domain, x0=X0, k_max=3),
                           guess, r0_bracket=1, max_iter=2)
               for trace in (obs, frozen_obs)]
    ref, out = results
    assert np.array_equal(out.params_hat, ref.params_hat)
    assert out.misfit_history == ref.misfit_history
    assert np.array_equal(out.f_hat, ref.f_hat)
    assert guess == kept and not frozen_obs.values.flags.writeable


@pytest.mark.parametrize("r0", [0.18, 0.22, 0.28])
def test_bracket_window_picks_full_horizon_winner(setup32, r0):
    problem = setup32[-1]
    res = reconstruct(problem, pk.StarInclusion(X0, r0), max_iter=0)
    assert res.params_hat[0] == _full_horizon_winner(problem, r0, 5)


def test_bracket_window_picks_full_horizon_winner_demo_config():
    # the bundled 64^2 demo, built as `paikit invert` builds it
    cfg = cli.load_config(cli.Path(cli.__file__).parent / "configs"
                          / "demo_invert.yaml", {})
    domain, truth, speed, optics = cli._setup(cfg, None)
    solver, exp = cfg["solver"], cfg["experiment"]
    data = pk.make_initial_data(optics, speed, domain, beta=solver["beta"])
    observed = pk.simulate_forward(speed, data, cli.horizon(cfg, domain),
                                   ledger=False)[1]
    problem = InverseProblem(observed=observed, a=cfg["geometry"]["contrast"],
                             optics=optics, domain=domain, x0=truth.x0,
                             k_max=exp["k_max"], beta=solver["beta"],
                             gamma=exp["gamma"])
    guess = cli.build_inclusion(exp["guess"], domain)
    assert _bracket_window(observed, domain) < observed.n_samples - 1
    res = reconstruct(problem, guess, max_iter=0, r0_bracket=exp["r0_bracket"])
    assert res.params_hat[0] == _full_horizon_winner(problem, guess.r0,
                                                     exp["r0_bracket"])


def test_bracket_runs_stop_at_the_window(setup32, monkeypatch, tmp_path):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    record, read = _call_log(tmp_path / "forward_runs")
    real = inversion.simulate_forward

    def logged(speed, data, T, **kwargs):
        out = real(speed, data, T, **kwargs)
        record(f"{T!r} {out[1].n_samples}")
        return out

    monkeypatch.setattr(inversion, "simulate_forward", logged)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=1, max_iter=1)
    n_keep = _bracket_window(obs, domain)
    assert n_keep <= obs.n_samples // 4 + 1           # a quarter of the horizon
    window = [repr(n_keep * obs.dt), str(n_keep + 1)]
    I_w = res.horizon_history.count(n_keep * obs.dt) - 1
    assert res.n_iterations == I_w == 1
    runs = [ln.split() for ln in read()]
    # every trial was accepted: the bracket's 3 runs and the window stage's
    # 1 + I_w stop at the window; only the final stage's runs reach obs.T
    assert len(runs) == 3 + (1 + I_w) + 1
    assert runs[:3 + 1 + I_w] == [window] * (3 + 1 + I_w)
    assert runs[3 + 1 + I_w:] == [[repr(obs.T), str(obs.n_samples)]]


def test_window_stage_hands_on_its_point_when_its_line_search_fails(
        setup32, monkeypatch):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    T_w = _bracket_window(obs, domain) * obs.dt
    real = inversion._forward
    runs = []

    def window_fails_after_one_step(params, problem, need_history):
        runs.append((problem.observed.T, params.copy()))
        if problem.observed.T < obs.T and len(runs) > 2:
            raise GeometryError("injected failure")
        return real(params, problem, need_history)

    monkeypatch.setattr(inversion, "_forward", window_fails_after_one_step)
    monkeypatch.setattr(inversion, "MAX_BACKTRACKS", 2)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=0, max_iter=3)
    # the window stage's start point, its accepted step and 2 failed trials;
    # then the full horizon starts from the accepted step and takes the rest
    # of the budget
    assert [T for T, _ in runs[:5]] == [T_w] * 4 + [obs.T]
    assert np.array_equal(runs[4][1], runs[1][1])
    assert res.horizon_history == [T_w] * 2 + [obs.T] * 3
    assert res.n_iterations == 3 and not res.converged
    # the outcome is the full horizon's: its budget ran out
    assert res.message == "max iterations reached"


def test_bracket_raises_on_wrong_length_window(setup32, monkeypatch, tmp_path):
    # a window whose forward runs come out one level short is a bug, not an
    # infeasible radius: the bracket raises it instead of dropping every
    # candidate and keeping the guess
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    read_calls = _count_forward_runs(monkeypatch, tmp_path / "forward_runs")
    counted = inversion.simulate_forward

    def short_window(speed, data, T, **kwargs):
        traj, trace, report = counted(speed, data, T, **kwargs)
        if T < obs.T:
            trace = dataclasses.replace(trace, values=trace.values[:-1])
        return traj, trace, report

    monkeypatch.setattr(inversion, "simulate_forward", short_window)
    with pytest.raises(ValueError, match="forward trace shape"):
        reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=1, max_iter=1)
    calls = read_calls()
    assert calls and all(h is None for h in calls)   # no run past the bracket


def test_reconstruct_disk_small_grid():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 48)
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25)
    obs = observe(domain, truth, optics=optics)
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=2)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.20), max_iter=40)
    # monotone descent; the window fit lands on the truth, so the switch to
    # the full horizon adds roundoff only
    assert np.diff(res.misfit_history).max() <= 1e-12
    assert res.message == "window fit already matches the full horizon"
    assert abs(res.params_hat[0] - 0.25) / 0.25 <= 0.05
    assert hausdorff_distance(res.inclusion_hat, truth) <= 2.0 * domain.grid.h_min
    # reconstructed initial pressure is consistent with the truth's
    sf_t = pk.build_speed_field(truth, 0.9, domain)
    f_t, _ = pk.solve_diffusion(optics, sf_t, domain)
    rel = grid_h1(res.f_hat - f_t, domain.disc) / grid_h1(f_t, domain.disc)
    assert rel <= 0.05


def test_hausdorff_and_symdiff():
    i1 = pk.StarInclusion(X0, 0.25)
    i2 = pk.StarInclusion(X0, 0.30)
    assert hausdorff_distance(i1, i2) == pytest.approx(0.05, abs=1e-4)
    assert symmetric_difference_area(i1, i2) == pytest.approx(
        np.pi * (0.30**2 - 0.25**2), rel=1e-3)
    assert hausdorff_distance(i1, i1) <= 1e-12


def _plain_hausdorff(incl1, incl2, n):
    """The (n, n, 2) expression that ``hausdorff_distance`` evaluates in
    squared form."""
    b1 = incl1.boundary_points(n)
    b2 = incl2.boundary_points(n)
    d12 = np.sqrt(((b1[:, None, :] - b2[None, :, :]) ** 2).sum(-1))
    return float(max(d12.min(axis=1).max(), d12.min(axis=0).max()))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([7, 64, 257, 1024]),
       spread=st.sampled_from([0.1, 0.5]))
def test_hausdorff_matches_plain_expression(seed, n, spread):
    # centres within spread of the middle: nested and crossing shapes, and
    # at 0.5 disjoint ones too
    rng = np.random.default_rng(seed)
    incl = [pk.StarInclusion(tuple(rng.uniform(0.5 - spread, 0.5 + spread, 2)),
                             rng.uniform(0.1, 0.3),
                             tuple(rng.normal(scale=0.01, size=3)),
                             tuple(rng.normal(scale=0.01, size=3)))
            for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "HAUSDORFF_SAMPLES", n)
        assert hausdorff_distance(*incl) == _plain_hausdorff(*incl, n)
        assert hausdorff_distance(incl[0], incl[0]) == 0.0


def test_observed_metadata_validated(setup32):
    domain, optics, _, obs, _ = setup32
    other = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 48)
    with pytest.raises(ValueError, match="resolution"):
        InverseProblem(observed=obs, a=0.9, optics=optics, domain=other,
                       x0=X0, k_max=3)


def test_contrast_range_guard(setup32):
    domain, optics, _, obs, _ = setup32
    with pytest.raises(ValueError, match="contrast|3/4"):
        InverseProblem(observed=obs, a=0.6, optics=optics, domain=domain,
                       x0=X0, k_max=3)


# -- stability scan -------------------------------------------------------------

def test_stability_scan_small():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    optics = pk.OpticalCoefficients()
    # radii spaced by more than twice the smoothing band so every pair
    # differs on fully resolved cells at this coarse grid
    pool = [pk.StarInclusion(X0, 0.14),
            pk.StarInclusion(X0, 0.24, (0.0, 0.02)),
            pk.StarInclusion(X0, 0.34, (0.0, 0.0, 0.02))]
    pairs = [(pool[0], pool[1]), (pool[0], pool[2]), (pool[1], pool[2])]
    report = stability_scan(pairs, 0.9, optics, domain)
    assert len(report.rows) == 3
    assert all(r["p_h1"] > 1e-10 for r in report.rows)
    assert all(r["indicator_sup"] == 1.0 for r in report.rows)
    assert np.isfinite(report.C_emp1) and np.isfinite(report.C_emp2)
    assert report.d_emp > 0
    assert 0.75 <= report.a0_emp < 1.0
    assert report.meta["model_admissible"]


# rows of test_stability_scan_small with every diffusion system solved by a
# direct sparse LU: (p_h1, p_h32, p_weighted_t, f_h1, hausdorff, symdiff_area)
SCAN_SMALL_ROWS = [
    (3.848491349568963, 21.03767988201636, 4.949070871100736,
     4.763079622004747, 0.12, 0.12000883936713007),
    (4.231121325066737, 22.23258069391857, 6.039799058819737,
     5.239277853093653, 0.22000000000000008, 0.30222121327533813),
    (4.66856137202162, 25.41608093832686, 6.696986907781096,
     5.764242963042608, 0.1320520021946759, 0.18221237390820805),
]
SCAN_SMALL_D_EMP = 4.763079622004747
DIFFUSION_RTOL = 1e-10    # the relative residual solve_diffusion's CG stops at


def test_stability_scan_solves_each_diffusion_once(monkeypatch, tmp_path):
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    optics = pk.OpticalCoefficients()
    # equal inclusions built twice: the caches key on the value
    pool = [pk.StarInclusion(X0, 0.14),
            pk.StarInclusion(X0, 0.24, (0.0, 0.02)),
            pk.StarInclusion(X0, 0.34, (0.0, 0.0, 0.02))]
    twin = pk.StarInclusion(X0, 0.14)
    pairs = [(pool[0], pool[1]), (twin, pool[2]), (pool[1], pool[2])]
    record, read = _call_log(tmp_path / "diffusion_solves")
    real = pk.initial_data.solve_diffusion

    def counted(*args, **kwargs):
        record(repr(args[1].inclusion))
        return real(*args, **kwargs)

    monkeypatch.setattr(pk.initial_data, "solve_diffusion", counted)
    report = stability_scan(pairs, 0.9, optics, domain)
    calls = read()
    assert len(calls) == 3
    monkeypatch.undo()

    # the probe on its own, with pressures from separate diffusion solves
    alone = pk.reverse_inequality_probe(optics, pairs, domain,
                                        diffusion_pressure(optics, 0.9, domain))
    assert report.d_emp == alone.d_emp
    # the pressures are CG iterates, as close to the direct solution as the
    # CG tolerance makes them; the shapes' distances do not see the solve
    assert report.d_emp == pytest.approx(SCAN_SMALL_D_EMP, rel=DIFFUSION_RTOL)
    keys = ("p_h1", "p_h32", "p_weighted_t", "f_h1")
    for row, ref in zip(report.rows, SCAN_SMALL_ROWS):
        assert [row[k] for k in keys] == pytest.approx(ref[:4], rel=DIFFUSION_RTOL)
        assert (row["hausdorff"], row["symdiff_area"]) == ref[4:]


def test_stability_scan_rejects_identical_pair(monkeypatch, tmp_path):
    # every pair is checked before the first solve, the last one too
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    incl = pk.StarInclusion(X0, 0.22)
    read_calls = _count_forward_runs(monkeypatch, tmp_path / "forward_runs")
    for pairs in ([(incl, incl)], [(pk.StarInclusion(X0, 0.14), incl), (incl, incl)]):
        with pytest.raises(ValueError, match="fully-resolved"):
            stability_scan(pairs, 0.9, pk.OpticalCoefficients(), domain)
    assert read_calls() == []


def test_stability_scan_read_only_inputs():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    optics = pk.OpticalCoefficients()
    pairs = [(pk.StarInclusion(X0, 0.14), pk.StarInclusion(X0, 0.24, (0.0, 0.02)))]
    beta = read_only(np.full(domain.disc.boundary.idx.size, 1.0))
    ref = stability_scan(pairs, 0.9, optics, domain)
    out = stability_scan(pairs, 0.9, optics, domain, beta=beta)
    assert out.rows == ref.rows
    assert (out.C_emp1, out.C_emp2, out.d_emp, out.a0_emp, out.meta) == (
        ref.C_emp1, ref.C_emp2, ref.d_emp, ref.a0_emp, ref.meta)


def test_contrast_sweep_trend():
    # the trace difference is dominated by the optical contrast of the two
    # initial pressures, which does not involve a; the contrast dependence
    # shows up in the ratio (1-a)/||p1-p2||_H1 instead
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    optics = pk.OpticalCoefficients()
    pair = [(pk.StarInclusion(X0, 0.18), pk.StarInclusion(X0, 0.30))]
    sweep = (0.80, 0.85, 0.90, 0.95)
    h1, ratio = [], []
    for a in sweep:
        rep = stability_scan(pair, a, optics, domain)
        h1.append(rep.rows[0]["p_h1"])
        ratio.append(rep.C_emp1)
    assert all(v > 1e-10 and np.isfinite(v) for v in h1)
    assert all(np.diff(ratio) < 0)  # (1-a)/data shrinks linearly with 1-a
    spread = (max(h1) - min(h1)) / max(h1)
    assert spread <= 0.2  # data difference carried by the optics, not by a
