import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit import inversion
from paikit.geometry import GeometryError
from paikit.initial_data import InitialData, as_boundary_beta
from paikit.inversion import (InverseProblem, adjoint_gradient,
                              hausdorff_distance, misfit, reconstruct,
                              stability_scan, symmetric_difference_area)
from paikit.norms import grid_h1
from paikit.wave_forward import BoundaryTrace, NumericalError, trace_norms
from conftest import diffusion_pressure, read_only


X0 = (0.5, 0.5)


def observe(domain, inclusion, a=0.9, optics=None):
    optics = optics or pk.OpticalCoefficients()
    sf = pk.build_speed_field(inclusion, a, domain)
    data = pk.make_initial_data(optics, sf, domain)
    return pk.simulate_forward(sf, data, 4.0 * domain.diam)[1]


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


def test_misfit_locally_quadratic():
    # the quadratic model needs the probe step inside the smoothed interface
    # band (2 dx <= eps/4); the pressure jump makes the trace misfit grow
    # like |delta| once the front moves by more than its own width
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 64)
    optics = pk.OpticalCoefficients()
    h = domain.grid.h_min
    eps = 8.0 * h
    truth = pk.StarInclusion(X0, 0.25, (0.0, 0.0, 0.03), smoothing_width=eps)
    sf = pk.build_speed_field(truth, 0.9, domain, eps=eps)
    data = pk.make_initial_data(optics, sf, domain)
    obs = pk.simulate_forward(sf, data, 4.0 * domain.diam)[1]
    problem = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                             x0=X0, k_max=3, gamma=0.0, eps=eps)
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


def full_history_adjoint(fw, problem):
    """Reverse sweep over the whole field's forward history (the reference).

    Reruns the forward problem keeping every node, sweeps back with fresh
    temporaries in every step and restricts ``m_bar`` to the band at the end.
    """
    disc = problem.domain.disc
    beta_b = as_boundary_beta(problem.beta, disc)
    traj = pk.simulate_forward(fw.speed, fw.data, problem.observed.T,
                               cfl=problem.cfl, history=slice(None),
                               check_compat=False)[0]
    p = traj.states
    assert np.array_equal(p[:, fw.band], fw.states)
    N, dt = fw.N, fw.dt
    b_idx = disc.boundary.idx
    K = disc.K
    M = fw.speed.c_inv2 * disc.w_vol
    C = np.zeros(disc.n_nodes)
    C[b_idx] = beta_b * disc.boundary.weights
    A_plus = M / dt**2 + C / (2.0 * dt)
    A_minus = M / dt**2 - C / (2.0 * dt)
    r = inversion._trace_form(problem, N + 1, dt).apply(
        fw.trace - problem.observed.values)

    def seed(n):
        out = np.zeros(disc.n_nodes)
        out[b_idx] = r[n]
        return out

    M_bar = np.zeros(disc.n_nodes)
    bar_next, bar_cur = seed(N), seed(N - 1)
    for n in range(N - 1, 0, -1):
        t = bar_next / A_plus
        bar_cur += (2.0 / dt**2) * (M * t) - K @ t
        bar_prev = seed(n - 1) - A_minus * t
        M_bar += t * (2.0 * p[n] - p[n + 1] - p[n - 1]) / dt**2
        bar_next, bar_cur = bar_cur, bar_prev
    u1 = bar_next
    w = 0.5 * dt**2 * (u1 / M)
    f_bar = bar_cur + u1 - K @ w
    g_bar = dt * u1 - C * w
    r0 = -(K @ fw.data.f) - C * fw.data.g
    M_bar += -0.5 * dt**2 * u1 * r0 / (M * M)
    return f_bar, g_bar, (M_bar * disc.w_vol)[fw.band]


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
    assert fw.states.shape == (fw.N + 1, fw.band.size)
    J, grad = adjoint_gradient(guess, problem)
    monkeypatch.setattr(inversion, "_wave_adjoint", full_history_adjoint)
    J_ref, grad_ref = adjoint_gradient(guess, problem)
    assert J == J_ref
    assert np.array_equal(grad, grad_ref)


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


def _reference_reconstruct(problem, initial_guess, *, max_iter=100, tol_g=1e-6,
                           lbfgs_mem=8, max_backtracks=30, armijo=1e-4,
                           r0_bracket=5):
    """``reconstruct`` as it ran each point's forward up to three times: the
    public ``misfit`` in the line search, ``adjoint_gradient`` again at the
    accepted point and at the regularization restart, and a fresh diffusion
    solve for ``f_hat``."""
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
            except (GeometryError, ValueError):
                step *= 0.5
                continue
            if J_trial <= J + armijo * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = "line search failed after 30 backtracks"
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
    speed_hat = pk.build_speed_field(incl_hat, problem.a, problem.domain,
                                     eps=problem.eps)
    data_hat = pk.make_initial_data(problem.optics, speed_hat, problem.domain,
                                    beta=problem.beta)
    return inversion.ReconstructionResult(
        inclusion_hat=incl_hat, params_hat=params,
        misfit_history=misfit_history, grad_norm_history=grad_history,
        n_iterations=it, converged=converged, message=message,
        f_hat=data_hat.f)


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
                                  "matches"])
def test_reconstruct_matches_reference_flow(setup32, case, monkeypatch, tmp_path):
    domain, optics, truth, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    # high modes in the guess, so the default penalty is nonzero from the start
    guess = pk.StarInclusion(X0, 0.22, (0.0, 0.01), (0.005, 0.0))
    kw = {"max_iter": 3, "r0_bracket": 1 if case == "bracket" else 0}
    if case == "line_search_fails":
        # no step can meet this sufficient-decrease condition
        kw.update(armijo=1e6, max_backtracks=2)
    elif case == "matches":
        guess = truth
    ref = _reference_reconstruct(prob, guess, **kw)
    read_calls = _count_forward_runs(monkeypatch, tmp_path / "forward_runs")
    res = reconstruct(prob, guess, **kw)
    calls = read_calls()
    assert np.array_equal(res.params_hat, ref.params_hat)
    assert res.misfit_history == ref.misfit_history
    assert res.grad_norm_history == ref.grad_norm_history
    assert np.array_equal(res.f_hat, ref.f_hat)
    assert res.inclusion_hat == ref.inclusion_hat
    assert (res.n_iterations, res.converged, res.message) == (
        ref.n_iterations, ref.converged, ref.message)
    assert prob.gamma == 0.0
    if case == "bracket":
        assert res.n_iterations >= 2
        # every trial was accepted: the bracket's 3 misfits, its winner
        # with history, then one run per iteration
        assert len(calls) == 2 * 1 + 2 + res.n_iterations
        assert all(h is None for h in calls[:3])
        assert all(h is not None for h in calls[3:])
    elif case == "no_bracket":
        assert res.n_iterations >= 2
        assert len(calls) == 1 + res.n_iterations
    elif case == "line_search_fails":
        assert res.n_iterations == 0 and "line search failed" in res.message
        assert len(calls) == 1 + 2
    else:
        assert res.n_iterations == 0 and "matches" in res.message
        assert len(calls) == 1


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


def test_reconstruct_logs_bracket_and_iterations(setup32, caplog):
    domain, optics, _, obs, _ = setup32
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=3)
    with caplog.at_level(logging.DEBUG, logger="paikit.inversion"):
        res = reconstruct(prob, pk.StarInclusion(X0, 0.22), r0_bracket=1, max_iter=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "paikit.inversion"]
    assert lines[0].startswith("bracket: r0 -> ")
    assert [ln.split(":")[0] for ln in lines[1:]] == [
        f"iter {k}" for k in range(1, res.n_iterations + 1)]


def test_reconstruct_disk_small_grid():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 48)
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25)
    obs = observe(domain, truth, optics=optics)
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=domain,
                          x0=X0, k_max=2)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.20), max_iter=40)
    assert np.diff(res.misfit_history).max() <= 1e-12  # monotone descent
    assert abs(res.params_hat[0] - 0.25) / 0.25 <= 0.05
    assert hausdorff_distance(res.inclusion_hat, truth) <= 2.0 * domain.grid.h_min
    # reconstructed initial pressure is consistent with the truth's
    sf_t = pk.build_speed_field(truth, 0.9, domain)
    f_t = pk.solve_diffusion(optics, sf_t, domain)
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
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([7, 64, 257, 1024]))
def test_hausdorff_matches_plain_expression(seed, n):
    rng = np.random.default_rng(seed)
    incl = [pk.StarInclusion(tuple(rng.uniform(0.4, 0.6, 2)), rng.uniform(0.1, 0.3),
                             tuple(rng.normal(scale=0.01, size=3)),
                             tuple(rng.normal(scale=0.01, size=3)))
            for _ in range(2)]
    assert hausdorff_distance(*incl, n=n) == _plain_hausdorff(*incl, n)
    assert hausdorff_distance(incl[0], incl[0], n=n) == 0.0


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


# rows of test_stability_scan_small as computed when the probe ran its own
# diffusion solves and the harmonic extension used Jacobi-CG:
# (p_h1, p_h32, p_weighted_t, f_h1, hausdorff, symdiff_area)
SCAN_SMALL_ROWS = [
    (3.9227062879271255, 20.65532401414197, 4.996812781605236,
     4.763079622011869, 0.12, 0.12000883936713007),
    (4.307316209096707, 21.862220240174977, 6.0922016764250095,
     5.239277853095753, 0.22000000000000008, 0.30222121327533813),
    (4.758081463306887, 24.955756634726942, 6.7613781344307045,
     5.764242963063214, 0.1320520021946759, 0.18221237390820805),
]
SCAN_SMALL_D_EMP = 4.763079622011869


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
    assert report.d_emp == pytest.approx(SCAN_SMALL_D_EMP, rel=1e-12)
    keys = ("p_h1", "p_h32", "p_weighted_t", "f_h1", "hausdorff", "symdiff_area")
    for row, ref in zip(report.rows, SCAN_SMALL_ROWS):
        assert [row[k] for k in keys] == pytest.approx(ref, rel=1e-12)


def test_stability_scan_rejects_identical_pair():
    domain = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
    incl = pk.StarInclusion(X0, 0.22)
    with pytest.raises(ValueError, match="fully-resolved"):
        stability_scan([(incl, incl)], 0.9, pk.OpticalCoefficients(), domain)


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
