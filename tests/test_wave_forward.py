import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.initial_data import InitialData, as_boundary_beta
from paikit.norms import grid_h1, grid_l2, time_derivative
from paikit.wave_dirichlet import DirichletProblem, dirichlet_leapfrog
from paikit.wave_forward import (CFLError, Leapfrog, NumericalError, n_steps_for,
                                 stable_dt, time_grid)
from paikit.verdicts import judge
from conftest import eigenmode, weighted_l2


def make_data(domain, f, g, beta=1.0):
    return InitialData(f, g, as_boundary_beta(beta, domain.disc))


def model_data(domain, inclusion, a=0.9, beta=1.0):
    sf = pk.build_speed_field(inclusion, a, domain)
    data = pk.make_initial_data(pk.OpticalCoefficients(), sf, domain, beta=beta)
    return sf, data


def test_constant_pressure_is_steady(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    data = make_data(unit_square_32, np.full(disc.n_nodes, 2.5),
                     np.zeros(disc.n_nodes), beta=3.0)
    traj, trace, erep = pk.simulate_forward(sf, data, 1.0)
    assert np.abs(trace.values - 2.5).max() <= 1e-12
    assert np.abs(traj.final_state[0] - 2.5).max() <= 1e-12


def test_energy_decay_and_exact_dissipation(unit_square_48, disk_inclusion):
    sf, data = model_data(unit_square_48, disk_inclusion)
    _, _, erep = pk.simulate_forward(sf, data, 2.0 * unit_square_48.diam)
    passed, bound, _ = judge("energy_nonincreasing", np.diff(erep.E).max(),
                             scale=erep.E0)
    assert passed, f"energy rose by {np.diff(erep.E).max():.3e} > {bound:.3e}"
    assert erep.identity_defect <= 1e-10 * erep.E0
    assert np.all(erep.dissipation <= 0.0)


def test_large_damping_suppresses_boundary_motion(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    pts = unit_square_32.grid.coords
    f = np.exp(-40 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2))
    outs = {}
    for beta in (1.0, 1e3):
        g = pk.harmonic_g(f, beta, unit_square_32)
        data = make_data(unit_square_32, f, g, beta)
        _, trace, erep = pk.simulate_forward(sf, data, 2.0)
        outs[beta] = (np.abs(time_derivative(trace.values, trace.dt)).max(),
                      erep.E[-1] / erep.E0)
    assert outs[1e3][0] < 0.1 * outs[1.0][0]    # dt p driven toward zero
    assert outs[1e3][1] > outs[1.0][1]          # energy decays slower


def test_trace_scaling_linearity(unit_square_32, disk_inclusion):
    sf, data = model_data(unit_square_32, disk_inclusion)
    lam = 3.7
    scaled = InitialData(lam * data.f, lam * data.g, data.beta)
    _, tr1, _ = pk.simulate_forward(sf, data, 1.0)
    _, tr2, _ = pk.simulate_forward(sf, scaled, 1.0)
    assert np.abs(tr2.values - lam * tr1.values).max() <= 1e-12 * np.abs(tr2.values).max()


def test_stability_constant_reported(unit_square_32, disk_inclusion):
    sf, data = model_data(unit_square_32, disk_inclusion)
    _, _, erep = pk.simulate_forward(sf, data, 1.0)
    disc = unit_square_32.disc
    scale = grid_h1(data.f, disc) ** 2 + grid_l2(data.g, disc) ** 2
    assert erep.c_run == pytest.approx(erep.E.max() / scale)


def test_both_families_carry_operator_and_run(unit_square_32, disk_inclusion):
    sf, data = model_data(unit_square_32, disk_inclusion)
    disc = unit_square_32.disc
    pts = disc.grid.coords
    u0 = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    z = np.zeros(disc.n_nodes)
    traj, trace, erep = pk.simulate_forward(sf, data, 1.0)
    dtraj, dtrace = pk.simulate_dirichlet(pk.DirichletProblem(sf, u0, z, 1.0))
    for tr, tc in ((traj, trace), (dtraj, dtrace)):
        assert tr.operator is not None and tr.run is not None
        assert tr.n_steps == tr.operator.N == tc.n_samples - 1
        assert tr.dt == tc.dt
    # the Dirichlet run's operator is the pinned-boundary leapfrog on its grid
    ii = disc.inside_idx
    x0 = u0[ii]
    for op in (dtraj.operator, dirichlet_leapfrog(sf, dtraj.n_steps, dtraj.dt)):
        run = op.run(x0, op.start(x0, z[ii]))
        assert np.array_equal(run.watched, dtraj.run.watched)
        assert np.array_equal(run.tail, dtraj.run.tail)
    scale = grid_h1(data.f, disc) ** 2 + grid_l2(data.g, disc) ** 2
    assert erep.c_run == erep.E.max() / scale


def test_compat_precondition_enforced(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    pts = disc.grid.coords
    f = pts[:, 0] ** 2
    data = make_data(unit_square_32, f, np.zeros(disc.n_nodes))
    with pytest.raises(ValueError, match="beta g"):
        pk.simulate_forward(sf, data, 0.5)


def test_cfl_guard(unit_square_32, disk_inclusion):
    sf, data = model_data(unit_square_32, disk_inclusion)
    with pytest.raises(CFLError):
        pk.simulate_forward(sf, data, 1.0, cfl=0.9)


def _step_spectral_radius(K, M, dt):
    """``dt^2 lambda_max(M^-1 K)``, from the symmetric ``M^-1/2 K M^-1/2``."""
    s = sp.diags(1.0 / np.sqrt(M))
    S = (s @ sp.csr_matrix(K) @ s).tocsr()
    return dt**2 * float(eigsh(S, k=1, which="LA", return_eigenvectors=False)[0])


@pytest.mark.parametrize("case", ["rectangle_damped", "rectangle_dirichlet",
                                  "disk", "ball"])
def test_default_step_is_stable_with_a_margin(case, disk_inclusion):
    # the leapfrog is stable up to dt^2 lambda_max(M^-1 K) = 4; the default
    # factors give about 3.4 in 2-d and 3 in 3-d
    if case == "ball":
        dom, incl = pk.Domain.disk((0.0, 0.0, 0.0), 1.0, 12), None
    elif case == "disk":
        dom = pk.Domain.disk((0.0, 0.0), 1.0, 32)
        incl = pk.StarInclusion((0.1, -0.1), 0.4)
    else:
        dom, incl = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32), disk_inclusion
    sf = pk.build_speed_field(incl, 0.9, dom)
    disc = dom.disc
    _, dt = time_grid(sf, 4 * dom.diam)
    M = sf.c_inv2 * disc.w_vol
    if case == "rectangle_damped":
        K = disc.K_step
    else:
        K, M = disc.K_ii_step, M[disc.inside_idx]
    assert _step_spectral_radius(K, M, dt) <= 3.6


def test_default_factor_is_no_less_accurate_than_half(unit_square_32):
    # the standing mode at c = 1 and zero data is cos(sqrt(2) pi t) times
    # the mode; the leapfrog's time error and the 5-point stencil's space
    # error shift its frequency in opposite directions
    sf = pk.build_speed_field(None, 1.0, unit_square_32)
    u0, lam = eigenmode(unit_square_32)
    T = 4 * unit_square_32.diam

    def run(**kw):
        problem = DirichletProblem(sf, u0, np.zeros_like(u0), T, **kw)
        traj, _ = pk.simulate_dirichlet(problem)
        err = weighted_l2(unit_square_32, traj.final_state[0] - np.cos(lam * T) * u0)
        return err, traj.n_steps

    (err, N), (err_half, N_half) = run(), run(cfl=0.5)
    assert N < N_half
    assert err <= err_half


@pytest.mark.parametrize("dim", [2, 3])
def test_default_factor_binds_to_the_time_grid_step_count(dim):
    # a caller that binds the default cfl of simulate_forward or of
    # DirichletProblem and counts the steps through stable_dt finds N of
    # time_grid, at a horizon that takes MIN_STEPS too
    dom = pk.Domain.rectangle((0.0,) * dim, (1.0,) * dim, 8)
    sf = pk.build_speed_field(None, 1.0, dom)
    z = np.zeros(dom.grid.n_nodes)
    for T in (1e-3, 1.0, 4 * dom.diam):
        bound = inspect.signature(pk.simulate_forward).bind(sf, None, T)
        bound.apply_defaults()
        N = time_grid(sf, T)[0]
        for cfl in (bound.arguments["cfl"], DirichletProblem(sf, z, z, T).cfl):
            assert n_steps_for(T, stable_dt(dom, sf.c_max, cfl)) == N


@pytest.mark.parametrize("solver", ["damped", "dirichlet"])
@pytest.mark.parametrize("T", [0.0, -0.5, np.inf, np.nan])
def test_bad_horizon_rejected(unit_square_32, solver, T):
    sf = pk.build_speed_field(None, 1.0, unit_square_32)
    z = np.zeros(unit_square_32.grid.n_nodes)
    with pytest.raises(ValueError, match="T="):
        if solver == "damped":
            pk.simulate_forward(sf, make_data(unit_square_32, z, z), T)
        else:
            pk.simulate_dirichlet(pk.DirichletProblem(sf, z, z, T))


@pytest.fixture(scope="module")
def square12_uniform():
    return pk.build_speed_field(None, 1.0, pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 12))


@pytest.mark.parametrize("solver", ["damped", "dirichlet"])
@pytest.mark.parametrize("n_steps", [0, 1, 2, 3])
def test_fewer_than_four_steps_rejected(square12_uniform, solver, n_steps):
    # the final velocity reads levels N, N-1 and N-2 of a run of N >= 4
    # steps, so the operator refuses a shorter time grid
    sf = square12_uniform
    disc = sf.domain.disc
    with pytest.raises(ValueError, match=f"n_steps={n_steps} is below"):
        if solver == "damped":
            Leapfrog(disc.K_step, sf.c_inv2 * disc.w_vol, n_steps, 1e-3,
                     disc.boundary.idx, disc.boundary.weights)
        else:
            dirichlet_leapfrog(sf, n_steps, 1e-3)


def test_short_horizon_takes_four_steps(square12_uniform):
    sf = square12_uniform
    disc = sf.domain.disc
    z = np.zeros(disc.n_nodes)
    traj, _, _ = pk.simulate_forward(sf, make_data(sf.domain, z, z), 1e-3)
    assert traj.n_steps == 4
    # unit interior velocity: x = t far from the boundary, so x' = 1 there
    u1 = disc.scatter(np.ones(disc.inside_idx.size))
    traj, _ = pk.simulate_dirichlet(pk.DirichletProblem(sf, z, u1, 1e-3))
    assert traj.n_steps == 4
    centre = disc.grid.n_nodes // 2
    assert traj.final_velocity[centre] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", ["u0", "u1", "phi0", "f", "g", "ratio-u0", "ratio-u1"])
@pytest.mark.parametrize("size", [-3, 1])
def test_misshaped_field_rejected(square12_uniform, name, size):
    sf = square12_uniform
    dom = sf.domain
    n = dom.grid.n_nodes
    fields = {k: np.zeros(n) for k in ("u0", "u1", "phi0", "f", "g")}
    field = name.removeprefix("ratio-")
    fields[field] = np.zeros(n + size)
    with pytest.raises(ValueError, match=rf"^{field} must have shape \({n},\)"):
        if name.startswith("ratio-"):
            pk.observability_ratio(sf, fields["u0"], fields["u1"], None,
                                   4.0 * dom.diam, (0.5, 0.5))
        elif name in ("u0", "u1"):
            pk.DirichletProblem(sf, fields["u0"], fields["u1"], 1.0)
        elif name == "phi0":
            pk.ControlProblem(sf, fields["phi0"], 4.0 * dom.diam)
        else:
            pk.simulate_forward(sf, make_data(dom, fields["f"], fields["g"]), 1.0)


def test_nonfinite_field_aborts_with_step(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    f = np.zeros(disc.n_nodes)
    f[disc.inside_idx[0]] = np.nan
    data = make_data(unit_square_32, f, np.zeros(disc.n_nodes))
    with pytest.raises(NumericalError, match="step"):
        pk.simulate_forward(sf, data, 2.0, check_compat=False)


def _damped_system(speed, data, T):
    """``(N, dt, K, M, C)`` of the damped run, C over every node."""
    disc = speed.domain.disc
    N, dt = time_grid(speed, T)
    C = np.zeros(disc.n_nodes)
    C[disc.boundary.idx] = data.beta * disc.boundary.weights
    return N, dt, disc.K, speed.c_inv2 * disc.w_vol, C


def _reference_forward(speed, data, T, history):
    """The stepping loop with fresh temporaries in every step and the ledger
    over every node: the reference for the in-place one."""
    disc = speed.domain.disc
    N, dt, K, M, C = _damped_system(speed, data, T)
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
    f, g = data.f, data.g
    p_prev = f.copy()
    d2f = 2.0 * f - (B @ f) / D                             # A f
    d2f[b_idx] += (dt**2 / M[b_idx]) * (C[b_idx] * g[b_idx])
    p_cur = f + dt * g - 0.5 * d2f
    trace_vals = np.empty((N + 1, b_idx.size))
    trace_vals[0] = p_prev[b_idx]
    trace_vals[1] = p_cur[b_idx]
    E = np.empty(N)
    diss = np.empty(N - 1)
    v = (p_cur - p_prev) / dt
    E[0] = float(((v * v) @ M) + p_cur @ (K @ p_prev))
    states = np.empty((N + 1, p_cur[history].size))
    states[0], states[1] = p_prev[history], p_cur[history]
    for n in range(1, N):
        Bp = B @ p_cur
        p_next = Bp - q * p_prev
        dlt = (p_next - p_prev) / (2.0 * dt)
        diss[n - 1] = -2.0 * float(dlt @ (C * dlt))
        vv = (p_next - p_cur) / dt
        Kp = (2.0 * p_cur - Bp / D) * M / dt**2
        E[n] = float(((vv * vv) @ M) + p_next @ Kp)
        trace_vals[n + 1] = p_next[b_idx]
        states[n + 1] = p_next[history]
        p_older, p_prev, p_cur = p_prev, p_cur, p_next
    return {"trace": trace_vals, "final_state": (p_cur, p_prev),
            "final_velocity": (3.0 * p_cur - 4.0 * p_prev + p_older) / (2.0 * dt),
            "states": states, "E": E, "dissipation": diss}


def _damped_order_forward(speed, data, T):
    """The loop that solved ``A_plus p[n+1] = (2 / dt^2) M p[n] - K p[n] -
    A_minus p[n-1]`` on every node before the two boundary conditions
    shared one step: the same scheme, rounded another way."""
    disc = speed.domain.disc
    N, dt, K, M, C = _damped_system(speed, data, T)
    A_minus = M / dt**2 - C / (2.0 * dt)
    inv_Ap = 1.0 / (M / dt**2 + C / (2.0 * dt))
    b_idx = disc.boundary.idx
    f, g = data.f, data.g
    p_prev = f.copy()
    p_cur = f + dt * g + 0.5 * dt**2 * ((-(K @ f) - C * g) / M)
    trace_vals = np.empty((N + 1, b_idx.size))
    trace_vals[0], trace_vals[1] = p_prev[b_idx], p_cur[b_idx]
    E = np.empty(N)
    v = (p_cur - p_prev) / dt
    E[0] = float(v @ (M * v) + p_cur @ (K @ p_prev))
    for n in range(1, N):
        Kp = K @ p_cur
        p_next = ((2.0 / dt**2) * (M * p_cur) - Kp - A_minus * p_prev) * inv_Ap
        vv = (p_next - p_cur) / dt
        E[n] = float(vv @ (M * vv) + p_next @ Kp)
        trace_vals[n + 1] = p_next[b_idx]
        p_prev, p_cur = p_cur, p_next
    return {"trace": trace_vals, "final_state": (p_cur, p_prev), "E": E}


def _damped_order_transpose(speed, data, T, r, p):
    """The sweep back through ``_damped_order_forward`` with the full forward
    history ``p``: returns ``(f_bar, g_bar, p1_bar, m_bar)``, m_bar on every
    node."""
    N, dt, K, M, C = _damped_system(speed, data, T)
    A_plus = M / dt**2 + C / (2.0 * dt)
    A_minus = M / dt**2 - C / (2.0 * dt)
    b_idx = speed.domain.disc.boundary.idx

    def seed(n):
        out = np.zeros(M.size)
        out[b_idx] = r[n]
        return out

    m_bar = np.zeros(M.size)
    bar_next, bar_cur = seed(N), seed(N - 1)
    for n in range(N - 1, 0, -1):
        t = bar_next / A_plus
        bar_cur += (2.0 / dt**2) * (M * t) - K @ t
        bar_prev = seed(n - 1) - A_minus * t
        m_bar += t * (2.0 * p[n] - p[n + 1] - p[n - 1]) / dt**2
        bar_next, bar_cur = bar_cur, bar_prev
    u1 = bar_next
    w = 0.5 * dt**2 * (u1 / M)
    return bar_cur + u1 - K @ w, dt * u1 - C * w, u1, m_bar


@pytest.mark.parametrize("beta", ["scalar", "per-node"])
@pytest.mark.parametrize("history", ["full", "subset"])
def test_in_place_loop_matches_reference(unit_square_32, disk_inclusion, beta,
                                         history):
    disc = unit_square_32.disc
    if beta == "scalar":
        beta = 1.7
    else:
        beta = np.random.default_rng(5).uniform(0.5, 3.0, disc.boundary.idx.size)
    sf, data = model_data(unit_square_32, disk_inclusion, beta=beta)
    if history == "full":
        history = slice(None)
    else:
        history = np.random.default_rng(6).choice(disc.n_nodes, 97, replace=False)
    T = 1.5 * unit_square_32.diam
    ref = _reference_forward(sf, data, T, history)
    traj, trace, erep = pk.simulate_forward(sf, data, T, history=history)
    lean, lean_trace, none = pk.simulate_forward(sf, data, T, history=history,
                                                 ledger=False)
    for run, tr in ((traj, trace), (lean, lean_trace)):
        assert np.array_equal(tr.values, ref["trace"])
        assert all(np.array_equal(a, b)
                   for a, b in zip(run.final_state, ref["final_state"]))
        assert np.array_equal(run.final_velocity, ref["final_velocity"])
        assert np.array_equal(run.states, ref["states"])
    assert np.array_equal(erep.E, ref["E"])
    d_ref = ref["dissipation"]
    assert np.abs(erep.dissipation - d_ref).max() <= 1e-14 * np.abs(d_ref).max()
    assert none is None and erep.c_run > 0.0


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("beta", [1.7, 1e3])
def test_step_order_moves_results_at_roundoff(unit_square_32, disk_inclusion, beta):
    # the blended step and the damped order are one scheme: the trace, the
    # final state and the ledger agree to roundoff, and a wrong blend weight
    # moves them far beyond it
    sf, data = model_data(unit_square_32, disk_inclusion, beta=beta)
    T = 1.5 * unit_square_32.diam
    ref = _damped_order_forward(sf, data, T)
    traj, trace, erep = pk.simulate_forward(sf, data, T, history=slice(None))
    assert _rel(trace.values, ref["trace"]) <= 1e-12
    assert all(_rel(a, b) <= 1e-12 for a, b in zip(traj.final_state, ref["final_state"]))
    assert _rel(erep.E, ref["E"]) <= 1e-12
    # the transpose with m_bar on every node, the damped boundary nodes too,
    # where M also enters through the blend weight
    r = np.random.default_rng(2).normal(size=trace.values.shape)
    every = np.arange(unit_square_32.disc.n_nodes)
    out = traj.operator.transpose(r, band=every, states=traj.states)
    for new, old in zip(out, _damped_order_transpose(sf, data, T, r, traj.states)):
        assert _rel(new, old) <= 1e-12


@pytest.fixture(scope="module")
def square12_speed():
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 12)
    return pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.25), 0.8, dom)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_damped_transpose_property(square12_speed, seed):
    # <J(f, g), r> = <(f, g), J' r> for the linear map J: (f, g) -> trace
    disc = square12_speed.domain.disc
    rng = np.random.default_rng(seed)
    f, g = rng.normal(size=(2, disc.n_nodes))
    beta = rng.uniform(0.2, 5.0, disc.boundary.idx.size)
    traj, trace, _ = pk.simulate_forward(square12_speed, InitialData(f, g, beta),
                                         4.0 * square12_speed.domain.diam,
                                         check_compat=False, ledger=False)
    r = rng.normal(size=trace.values.shape)
    f_bar, g_bar, _, m_bar = traj.operator.transpose(r)
    lhs = float((trace.values * r).sum())
    rhs = float(f @ f_bar + g @ g_bar)
    # Cauchy-Schwarz bound of lhs: a near-zero draw of lhs does not count
    scale = np.linalg.norm(trace.values) * np.linalg.norm(r)
    assert abs(lhs - rhs) <= 1e-12 * scale
    assert m_bar is None


def test_interior_scheme_residual_order(unit_square_32):
    # manufactured eigenmode: the leapfrog residual shrinks at O(h^2 + dt^2)
    errs = []
    for n in (24, 48):
        dom = pk.Domain.rectangle((0, 0), (1, 1), n)
        disc = dom.disc
        sf = pk.build_speed_field(None, 1.0, dom)
        pts = disc.grid.coords
        u = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        lam = np.pi * np.sqrt(2.0)
        dt = 0.5 * dom.grid.h_min / np.sqrt(2.0)
        M = sf.c_inv2 * disc.w_vol
        res = (M * u * (np.cos(lam * dt) - 2 + np.cos(lam * dt)) / dt**2
               + disc.K @ u)
        inner = disc.inside_idx
        errs.append(np.abs(res[inner] / disc.w_vol[inner]).max())
    assert errs[1] <= errs[0] / 3.0


# -- trace norms --------------------------------------------------------------

def test_trace_norms_zero_and_homogeneous(unit_square_32, disk_inclusion):
    sf, data = model_data(unit_square_32, disk_inclusion)
    _, trace, _ = pk.simulate_forward(sf, data, 1.0)
    zero = pk.BoundaryTrace(np.zeros_like(trace.values), trace.dt, 1.0,
                            trace.weights, trace.node_idx)
    tn0 = pk.trace_norms(zero, unit_square_32)
    assert all(v == 0.0 for v in tn0.values())
    tn1 = pk.trace_norms(trace, unit_square_32)
    double = pk.BoundaryTrace(2.0 * trace.values, trace.dt, 1.0,
                              trace.weights, trace.node_idx)
    tn2 = pk.trace_norms(double, unit_square_32)
    for key in tn1:
        assert tn2[key] == pytest.approx(2.0 * tn1[key], rel=1e-12)


def test_trace_h1_matches_analytic_sine(unit_square_32):
    disc = unit_square_32.disc
    T = 2.0
    vals = {}
    for n_t in (400, 800):
        dt = T / n_t
        t = np.arange(n_t + 1) * dt
        y = np.sin(2 * np.pi * t / T)[:, None] * np.ones((1, disc.boundary.idx.size))
        tr = pk.BoundaryTrace(y, dt, T, disc.boundary.weights, disc.boundary.idx)
        vals[n_t] = pk.trace_norms(tr, unit_square_32)["h1"]
    w = 2 * np.pi / T
    exact = np.sqrt(4.0 * (T / 2 + w**2 * T / 2))  # |bdry| = 4, int sin^2 = T/2
    assert vals[800] == pytest.approx(exact, rel=1e-4)
    assert abs(vals[800] - exact) <= 0.3 * abs(vals[400] - exact)


def test_trace_too_short_rejected(unit_square_32):
    disc = unit_square_32.disc
    y = np.zeros((3, disc.boundary.idx.size))
    tr = pk.BoundaryTrace(y, 0.1, 0.3, disc.boundary.weights, disc.boundary.idx)
    with pytest.raises(ValueError, match="short"):
        pk.trace_norms(tr, unit_square_32)
