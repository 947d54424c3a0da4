import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.wave_dirichlet import DirichletProblem, dirichlet_leapfrog
from paikit.wave_forward import time_grid
from conftest import eigenmode, read_only, weighted_l2


def test_zero_data_stays_zero(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    z = np.zeros(unit_square_32.grid.n_nodes)
    traj, ntr = pk.simulate_dirichlet(DirichletProblem(sf, z, z, 1.0))
    assert np.abs(traj.final_state[0]).max() == 0.0
    assert np.abs(ntr.values).max() == 0.0


def test_eigenmode_second_order():
    errs = {}
    T = 1.0
    for n in (32, 64):
        dom = pk.Domain.rectangle((0, 0), (1, 1), n)
        sf = pk.build_speed_field(None, 1.0, dom)
        u0, lam = eigenmode(dom)
        traj, _ = pk.simulate_dirichlet(
            DirichletProblem(sf, u0, np.zeros_like(u0), T))
        exact = np.cos(lam * T) * u0
        errs[n] = weighted_l2(dom, traj.final_state[0] - exact)
    order = np.log2(errs[32] / errs[64])
    assert order >= 1.9


def test_boundary_pulse_finite_speed(unit_square_48):
    dom = unit_square_48
    disc = dom.disc
    h = dom.grid.h_min
    sf = pk.build_speed_field(None, 1.0, dom)
    bd = disc.boundary
    pts = disc.grid.coords[bd.idx]
    left = pts[:, 0] < 1e-12

    def g_bc(t):
        out = np.zeros(bd.idx.size)
        out[left] = np.sin(np.pi * pts[left, 1]) * np.sin(8 * t) ** 2
        return out

    z = np.zeros(disc.n_nodes)
    T = 1.5
    _, ntr = pk.simulate_dirichlet(DirichletProblem(sf, z, z, T, g_bc=g_bc))
    right = disc.grid.coords[disc.trace.node_idx][:, 0] > 1 - 1e-12
    flux = np.abs(ntr.values[:, right]).max(axis=1)
    arrival = np.argmax(flux > 1e-2 * flux.max()) * ntr.dt
    # earliest arrival at the far edge: distance / max c, minus grid slack
    assert arrival >= (1.0 / sf.c_max) - 2.0 * h - 1e-12
    assert flux.max() > 1e-4  # the pulse did cross the domain


def test_normal_trace_exact_for_affine_field(unit_square_32):
    disc = unit_square_32.disc
    u = disc.grid.field(lambda x: x[:, 0])
    q = disc.trace.apply(u)
    right = disc.grid.coords[disc.boundary.idx][:, 0] > 1 - 1e-12
    not_corner = np.abs(disc.boundary.normals[:, 1]) < 1e-12
    assert np.abs(q[right & not_corner] - 1.0).max() <= 1e-12


def test_normal_trace_zero_field(unit_square_32):
    disc = unit_square_32.disc
    assert np.abs(disc.trace.apply(np.zeros(disc.n_nodes))).max() == 0.0


def test_eigenmode_normal_trace_first_order():
    T = 0.5
    errs = {}
    for n in (32, 64):
        dom = pk.Domain.rectangle((0, 0), (1, 1), n)
        sf = pk.build_speed_field(None, 1.0, dom)
        u0, lam = eigenmode(dom)
        traj, ntr = pk.simulate_dirichlet(
            DirichletProblem(sf, u0, np.zeros_like(u0), T))
        q0 = dom.disc.trace.apply(u0)
        exact = np.cos(lam * (np.arange(ntr.values.shape[0]) * ntr.dt))[:, None] * q0
        errs[n] = np.abs(ntr.values - exact).max()
    assert errs[64] <= 0.6 * errs[32]


def test_normal_trace_from_snapshots(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    u0, _ = eigenmode(unit_square_32)
    traj, ntr = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, np.zeros_like(u0), 0.5), history=slice(None))
    vals = np.stack([unit_square_32.disc.trace.apply(f) for f in traj.states])
    assert np.abs(vals - ntr.values).max() <= 1e-12


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_normal_trace_matches_states_with_data(unit_square_32, disk_inclusion,
                                               direction):
    # the trace is formed after a backward run is put in forward time order
    dom = unit_square_32
    disc = dom.disc
    sf = pk.build_speed_field(disk_inclusion, 0.9, dom)
    u0, _ = eigenmode(dom)
    prof = np.sin(np.pi * disc.grid.coords[disc.boundary.idx, 0])
    traj, ntr = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, np.zeros_like(u0), 0.5,
                         g_bc=lambda t: np.sin(3 * t) * prof, direction=direction),
        history=slice(None))
    vals = np.stack([disc.trace.apply(f) for f in traj.states])
    assert np.abs(vals - ntr.values).max() <= 1e-12 * np.abs(vals).max()
    assert ntr.values is traj.run.trace


def test_solution_map_linearity(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    rng = np.random.default_rng(1)
    pts = disc.grid.coords
    cut = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    u0a, u1a = rng.normal(size=(2, disc.n_nodes)) * cut
    u0b, u1b = rng.normal(size=(2, disc.n_nodes)) * cut
    lam = -1.3
    T = 0.7
    ta, _ = pk.simulate_dirichlet(DirichletProblem(sf, u0a, u1a, T))
    tb, _ = pk.simulate_dirichlet(DirichletProblem(sf, u0b, u1b, T))
    tc, _ = pk.simulate_dirichlet(
        DirichletProblem(sf, u0a + lam * u0b, u1a + lam * u1b, T))
    combo = ta.final_state[0] + lam * tb.final_state[0]
    assert np.abs(tc.final_state[0] - combo).max() <= 1e-12 * np.abs(combo).max()


def test_energy_conservation_both_forms_c1(unit_square_48):
    sf = pk.build_speed_field(None, 1.0, unit_square_48)
    u0, _ = eigenmode(unit_square_48)
    traj, _ = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, np.zeros_like(u0), 2.0 * unit_square_48.diam),
        track_energy=True)
    e = traj.energies
    for key in ("unweighted", "weighted"):
        drift = np.abs(e[key] - e[key][0]).max() / e[key][0]
        assert drift <= 1e-3


def test_weighted_energy_conserved_with_inclusion(unit_square_48, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_48)
    u0, _ = eigenmode(unit_square_48)
    u1 = unit_square_48.grid.field(
        lambda x: np.sin(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    traj, _ = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, u1, 2.0 * unit_square_48.diam),
        track_energy=True)
    e = traj.energies["weighted"]
    assert np.abs(e - e[0]).max() / e[0] <= 1e-3


def test_leapfrog_time_reversal(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    u0, _ = eigenmode(unit_square_32)
    N, dt = time_grid(sf, 1.0)
    op = dirichlet_leapfrog(sf, N, dt)
    x0 = u0[unit_square_32.disc.inside_idx]
    run = op.run(x0, op.start(x0, np.zeros_like(x0)), history=slice(None))
    # the last two levels, swapped, step the run back to its start
    back = op.run(run.x[N], run.x[N - 1], history=slice(None))
    rel = np.abs(back.x[N] - run.x[0]).max() / np.abs(run.x[0]).max()
    assert rel <= 1e-6


def test_backward_api_roundtrip(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    u0, _ = eigenmode(unit_square_32)
    T = 0.8
    fwd, _ = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, np.zeros_like(u0), T), history=slice(None))
    back, _ = pk.simulate_dirichlet(
        DirichletProblem(sf, fwd.final_state[0], fwd.final_velocity, T,
                         direction="backward"), history=slice(None))
    rel = weighted_l2(unit_square_32, back.states[0] - u0) / \
        weighted_l2(unit_square_32, u0)
    assert rel <= 1e-3


@pytest.mark.parametrize("direction", ["backwards", "Backward", "", "reverse"])
def test_unknown_direction_rejected(unit_square_32, direction):
    sf = pk.build_speed_field(None, 1.0, unit_square_32)
    z = np.zeros(unit_square_32.grid.n_nodes)
    with pytest.raises(ValueError, match="direction"):
        DirichletProblem(sf, z, z, 0.5, direction=direction)


def test_boundary_consistency_guard(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    u0 = np.ones(disc.n_nodes)  # nonzero on the boundary, g starts at zero
    with pytest.raises(ValueError, match="vanish"):
        pk.simulate_dirichlet(DirichletProblem(sf, u0, np.zeros_like(u0), 0.5))


def test_callable_data_of_wrong_length_rejected():
    sf = pk.build_speed_field(None, 1.0, pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 16))
    z = np.zeros(sf.domain.grid.n_nodes)
    nb = sf.domain.disc.boundary.idx.size
    with pytest.raises(ValueError, match=rf"^boundary data must have shape \({nb},\)"):
        pk.simulate_dirichlet(DirichletProblem(sf, z, z, 0.5, g_bc=lambda t: np.zeros(3)))
    with pytest.raises(ValueError, match=rf"^source must have shape \({z.size},\)"):
        pk.transposition_check(sf, z, z, None, lambda t: np.ones(z.size - 2), 0.5)
    with pytest.raises(ValueError, match=rf"^source must have shape \({z.size},\)"):
        pk.observability_ratio(sf, z, z, lambda t: np.zeros(3), 0.5, (0.5, 0.5),
                               require_time_bound=False)
    # one value per time still broadcasts over the boundary
    _, trace = pk.simulate_dirichlet(DirichletProblem(sf, z, z, 0.5, g_bc=lambda t: t))
    ref = pk.simulate_dirichlet(
        DirichletProblem(sf, z, z, 0.5, g_bc=lambda t: np.full(nb, t)))[1]
    assert np.array_equal(trace.values, ref.values)


# -- transposition identity ----------------------------------------------------

def test_transposition_zero_data(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    z = np.zeros(unit_square_32.grid.n_nodes)
    pts = unit_square_32.grid.coords
    F = lambda t: np.cos(t) * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    rep = pk.transposition_check(sf, z, z, None, F, T=1.0)
    assert rep.lhs == 0.0 and abs(rep.rhs) <= 1e-12


def test_transposition_zero_source(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    pts = unit_square_32.grid.coords
    bump = np.exp(-50 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.4) ** 2))
    bump *= np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    rep = pk.transposition_check(sf, bump, np.zeros_like(bump), None, None, T=1.0)
    assert rep.lhs == 0.0
    scale = max(abs(rep.term_initial), abs(rep.term_velocity), 1e-30)
    assert abs(rep.rhs) <= 1e-3 * scale


def test_transposition_smooth_probe(unit_square_48, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_48)
    pts = unit_square_48.grid.coords
    bump = np.exp(-60 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.45) ** 2))
    bump *= np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    Ff = np.sin(2 * np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    calls = []
    F = lambda t: calls.append(t) or np.cos(3.0 * t) * Ff
    rep = pk.transposition_check(sf, bump, np.zeros_like(bump), None, F, T=1.5)
    assert rep.residual_rel <= 0.05
    # the source is evaluated once per level, not once per run
    assert len(calls) == time_grid(sf, 1.5)[0] + 1


def test_greens_identity_source_pairing(unit_square_48, disk_inclusion):
    # two independent source/solution pairings agree: <psi_F, G> = <v_G, F>
    dom = unit_square_48
    sf = pk.build_speed_field(disk_inclusion, 0.9, dom)
    disc = dom.disc
    pts = disc.grid.coords
    Ff = np.sin(2 * np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    Gf = np.cos(np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    F = lambda t: np.cos(2.0 * t) * Ff
    G = lambda t: np.sin(1.5 * t) * Gf
    T = 1.2
    z = np.zeros(disc.n_nodes)
    psi, _ = pk.simulate_dirichlet(DirichletProblem(sf, z, z, T, F=F),
                                   history=slice(None))
    v, _ = pk.simulate_dirichlet(DirichletProblem(sf, z, z, T, F=G,
                                                  direction="backward"),
                                 history=slice(None))
    w_t = np.full(psi.n_steps + 1, psi.dt)
    w_t[0] = w_t[-1] = psi.dt / 2
    wgt = disc.w_vol * sf.c_inv2
    lhs = sum(w_t[n] * float((wgt * psi.states[n] * G(n * psi.dt)).sum())
              for n in range(psi.n_steps + 1))
    rhs = sum(w_t[n] * float((wgt * v.states[n] * F(n * psi.dt)).sum())
              for n in range(psi.n_steps + 1))
    assert abs(lhs - rhs) <= 0.02 * max(abs(lhs), abs(rhs))


def _per_step_leapfrog(speed, u0, u1, T, g, F, N):
    """Four sparse products per step: the loop the bulk forcing and trace replace."""
    disc = speed.domain.disc
    dt = T / N
    ii = disc.inside_idx
    Kii, Kib = disc.K_ii, disc.K_ib
    Ti, Tb = disc.trace_inside, disc.trace_boundary
    M = (speed.c_inv2 * disc.w_vol)[ii]
    A = sp.csr_matrix(Kii.multiply((dt**2 / M)[:, None]))    # dt^2 M^-1 K_ii
    A.sort_indices()
    x = np.empty((N + 1, ii.size))
    trace = np.empty((N + 1, disc.trace.weights.size))
    x[0] = u0[ii]
    d2x = A @ x[0] + (dt**2 / M) * (Kib @ g[0])
    if F is not None:
        d2x = d2x - dt**2 * F[0][ii]
    x[1] = x[0] + dt * u1[ii] - 0.5 * d2x
    trace[0] = Ti @ x[0] + Tb @ g[0]
    trace[1] = Ti @ x[1] + Tb @ g[1]
    for n in range(1, N):
        x[n + 1] = 2.0 * x[n] - x[n - 1] - A @ x[n] - (dt**2 / M) * (Kib @ g[n])
        if F is not None:
            x[n + 1] += dt**2 * F[n][ii]
        trace[n + 1] = Ti @ x[n + 1] + Tb @ g[n + 1]
    return x, trace


def _unscaled_leapfrog(speed, u0, u1, T, g, F, N):
    """``_per_step_leapfrog`` with the arithmetic of the step before the
    stiffness was scaled once: ``dt^2 ((-K_ii x - K_ib g) / M + F)``."""
    disc = speed.domain.disc
    dt = T / N
    ii = disc.inside_idx
    Kii, Kib = disc.K_ii, disc.K_ib
    Ti, Tb = disc.trace_inside, disc.trace_boundary
    M = (speed.c_inv2 * disc.w_vol)[ii]
    x = np.empty((N + 1, ii.size))
    trace = np.empty((N + 1, disc.trace.weights.size))
    x[0] = u0[ii]
    acc0 = (-(Kii @ x[0]) - Kib @ g[0]) / M + (F[0][ii] if F is not None else 0.0)
    x[1] = x[0] + dt * u1[ii] + 0.5 * dt**2 * acc0
    trace[0] = Ti @ x[0] + Tb @ g[0]
    trace[1] = Ti @ x[1] + Tb @ g[1]
    for n in range(1, N):
        acc = (-(Kii @ x[n]) - Kib @ g[n]) / M
        if F is not None:
            acc = acc + F[n][ii]
        x[n + 1] = 2.0 * x[n] - x[n - 1] + dt**2 * acc
        trace[n + 1] = Ti @ x[n + 1] + Tb @ g[n + 1]
    return x, trace


def _dirichlet_case(shape, with_source):
    """A speed, data, source and step count on a 24-cell rectangle or disk."""
    if shape == "rectangle":
        dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 24)
        incl = pk.StarInclusion((0.45, 0.55), 0.2)
    else:
        dom = pk.Domain.disk((0.0, 0.0), 1.0, 24)
        incl = pk.StarInclusion((0.1, 0.0), 0.3)
    sf = pk.build_speed_field(incl, 0.9, dom)
    disc = dom.disc
    rng = np.random.default_rng(6)
    T = dom.diam
    N, _ = time_grid(sf, T)
    u0, u1 = rng.normal(size=(2, disc.n_nodes))
    g = rng.normal(size=(N + 1, disc.boundary.idx.size))
    F = rng.normal(size=(N + 1, disc.n_nodes)) if with_source else None
    return sf, u0, u1, T, g, F, N


@pytest.mark.parametrize("shape, with_source", [("rectangle", True), ("disk", False)])
def test_leapfrog_matches_per_step_products(shape, with_source):
    sf, u0, u1, T, g, F, N = _dirichlet_case(shape, with_source)
    traj, ntr = pk.simulate_dirichlet(DirichletProblem(sf, u0, u1, T, F=F, g_bc=g),
                                      history=slice(None))
    x, trace = _per_step_leapfrog(sf, u0, u1, T, g, F, N)
    assert np.array_equal(traj.run.x, x)
    assert np.array_equal(ntr.values, trace)


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("shape", ["rectangle", "disk"])
@pytest.mark.parametrize("with_source", [False, True])
def test_prescaled_step_moves_results_at_roundoff(shape, with_source):
    # the pre-scaled step and the unscaled one are one scheme: the trace and
    # the final levels agree to roundoff, and a wrong time scale in A moves
    # them far beyond it
    sf, u0, u1, T, g, F, N = _dirichlet_case(shape, with_source)
    disc = sf.domain.disc
    traj, ntr = pk.simulate_dirichlet(DirichletProblem(sf, u0, u1, T, F=F, g_bc=g))
    x, trace = _unscaled_leapfrog(sf, u0, u1, T, g, F, N)
    assert _rel(ntr.values, trace) <= 1e-12
    for level, ref in zip(traj.final_state, (x[N], x[N - 1])):
        assert _rel(level[disc.inside_idx], ref) <= 1e-12


# -- what a run keeps ------------------------------------------------------------

@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_default_run_keeps_no_history(unit_square_32, disk_inclusion, direction):
    dom = unit_square_32
    disc = dom.disc
    sf = pk.build_speed_field(disk_inclusion, 0.9, dom)
    u0, _ = eigenmode(dom)
    u1 = dom.grid.field(lambda x: np.sin(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    prof = np.sin(np.pi * disc.grid.coords[disc.boundary.idx, 0])
    problem = DirichletProblem(sf, u0, u1, 0.6, g_bc=lambda t: np.sin(4 * t) ** 2 * prof,
                               direction=direction)
    lean, lean_tr = pk.simulate_dirichlet(problem)
    full, full_tr = pk.simulate_dirichlet(problem, history=slice(None))
    assert lean.run.x is None and lean.states is None
    N, S = full.n_steps, full.states
    assert np.array_equal(lean_tr.values, full_tr.values)
    assert np.array_equal(lean.final_state[0], S[N])
    assert np.array_equal(lean.final_state[1], S[N - 1])
    # one-sided on every node, the boundary data's included
    vel = (3.0 * S[N] - 4.0 * S[N - 1] + S[N - 2]) / (2.0 * full.dt)
    assert np.array_equal(lean.final_velocity, vel)
    assert np.abs(vel[disc.boundary.idx]).max() > 0.0


def test_final_velocity_reads_moving_boundary_data():
    # g = t: the boundary nodes end at T with velocity 1, not 0
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 16)
    bnd = dom.disc.boundary.idx
    z = np.zeros(dom.grid.n_nodes)
    traj, _ = pk.simulate_dirichlet(DirichletProblem(
        pk.build_speed_field(None, 1.0, dom), z, z, 0.5, g_bc=lambda t: t))
    assert traj.final_state[0][bnd] == pytest.approx(0.5, rel=1e-12)
    assert traj.final_velocity[bnd] == pytest.approx(1.0, rel=1e-9)


@pytest.fixture(scope="module")
def history_cases():
    cases = []
    for dom, incl in ((pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 12),
                       pk.StarInclusion((0.45, 0.55), 0.2)),
                      (pk.Domain.disk((0.0, 0.0), 1.0, 16),
                       pk.StarInclusion((0.1, 0.0), 0.3))):
        sf = pk.build_speed_field(incl, 0.9, dom)
        disc = dom.disc
        rng = np.random.default_rng(5)
        T = dom.diam
        N, _ = time_grid(sf, T)
        u0, u1 = rng.normal(size=(2, disc.n_nodes))
        g = rng.normal(size=(N + 1, disc.boundary.idx.size))
        F = rng.normal(size=(N + 1, disc.n_nodes))
        full = {d: pk.simulate_dirichlet(
            DirichletProblem(sf, u0, u1, T, F=F, g_bc=g, direction=d),
            history=slice(None)) for d in ("forward", "backward")}
        cases.append((sf, u0, u1, T, F, g, full))
    return cases


@settings(max_examples=25, deadline=None)
@given(case=st.integers(0, 1), backward=st.booleans(), data=st.data())
def test_history_subsets_match_full_run(history_cases, case, backward, data):
    sf, u0, u1, T, F, g, full = history_cases[case]
    direction = "backward" if backward else "forward"
    ref, ref_tr = full[direction]
    disc = sf.domain.disc
    # any grid nodes, in any order, repeats allowed: interior, boundary and
    # (on the disk) unused nodes
    nodes = np.asarray(data.draw(st.lists(st.integers(0, disc.n_nodes - 1),
                                          max_size=30)), dtype=int)
    traj, tr = pk.simulate_dirichlet(
        DirichletProblem(sf, u0, u1, T, F=F, g_bc=g, direction=direction),
        history=nodes)
    assert np.array_equal(traj.states, ref.states[:, nodes])
    assert np.array_equal(tr.values, ref_tr.values)
    x = ref.run.x
    assert np.array_equal(traj.run.head, x[:3])
    assert np.array_equal(traj.run.tail, x[-3:])
    assert np.array_equal(traj.run.watched, x[:, disc.layer_idx])
    for a, b in zip(traj.final_state, ref.final_state):
        assert np.array_equal(a, b)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), backward=st.booleans(),
       with_g=st.booleans(), with_F=st.booleans())
def test_read_only_inputs_property(history_cases, seed, backward, with_g, with_F):
    # read-only data, boundary series and sources give the same run
    sf = history_cases[0][0]
    disc = sf.domain.disc
    rng = np.random.default_rng(seed)
    T = sf.domain.diam
    N, _ = time_grid(sf, T)
    u0, u1 = rng.normal(size=(2, disc.n_nodes))
    u0[disc.boundary.idx] = 0.0
    g = rng.normal(size=(N + 1, disc.boundary.idx.size)) if with_g else None
    F = rng.normal(size=(N + 1, disc.n_nodes)) if with_F else None
    direction = "backward" if backward else "forward"

    def run(wrap):
        return pk.simulate_dirichlet(
            DirichletProblem(sf, wrap(u0), wrap(u1), T,
                             F=None if F is None else wrap(F),
                             g_bc=None if g is None else wrap(g),
                             direction=direction),
            history=slice(None))

    (ref, ref_tr), (out, out_tr) = run(np.array), run(read_only)
    assert np.array_equal(out_tr.values, ref_tr.values)
    assert np.array_equal(out.states, ref.states)
    for a, b in zip(out.final_state, ref.final_state):
        assert np.array_equal(a, b)
    assert np.array_equal(out.final_velocity, ref.final_velocity)
