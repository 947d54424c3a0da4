import dataclasses
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.control import (ControlError, ControlProblem, controlled_solution,
                            gramian_symmetry_defect, hum_control,
                            representation_residual, _HumOperator)
from paikit.wave_dirichlet import boundary_load, dirichlet_leapfrog
from paikit.wave_forward import time_grid
from paikit.geometry import SpeedField
from paikit.observability import smooth_h01_field
from conftest import read_only


@pytest.fixture(scope="module")
def square32():
    return pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)


@pytest.fixture(scope="module")
def speed32(square32):
    return pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, square32)


def test_zero_velocity_gives_zero_control(square32, speed32):
    cert = hum_control(ControlProblem(speed32, np.zeros(square32.grid.n_nodes),
                                      4 * square32.diam))
    assert np.abs(cert.control).max() == 0.0
    assert cert.iterations == 0 and cert.final_energy_rel == 0.0


def test_control_reaches_rest_uniform_speed(square32):
    sf = pk.build_speed_field(None, 1.0, square32)
    rng = np.random.default_rng(4)
    phi0 = smooth_h01_field(square32, rng)
    cert = hum_control(ControlProblem(sf, phi0, 4 * square32.diam))
    assert cert.final_energy_rel <= 1e-4
    assert cert.iterations <= 200
    assert np.isfinite(cert.lambda_norm_emp)


def test_control_reaches_rest_with_inclusion(square32, speed32):
    rng = np.random.default_rng(7)
    phi0 = smooth_h01_field(square32, rng)
    cert = hum_control(ControlProblem(speed32, phi0, 4 * square32.diam))
    assert cert.final_energy_rel <= 1e-4
    assert np.isfinite(cert.lambda_norm_emp) and cert.lambda_norm_emp > 0
    assert np.isfinite(cert.sup_state_const)


# -- dense-history reference: the full-interior HUM solves the layer solves
#    replace, kept to check that the Gramian is unchanged bit for bit

def _dense_flux_scale(disc):
    f = disc.faces
    scale = np.zeros(disc.n_nodes)
    bmask = np.zeros(disc.n_nodes, dtype=bool)
    bmask[disc.boundary.idx] = True
    for i, j, w, h in zip(f.i, f.j, f.w, f.h):
        if bmask[i] != bmask[j]:
            scale[i if bmask[i] else j] += w / h
    return scale[disc.boundary.idx]


def _scaled_step(op):
    """The leapfrog's maps for the stepping matrix ``B = 2 I - A``,
    ``A = dt^2 M^-1 K_ii``, formed entry by entry ``-(dt^2 / M_i) K_ij`` plus
    2 on the diagonal: the step ``(x, x_prev) -> B x - x_prev``, its
    transpose's ``t -> B' t``, and ``A`` and ``A'`` as ``2 x - B x`` for the
    start."""
    B = sp.csr_matrix(op.disc.K_ii.multiply((-(op.wave.dt**2 / op.wave.M))[:, None]))
    B.setdiag(B.diagonal() + 2.0)
    B.sort_indices()
    return ((lambda x, x_prev: B @ x - x_prev), (lambda t: B.T @ t),
            (lambda x: 2.0 * x - B @ x), (lambda t: 2.0 * t - B.T @ t))


def _unscaled_step(op):
    """The same four maps with ``A x = dt^2 ((K_ii x) / M)`` and
    ``A' t = dt^2 K_ii (t / M)``: the arithmetic of the step before the
    stiffness was scaled once."""
    dt, K, M = op.wave.dt, op.disc.K_ii, op.wave.M

    def apply(x):
        return dt**2 * ((K @ x) / M)

    def apply_T(t):
        return dt**2 * (K @ (t / M))

    return ((lambda x, x_prev: 2.0 * x - x_prev - apply(x)),
            (lambda t: 2.0 * t - apply_T(t)), apply, apply_T)


def _dense_solve(op, a, b, step=_scaled_step):
    N, dt, (advance, _, apply, _) = op.wave.N, op.wave.dt, step(op)
    x = np.empty((N + 1, a.size))
    x[0] = a
    x[1] = a + dt * b - 0.5 * apply(a)
    for n in range(1, N):
        x[n + 1] = advance(x[n], x[n - 1])
    return x


def _dense_solve_transpose(op, xb, step=_scaled_step):
    N, dt, (_, retreat, _, apply_T) = op.wave.N, op.wave.dt, step(op)
    for n in range(N - 1, 0, -1):
        t = xb[n + 1]
        xb[n] += retreat(t)
        xb[n - 1] -= t
    u = xb[1]
    return xb[0] + u - 0.5 * apply_T(u), dt * u


def _dense_flux(op, x):
    return (op.disc.K_ib.T @ x.T).T


def _dense_gramian_apply(op, z0, z1, step=_scaled_step):
    q = _dense_flux(op, _dense_solve(op, z0, -z1, step))
    s = np.zeros_like(q)
    alive = op.flux_alive
    s[:, alive] = op.tau_s[:, None] * q[:, alive] / op.flux_scale[alive]
    a_bar, b_bar = _dense_solve_transpose(op, (op.disc.K_ib @ s.T).T, step)
    return op.riesz_inv(a_bar, -b_bar)


def _dense_rhs(op, phi0_int, step=_scaled_step):
    xb = np.zeros((op.wave.N + 1, op.wave.M.size))
    xb[op.wave.N] = op.wave.M * phi0_int
    a_bar, b_bar = _dense_solve_transpose(op, xb, step)
    return op.riesz_inv(a_bar, -b_bar)


def _dense_control_of(op, z0, z1):
    g = _dense_flux(op, _dense_solve(op, z0, -z1))
    g[:, op.flux_alive] /= op.flux_scale[op.flux_alive]
    g[:, ~op.flux_alive] = 0.0
    return g[::-1].copy()


@pytest.mark.parametrize("n", [32, 64])
def test_layer_solves_match_dense_history(n):
    # 64^2 is the acceptance-05 speed
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), n)
    speed = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, dom)
    op = _HumOperator(speed, 4 * dom.diam)
    assert op.wave.watch.size < op.wave.M.size
    assert np.array_equal(op.flux_scale, _dense_flux_scale(dom.disc))
    rng = np.random.default_rng(n)
    z0, z1, phi = rng.normal(size=(3, op.wave.M.size))
    z0_in, z1_in = z0.copy(), z1.copy()
    for new, ref in ((op.gramian_apply(z0, z1), _dense_gramian_apply(op, z0, z1)),
                     (op.rhs(phi), _dense_rhs(op, phi))):
        assert all(np.array_equal(u, v) for u, v in zip(new, ref))
    assert np.array_equal(op.control_of(z0, z1), _dense_control_of(op, z0, z1))
    # the solves leave their arguments alone
    assert np.array_equal(z0, z0_in) and np.array_equal(z1, z1_in)


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("shape", ["rectangle", "disk"])
def test_prescaled_step_moves_gramian_at_roundoff(shape):
    # the pre-scaled step and the unscaled one are one scheme: the Gramian
    # and the right-hand side agree to roundoff, and an unsymmetric A in
    # place of A' or a wrong time scale moves them far beyond it
    if shape == "rectangle":
        dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)
        incl = pk.StarInclusion((0.45, 0.55), 0.2)
    else:
        dom = pk.Domain.disk((0.0, 0.0), 1.0, 32)
        incl = pk.StarInclusion((0.1, 0.0), 0.3)
    op = _HumOperator(pk.build_speed_field(incl, 0.9, dom), 4 * dom.diam)
    rng = np.random.default_rng(3)
    z0, z1, phi = rng.normal(size=(3, op.wave.M.size))
    for new, old in ((op.gramian_apply(z0, z1),
                      _dense_gramian_apply(op, z0, z1, _unscaled_step)),
                     (op.rhs(phi), _dense_rhs(op, phi, _unscaled_step))):
        assert all(_rel(u, v) <= 1e-12 for u, v in zip(new, old))


def _duality_defect(op, disc, rng) -> float:
    """<flux(a, b), s> + <x[N], w> against <(a, b), flux'(s) + terminal(w)>
    for a ``dirichlet_leapfrog``, with the co-normal flux ``K_ib' x``."""
    a, b, w = rng.normal(size=(3, op.M.size))
    s = rng.normal(size=(op.N + 1, disc.boundary.idx.size))
    run = op.run(a, op.start(a, b))
    flux = (disc.K_ib_layer.T @ run.watched.T).T
    x_last = run.tail[2]
    lhs = float((flux * s).sum() + x_last @ w)
    a_bar, b_bar, _, _ = op.transpose(boundary_load(disc, s), terminal=w)
    rhs = float(a @ a_bar + b @ b_bar)
    # Cauchy-Schwarz bound of lhs: a draw whose lhs nearly cancels does not count
    scale = (np.sqrt(np.linalg.norm(flux)**2 + np.linalg.norm(x_last)**2)
             * np.sqrt(np.linalg.norm(s)**2 + np.linalg.norm(w)**2))
    return abs(lhs - rhs) / scale


def test_transpose_is_exact(square32, speed32):
    op = dirichlet_leapfrog(speed32, *time_grid(speed32, 4 * square32.diam))
    assert _duality_defect(op, square32.disc, np.random.default_rng(0)) <= 1e-12


@pytest.fixture(scope="module")
def small_speed():
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 12)
    return pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.25), 0.8, dom)


@pytest.fixture(scope="module")
def small_hum_op(small_speed):
    return _HumOperator(small_speed, 4 * small_speed.domain.diam)


@pytest.fixture(scope="module")
def duality_ops(small_hum_op):
    # the HUM grid steps on DIA storage, the masked 16-cell disk on CSR
    dom = pk.Domain.disk((0.0, 0.0), 1.0, 16)
    speed = pk.build_speed_field(pk.StarInclusion((0.1, 0.0), 0.3), 0.9, dom)
    return ((small_hum_op.wave, small_hum_op.disc),
            (dirichlet_leapfrog(speed, *time_grid(speed, 4 * dom.diam)), dom.disc))


@settings(max_examples=50, deadline=None)
@given(case=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_transpose_duality_property(duality_ops, case, seed):
    assert _duality_defect(*duality_ops[case], np.random.default_rng(seed)) <= 1e-12


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hum_control_read_only_inputs(small_speed, seed):
    # a read-only speed and velocity give the same certificate
    speed = small_speed
    dom = speed.domain
    phi0 = smooth_h01_field(dom, np.random.default_rng(seed))
    ref = hum_control(ControlProblem(speed, phi0, 4 * dom.diam))
    frozen = SpeedField(speed.a, speed.eps, read_only(speed.chi),
                        read_only(speed.rho), speed.inclusion, dom)
    out = hum_control(ControlProblem(frozen, read_only(phi0), 4 * dom.diam))
    assert np.array_equal(out.control, ref.control)
    assert (out.final_energy_rel, out.iterations, out.sup_state_const,
            out.lambda_norm_emp, out.problem_hash) == (
        ref.final_energy_rel, ref.iterations, ref.sup_state_const,
        ref.lambda_norm_emp, ref.problem_hash)


def _cg_iterates(op, phi1, count):
    """The right-hand side ``b`` and, for each of the first ``count`` CG-HUM
    iterations, the iterate ``z`` and its residual ``r = b - G z``, by
    ``hum_control``'s recursion."""
    b0, b1 = op.rhs(phi1)
    z0, z1 = np.zeros(b0.size), np.zeros(b0.size)
    r0, r1 = b0.copy(), b1.copy()
    p0, p1 = r0.copy(), r1.copy()
    rr = op.inner(r0, r1, r0, r1)
    out = []
    for _ in range(count):
        g0, g1 = op.gramian_apply(p0, p1)
        alpha = rr / op.inner(p0, p1, g0, g1)
        z0, z1 = z0 + alpha * p0, z1 + alpha * p1
        r0, r1 = r0 - alpha * g0, r1 - alpha * g1
        out.append((z0, z1, r0, r1))
        rr_new = op.inner(r0, r1, r0, r1)
        p0, p1 = r0 + (rr_new / rr) * p0, r1 + (rr_new / rr) * p1
        rr = rr_new
    return (b0, b1), out


@pytest.mark.parametrize("case", ["square32", "square12"])
def test_final_levels_read_from_the_residual(case, speed32, small_speed):
    # the controlled run's final levels and energy, read from the CG
    # residual, match control_of plus the controlled run at every iteration
    # and, at z = 0, the uncontrolled run
    speed, seed = (speed32, 7) if case == "square32" else (small_speed, 4)
    dom = speed.domain
    disc = dom.disc
    phi0 = smooth_h01_field(dom, np.random.default_rng(seed))
    cert = hum_control(ControlProblem(speed, phi0, 4 * dom.diam))
    op = _HumOperator(speed, 4 * dom.diam)
    wave = op.wave
    rest, phi1 = np.zeros(wave.M.size), phi0[disc.inside_idx]

    def run_levels(control):
        load = None if control is None else boundary_load(disc, control)
        run = wave.run(rest, wave.start(rest, phi1, load), load=load)
        return run.tail[2], run.tail[1]

    def energy(x_N, x_prev):
        return wave.energy(x_N, x_prev, wave.K @ x_prev)

    b, iterates = _cg_iterates(op, phi1, cert.iterations)
    ref = run_levels(None)
    assert all(_rel(new, old) <= 1e-10 for new, old in zip(op.final_levels(*b), ref))
    E_ref = energy(*ref)
    assert abs(energy(*op.final_levels(*b)) - E_ref) <= 1e-10 * E_ref
    assert len(iterates) == cert.iterations >= 2
    for (z0, z1, r0, r1), (_, e_read) in zip(iterates, cert.convergence):
        ref = run_levels(op.control_of(z0, z1))
        levels = op.final_levels(r0, r1)
        assert all(_rel(new, old) <= 1e-10 for new, old in zip(levels, ref))
        e_run = energy(*ref)
        assert abs(energy(*levels) - e_run) <= 1e-10 * e_run
        assert abs(e_read - e_run / E_ref) <= 1e-10 * (e_run / E_ref)


def test_certificate_records_its_convergence(square32, speed32, caplog):
    phi0 = smooth_h01_field(square32, np.random.default_rng(7))
    with caplog.at_level(logging.DEBUG, logger="paikit.control"):
        cert = hum_control(ControlProblem(speed32, phi0, 4 * square32.diam))
    lines = [r for r in caplog.records if r.name == "paikit.control"]
    assert cert.convergence.shape == (cert.iterations, 2) == (len(lines), 2)
    residual, energy = cert.convergence.T
    assert cert.gramian_residual == residual[-1]
    assert abs(energy[-1] - cert.final_energy_rel) <= 1e-10 * cert.final_energy_rel
    # CG stops at the first iteration that meets the energy target
    assert energy[-1] <= 1e-4 and np.all(energy[:-1] > 1e-4)


def test_certificate_hash_binds_the_tolerance(small_speed):
    # a certificate solved to one tolerance is not one for a tolerance that
    # agrees with it to three digits
    dom = small_speed.domain
    phi0 = smooth_h01_field(dom, np.random.default_rng(4))
    cert = hum_control(ControlProblem(small_speed, phi0, 4 * dom.diam, tol=1.0004e-4))
    with pytest.raises(ControlError, match="match"):
        controlled_solution(ControlProblem(small_speed, phi0, 4 * dom.diam, tol=1e-4),
                            cert)


def test_gramian_symmetry(square32, speed32):
    defect = gramian_symmetry_defect(speed32, 4 * square32.diam,
                                     np.random.default_rng(1))
    assert defect <= 1e-8


def test_hum_control_logs_iterations(square32, speed32, caplog):
    phi0 = smooth_h01_field(square32, np.random.default_rng(7))
    with caplog.at_level(logging.DEBUG, logger="paikit.control"):
        cert = hum_control(ControlProblem(speed32, phi0, 4 * square32.diam))
    lines = [r.getMessage() for r in caplog.records if r.name == "paikit.control"]
    assert lines and lines[-1].startswith(f"hum iter {cert.iterations}: residual")
    assert all(ln.startswith("hum iter") and "final energy" in ln for ln in lines)


def test_control_operator_linearity(square32, speed32):
    T = 4 * square32.diam
    rng = np.random.default_rng(9)
    p1 = smooth_h01_field(square32, rng)
    p2 = smooth_h01_field(square32, rng)
    lam = 1.7
    tol = 1e-6
    c1 = hum_control(ControlProblem(speed32, p1, T, tol=tol))
    c2 = hum_control(ControlProblem(speed32, p2, T, tol=tol))
    c3 = hum_control(ControlProblem(speed32, lam * p1 + p2, T, tol=tol))
    combo = lam * c1.control + c2.control
    rel = np.abs(c3.control - combo).max() / np.abs(combo).max()
    assert rel <= 0.05  # agreement at the CG tolerance level


def test_controlled_solution_matches_certificate(square32, speed32):
    rng = np.random.default_rng(12)
    phi0 = smooth_h01_field(square32, rng)
    problem = ControlProblem(speed32, phi0, 4 * square32.diam)
    cert = hum_control(problem)
    traj = controlled_solution(problem, cert, history=slice(None))
    disc = square32.disc
    # starts from rest at phi0 by construction (interior; the boundary
    # carries the control from the first instant)
    assert np.abs(traj.states[0][disc.inside_idx]).max() == 0.0
    # boundary values equal the stored control
    assert np.abs(traj.states[5][disc.boundary.idx] - cert.control[5]).max() == 0.0
    # terminal staggered energy small relative to the uncontrolled run
    x = traj.run.x
    N = cert.n_steps
    M = (speed32.c_inv2 * disc.w_vol)[disc.inside_idx]
    v = (x[N] - x[N - 1]) / cert.dt
    E = float((M * v * v).sum() + x[N] @ (disc.K_ii @ x[N - 1]))
    psi, _ = pk.simulate_dirichlet(
        pk.DirichletProblem(speed32, np.zeros(disc.n_nodes), phi0,
                            4 * square32.diam), history=slice(None))
    xs = psi.run.x
    vs = (xs[N] - xs[N - 1]) / cert.dt
    E0 = float((M * vs * vs).sum() + xs[N] @ (disc.K_ii @ xs[N - 1]))
    assert E <= 1.05e-4 * E0


def test_controlled_solution_reproduces_the_certificate_grid(small_speed):
    # the re-simulation works out the certificate's time grid itself
    dom = small_speed.domain
    phi0 = smooth_h01_field(dom, np.random.default_rng(4))
    problem = ControlProblem(small_speed, phi0, 4 * dom.diam)
    cert = hum_control(problem)
    traj = controlled_solution(problem, cert)
    assert (traj.n_steps, traj.dt) == (cert.n_steps, cert.dt) \
        == time_grid(small_speed, problem.T)


def test_sup_state_const_matches_full_history(square32, speed32):
    # the final-energy check scatters each level into one reused field; the
    # full-field history of the certified control gives the same constant
    phi0 = smooth_h01_field(square32, np.random.default_rng(3))
    problem = ControlProblem(speed32, phi0, 4 * square32.diam)
    cert = hum_control(problem)
    disc = square32.disc
    traj = controlled_solution(problem, cert, history=slice(None))
    sup_state = max(float(np.sqrt((disc.w_vol * full**2).sum()))
                    for full in traj.states)
    phi0_norm = float(np.sqrt((speed32.c_inv2 * disc.w_vol * phi0 * phi0).sum()))
    assert cert.sup_state_const == sup_state / phi0_norm


def test_certificate_hash_guard(square32, speed32):
    rng = np.random.default_rng(2)
    phi0 = smooth_h01_field(square32, rng)
    problem = ControlProblem(speed32, phi0, 4 * square32.diam)
    cert = hum_control(problem)
    other = ControlProblem(speed32, 2.0 * phi0, 4 * square32.diam)
    with pytest.raises(ControlError, match="match"):
        controlled_solution(other, cert)


def test_contrast_and_horizon_guards(square32, speed32):
    weak = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.6, square32)
    z = np.zeros(square32.grid.n_nodes)
    with pytest.raises(ControlError, match="contrast"):
        ControlProblem(weak, z, 4 * square32.diam)
    with pytest.raises(ControlError, match="horizon"):
        ControlProblem(speed32, z, 3.0 * square32.diam)


# -- representation identity ---------------------------------------------------

@pytest.fixture(scope="module")
def representation_setup(square32):
    optics = pk.OpticalCoefficients()
    i1 = pk.StarInclusion((0.45, 0.55), 0.20)
    i2 = pk.StarInclusion((0.52, 0.48), 0.24, (0.0, 0.0, 0.03))
    s1 = pk.build_speed_field(i1, 0.9, square32)
    s2 = pk.build_speed_field(i2, 0.9, square32)
    d1 = pk.make_initial_data(optics, s1, square32)
    d2 = pk.make_initial_data(optics, s2, square32)
    return s1, s2, d1, d2


def test_identical_inclusions_null_identity(square32):
    optics = pk.OpticalCoefficients()
    incl = pk.StarInclusion((0.5, 0.5), 0.22)
    sf = pk.build_speed_field(incl, 0.9, square32)
    data = pk.make_initial_data(optics, sf, square32)
    rng = np.random.default_rng(1)
    phi0 = smooth_h01_field(square32, rng)
    rr = representation_residual(sf, sf, data, data, phi0)
    for term in (rr.A, rr.B, rr.C, rr.D):
        assert abs(term) <= 1e-10


def test_representation_residual_small(square32, representation_setup):
    s1, s2, d1, d2 = representation_setup
    rng = np.random.default_rng(3)
    phi0 = smooth_h01_field(square32, rng)
    rr = representation_residual(s1, s2, d1, d2, phi0)
    # the 5e-2 gate is pinned at 64^2 (acceptance suite); 32^2 runs looser
    assert rr.residual_rel <= 0.15
    assert all(np.isfinite(v) for v in (rr.A, rr.B, rr.C, rr.D))


def test_representation_scales_linearly(square32, representation_setup):
    s1, s2, d1, d2 = representation_setup
    rng = np.random.default_rng(8)
    phi0 = smooth_h01_field(square32, rng)
    lam = 2.75
    prob1 = ControlProblem(s2, phi0, 4 * square32.diam)
    cert1 = hum_control(prob1)
    rr1 = representation_residual(s1, s2, d1, d2, phi0, certificate=cert1)
    prob2 = ControlProblem(s2, lam * phi0, 4 * square32.diam)
    cert2 = dataclasses.replace(cert1, control=lam * cert1.control,
                                problem_hash=prob2.digest())
    rr2 = representation_residual(s1, s2, d1, d2, lam * phi0, certificate=cert2)
    for t1, t2 in zip((rr1.A, rr1.B, rr1.C, rr1.D),
                      (rr2.A, rr2.B, rr2.C, rr2.D)):
        assert t2 == pytest.approx(lam * t1, rel=1e-10)
    assert rr2.residual_rel == pytest.approx(rr1.residual_rel, rel=1e-9)


def _full_history_representation(speed1, speed2, data1, data2, phi0, certificate):
    """The A, B, C, D terms from full histories: the previous code, kept as
    the reference for the runs that keep only the support of the contrast."""
    domain = speed2.domain
    disc = domain.disc
    T = 4.0 * domain.diam
    problem = ControlProblem(speed2, phi0, T)
    phi_traj = controlled_solution(problem, certificate, history=slice(None))
    N, dt = certificate.n_steps, certificate.dt
    traj1, trace1, _ = pk.simulate_forward(speed1, data1, T, history=slice(None))
    traj2, trace2, _ = pk.simulate_forward(speed2, data2, T)
    w_t = pk.norms.time_weights(N + 1, dt)
    w_vol = disc.w_vol
    A = float((w_vol * speed2.c_inv2 * phi0 * (data2.f - data1.f)).sum())
    p_b = trace2.values - trace1.values
    dp_b = pk.norms.time_derivative(p_b, dt)
    B = float((w_t[:, None] * disc.boundary.weights[None, :] * certificate.control
               * data2.beta[None, :] * dp_b).sum())
    dnphi = np.empty((N + 1, disc.trace.weights.size))
    for n in range(N + 1):
        dnphi[n] = disc.trace.apply(phi_traj.states[n])
    C = float((w_t[:, None] * disc.trace.weights[None, :] * dnphi * p_b).sum())
    coef = speed2.c2 * (speed1.c_inv2 - speed2.c_inv2)
    kernel = np.zeros(disc.n_nodes)
    s1 = traj1.states
    d2 = np.empty_like(s1)
    d2[1:N] = (s1[2:] - 2.0 * s1[1:N] + s1[:N - 1]) / dt**2
    C_damp = np.zeros(disc.n_nodes)
    C_damp[disc.boundary.idx] = data1.beta * disc.boundary.weights
    d2[0] = (-(disc.K @ data1.f) - C_damp * data1.g) / (speed1.c_inv2 * w_vol)
    d2[N] = (2.0 * s1[N] - 5.0 * s1[N - 1] + 4.0 * s1[N - 2] - s1[N - 3]) / dt**2
    for n in range(N + 1):
        kernel += w_t[n] * d2[n] * phi_traj.states[n]
    D = float((w_vol * speed2.c_inv2 * coef * kernel).sum())
    return A, B, C, D


def test_representation_matches_full_history(square32, representation_setup):
    s1, s2, d1, d2 = representation_setup
    phi0 = smooth_h01_field(square32, np.random.default_rng(3))
    cert = hum_control(ControlProblem(s2, phi0, 4 * square32.diam))
    rr = representation_residual(s1, s2, d1, d2, phi0, certificate=cert)
    ref = _full_history_representation(s1, s2, d1, d2, phi0, cert)
    for new, old in zip((rr.A, rr.B, rr.C, rr.D), ref):
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)


def _frozen_speed(speed):
    return SpeedField(speed.a, speed.eps, read_only(speed.chi), read_only(speed.rho),
                      speed.inclusion, speed.domain)


def _frozen_data(data):
    return pk.InitialData(read_only(data.f), read_only(data.g),
                          read_only(data.beta), read_only(data.u))


def test_controlled_solution_read_only_inputs(square32, speed32):
    phi0 = smooth_h01_field(square32, np.random.default_rng(12))
    problem = ControlProblem(speed32, phi0, 4 * square32.diam)
    cert = hum_control(problem)
    ref = controlled_solution(problem, cert, history=slice(None))
    frozen = ControlProblem(_frozen_speed(speed32), read_only(phi0),
                            4 * square32.diam)
    out = controlled_solution(
        frozen, dataclasses.replace(cert, control=read_only(cert.control)),
        history=slice(None))
    assert np.array_equal(out.states, ref.states)
    assert np.array_equal(out.run.trace, ref.run.trace)


def test_representation_residual_read_only_inputs(square32, representation_setup):
    s1, s2, d1, d2 = representation_setup
    phi0 = smooth_h01_field(square32, np.random.default_rng(3))
    cert = hum_control(ControlProblem(s2, phi0, 4 * square32.diam))
    ref = representation_residual(s1, s2, d1, d2, phi0, certificate=cert)
    out = representation_residual(
        _frozen_speed(s1), _frozen_speed(s2), _frozen_data(d1), _frozen_data(d2),
        read_only(phi0),
        certificate=dataclasses.replace(cert, control=read_only(cert.control)))
    assert (out.A, out.B, out.C, out.D, out.residual_rel) == (
        ref.A, ref.B, ref.C, ref.D, ref.residual_rel)
