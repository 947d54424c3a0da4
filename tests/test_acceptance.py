"""Acceptance suite: one test per criterion, one printed verdict line each.

Resolutions, tolerances and runtime budgets are pinned here; regression
bounds (the 2-d observability bound, the reconstruction configs) are frozen
in-repo with their generating configs.
"""

import json
import time
from pathlib import Path

import numpy as np

import paikit as pk
from paikit.control import (ControlProblem, gramian_symmetry_defect,
                            hum_control, representation_residual)
from paikit.inversion import (InverseProblem, adjoint_gradient,
                              hausdorff_distance, misfit, reconstruct,
                              stability_scan)
from paikit.observability import (observability_ensemble, observability_ratio,
                                  rng_of, smooth_field, smooth_h01_field,
                                  spawned_seeds)
from paikit.wave_dirichlet import DirichletProblem
from conftest import eigenmode, weighted_l2

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "paikit" / "data"
X0 = (0.5, 0.5)


def verdict(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_01_solver_convergence():
    t0 = time.monotonic()
    T = 1.0
    errs = []
    for n in (64, 128, 256):
        dom = pk.Domain.rectangle((0, 0), (1, 1), n)
        sf = pk.build_speed_field(None, 1.0, dom)
        u0, lam = eigenmode(dom)
        traj, _ = pk.simulate_dirichlet(
            DirichletProblem(sf, u0, np.zeros_like(u0), T))
        errs.append(weighted_l2(dom, traj.final_state[0] - np.cos(lam * T) * u0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.monotonic() - t0
    verdict("01 solver convergence",
            min(orders) >= 1.9 and elapsed <= 120.0,
            f"orders {orders[0]:.2f}/{orders[1]:.2f} across 64/128/256, "
            f"{elapsed:.0f}s (budget 120s)")


def test_02_energy_decay_ensemble():
    t0 = time.monotonic()
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    rng = rng_of(20260)
    worst_step = -np.inf
    worst_balance = 0.0
    for _ in range(10):
        a = rng.uniform(0.8, 0.95)
        r0 = rng.uniform(0.15, 0.28)
        x0 = (rng.uniform(0.38, 0.62), rng.uniform(0.38, 0.62))
        incl = pk.StarInclusion(x0, r0, tuple(rng.normal(scale=0.06 * r0, size=3)))
        optics = pk.OpticalCoefficients(mu_in=0.9 * rng.uniform(0.8, 1.3),
                                        D_in=0.1 * rng.uniform(0.8, 1.3))
        beta = rng.uniform(0.5, 2.0)
        sf = pk.build_speed_field(incl, a, dom)
        data = pk.make_initial_data(optics, sf, dom, beta=beta)
        _, _, erep = pk.simulate_forward(sf, data, 4.0 * dom.diam)
        worst_step = max(worst_step, float(np.diff(erep.E).max() / erep.E0))
        worst_balance = max(worst_balance, erep.identity_defect / erep.E0)
    elapsed = time.monotonic() - t0
    verdict("02 energy decay",
            worst_step <= 1e-8 and worst_balance <= 0.05,
            f"max per-step increase {worst_step:.2e} (<= 1e-8 E0), "
            f"dissipation balance {worst_balance:.2e} (<= 5%), "
            f"10 configs at 128^2, {elapsed:.0f}s")


def test_03_dirichlet_energy_conservation():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    T = 4.0 * dom.diam
    u0, _ = eigenmode(dom)
    u1 = dom.grid.field(
        lambda x: np.sin(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))

    sf1 = pk.build_speed_field(None, 1.0, dom)
    traj, _ = pk.simulate_dirichlet(DirichletProblem(sf1, u0, u1, T),
                                    track_energy=True)
    e = traj.energies["unweighted"]
    drift_c1 = float(np.abs(e - e[0]).max() / e[0])

    incl = pk.StarInclusion((0.45, 0.55), 0.22)
    sf2 = pk.build_speed_field(incl, 0.9, dom)
    traj2, _ = pk.simulate_dirichlet(DirichletProblem(sf2, u0, u1, T),
                                     track_energy=True)
    ew = traj2.energies["weighted"]
    drift_w = float(np.abs(ew - ew[0]).max() / ew[0])
    ep = traj2.energies["unweighted"]
    drift_p_incl = float(np.abs(ep - ep[0]).max() / ep[0])

    verdict("03 dirichlet energy conservation",
            drift_c1 <= 1e-3 and drift_w <= 1e-3,
            f"c==1 drift {drift_c1:.2e} (<= 1e-3); weighted-invariant drift "
            f"{drift_w:.2e} at a=0.9 (<= 1e-3); unweighted form drifts "
            f"{drift_p_incl:.2e} across the interface (reported, see ledger)")


def test_04_observability():
    t0 = time.monotonic()
    dom3 = pk.Domain.disk((0.0, 0.0, 0.0), 1.0, 32)
    x0 = (0.0, 0.0, 0.0)
    sf3 = pk.build_speed_field(pk.StarInclusion(x0, 0.35), 0.9, dom3)
    T3 = 4.0 * dom3.diam
    ratios3 = []
    for seed in spawned_seeds(314, 10):
        rng = rng_of(seed)
        u0 = smooth_h01_field(dom3, rng)
        u1 = smooth_field(dom3, rng)
        rep = observability_ratio(sf3, u0, u1, None, T3, x0)
        assert rep.certified
        ratios3.append(rep.ratio)
    elapsed3 = time.monotonic() - t0

    frozen = json.loads((DATA_DIR / "r2d_bound.json").read_text())
    cfg = frozen["config"]
    dom2 = pk.Domain.disk(cfg["domain"]["center"], cfg["domain"]["radius"],
                          cfg["domain"]["resolution"])
    inc = cfg["inclusion"]
    incl2 = pk.StarInclusion(tuple(inc["x0"]), inc["r0"], tuple(inc["cos"]),
                             tuple(inc["sin"]))
    rows = observability_ensemble(dom2, incl2.x0, incl2, [cfg["contrast"]],
                                  spawned_seeds(cfg["seed"], cfg["members"]),
                                  T_factor=cfg["T_factor"])
    max2 = max(r.ratio for r in rows)

    verdict("04 observability",
            max(ratios3) <= 1.1 and elapsed3 <= 600.0
            and max2 <= frozen["R_2D"],
            f"3-d max ratio {max(ratios3):.3f} over 10 data (<= 1.1, explicit "
            f"constant) in {elapsed3:.0f}s; 2-d ensemble max {max2:.3f} <= "
            f"frozen R_2D {frozen['R_2D']}")


def test_05_hum_control():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 64)
    sf = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, dom)
    T = 4.0 * dom.diam
    phi0 = smooth_h01_field(dom, rng_of(11))
    cert = hum_control(ControlProblem(sf, phi0, T, tol=1e-4, max_iter=200))
    zero = hum_control(ControlProblem(sf, np.zeros_like(phi0), T))
    defect = gramian_symmetry_defect(sf, T, rng_of(12))
    verdict("05 hum control",
            cert.final_energy_rel <= 1e-4 and cert.iterations <= 200
            and np.abs(zero.control).max() == 0.0 and defect <= 1e-8,
            f"final energy {cert.final_energy_rel:.2e} (<= 1e-4) in "
            f"{cert.iterations} CG iterations; zero-control exact; Gramian "
            f"symmetry defect {defect:.1e} (<= 1e-8)")


def _representation_setup(n):
    dom = pk.Domain.rectangle((0, 0), (1, 1), n)
    optics = pk.OpticalCoefficients()
    i1 = pk.StarInclusion((0.45, 0.55), 0.20)
    i2 = pk.StarInclusion((0.52, 0.48), 0.24, (0.0, 0.0, 0.03))
    s1 = pk.build_speed_field(i1, 0.9, dom)
    s2 = pk.build_speed_field(i2, 0.9, dom)
    d1 = pk.make_initial_data(optics, s1, dom)
    d2 = pk.make_initial_data(optics, s2, dom)
    return dom, s1, s2, d1, d2


def test_06_representation_identity():
    t0 = time.monotonic()
    residuals = {}
    for n in (32, 64):
        dom, s1, s2, d1, d2 = _representation_setup(n)
        res = []
        for seed in spawned_seeds(99, 10):
            phi0 = smooth_h01_field(dom, rng_of(seed))
            rr = representation_residual(s1, s2, d1, d2, phi0)
            res.append(rr.residual_rel)
        residuals[n] = res
    worst64 = max(residuals[64])
    elapsed = time.monotonic() - t0
    verdict("06 representation identity",
            worst64 <= 5e-2 and max(residuals[64]) <= max(residuals[32]),
            f"max residual {worst64:.3e} over 10 probes at 64^2 (<= 5e-2), "
            f"refinement 32^2 -> 64^2: {max(residuals[32]):.3e} -> "
            f"{worst64:.3e}, {elapsed:.0f}s")


def test_07_transposition_fidelity():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    sf = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.22), 0.9, dom)
    pts = dom.grid.coords
    bump = np.exp(-60 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.45) ** 2))
    bump *= np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    Ff = np.sin(2 * np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    rep = pk.transposition_check(sf, bump, np.zeros_like(bump), None,
                                 lambda t: np.cos(3.0 * t) * Ff, T=1.5)
    verdict("07 transposition fidelity",
            rep.residual_rel <= 0.02,
            f"relative defect {rep.residual_rel:.3e} at 128^2 (<= 2e-2)")


def test_08_gradient_correctness():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 48)
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25, (0.0, 0.0, 0.04))
    sf = pk.build_speed_field(truth, 0.9, dom)
    data = pk.make_initial_data(optics, sf, dom)
    obs = pk.simulate_forward(sf, data, 4.0 * dom.diam)[1]
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=dom,
                          x0=X0, k_max=3, gamma=1e-8)
    guess = np.array([0.21, 0.01, 0.0, 0.02, 0.0, -0.015, 0.005])
    J, grad = adjoint_gradient(guess, prob)
    rng = rng_of(0)
    worst = 0.0
    for _ in range(5):
        d = rng.normal(size=guess.size)
        d /= np.linalg.norm(d)
        h = 1e-4
        fd = (misfit(guess + h * d, prob) - misfit(guess - h * d, prob)) / (2 * h)
        worst = max(worst, abs(grad @ d - fd) / abs(fd))
    prob0 = InverseProblem(observed=obs, a=0.9, optics=optics, domain=dom,
                           x0=X0, k_max=3, gamma=0.0)
    _, g_truth = adjoint_gradient(truth.params, prob0)
    stat = np.linalg.norm(g_truth) / np.linalg.norm(grad)
    verdict("08 gradient correctness",
            worst <= 1e-3 and stat <= 1e-6,
            f"adjoint vs central FD on 5 directions: worst {worst:.2e} "
            f"(<= 1e-3); stationarity at truth {stat:.2e} (<= 1e-6)")


def _observe_128(truth, optics):
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    sf = pk.build_speed_field(truth, 0.9, dom)
    data = pk.make_initial_data(optics, sf, dom)
    return dom, pk.simulate_forward(sf, data, 4.0 * dom.diam)[1]


def test_09a_reconstruction_disk():
    t0 = time.monotonic()
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25)
    dom, obs = _observe_128(truth, optics)
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=dom,
                          x0=X0, k_max=3)
    res = reconstruct(prob, pk.StarInclusion(X0, 0.20), max_iter=100)
    haus = hausdorff_distance(res.inclusion_hat, truth)
    r0_err = abs(res.params_hat[0] - 0.25) / 0.25
    elapsed = time.monotonic() - t0
    verdict("09a reconstruction (1-mode)",
            haus <= 2.0 * dom.grid.h_min and r0_err <= 0.05
            and elapsed <= 1800.0,
            f"hausdorff {haus:.2e} (<= 2dx = {2 * dom.grid.h_min:.2e}), "
            f"radius error {r0_err:.2e} (<= 5%), {res.n_iterations} "
            f"iterations, {elapsed:.0f}s (budget 1800s)")


def test_09b_reconstruction_three_mode():
    t0 = time.monotonic()
    optics = pk.OpticalCoefficients()
    truth = pk.StarInclusion(X0, 0.25, (0.0, 0.0, 0.04))
    dom, obs = _observe_128(truth, optics)
    prob = InverseProblem(observed=obs, a=0.9, optics=optics, domain=dom,
                          x0=X0, k_max=6)
    # frozen regression config: in-basin disk guess, no radius bracketing
    res = reconstruct(prob, pk.StarInclusion(X0, 0.24), max_iter=100,
                      r0_bracket=0)
    haus = hausdorff_distance(res.inclusion_hat, truth)
    r0_err = abs(res.params_hat[0] - 0.25) / 0.25
    a3_err = abs(res.params_hat[3] - 0.04) / 0.04
    others = float(np.abs(np.delete(res.params_hat, [0, 3])).max())
    noise_floor = 5e-3
    elapsed = time.monotonic() - t0
    verdict("09b reconstruction (3-mode)",
            haus <= 2.0 * dom.grid.h_min and r0_err <= 0.10
            and a3_err <= 0.10 and others <= noise_floor
            and elapsed <= 1800.0,
            f"hausdorff {haus:.2e} (<= {2 * dom.grid.h_min:.2e}), mode-0 err "
            f"{r0_err:.2e}, mode-3 err {a3_err:.2e} (<= 10%), inactive modes "
            f"{others:.1e} (<= {noise_floor}), {res.n_iterations} iterations, "
            f"{elapsed:.0f}s (budget 1800s)")


def test_10_stability_scan():
    t0 = time.monotonic()
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    optics = pk.OpticalCoefficients()
    rng = rng_of(77)
    pool = []
    radii = 0.15 + 0.025 * np.arange(8)
    for r0 in radii:
        cos_c = tuple(rng.normal(scale=0.015, size=3))
        sin_c = tuple(rng.normal(scale=0.015, size=3))
        pool.append(pk.StarInclusion(X0, float(r0), cos_c, sin_c))
    pairs = [(pool[i], pool[j]) for i in range(len(pool))
             for j in range(i + 1, len(pool))][:25]
    report = stability_scan(pairs, 0.9, optics, dom)
    min_h1 = min(r["p_h1"] for r in report.rows)
    elapsed = time.monotonic() - t0
    verdict("10 stability scan",
            len(report.rows) == 25 and min_h1 > 1e-10 and report.d_emp > 0
            and np.isfinite(report.C_emp1) and np.isfinite(report.C_emp2),
            f"25 pairs at 128^2: min ||p1-p2||_H1 {min_h1:.3e} (> 1e-10), "
            f"C_emp1 {report.C_emp1:.3e}, C_emp2 {report.C_emp2:.3e}, "
            f"d_emp {report.d_emp:.3e} (> 0), a0_emp {report.a0_emp:.3f}, "
            f"{elapsed:.0f}s")
