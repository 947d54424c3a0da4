"""Acceptance suite: one test per criterion, one printed verdict line each.

Resolutions and run parameters are pinned here.  Every tolerance and runtime
budget is a row of ``paikit.verdicts.ROWS``, the contract's one definition,
and each check is judged through it; regression bounds (the 2-d
observability bound, the reconstruction configs) are frozen in-repo with
their generating configs.
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
from paikit.verdicts import ROWS, judge
from paikit.wave_dirichlet import DirichletProblem
from conftest import eigenmode, weighted_l2

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "paikit" / "data"
X0 = (0.5, 0.5)


class Verdict:
    """One printed verdict line, each of its checks judged on a contract row."""

    def __init__(self, name):
        self.name, self.failed = name, []

    def check(self, row_id, value, scale=1.0) -> str:
        """Judge ``value`` on row ``row_id``; return the bound as the line's text."""
        passed, bound, _ = judge(row_id, value, scale)
        if not passed:
            self.failed.append(row_id)
        row = ROWS[row_id]
        if row.op == "finite":
            return "finite"
        if row.scale == "1":
            return f"{row.op} {bound:g}"
        return f"{row.op} {row.bound:g} {row.scale}" + (
            f" = {bound:.3g}" if scale != 1.0 else "")

    def close(self, detail):
        print(f"\n[{'FAIL' if self.failed else 'PASS'}] {self.name}: {detail}")
        assert not self.failed, f"{self.name}: {detail} (failed: {self.failed})"


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
    v = Verdict("01 solver convergence")
    v.close(f"orders {orders[0]:.2f}/{orders[1]:.2f} across 64/128/256 "
            f"({v.check('solver_order', min(orders))}), "
            f"{elapsed:.0f}s (budget {v.check('budget_01', elapsed)}s)")


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
    # both are relative to E0, so each row's E0 scale is 1 here
    v = Verdict("02 energy decay")
    v.close(f"max per-step increase {worst_step:.2e} "
            f"({v.check('energy_nonincreasing', worst_step)}), "
            f"dissipation balance {worst_balance:.2e} "
            f"({v.check('dissipation_identity', worst_balance)}), "
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

    v = Verdict("03 dirichlet energy conservation")
    v.close(f"c==1 drift {drift_c1:.2e} ({v.check('dirichlet_drift', drift_c1)}); "
            f"weighted-invariant drift {drift_w:.2e} at a=0.9 "
            f"({v.check('dirichlet_drift', drift_w)}); unweighted form drifts "
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

    v = Verdict("04 observability")
    v.close(f"3-d max ratio {max(ratios3):.3f} over 10 data "
            f"({v.check('observability_3d_ratio', max(ratios3))}, explicit constant) "
            f"in {elapsed3:.0f}s (budget {v.check('budget_04', elapsed3)}s); "
            f"2-d ensemble max {max2:.3f} ("
            f"{v.check('observability_ratio_bound', max2, frozen['R_2D'])}, "
            f"the frozen R_2D)")


def test_05_hum_control():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 64)
    sf = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, dom)
    T = 4.0 * dom.diam
    phi0 = smooth_h01_field(dom, rng_of(11))
    problem = ControlProblem(sf, phi0, T, tol=1e-4, max_iter=200)
    cert = hum_control(problem)
    zero = hum_control(ControlProblem(sf, np.zeros_like(phi0), T))
    defect = gramian_symmetry_defect(sf, T, rng_of(12))
    v = Verdict("05 hum control")
    v.close(f"final energy {cert.final_energy_rel:.2e} "
            f"({v.check('final_energy', cert.final_energy_rel, problem.tol)}) in "
            f"{cert.iterations} CG iterations "
            f"({v.check('hum_iterations', cert.iterations, problem.max_iter)}); "
            f"zero-control exact "
            f"({v.check('zero_control_is_zero', np.abs(zero.control).max())}); "
            f"Gramian symmetry defect {defect:.1e} "
            f"({v.check('gramian_symmetry', defect)})")


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
    worst32, worst64 = max(residuals[32]), max(residuals[64])
    elapsed = time.monotonic() - t0
    v = Verdict("06 representation identity")
    v.close(f"max residual {worst64:.3e} over 10 probes at 64^2 "
            f"({v.check('representation_residual', worst64)}), "
            f"refinement 32^2 -> 64^2: {worst32:.3e} -> {worst64:.3e} "
            f"({v.check('representation_refinement', worst64, worst32)}), "
            f"{elapsed:.0f}s")


def test_07_transposition_fidelity():
    dom = pk.Domain.rectangle((0, 0), (1, 1), 128)
    sf = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.22), 0.9, dom)
    pts = dom.grid.coords
    bump = np.exp(-60 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.45) ** 2))
    bump *= np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    Ff = np.sin(2 * np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    rep = pk.transposition_check(sf, bump, np.zeros_like(bump), None,
                                 lambda t: np.cos(3.0 * t) * Ff, T=1.5)
    v = Verdict("07 transposition fidelity")
    v.close(f"relative defect {rep.residual_rel:.3e} at 128^2 "
            f"({v.check('transposition_defect', rep.residual_rel)})")


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
    v = Verdict("08 gradient correctness")
    v.close(f"adjoint vs central FD on 5 directions: worst {worst:.2e} "
            f"({v.check('gradient_fd', worst)}); stationarity at truth "
            f"{stat:.2e} ({v.check('gradient_stationarity', stat)})")


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
    v = Verdict("09a reconstruction (1-mode)")
    v.close(f"hausdorff {haus:.2e} ({v.check('hausdorff', haus, dom.grid.h_min)}), "
            f"radius error {r0_err:.2e} ({v.check('radius_error_1mode', r0_err)}), "
            f"{res.n_iterations} iterations, {elapsed:.0f}s "
            f"(budget {v.check('budget_09', elapsed)}s)")


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
    elapsed = time.monotonic() - t0
    v = Verdict("09b reconstruction (3-mode)")
    v.close(f"hausdorff {haus:.2e} ({v.check('hausdorff', haus, dom.grid.h_min)}), "
            f"mode-0 err {r0_err:.2e} ({v.check('radius_error_3mode', r0_err)}), "
            f"mode-3 err {a3_err:.2e} ({v.check('mode3_error', a3_err)}), "
            f"inactive modes {others:.1e} ({v.check('inactive_modes', others)}), "
            f"{res.n_iterations} iterations, {elapsed:.0f}s "
            f"(budget {v.check('budget_09', elapsed)}s)")


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
    c_max = np.max(np.abs([report.C_emp1, report.C_emp2]))
    v = Verdict("10 stability scan")
    v.close(f"{len(report.rows)} pairs at 128^2 "
            f"({v.check('scan_pairs', len(report.rows))}): min ||p1-p2||_H1 "
            f"{min_h1:.3e} ({v.check('identifiability_floor', min_h1)}), "
            f"C_emp1 {report.C_emp1:.3e}, C_emp2 {report.C_emp2:.3e} "
            f"({v.check('constants_finite', c_max)}), "
            f"d_emp {report.d_emp:.3e} ({v.check('d_emp_positive', report.d_emp)}), "
            f"a0_emp {report.a0_emp:.3f}, {elapsed:.0f}s")
