"""The three benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one operation
on them (``run``) and judges the result at the acceptance tolerances
(``check``, which returns the failed verdicts).  The configurations mirror
the acceptance suite in ``tests/test_acceptance.py``; the seed draws the
parts that suite draws from a fixed seed.  Every paikit call goes through a
module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import paikit as pk
import paikit.control as control
import paikit.inversion as inversion
import paikit.observability as observability

X0 = (0.5, 0.5)


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawned_seeds(seed: int, count: int) -> list:
    """Member seeds, drawn the way the CLI and the acceptance suite draw them."""
    return [int(s.generate_state(1)[0]) for s in
            np.random.SeedSequence(seed).spawn(count)]


def ready(dom: pk.Domain) -> pk.Domain:
    """Build the domain's operators that the solvers would build lazily."""
    for attr in ("K_ii", "K_ib", "trace_inside", "trace_boundary"):
        getattr(dom.disc, attr)
    return dom


def unit_square(n: int) -> pk.Domain:
    return ready(pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), n))


def _fail(cond: bool, msg: str) -> list:
    return [] if cond else [msg]


class Invert128:
    """Acceptance 09a: adjoint L-BFGS recovery of a disk at 128^2.

    The seed shifts truth and guess together by less than a quarter cell,
    which keeps the bracket choice and the descent path, so every seed does
    the same work.
    """

    name = "invert-128"

    def setup(self, seed: int) -> dict:
        dom = unit_square(128)
        shift = rng_of(seed).uniform(-0.25, 0.25) * dom.grid.h_min
        truth = pk.StarInclusion(X0, 0.25 + shift)
        optics = pk.OpticalCoefficients()
        speed = pk.build_speed_field(truth, 0.9, dom)
        data = pk.make_initial_data(optics, speed, dom)
        observed = pk.simulate_forward(speed, data, 4.0 * dom.diam)[1]
        return {"domain": dom, "truth": truth, "optics": optics,
                "observed": observed, "guess": pk.StarInclusion(X0, 0.20 + shift)}

    def run(self, inp):
        problem = pk.InverseProblem(observed=inp["observed"], a=0.9,
                                    optics=inp["optics"], domain=inp["domain"],
                                    x0=X0, k_max=3)
        return pk.reconstruct(problem, inp["guess"], max_iter=100, r0_bracket=5)

    def check(self, inp, res) -> list:
        truth, dx = inp["truth"], inp["domain"].grid.h_min
        haus = inversion.hausdorff_distance(res.inclusion_hat, truth)
        r0_err = abs(res.params_hat[0] - truth.r0) / truth.r0
        return (_fail(haus <= 2.0 * dx, f"hausdorff {haus:.3e} > 2dx")
                + _fail(r0_err <= 0.05, f"radius error {r0_err:.3e} > 5%"))


class Scan128:
    """Acceptance 10: the 25-pair stability scan at 128^2.

    The seed draws the radial modes of the 8-inclusion pool; the radii and
    hence the time grid stay fixed.
    """

    name = "scan-128"

    def setup(self, seed: int) -> dict:
        dom = unit_square(128)
        rng = rng_of(seed)
        pool = []
        for r0 in 0.15 + 0.025 * np.arange(8):
            cos_c = tuple(rng.normal(scale=0.015, size=3))
            sin_c = tuple(rng.normal(scale=0.015, size=3))
            pool.append(pk.StarInclusion(X0, float(r0), cos_c, sin_c))
        pairs = [(pool[i], pool[j]) for i in range(len(pool))
                 for j in range(i + 1, len(pool))][:25]
        return {"domain": dom, "optics": pk.OpticalCoefficients(), "pairs": pairs}

    def run(self, inp):
        return pk.stability_scan(inp["pairs"], 0.9, inp["optics"], inp["domain"])

    def check(self, inp, rep) -> list:
        min_h1 = min((r["p_h1"] for r in rep.rows), default=0.0)
        return (_fail(len(rep.rows) == 25, f"{len(rep.rows)} rows, not 25")
                + _fail(min_h1 > 1e-10, f"min p_h1 {min_h1:.3e} <= 1e-10")
                + _fail(rep.d_emp > 0, f"d_emp {rep.d_emp:.3e} <= 0")
                + _fail(bool(np.isfinite(rep.C_emp1) and np.isfinite(rep.C_emp2)),
                        "non-finite stability constant"))


class Control64:
    """Acceptance 05 plus three 06 representation probes, all at 64^2.

    The seed draws the symmetry probes and the representation probe
    velocities.  The velocity steered to rest is acceptance 05's: CG-HUM
    checks the final energy every 10 iterations and some draws need 20,
    which would make the work per operation depend on the seed.
    """

    name = "control-64"
    n_representation = 3

    def setup(self, seed: int) -> dict:
        dom = unit_square(64)
        speed = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, dom)
        optics = pk.OpticalCoefficients()
        s1 = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.20), 0.9, dom)
        s2 = pk.build_speed_field(
            pk.StarInclusion((0.52, 0.48), 0.24, (0.0, 0.0, 0.03)), 0.9, dom)
        d1 = pk.make_initial_data(optics, s1, dom)
        d2 = pk.make_initial_data(optics, s2, dom)
        seeds = spawned_seeds(seed, 1 + self.n_representation)
        probes = [observability.smooth_h01_field(dom, rng_of(s)) for s in seeds[1:]]
        return {"domain": dom, "speed": speed, "T": 4.0 * dom.diam,
                "phi0": observability.smooth_h01_field(dom, rng_of(11)),
                "symmetry_seed": seeds[0], "pair": (s1, s2, d1, d2),
                "probes": probes}

    def run(self, inp):
        speed, T = inp["speed"], inp["T"]
        cert = pk.hum_control(pk.ControlProblem(speed, inp["phi0"], T,
                                                tol=1e-4, max_iter=200))
        zero = pk.hum_control(pk.ControlProblem(speed, np.zeros_like(inp["phi0"]), T))
        defect = control.gramian_symmetry_defect(speed, T, rng_of(inp["symmetry_seed"]))
        residuals = [pk.representation_residual(*inp["pair"], phi0).residual_rel
                     for phi0 in inp["probes"]]
        return cert, zero, defect, residuals

    def check(self, inp, out) -> list:
        cert, zero, defect, residuals = out
        fails = (_fail(cert.final_energy_rel <= 1e-4 and cert.iterations <= 200,
                       f"final energy {cert.final_energy_rel:.3e} after "
                       f"{cert.iterations} iterations")
                 + _fail(np.abs(zero.control).max() == 0.0, "zero control not exact")
                 + _fail(defect <= 1e-8, f"Gramian symmetry defect {defect:.3e}"))
        for k, res in enumerate(residuals):
            fails += _fail(res <= 5e-2, f"representation probe {k}: residual {res:.3e}")
        return fails


class Observe3d:
    """Acceptance 04: 10 members on the 32^3 ball and the frozen 2-d ensemble.

    The seed draws the 3-d members.  The 2-d ensemble keeps the seed frozen
    with its regression bound in ``paikit/data/r2d_bound.json``, because
    that bound was calibrated for exactly those members.
    """

    name = "observe-3d"

    def setup(self, seed: int) -> dict:
        x0 = (0.0, 0.0, 0.0)
        dom3 = ready(pk.Domain.disk(x0, 1.0, 32))
        speed3 = pk.build_speed_field(pk.StarInclusion(x0, 0.35), 0.9, dom3)
        members = []
        for s in spawned_seeds(seed, 10):
            rng = rng_of(s)
            u0 = observability.smooth_h01_field(dom3, rng)
            members.append((u0, observability.smooth_field(dom3, rng)))
        frozen = json.loads((Path(pk.__file__).parent / "data" / "r2d_bound.json")
                            .read_text())
        cfg = frozen["config"]
        dom2 = ready(pk.Domain.disk(cfg["domain"]["center"], cfg["domain"]["radius"],
                                    cfg["domain"]["resolution"]))
        inc = cfg["inclusion"]
        incl2 = pk.StarInclusion(tuple(inc["x0"]), inc["r0"], tuple(inc["cos"]),
                                 tuple(inc["sin"]))
        return {"domain": dom3, "x0": x0, "speed3": speed3, "T3": 4.0 * dom3.diam,
                "members": members, "domain2": dom2, "inclusion2": incl2,
                "contrast2": cfg["contrast"], "T_factor2": cfg["T_factor"],
                "seeds2": spawned_seeds(cfg["seed"], cfg["members"]),
                "R_2D": frozen["R_2D"]}

    def run(self, inp):
        reports = [pk.observability_ratio(inp["speed3"], u0, u1, None, inp["T3"],
                                          inp["x0"])
                   for u0, u1 in inp["members"]]
        incl2 = inp["inclusion2"]
        rows = pk.observability_ensemble(inp["domain2"], incl2.x0, incl2,
                                         [inp["contrast2"]], inp["seeds2"],
                                         T_factor=inp["T_factor2"])
        return reports, rows

    def check(self, inp, out) -> list:
        reports, rows = out
        max3 = max(r.ratio for r in reports)
        max2 = max(r.ratio for r in rows)
        return (_fail(all(r.certified for r in reports), "3-d member not certified")
                + _fail(max3 <= 1.1, f"3-d ratio {max3:.3f} > 1.1")
                + _fail(max2 <= inp["R_2D"], f"2-d ratio {max2:.3f} > R_2D {inp['R_2D']}"))


class ControlObserve:
    """Acceptance 05 and 06 at 64^2, then acceptance 04 in 3-d and 2-d.

    The control and observability sides of the paper in one operation: both
    run on the Dirichlet leapfrog, and together they take about as long as
    one operation of the 128^2 workloads.  The seed draws what each part
    draws on its own.
    """

    name = "control-observe"
    parts = (Control64(), Observe3d())

    def setup(self, seed: int) -> dict:
        inputs = [part.setup(seed) for part in self.parts]
        # the kernel baseline runs on the grid of the 64^2 forward runs
        return {"domain": inputs[0]["domain"], "parts": inputs}

    def run(self, inp):
        return [part.run(i) for part, i in zip(self.parts, inp["parts"])]

    def check(self, inp, out) -> list:
        return [f"{part.name}: {msg}"
                for part, i, o in zip(self.parts, inp["parts"], out)
                for msg in part.check(i, o)]


WORKLOADS = {w.name: w for w in (Invert128(), Scan128(), ControlObserve())}
