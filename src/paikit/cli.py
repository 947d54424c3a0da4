"""Experiment runner: config parsing, orchestration, artifacts, reports.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 numerical
failure.  All randomness derives from a single seed through counter-based
Philox streams spawned per ensemble member, so reruns are bit-identical at
the printed precision regardless of scheduling.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .geometry import (HORIZON_DIAMS, Domain, GeometryError, StarInclusion,
                       build_speed_field)
from .initial_data import (BETA, COMPAT_TOL, EllipticSolveError, OpticalCoefficients,
                           check_compatibility, make_initial_data)
from .wave_forward import (ENERGY_TOL_REL, CFLError, NumericalError,
                           simulate_forward, trace_norms)
from .observability import (observability_ensemble, rng_of, smooth_h01_field,
                            spawned_seeds)
from .control import (ControlProblem, gramian_symmetry_defect, hum_control,
                      representation_residual)
from .inversion import (DATA_FLOOR, InverseProblem, hausdorff_distance,
                        reconstruct, stability_scan)
from .io import RunManifest, config_hash, fmt, save_array, save_csv


class ConfigError(ValueError):
    pass


# -- strict config schema -----------------------------------------------------

def _as_bool(val) -> bool:
    """A real boolean, or the string true/false in any case."""
    if isinstance(val, bool):
        return val
    if isinstance(val, str) and val.lower() in ("true", "false"):
        return val.lower() == "true"
    raise ValueError(val)


def _expect(cfg, path, schema):
    """Validate ``cfg`` against a nested schema, rejecting unknown keys."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    out = {}
    for key, spec in schema.items():
        sub_path = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _expect(cfg.get(key, {}), sub_path, spec)
            continue
        kind, default = spec
        val = cfg.get(key, default)
        if val is None:
            if default is not None:
                raise ConfigError(f"{sub_path}: expected {kind}, got null")
            out[key] = None
            continue
        try:
            if kind == "float":
                val = float(val)
            elif kind == "int":
                val = int(val)
            elif kind == "str":
                val = str(val)
            elif kind == "bool":
                val = _as_bool(val)
            elif kind == "floats":
                val = [float(v) for v in val]
        except (TypeError, ValueError):
            raise ConfigError(f"{sub_path}: expected {kind}, got {val!r}")
        out[key] = val
    return out


INCLUSION_SCHEMA = {
    "x0": ("floats", [0.5, 0.5]),
    "r0": ("float", 0.25),
    "cos": ("floats", []),
    "sin": ("floats", []),
}

# the optics defaults are OpticalCoefficients' own
OPTICS_FIELDS = dataclasses.fields(OpticalCoefficients)

SCHEMA = {
    "geometry": {
        "domain": {
            "shape": ("str", "rectangle"),
            "lo": ("floats", [0.0, 0.0]),
            "hi": ("floats", [1.0, 1.0]),
            "center": ("floats", None),
            "radius": ("float", None),
            "resolution": ("int", 64),
        },
        "inclusion": INCLUSION_SCHEMA,
        "contrast": ("float", 0.9),
    },
    "optics": {
        **{f.name: ("float", f.default) for f in OPTICS_FIELDS},
        "h2_bound": ("float", None),
    },
    "solver": {
        "T_factor": ("float", HORIZON_DIAMS),
        "beta": ("float", BETA),
    },
    "experiment": {
        # must name the subcommand when given; None takes the subcommand's
        "kind": ("str", None),
        "members": ("int", 10),
        "contrasts": ("floats", None),
        "with_source": ("bool", False),
        "tol": ("float", 1e-4),
        "max_iter": ("int", 200),
        "probes": ("int", 10),
        "inclusion2": INCLUSION_SCHEMA,
        "guess": INCLUSION_SCHEMA,
        "k_max": ("int", 3),
        "gamma": ("float", 0.0),
        # half-width of reconstruct's radius bracket, which scores each of
        # its 2 r0_bracket + 1 radii on the trace's first diameter
        "r0_bracket": ("int", 5),
        "n_pairs": ("int", 25),
        "ratio_bound": ("float", None),
    },
    "seed": ("int", 1234),
    "output": ("str", "runs/out"),
}


def load_config(path, overrides: dict) -> dict:
    raw = {}
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"YAML parse error: {exc}")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    cfg = _expect(raw, "", SCHEMA)
    for key, val in overrides.items():
        if val is None:
            continue
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = val
    T_factor = cfg["solver"]["T_factor"]
    if not T_factor > 0:
        raise ConfigError(f"solver.T_factor: must be positive, got {T_factor!r}")
    return cfg


def build_domain(cfg: dict, dim: int | None) -> Domain:
    d = cfg["geometry"]["domain"]
    n = d["resolution"]
    if d["shape"] == "rectangle":
        lo, hi = d["lo"], d["hi"]
        if dim == 3 and len(lo) == 2:
            lo, hi = lo + [lo[0]], hi + [hi[0]]
        return Domain.rectangle(lo, hi, n)
    if d["shape"] == "disk":
        center = d["center"] if d["center"] is not None else [0.0, 0.0]
        radius = d["radius"] if d["radius"] is not None else 1.0
        if dim == 3 and len(center) == 2:
            center = center + [center[0]]
        return Domain.disk(center, radius, n)
    raise ConfigError(f"geometry.domain.shape: unknown shape {d['shape']!r}")


def build_inclusion(block: dict, domain: Domain) -> StarInclusion:
    x0 = block["x0"]
    if domain.dimension == 3 and len(x0) == 2:
        x0 = x0 + [x0[0]]
    return StarInclusion(tuple(x0), block["r0"], tuple(block["cos"]),
                         tuple(block["sin"]))


def _setup(cfg: dict, dim: int | None):
    domain = build_domain(cfg, dim)
    g = cfg["geometry"]
    incl = build_inclusion(g["inclusion"], domain)
    speed = build_speed_field(incl, g["contrast"], domain)
    optics = OpticalCoefficients(**{f.name: cfg["optics"][f.name] for f in OPTICS_FIELDS})
    return domain, incl, speed, optics


def horizon(cfg: dict, domain: Domain) -> float:
    return cfg["solver"]["T_factor"] * domain.diam


# -- experiments ---------------------------------------------------------------

def run_forward(cfg, out: Path, manifest: RunManifest, dim):
    domain, incl, speed, optics = _setup(cfg, dim)
    T = horizon(cfg, domain)
    data = make_initial_data(optics, speed, domain, beta=cfg["solver"]["beta"],
                             h2_bound=cfg["optics"]["h2_bound"])
    comp = check_compatibility(data, speed, domain)
    _, trace, erep = simulate_forward(speed, data, T)
    meta = dict(trace.meta)
    meta.update({"dt": trace.dt, "config_hash": manifest.config_hash,
                 "boundary_nodes": int(trace.weights.size)})
    manifest.add_artifact(save_array(out / "trace.f64", trace.values, meta))
    grid_meta = {"grid": list(domain.grid.shape),
                 "config_hash": manifest.config_hash}
    manifest.add_artifact(save_array(out / "f.f64",
                                     domain.grid.reshape(data.f), grid_meta))
    manifest.add_artifact(save_array(out / "g.f64",
                                     domain.grid.reshape(data.g), grid_meta))
    rows = [(t, e) for t, e in zip(erep.times, erep.E)]
    manifest.add_artifact(save_csv(out / "energy.csv", ["t", "E"], rows))
    tn = trace_norms(trace, domain)
    manifest.constants.update({"C_run": erep.c_run, "trace_h1": tn["h1"],
                               "p2a_residual": comp.res_boundary_rel})
    manifest.check("energy_nonincreasing", erep.is_nonincreasing(),
                   value=float(np.diff(erep.E).max()), bound=ENERGY_TOL_REL * erep.E0)
    manifest.check("dissipation_identity", erep.identity_defect <= 0.05 * erep.E0,
                   value=erep.identity_defect, bound=0.05 * erep.E0)
    manifest.check("compatibility_boundary", comp.weak_wellposed,
                   value=comp.res_boundary_rel, bound=COMPAT_TOL)


def run_observe(cfg, out: Path, manifest: RunManifest, dim):
    domain, incl, speed, optics = _setup(cfg, dim)
    exp = cfg["experiment"]
    a_values = exp["contrasts"] or [cfg["geometry"]["contrast"]]
    seeds = spawned_seeds(cfg["seed"], exp["members"])
    rows = observability_ensemble(domain, incl.x0, incl, a_values, seeds,
                                  T_factor=cfg["solver"]["T_factor"],
                                  with_source=exp["with_source"])
    header = ["seed", "a", "T", "eps", "lhs", "flux", "source", "constant",
              "ratio", "ratio_proof_form", "certified"]
    # the reports run contrast-major, then seed
    manifest.add_artifact(save_csv(out / "observability.csv", header,
                                   [(seed, r.a, r.T, r.meta["eps"], r.lhs, r.flux,
                                     r.source, r.constant, r.ratio,
                                     r.ratio_proof_form, r.certified)
                                    for seed, r in zip(seeds * len(a_values), rows)]))
    max_ratio = max(r.ratio for r in rows)
    manifest.constants["max_ratio"] = max_ratio
    if domain.dimension == 3:
        manifest.check("observability_3d_ratio",
                       all(r.ratio <= 1.1 for r in rows if r.certified),
                       value=max_ratio, bound=1.1)
    bound = exp["ratio_bound"]
    if bound is not None:
        manifest.check("observability_ratio_bound", max_ratio <= bound,
                       value=max_ratio, bound=bound)


def run_control(cfg, out: Path, manifest: RunManifest, dim):
    domain, incl, speed, optics = _setup(cfg, dim)
    exp = cfg["experiment"]
    rng = rng_of(cfg["seed"])
    phi0 = smooth_h01_field(domain, rng)
    T = HORIZON_DIAMS * domain.diam
    problem = ControlProblem(speed, phi0, T, tol=exp["tol"], max_iter=exp["max_iter"])
    cert = hum_control(problem)
    meta = {"iterations": cert.iterations,
            "final_energy_rel": cert.final_energy_rel,
            "lambda_norm_emp": cert.lambda_norm_emp,
            "problem_hash": cert.problem_hash,
            "config_hash": manifest.config_hash, "dt": cert.dt}
    manifest.add_artifact(save_array(out / "control.f64", cert.control, meta))
    zero = hum_control(ControlProblem(speed, np.zeros_like(phi0), T, tol=exp["tol"]))
    defect = gramian_symmetry_defect(speed, T, rng_of(cfg["seed"] + 1))
    manifest.constants.update({"lambda_norm_emp": cert.lambda_norm_emp,
                               "sup_state_const": cert.sup_state_const,
                               "iterations": cert.iterations})
    manifest.histories["hum_cg"] = {
        "residual": cert.convergence[:, 0].tolist(),
        "final_energy_rel": cert.convergence[:, 1].tolist()}
    manifest.check("final_energy", cert.final_energy_rel <= exp["tol"],
                   value=cert.final_energy_rel, bound=exp["tol"])
    manifest.check("zero_control_is_zero", float(np.abs(zero.control).max()) == 0.0,
                   value=float(np.abs(zero.control).max()), bound=0.0)
    manifest.check("gramian_symmetry", defect <= 1e-8, value=defect, bound=1e-8)


def run_represent(cfg, out: Path, manifest: RunManifest, dim):
    domain, incl1, speed1, optics = _setup(cfg, dim)
    exp = cfg["experiment"]
    incl2 = build_inclusion(exp["inclusion2"], domain)
    speed2 = build_speed_field(incl2, cfg["geometry"]["contrast"], domain)
    beta = cfg["solver"]["beta"]
    data1 = make_initial_data(optics, speed1, domain, beta=beta)
    data2 = make_initial_data(optics, speed2, domain, beta=beta)
    rows = []
    worst = 0.0
    for k, seed in enumerate(spawned_seeds(cfg["seed"], exp["probes"])):
        phi0 = smooth_h01_field(domain, rng_of(seed))
        rr = representation_residual(speed1, speed2, data1, data2, phi0,
                                     tol=exp["tol"], max_iter=exp["max_iter"])
        rows.append((k, rr.A, rr.B, rr.C, rr.D, rr.residual_rel))
        worst = max(worst, rr.residual_rel)
    manifest.add_artifact(save_csv(out / "representation.csv",
                                   ["probe", "A", "B", "C", "D", "residual_rel"],
                                   rows))
    manifest.constants["max_residual_rel"] = worst
    manifest.check("representation_residual", worst <= 5e-2, value=worst,
                   bound=5e-2)


def run_invert(cfg, out: Path, manifest: RunManifest, dim):
    domain, truth, speed, optics = _setup(cfg, dim)
    exp = cfg["experiment"]
    beta = cfg["solver"]["beta"]
    data = make_initial_data(optics, speed, domain, beta=beta)
    _, observed, _ = simulate_forward(speed, data, horizon(cfg, domain),
                                      ledger=False)
    problem = InverseProblem(observed=observed, a=cfg["geometry"]["contrast"],
                             optics=optics, domain=domain, x0=truth.x0,
                             k_max=exp["k_max"], beta=beta, gamma=exp["gamma"])
    guess = build_inclusion(exp["guess"], domain)
    result = reconstruct(problem, guess, max_iter=min(exp["max_iter"], 100),
                         r0_bracket=exp["r0_bracket"])
    haus = hausdorff_distance(result.inclusion_hat, truth)
    manifest.add_artifact(save_csv(
        out / "reconstruction.csv", ["iteration", "misfit", "grad_norm"],
        list(zip(range(len(result.misfit_history)), result.misfit_history,
                 result.grad_norm_history))))
    rec = {"params": [float(v) for v in result.params_hat],
           "x0": list(truth.x0), "k_max": exp["k_max"],
           "hausdorff_to_truth": haus,
           "iterations": result.n_iterations, "message": result.message,
           "config_hash": manifest.config_hash}
    path = out / "inclusion_hat.json"
    path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    from .io import file_digest
    manifest.add_artifact({"path": str(path), "sha256": file_digest(path),
                           "bytes": path.stat().st_size})
    manifest.constants["hausdorff"] = haus
    manifest.check("hausdorff", haus <= 2.0 * domain.grid.h_min, value=haus,
                   bound=2.0 * domain.grid.h_min)


def run_scan(cfg, out: Path, manifest: RunManifest, dim):
    domain, incl, speed, optics = _setup(cfg, dim)
    exp = cfg["experiment"]
    a = cfg["geometry"]["contrast"]
    rng = rng_of(cfg["seed"])
    pool = []
    room = domain.dist_to_boundary(incl.x0) - 0.05 * domain.diam
    while len(pool) < max(2, int(np.ceil((1 + np.sqrt(1 + 8 * exp["n_pairs"])) / 2))):
        r0 = rng.uniform(0.4, 0.75) * room
        cos = rng.normal(scale=0.1 * r0, size=3)
        sin = rng.normal(scale=0.1 * r0, size=3)
        try:
            pool.append(StarInclusion(incl.x0, r0, tuple(cos), tuple(sin)))
        except GeometryError:
            continue
    pairs = [(pool[i], pool[j]) for i in range(len(pool))
             for j in range(i + 1, len(pool))][:exp["n_pairs"]]
    report = stability_scan(pairs, a, optics, domain, beta=cfg["solver"]["beta"])
    header = list(report.rows[0].keys())
    manifest.add_artifact(save_csv(out / "scan.csv", header,
                                   [[r[k] for k in header] for r in report.rows]))
    manifest.constants.update({"C_emp1": report.C_emp1, "C_emp2": report.C_emp2,
                               "d_emp": report.d_emp, "a0_emp": report.a0_emp})
    min_h1 = min(r["p_h1"] for r in report.rows)
    manifest.check("identifiability_floor", min_h1 > DATA_FLOOR, value=min_h1,
                   bound=DATA_FLOOR)
    manifest.check("d_emp_positive", report.d_emp > 0, value=report.d_emp,
                   bound=0.0)
    manifest.check("constants_finite",
                   np.isfinite(report.C_emp1) and np.isfinite(report.C_emp2))


RUNNERS = {"forward": run_forward, "observe": run_observe,
           "control": run_control, "represent": run_represent,
           "invert": run_invert, "scan": run_scan}
# the subcommands fixed at T = HORIZON_DIAMS diam, which reject another solver.T_factor
FIXED_HORIZON = ("control", "represent", "scan")


@click.group()
@click.version_option(__version__)
def main():
    """Photoacoustic inclusion-recovery experiment runner."""


def _common(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="YAML experiment config")(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--dim", type=click.Choice(["2", "3"]), default=None)(fn)
    fn = click.option("--resolution", type=int, default=None)(fn)
    fn = click.option("--out", type=click.Path(), default=None)(fn)
    fn = click.option("--small", is_flag=True, default=False,
                      help="reduced acceptance preset")(fn)
    return fn


def _run(kind, config_path, seed, dim, resolution, out, small):
    try:
        overrides = {"seed": seed, "output": out,
                     "geometry.domain.resolution": resolution}
        cfg = load_config(config_path, overrides)
        if cfg["experiment"]["kind"] not in (None, kind):
            raise ConfigError(f"experiment.kind: {cfg['experiment']['kind']!r} "
                              f"does not match the subcommand {kind!r}")
        cfg["experiment"]["kind"] = kind
        T_factor = cfg["solver"]["T_factor"]
        if kind in FIXED_HORIZON and T_factor != HORIZON_DIAMS:
            raise ConfigError(f"solver.T_factor: {kind} runs at T = "
                              f"{HORIZON_DIAMS:g} diam, got {T_factor!r}")
        dim_i = int(dim) if dim else None
        if kind == "observe" and dim_i == 3:
            if resolution is None:
                cfg["geometry"]["domain"]["resolution"] = 32
            cfg["geometry"]["domain"]["shape"] = "disk"
            if cfg["geometry"]["domain"]["radius"] is None:
                cfg["geometry"]["domain"]["center"] = [0.0, 0.0]
                cfg["geometry"]["domain"]["radius"] = 1.0
                cfg["geometry"]["inclusion"]["x0"] = [0.0, 0.0]
                cfg["geometry"]["inclusion"]["r0"] = 0.35
        if small:
            cfg["experiment"]["members"] = min(cfg["experiment"]["members"], 3)
            cfg["experiment"]["probes"] = min(cfg["experiment"]["probes"], 2)
            cfg["experiment"]["n_pairs"] = min(cfg["experiment"]["n_pairs"], 6)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)

    out_dir = Path(cfg["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.start(kind, config_hash(cfg), __version__)
    try:
        RUNNERS[kind](cfg, out_dir, manifest, int(dim) if dim else None)
    # CFLError is a ValueError, so the numerical failures are caught first
    except (CFLError, NumericalError, EllipticSolveError, RuntimeError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    except (GeometryError, ConfigError, ValueError, NotImplementedError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    path = manifest.save(out_dir / "manifest.json")
    for a in manifest.assertions:
        status = "PASS" if a["passed"] else "FAIL"
        click.echo(f"[{status}] {a['name']}"
                   + (f" value={fmt(a['value'])}" if a["value"] is not None else "")
                   + (f" bound={fmt(a['bound'])}" if a["bound"] is not None else ""))
    click.echo(f"manifest: {path}")
    sys.exit(0 if manifest.all_passed else 1)


for _kind in RUNNERS:
    def _make(kind):
        @_common
        def cmd(config_path, seed, dim, resolution, out, small):
            _run(kind, config_path, seed, dim, resolution, out, small)
        cmd.__name__ = kind
        return cmd
    main.command(name=_kind)(_make(_kind))


@main.command()
@click.argument("manifest_dir", type=click.Path(exists=False))
def report(manifest_dir):
    """Aggregate manifests under MANIFEST_DIR into a summary table."""
    root = Path(manifest_dir)
    paths = sorted(root.rglob("manifest.json"))
    if not paths:
        click.echo(f"error: no manifests under {manifest_dir}", err=True)
        sys.exit(2)
    rows = []
    warnings = 0
    worst_fail = False
    for p in paths:
        try:
            m = RunManifest.load(p)
        except (json.JSONDecodeError, TypeError, OSError) as exc:
            click.echo(f"warning: skipping unreadable manifest {p}: {exc}",
                       err=True)
            warnings += 1
            continue
        bad = m.verify_artifacts()
        if bad:
            click.echo(f"warning: digest mismatch in {p}: {bad}", err=True)
            warnings += 1
        n_pass = sum(a["passed"] for a in m.assertions)
        worst_fail |= not m.all_passed
        consts = " ".join(f"{k}={fmt(v)}" for k, v in sorted(m.constants.items()))
        rows.append([str(p.parent), m.command, m.config_hash,
                     f"{n_pass}/{len(m.assertions)}",
                     "pass" if m.all_passed else "FAIL", consts])
    width = [max(len(r[i]) for r in rows + [["run", "cmd", "config", "ok", "st", ""]])
             for i in range(6)]
    header = ["run", "cmd", "config", "ok", "st", "constants"]
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, width)))
    for r in rows:
        click.echo("  ".join(c.ljust(w) for c, w in zip(r, width)))
    save_csv(root / "report.csv",
             ["run", "command", "config_hash", "passed", "status", "constants"],
             rows)
    click.echo(f"report: {root / 'report.csv'}"
               + (f" ({warnings} warnings)" if warnings else ""))
    sys.exit(1 if worst_fail else 0)


if __name__ == "__main__":
    main()
