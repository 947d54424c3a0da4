import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from paikit import cli
from paikit.cli import load_config, main
from paikit.io import RunManifest, load_array, file_digest, fmt
from paikit.verdicts import ROWS, margin
from paikit.wave_forward import time_grid
from conftest import window_levels

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = SRC_DIR / "paikit" / "configs"


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL_FORWARD = """
geometry:
  domain: {shape: rectangle, lo: [0.0, 0.0], hi: [1.0, 1.0], resolution: 24}
  inclusion: {x0: [0.45, 0.55], r0: 0.2}
  contrast: 0.9
experiment: {kind: forward}
solver: {T_factor: 1.0}
seed: 3
"""


SMALL_OBSERVE = """
geometry:
  domain: {shape: disk, center: [0.0, 0.0], radius: 1.0, resolution: 24}
  inclusion: {x0: [0.0, 0.0], r0: 0.3}
  contrast: 0.9
experiment: {kind: observe, members: 2}
seed: 5
"""

SMALL_CONTROL = """
geometry:
  domain: {shape: rectangle, lo: [0.0, 0.0], hi: [1.0, 1.0], resolution: 16}
  inclusion: {x0: [0.45, 0.55], r0: 0.2}
  contrast: 0.9
experiment: {kind: control}
seed: 3
"""


def test_forward_demo_smoke(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 0, res.output
    man = RunManifest.load(tmp_path / "run" / "manifest.json")
    assert man.all_passed
    assert man.verify_artifacts() == []
    trace, meta = load_array(tmp_path / "run" / "trace.f64")
    assert trace.ndim == 2 and meta["config_hash"] == man.config_hash


def test_forward_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "a"))
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "b"))
    assert file_digest(tmp_path / "a" / "energy.csv") == \
        file_digest(tmp_path / "b" / "energy.csv")
    assert file_digest(tmp_path / "a" / "trace.f64") == \
        file_digest(tmp_path / "b" / "trace.f64")
    # one config run into two directories is one configuration
    hashes = {RunManifest.load(tmp_path / d / "manifest.json").config_hash
              for d in ("a", "b")}
    assert len(hashes) == 1


def test_cfl_violation_is_numerical_failure(tmp_path, monkeypatch):
    # CFLError is a ValueError, but the README documents exit 3 for it; no
    # config reaches one, so the solver is run past the bound directly
    from paikit import wave_forward
    monkeypatch.setattr(cli, "simulate_forward",
                        functools.partial(wave_forward.simulate_forward, cfl=0.9))
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 3
    assert "cfl factor 0.9" in res.output


def test_unknown_key_rejected(tmp_path):
    # the Courant factor is the solver's alone: solver.cfl is no key
    for text, key in (("bogus: 1\n", "bogus"), ("solver: {cfl: 0.4}\n", "solver.cfl")):
        cfg = write_cfg(tmp_path, text)
        res = invoke("forward", "--config", cfg)
        assert res.exit_code == 2
        assert f"{key}: unknown key" in res.output


def test_bad_field_type_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "geometry:\n  contrast: [not, a, number]\n")
    res = invoke("forward", "--config", cfg)
    assert res.exit_code == 2
    assert "geometry.contrast" in res.output


@pytest.mark.parametrize("text, value", [("false", False), ("'false'", False),
                                         ("'FALSE'", False), ("'True'", True),
                                         ("true", True)])
def test_bool_key_reads_true_and_false_strings(tmp_path, text, value):
    cfg = write_cfg(tmp_path, f"experiment: {{with_source: {text}}}\n")
    assert load_config(cfg, {})["experiment"]["with_source"] is value


@pytest.mark.parametrize("text", ["'no'", "0", "1", "'yes please'"])
def test_bool_key_rejects_other_values(tmp_path, text):
    # bool('false') is True: the string used to switch the source term on
    cfg = write_cfg(tmp_path, SMALL_FORWARD.replace(
        "experiment: {kind: forward}",
        f"experiment: {{kind: forward, with_source: {text}}}"))
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "experiment.with_source" in res.output


@pytest.mark.parametrize("value", ["0", "0.0", "-1.5", "null"])
def test_nonpositive_T_factor_rejected(tmp_path, value):
    cfg = write_cfg(tmp_path, SMALL_FORWARD.replace(
        "solver: {T_factor: 1.0}", f"solver: {{T_factor: {value}}}"))
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "solver.T_factor" in res.output


def _leaves(schema, path=()):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, path + (key,))
        else:
            yield path + (key,), spec[1]


DEFAULTED_KEYS = [path for path, default in _leaves(cli.SCHEMA) if default is not None]


@pytest.mark.parametrize("path", DEFAULTED_KEYS, ids=".".join)
def test_null_for_defaulted_key_rejected(tmp_path, path):
    # a null would reach the solvers as None, or run the seed on OS entropy
    text = "null"
    for key in reversed(path):
        text = f"{{{key}: {text}}}"
    cfg = write_cfg(tmp_path, text[1:-1] + "\n")
    res = invoke("observe", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert f"{'.'.join(path)}: expected" in res.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["control", "represent", "scan"])
def test_fixed_horizon_subcommand_rejects_T_factor(tmp_path, monkeypatch, kind):
    # these run at 4 diam, so another T_factor is refused before any solve
    def never(*args):
        raise AssertionError("the runner started")

    monkeypatch.setitem(cli.RUNNERS, kind, never)
    cfg = write_cfg(tmp_path, SMALL_CONTROL.replace(
        "kind: control}", f"kind: {kind}}}\nsolver: {{T_factor: 2.0}}"))
    res = invoke(kind, "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "solver.T_factor" in res.output


@pytest.mark.parametrize("text", ["geometry: {smoothing_cells: 1.5}",
                                  "solver: {T_override: 1.0}"])
def test_removed_keys_are_unknown(tmp_path, text):
    # the interface width is set by the grid alone; the horizon by T_factor
    cfg = write_cfg(tmp_path, text + "\n")
    res = invoke("observe", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "unknown key" in res.output


def test_missing_contrast_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD.replace("contrast: 0.9",
                                                    "contrast: 0.2"))
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "contrast" in res.output


def test_kind_mismatch_rejected(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    res = invoke("scan", "--config", cfg)
    assert res.exit_code == 2
    assert "experiment.kind" in res.output


def test_observe_small_2d(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_OBSERVE)
    res = invoke("observe", "--config", cfg, "--out", str(tmp_path / "obs"))
    assert res.exit_code == 0, res.output
    csv = (tmp_path / "obs" / "observability.csv").read_text().splitlines()
    assert csv[0].startswith("seed,a,T")
    assert len(csv) == 3


def test_failed_experiment_check_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_OBSERVE.replace(
        "members: 2}", "members: 2, ratio_bound: 1.0e-12}"))
    res = invoke("observe", "--config", cfg, "--out", str(tmp_path / "obs"))
    assert res.exit_code == 1
    assert "[FAIL] observability_ratio_bound" in res.output
    assert not RunManifest.load(tmp_path / "obs" / "manifest.json").all_passed


def test_control_manifest_records_hum_convergence(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CONTROL)
    res = invoke("control", "--config", cfg, "--out", str(tmp_path / "ctl"))
    assert res.exit_code == 0, res.output
    man = RunManifest.load(tmp_path / "ctl" / "manifest.json")
    hist = man.histories["hum_cg"]
    n = man.constants["iterations"]
    assert n >= 1 and len(hist["residual"]) == len(hist["final_energy_rel"]) == n
    assert hist["final_energy_rel"][-1] <= 1e-4


def test_hum_non_convergence_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CONTROL.replace(
        "kind: control}", "kind: control, max_iter: 1, tol: 1.0e-12}"))
    res = invoke("control", "--config", cfg, "--out", str(tmp_path / "ctl"))
    assert res.exit_code == 3
    assert "CG-HUM did not reach the energy target" in res.output


def test_forward_rerun_in_two_processes(tmp_path):
    # one seed, two interpreters: every artifact digest is equal
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "paikit.cli", "forward", "--config", cfg,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        man = RunManifest.load(out / "manifest.json")
        digests.append({Path(a["path"]).name: a["sha256"] for a in man.artifacts})
    assert sorted(digests[0]) == ["energy.csv", "f.f64", "g.f64", "trace.f64"]
    assert digests[0] == digests[1]


def test_import_leaves_scipy_fft_unloaded():
    # trace lengths are FFT-fast by construction and numpy's FFT takes them;
    # scipy.fft would add set-up time and memory to every run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, paikit, paikit.cli; print('scipy.fft' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_report_aggregates_and_flags(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / "one"))
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / "two"))
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 0
    assert (tmp_path / "runs" / "report.csv").exists()
    # inject a failed assertion: report must exit nonzero
    man = RunManifest.load(tmp_path / "runs" / "two" / "manifest.json")
    man.check("gramian_symmetry", 1.0)
    man.save(tmp_path / "runs" / "two" / "manifest.json")
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 1


def test_report_prints_each_runs_closest_margin(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    for name in ("near", "old"):
        invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / name))
    near = tmp_path / "runs" / "near" / "manifest.json"
    man = RunManifest.load(near)
    man.check("representation_residual", 0.049)     # 0.98 of its bound
    man.save(near)
    # a manifest written before margins were stored: the report derives them
    old = tmp_path / "runs" / "old" / "manifest.json"
    man = RunManifest.load(old)
    stored = max((a["margin"], a["name"]) for a in man.assertions)
    for a in man.assertions:
        del a["margin"]
    man.save(old)
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 0, res.output
    lines = {line.split()[0]: line for line in res.output.splitlines()[1:3]}
    assert "0.98 representation_residual" in lines[str(near.parent)]
    assert f"{stored[0]:.3g} {stored[1]}" in lines[str(old.parent)]
    assert "margin" in (tmp_path / "runs" / "report.csv").read_text().splitlines()[0]


OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt, "==": operator.eq,
       "finite": lambda value, bound: math.isfinite(value)}
SCAN_DEMO = str(CONFIG_DIR / "demo_scan.yaml")


@pytest.mark.parametrize("kind, text, args", [
    ("forward", SMALL_FORWARD, ()),
    ("forward", SMALL_FORWARD, ("--dim", "3", "--resolution", "16")),
    ("observe", SMALL_OBSERVE.replace("members: 2}", "members: 2, ratio_bound: 1.0}"), ()),
    ("observe", SMALL_OBSERVE, ("--dim", "3", "--resolution", "12")),
    ("control", SMALL_CONTROL, ()),
    ("represent", SMALL_CONTROL.replace("kind: control", "kind: represent"), ("--small",)),
    ("invert", SMALL_CONTROL.replace("kind: control", "kind: invert"), ("--small",)),
    ("scan", None, ("--small", "--resolution", "32")),
], ids=["forward", "forward-3d", "observe", "observe-3d", "control", "represent",
        "invert", "scan"])
def test_manifest_verdicts_match_their_rows(tmp_path, kind, text, args):
    # each stored verdict is its row's comparison of the stored value and bound
    cfg = SCAN_DEMO if text is None else write_cfg(tmp_path, text)
    res = invoke(kind, "--config", cfg, "--out", str(tmp_path / "run"), *args)
    assert res.exit_code in (0, 1), res.output
    man = RunManifest.load(tmp_path / "run" / "manifest.json")
    assert man.assertions
    for a in man.assertions:
        row = ROWS[a["name"]]
        assert a["passed"] == OPS[row.op](a["value"], a["bound"]), a
        assert a["margin"] == margin(row.op, a["value"], a["bound"]), a


def test_invert_csv_marks_the_horizon_of_each_row(tmp_path):
    # the misfit history is taken on the first diameter of the trace, then
    # on the whole horizon
    path = write_cfg(tmp_path, SMALL_CONTROL.replace("kind: control", "kind: invert"))
    res = invoke("invert", "--config", path, "--small", "--out", str(tmp_path / "run"))
    assert res.exit_code in (0, 1), res.output
    cfg = load_config(path, {})
    domain, _, speed, _ = cli._setup(cfg, None)
    T = cli.horizon(cfg, domain)
    N, dt = time_grid(speed, T)
    T_w = window_levels(N, dt, domain) * dt
    lines = (tmp_path / "run" / "reconstruction.csv").read_text().splitlines()
    assert lines[0] == "iteration,misfit,grad_norm,T"
    col = [line.split(",")[3] for line in lines[1:]]
    k = col.count(fmt(T_w))
    assert 0 < k < len(col) and T_w < T
    assert col == [fmt(T_w)] * k + [fmt(T)] * (len(col) - k)


def test_scan_redraws_a_member_of_an_unresolved_pair(tmp_path):
    # at this seed and grid the first draw of the pool holds a scanned pair
    # that check_resolved_pairs rejects, which once refused the whole scan;
    # the member is drawn again instead
    res = invoke("scan", "--config", SCAN_DEMO, "--seed", "1", "--small",
                 "--resolution", "32", "--out", str(tmp_path / "run"))
    assert res.exit_code == 0, res.output
    assert len((tmp_path / "run" / "scan.csv").read_text().splitlines()) == 1 + 6


def test_scan_without_a_resolvable_pool_exits_2(tmp_path):
    # on a grid this coarse no pair of the pool's radii is resolved
    res = invoke("scan", "--config", SCAN_DEMO, "--small", "--resolution", "8",
                 "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "experiment.n_pairs: no 4 inclusions with resolved pairs" in res.output


def test_report_empty_dir(tmp_path):
    res = invoke("report", str(tmp_path / "nothing"))
    assert res.exit_code == 2


def test_report_skips_unreadable_manifest(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / "ok"))
    bad = tmp_path / "runs" / "bad"
    bad.mkdir(parents=True)
    (bad / "manifest.json").write_text("{ not json")
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 0
    assert "warning" in res.output


def test_bundled_demo_config_parses(tmp_path):
    res = invoke("forward", "--config", str(CONFIG_DIR / "demo_forward.yaml"),
                 "--resolution", "24", "--out", str(tmp_path / "demo"))
    assert res.exit_code == 0
