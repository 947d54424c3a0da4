import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from paikit.cli import load_config, main
from paikit.io import RunManifest, load_array, file_digest

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "paikit" / "configs"


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


def test_cfl_violation_is_numerical_failure(tmp_path):
    # CFLError is a ValueError, but the README documents exit 3 for it
    cfg = write_cfg(tmp_path, SMALL_FORWARD.replace(
        "solver: {T_factor: 1.0}", "solver: {T_factor: 1.0, cfl: 0.9}"))
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 3
    assert "cfl factor 0.9" in res.output


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "bogus: 1\n")
    res = invoke("forward", "--config", cfg)
    assert res.exit_code == 2
    assert "unknown key" in res.output


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


@pytest.mark.parametrize("value", ["0", "0.0", "-1.5"])
def test_nonpositive_T_override_rejected(tmp_path, value):
    # T_override: 0 used to fall back to T_factor without a word
    cfg = write_cfg(tmp_path, SMALL_FORWARD.replace(
        "solver: {T_factor: 1.0}", f"solver: {{T_factor: 1.0, T_override: {value}}}"))
    res = invoke("forward", "--config", cfg, "--out", str(tmp_path / "run"))
    assert res.exit_code == 2
    assert "solver.T_override" in res.output


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


def test_observe_small_2d(tmp_path):
    cfg = write_cfg(tmp_path, """
geometry:
  domain: {shape: disk, center: [0.0, 0.0], radius: 1.0, resolution: 24}
  inclusion: {x0: [0.0, 0.0], r0: 0.3}
  contrast: 0.9
experiment: {kind: observe, members: 2}
seed: 5
""")
    res = invoke("observe", "--config", cfg, "--out", str(tmp_path / "obs"))
    assert res.exit_code == 0, res.output
    csv = (tmp_path / "obs" / "observability.csv").read_text().splitlines()
    assert csv[0].startswith("seed,a,T")
    assert len(csv) == 3


def test_report_aggregates_and_flags(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_FORWARD)
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / "one"))
    invoke("forward", "--config", cfg, "--out", str(tmp_path / "runs" / "two"))
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 0
    assert (tmp_path / "runs" / "report.csv").exists()
    # inject a failed assertion: report must exit nonzero
    man = RunManifest.load(tmp_path / "runs" / "two" / "manifest.json")
    man.check("synthetic_failure", False, value=1.0, bound=0.0)
    man.save(tmp_path / "runs" / "two" / "manifest.json")
    res = invoke("report", str(tmp_path / "runs"))
    assert res.exit_code == 1


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


def test_bundled_demo_config_parses():
    res = invoke("forward", "--config", str(CONFIG_DIR / "demo_forward.yaml"),
                 "--resolution", "24", "--out", "/tmp/paikit_demo_test")
    assert res.exit_code == 0
