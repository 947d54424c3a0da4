"""Self-tests of the benchmark.  Slow (several minutes), so the file name
keeps it out of the default test collection; run it by path:

    python -m pytest -q perfbench/tests/check_perfbench.py

Every workload runs traced in a fresh process through ``run.py --trace 1``:
twice with the default seed and once with a second seed.  The tests read
the result line and the spans file each run writes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("invert-128", "scan-128", "control-observe")
SEED, OTHER_SEED = 1, 7
_runs = {}


def traced(workload: str, seed: int, repeat: int = 0):
    """(result line, spans file) of one traced run, cached per key."""
    key = (workload, seed, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        lines = proc.stdout.strip().splitlines()
        summary = json.loads(lines[-2])
        dump = json.loads((ROOT / summary["spans_file"]).read_text())
        _runs[key] = (json.loads(lines[-1]), dump)
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_children_fit_in_parent(workload):
    result, dump = traced(workload, SEED)
    assert result["correct"] and result["failed"] == 0
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            child[p] += s["end"] - s["start"]
    for s, c in zip(spans, child):
        assert c <= s["end"] - s["start"] + 1e-9, s["name"]
    # self times of the traced operation sum to no more than its wall time
    solve_self = sum(s["end"] - s["start"] - c for s, c in zip(spans, child)
                     if s["phase"] == "solve")
    assert 0.0 < solve_self <= dump["metrics"]["trace.solve_s"][0]
    assert {s["workload"] for s in spans} == {workload}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_step_counts_match_time_grid(workload):
    _, dump = traced(workload, SEED)
    runs = [s for s in dump["spans"]
            if s["name"] in ("wave_forward.simulate_forward",
                             "wave_dirichlet.simulate_dirichlet")]
    assert runs
    for s in runs:
        assert s["info"]["steps"] == s["info"]["expected_steps"], s


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(workload):
    first = traced(workload, SEED)[0]["metrics"]
    second = traced(workload, SEED, repeat=1)[0]["metrics"]
    counts = {k for k, v in first.items() if v["unit"] == "count" and k != "trace.spans"}
    assert counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes(workload):
    result, _ = traced(workload, OTHER_SEED)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import paikit
        import paikit.inversion
        from tracer import Tracer
        originals = (paikit.inversion.simulate_forward, paikit.build_speed_field,
                     paikit.grid.Discretization.__init__)
        with Tracer("none").active("solve"):
            assert paikit.inversion.simulate_forward is not originals[0]
            assert paikit.inversion.simulate_forward is paikit.simulate_forward
        assert (paikit.inversion.simulate_forward, paikit.build_speed_field,
                paikit.grid.Discretization.__init__) == originals
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "control-observe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
