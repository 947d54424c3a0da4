"""The benchmark's tracer against the package, run as it is.

``perfbench/tracer.py`` wraps public functions of the package and reads
their arguments and results (``simulate_forward(cfl=)``,
``DirichletProblem.cfl``, ``WaveTrajectory.snapshots``, ``n_steps_for``,
``stable_dt``, ``trace_norms``).  A package change that breaks one of these
fails here, not only in the benchmark's own slow self-tests.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import paikit as pk
from paikit.wave_dirichlet import DirichletProblem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every paikit module, and the two wrapped methods."""
    out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
           if name == "paikit" or name.startswith("paikit.")}
    out["methods"] = {"init": pk.grid.Discretization.__init__,
                      "gramian": pk.control._HumOperator.gramian_apply}
    return out


def test_tracer_reads_the_package():
    tracer_mod = _load_tracer()
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 16)
    speed = pk.build_speed_field(pk.StarInclusion((0.45, 0.55), 0.2), 0.9, dom)
    data = pk.make_initial_data(pk.OpticalCoefficients(), speed, dom)
    u0 = dom.grid.field(lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    before = _bindings()

    tracer = tracer_mod.Tracer("bindings")
    with tracer.active("solve"):
        _, trace, _ = pk.simulate_forward(speed, data, dom.diam)
        pk.simulate_dirichlet(DirichletProblem(speed, u0, np.zeros_like(u0), 0.5))
        pk.trace_norms(trace, dom)

    after = _bindings()
    for name, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[name][attr] is obj, f"{name}.{attr} not restored"

    names = [s.name for s in tracer.spans]
    for name in ("wave_forward.simulate_forward", "wave_dirichlet.simulate_dirichlet",
                 "wave_forward.trace_norms"):
        assert names.count(name) == 1, name
    infos = [s.info for s in tracer.spans if s.info is not None]
    assert len(infos) == 2
    for info in infos:
        assert info["steps"] == info["expected_steps"]
    metrics = tracer.layer_metrics({"k_matvec_us": 1.0, "triad_us": 1.0,
                                    "k_matvec_bytes_calc": 0})
    assert metrics["wave_forward.runs"][0] == metrics["wave_dirichlet.runs"][0] == 1
    assert metrics["norms.trace_norms_s"][0] > 0.0
