#!/usr/bin/env python3
"""paikit benchmark: one workload in this process, metrics as JSON.

    python3 perfbench/run.py --workload invert-128 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; paikit is imported from its
``src/``.  Set-up time is the median over this process and eight more of the
time from importing paikit to inputs ready.  The workload's operation then
runs in a closed loop with one client, and another operation starts while
at least half a median operation's time of ``--seconds`` is left; solve
time is the mean wall time of the operations that passed, which averages
over the whole run.  Every result is checked at the acceptance tolerances.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced operation with
``--trace 1``.
"""

import os
import time

# one BLAS thread: a closed loop with one client, steady on a small box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the libraries paikit builds on load before set-up is timed: interpreter
# start and their import take 0.5-1 s, vary by half from run to run, and no
# change to paikit moves them
import numpy  # noqa: E402, F401
import scipy.sparse  # noqa: E402, F401
import scipy.sparse.linalg  # noqa: E402, F401

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9


def import_paikit():
    """Import paikit from this checkout's sources, never from elsewhere."""
    pkg = SRC / "paikit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no paikit sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import paikit
    if Path(paikit.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported paikit from {paikit.__file__}, "
                         f"not from {pkg}")
    return paikit


def machine_record() -> dict:
    import numpy as np
    import scipy
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name", "unknown"), "blas_threads": blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}}


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def attempt(workload, inputs, tracer=None):
    """One operation: (wall seconds, failed verdicts).  Raising counts as failing."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(inputs)
        else:
            with tracer.active("solve"):
                result = workload.run(inputs)
        elapsed = time.perf_counter() - t0
        return elapsed, workload.check(inputs, result)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]


def kernel_baseline(domain) -> dict:
    """Bare CSR ``K @ x`` and a numpy triad at the grid's vector length.

    Times are the fastest batch's mean call time, the figure least
    disturbed by other work on the machine.  The byte count is computed
    from array sizes (CSR arrays plus x and y), not measured.
    """
    import numpy as np
    K = domain.disc.K
    rng = np.random.default_rng(0)
    x, b, c = (rng.normal(size=K.shape[0]) for _ in range(3))
    a = np.empty_like(x)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    def per_call_us(fn, reps=50, batches=15):
        fn()
        times = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            times.append((time.perf_counter() - t0) / reps)
        return 1e6 * min(times)

    return {"k_matvec_us": per_call_us(lambda: K @ x),
            "triad_us": per_call_us(triad),
            "k_matvec_bytes_calc": K.data.nbytes + K.indices.nbytes
            + K.indptr.nbytes + 2 * x.nbytes}


def setup_in_child(workload, seed: int) -> float:
    """Importing paikit to inputs ready, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(workload, seed: int, seconds: float, inputs, setup_s: float):
    setups = [setup_s] + [setup_in_child(workload, seed)
                          for _ in range(SETUP_REPEATS - 1)]
    durations, failed = [], []
    t_begin = time.perf_counter()
    while True:
        elapsed, fails = attempt(workload, inputs)
        if not durations:
            # the peak of a process that sets up and runs one operation, as
            # the CLI does; later operations on a reused heap reach a higher
            # peak in some runs and not in others
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        durations.append(elapsed)
        failed.append(fails)
        left = seconds - (time.perf_counter() - t_begin)
        if left < statistics.median(durations) / 2:
            break
    # the host's speed drifts over tens of seconds, so the mean over the
    # whole run is steadier than the median of its few operations
    passed = [d for d, f in zip(durations, failed) if not f]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.fmean(passed or durations), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return metrics, failed, {"setup_s": setups, "solve_s": durations}


def traced_run(workload, seed: int):
    from tracer import Tracer
    tracer = Tracer(workload.name)
    with tracer.active("setup"):
        inputs = workload.setup(seed)
    # the first operation warms up; the overhead compares the two after it
    _, fails_w = attempt(workload, inputs)
    traced, fails_t = attempt(workload, inputs, tracer)
    untraced, fails_u = attempt(workload, inputs)
    metrics = tracer.layer_metrics(kernel_baseline(inputs["domain"]))
    metrics["trace.solve_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics, [fails_w, fails_t, fails_u], {
        "untraced_solve_s": untraced, "spans": [s.as_dict() for s in tracer.spans]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t_setup = time.perf_counter()
    import_paikit()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, failed, detail = traced_run(workload, args.seed)
    else:
        inputs = workload.setup(args.seed)
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(setup_s)
            return 0
        metrics, failed, detail = timed_run(workload, args.seed, args.seconds,
                                            inputs, setup_s)
    n_failed = sum(1 for f in failed if f)
    machine = machine_record()
    for k, fails in enumerate(failed):
        for msg in fails:
            print(f"operation {k} failed: {msg}")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "failed_frac": n_failed / len(failed), "machine": machine}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({**summary, **detail, "metrics": metrics}))
        summary["spans_file"] = str(dump.relative_to(HERE.parent))
    else:
        summary.update(detail)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": n_failed == 0, "attempted": len(failed), "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
