#!/usr/bin/env python3
"""Run one workload over several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload scan-128 --seeds 1 2 3 4 5

Each seed is a fresh ``run.py`` process with the settings in
``BENCHMARK.json``.  For every metric the script prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        line = [f"seed {seed}:"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        line.append(f"(run {wall:.1f} s)")
        print(" ".join(line), flush=True)

    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {share:.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
