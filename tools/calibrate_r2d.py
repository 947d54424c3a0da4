#!/usr/bin/env python3
"""Calibrate the frozen 2-d observability regression bound.

Runs the reference 2-d ensemble once, takes the maximum inequality ratio,
adds a 15% guard band and freezes the result (with the generating config)
into src/paikit/data/r2d_bound.json.  The acceptance suite reruns the same
config and asserts max ratio <= R_2D; the bound is a regression check
because the explicit observability constant is three-dimensional.
"""

import json
import math
from pathlib import Path

import paikit as pk
from paikit.observability import observability_ensemble, spawned_seeds

CONFIG = {
    "domain": {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0,
               "resolution": 64},
    "inclusion": {"x0": [0.0, 0.0], "r0": 0.35, "cos": [0.0, 0.05],
                  "sin": [0.0, 0.0, 0.02]},
    "contrast": 0.9,
    "T_factor": 4.0,
    "members": 20,
    "seed": 2026,
}


def run_reference_ensemble(cfg=CONFIG):
    domain = pk.Domain.disk(cfg["domain"]["center"], cfg["domain"]["radius"],
                            cfg["domain"]["resolution"])
    inc = cfg["inclusion"]
    incl = pk.StarInclusion(tuple(inc["x0"]), inc["r0"], tuple(inc["cos"]),
                            tuple(inc["sin"]))
    seeds = spawned_seeds(cfg["seed"], cfg["members"])
    return observability_ensemble(domain, incl.x0, incl, [cfg["contrast"]],
                                  seeds, T_factor=cfg["T_factor"])


def main():
    rows = run_reference_ensemble()
    max_ratio = max(r.ratio for r in rows)
    bound = math.ceil(max_ratio * 1.15 * 1000) / 1000
    out = Path(__file__).resolve().parents[1] / "src" / "paikit" / "data" / \
        "r2d_bound.json"
    out.write_text(json.dumps({
        "R_2D": bound,
        "max_ratio_at_calibration": max_ratio,
        "guard_band": 1.15,
        "config": CONFIG,
    }, indent=2, sort_keys=True) + "\n")
    print(f"max ratio {max_ratio:.6f} -> frozen bound {bound} ({out})")


if __name__ == "__main__":
    main()
