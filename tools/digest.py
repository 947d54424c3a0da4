#!/usr/bin/env python3
"""sha256 of everything one benchmark operation returns.

    python3 tools/digest.py --workload scan-128 --seed 1
    python3 tools/digest.py --workload invert-128 --seed $(seq 1 10)
    python3 tools/digest.py --workload control-observe invert-128 scan-128 --seed 1 7
    python3 tools/digest.py --workload scan-128 --seed 1 7 --dump DIR
    python3 tools/digest.py --workload scan-128 --seed 1 7 --against DIR

For each ``perfbench`` workload named and each seed, builds the workload's
inputs from the seed, runs its operation once with the sources of this
checkout and prints one line with a digest over every number, array and
string in the result, walked in a fixed order.  Two checkouts that print the
same digest for a workload and seed returned the same result bit for bit.
``--dump DIR`` also writes the leaves of each result to
``DIR/<workload>-seed<N>.npz``, keyed by their path in the walk;
``--against DIR`` reads such a file, written by another checkout, and
prints the largest relative differences over the float leaves (relative to
the reference leaf's largest entry), each with the path of its leaf, the
reference's size and the absolute difference: a leaf that is itself
roundoff, such as a symmetry defect, moves by its own size.  It also names
every leaf path found on one side only, as ``added`` or ``dropped``, and
every float leaf whose shape changed, as ``reshaped``.
The exit status is 1 when any seed's result fails its workload's checks.
``perfbench/`` is only imported, never written.
"""

import os
import sys

# one BLAS thread, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
TOP_MOVES = 3   # leaves listed per result by --against


def _feed_leaf(h, obj) -> bool:
    """Hash ``obj`` into ``h`` if it is a leaf: None, a number, a string or
    an array; return whether it was."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"int:{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"float:" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(f"str:{len(obj)}:{obj};".encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"array:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    else:
        return False
    return True


def feed(h, obj, leaves=None, path="") -> int:
    """Hash ``obj`` into ``h`` with its type and shape; return the leaf count.
    ``leaves``, a dict, receives every leaf under its path in the walk."""
    if _feed_leaf(h, obj):
        if leaves is not None:
            leaves[path] = obj
        return 1
    if dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}{{".encode())
        n = sum(feed(h, getattr(obj, f.name), leaves, f"{path}.{f.name}")
                for f in dataclasses.fields(obj))
        h.update(b"}")
        return n
    if isinstance(obj, dict):
        h.update(f"dict:{len(obj)}{{".encode())
        n = 0
        for key, value in obj.items():
            n += feed(h, key) + feed(h, value, leaves, f"{path}[{key!r}]")
        h.update(b"}")
        return n
    if isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}:{len(obj)}[".encode())
        n = sum(feed(h, item, leaves, f"{path}[{i}]") for i, item in enumerate(obj))
        h.update(b"]")
        return n
    raise TypeError(f"no digest rule for {type(obj).__name__}")


def dump(leaves: dict, file: Path) -> None:
    """Write the leaves that are numbers, arrays or strings (not None)."""
    np.savez(file, **{path: np.asarray(v) for path, v in leaves.items() if v is not None})


def moves(leaves: dict, file: Path):
    """The float leaves' moves from their counterparts in ``file``, largest
    relative move first, as ``(rel, path, ref_max, diff_max)``: ``rel`` is
    the largest difference over the reference leaf's largest entry.  Also
    returns the paths that have no counterpart, as a dict: ``added`` (in
    the result only), ``dropped`` (in the reference only) and ``reshaped``
    (float leaves in both, of another shape)."""
    ref = np.load(file)
    mine = {path for path, value in leaves.items() if value is not None}
    unmatched = {"added": sorted(mine - set(ref.files)),
                 "dropped": sorted(set(ref.files) - mine), "reshaped": []}
    out = []
    for path, value in leaves.items():
        a = np.asarray(value)
        if a.dtype.kind != "f" or path not in ref.files:
            continue
        b = ref[path]
        if b.shape != a.shape:
            unmatched["reshaped"].append(path)
            continue
        diff = float(np.abs(a - b).max(initial=0.0))
        scale = float(np.abs(b).max(initial=0.0))
        rel = diff / scale if scale > 0 else (np.inf if diff > 0 else 0.0)
        out.append((rel, path, scale, diff))
    out.sort(key=lambda m: m[0], reverse=True)
    return out, unmatched


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, nargs="+", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="write each result's leaves to DIR/<workload>-seed<N>.npz")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="compare each result's float leaves with DIR's dump")
    args = ap.parse_args()
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)

    failed = False
    for name in args.workload:
        workload = WORKLOADS[name]
        for seed in args.seed:
            inp = workload.setup(seed)
            out = workload.run(inp)
            fails = workload.check(inp, out)
            h = hashlib.sha256()
            leaves = {}
            n_leaves = feed(h, out, leaves)
            print(f"{name} seed {seed}: {h.hexdigest()} ({n_leaves} leaves, "
                  f"{'checks pass' if not fails else 'FAILED: ' + '; '.join(fails)})",
                  flush=True)
            failed = failed or bool(fails)
            file = f"{name}-seed{seed}.npz"
            if args.dump is not None:
                dump(leaves, args.dump / file)
            if args.against is not None:
                found, unmatched = moves(leaves, args.against / file)
                print(f"  against {args.against / file}: {len(found)} float leaves, "
                      + ", ".join(f"{len(v)} {k}" for k, v in unmatched.items()))
                for kind, paths in unmatched.items():
                    for path in paths:
                        print(f"    {kind}: {path}")
                print("  largest relative moves:")
                for rel, path, scale, diff in found[:TOP_MOVES]:
                    print(f"    {rel:.3e} at {path} (|ref| {scale:.3e}, |diff| {diff:.3e})",
                          flush=True)
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
