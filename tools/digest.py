#!/usr/bin/env python3
"""sha256 of everything one benchmark operation returns.

    python3 tools/digest.py --workload scan-128 --seed 1

Builds the inputs of one ``perfbench`` workload from the seed, runs its
operation once with the sources of this checkout and prints one digest over
every number, array and string in the result, walked in a fixed order.  Two
checkouts that print the same digest for a workload and seed returned the
same result bit for bit.  ``perfbench/`` is only imported, never written.
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


def feed(h, obj) -> int:
    """Hash ``obj`` into ``h`` with its type and shape; return the leaf count."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
        return 1
    if isinstance(obj, (int, np.integer)):
        h.update(f"int:{int(obj)};".encode())
        return 1
    if isinstance(obj, (float, np.floating)):
        h.update(b"float:" + struct.pack("<d", float(obj)))
        return 1
    if isinstance(obj, str):
        h.update(f"str:{len(obj)}:{obj};".encode())
        return 1
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"array:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
        return 1
    if dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}{{".encode())
        n = sum(feed(h, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        h.update(b"}")
        return n
    if isinstance(obj, dict):
        h.update(f"dict:{len(obj)}{{".encode())
        n = 0
        for key, value in obj.items():
            n += feed(h, key) + feed(h, value)
        h.update(b"}")
        return n
    if isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}:{len(obj)}[".encode())
        n = sum(feed(h, item) for item in obj)
        h.update(b"]")
        return n
    raise TypeError(f"no digest rule for {type(obj).__name__}")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    inp = workload.setup(args.seed)
    out = workload.run(inp)
    fails = workload.check(inp, out)
    h = hashlib.sha256()
    leaves = feed(h, out)
    print(f"{args.workload} seed {args.seed}: {h.hexdigest()} "
          f"({leaves} leaves, {'checks pass' if not fails else 'FAILED: ' + '; '.join(fails)})")
    if fails:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
