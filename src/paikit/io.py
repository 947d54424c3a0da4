"""Artifact persistence: raw float64 arrays with JSON sidecars, manifests.

Binary layout is header-free little-endian float64, C order; every array
file travels with a ``<name>.json`` sidecar recording shape, dtype and the
experiment metadata.  Run manifests list every artifact with its SHA-256
digest so reports can verify integrity, and every check judged on a row of
``verdicts.ROWS`` with its value, bound and margin.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .verdicts import judge

FLOAT_FMT = "%.12g"


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: dict) -> str:
    """Hash of everything in the config but where its run is written."""
    cfg = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_array(path, arr: np.ndarray, meta: dict | None = None) -> dict:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    data.tofile(path)
    sidecar = dict(meta or {})
    # array layout keys are authoritative over caller metadata
    sidecar.update({"shape": list(data.shape), "dtype": "<f8", "order": "C"})
    side_path = path.with_suffix(path.suffix + ".json")
    side_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return {"path": str(path), "sha256": file_digest(path),
            "bytes": path.stat().st_size}


def load_array(path):
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    arr = np.fromfile(path, dtype="<f8").reshape(meta["shape"])
    return arr, meta


def save_csv(path, header: list, rows: list) -> dict:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return {"path": str(path), "sha256": file_digest(path),
            "bytes": path.stat().st_size}


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    command: str
    started: str
    finished: str = ""
    artifacts: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    histories: dict = field(default_factory=dict)   # name -> {series: [values]}

    @staticmethod
    def start(command: str, cfg_hash: str, version: str) -> "RunManifest":
        return RunManifest(config_hash=cfg_hash, tool_version=version,
                           command=command,
                           started=time.strftime("%Y-%m-%dT%H:%M:%S"))

    def add_artifact(self, record: dict):
        self.artifacts.append(record)

    def check(self, row_id: str, value, scale=1.0):
        """Judge ``value`` on the acceptance row ``row_id`` and record it."""
        passed, bound, margin = judge(row_id, value, scale)
        self.assertions.append({
            "name": row_id, "passed": passed, "value": float(value),
            "bound": None if bound is None else float(bound), "margin": margin})

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def save(self, path) -> Path:
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path

    @staticmethod
    def load(path) -> "RunManifest":
        return RunManifest(**json.loads(Path(path).read_text()))

    def verify_artifacts(self) -> list:
        bad = []
        for rec in self.artifacts:
            p = Path(rec["path"])
            if not p.exists() or file_digest(p) != rec["sha256"]:
                bad.append(rec["path"])
        return bad
