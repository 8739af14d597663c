"""Deterministic CSV/JSON writers shared by the library and the CLI.

All floats are rendered at 17 significant digits so identical inputs
produce byte-identical files; data files carry no timestamps. Run
directories are keyed by a short hash of the fully resolved
configuration, so re-running a config lands on the same id.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = "%.17g"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of numbers (or strings) under a header line, one ``%`` per
    line: the first row's types pick ``%s`` or ``FLOAT_FMT`` for each column.
    Rows go out in blocks of 1024, so memory stays bounded."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    line = ",".join("%s" if isinstance(item, str) else FLOAT_FMT
                    for item in (rows[0] if len(rows) else ())) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), 1024):
            block = rows[start:start + 1024]
            fh.write("".join(line % tuple(row) for row in (
                block.tolist() if isinstance(block, np.ndarray) else block)))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):  # strict JSON has no NaN or inf
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_id(config: dict) -> str:
    """Short content hash of a resolved configuration (stable across runs)."""
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()[:12]
