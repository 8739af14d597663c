"""Golden outputs: seven short CLI runs reproduce `tests/golden.json`.

`golden.json` records the sha256 of every file the runs write, with the
Python, numpy and scipy versions it was made with. Under those versions the
bytes must match. Under others the values must: every JSON value, and the
CSV header and values on `ROWS` evenly spaced rows of each file, floats to
`REL_TOL` relative with the absolute floor `ABS_FLOOR` and every other
token exactly. The test prints which path ran (see it with ``pytest -rA``).

A change that moves output bits re-records the file and states what moved:

    PYTHONPATH=src python tests/test_golden.py --record

The record prints, for each file whose sha256 changed, the largest absolute
and relative change over its recorded values against the old record, and
the count of files that stayed byte-identical.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from clinewave import cli

GOLDEN = Path(__file__).with_name("golden.json")
RECORD = "PYTHONPATH=src python tests/test_golden.py --record"

# each subcommand but sweep (which reruns these); the pqd and the gamete run start
# their clines apart, off centre, so D, v and w are moving humps whose tracked
# vertex falls between nodes, and p != q runs as three rows (compare's p = q
# runs as one)
COMMANDS = {
    "simulate-pqd": ["simulate", "--offset-p", "-2.5", "--offset-q", "4", "--t-end", "40"],
    "simulate-gametes": ["simulate", "--model", "gametes", "--offset-p", "-2.5",
                         "--offset-q", "4", "--t-end", "40"],
    "simulate-reduced": ["simulate", "--model", "reduced", "--t-end", "20"],
    "standing": ["standing", "--preset", "fig2"],
    "stability": ["stability"],
    "speed": ["speed", "--r-grid", "0.15:0.5:0.05", "--s", "0.01"],
    "compare": ["compare", "--r-grid", "0.5:0.5:0.1", "--t-end", "150"],
}
REL_TOL = 1e-12
# the outputs are O(1) fields, positions and rates; a value below this, such as
# a level front at x = 1e-14 on a stacked run, is rounding noise about zero
ABS_FLOOR = 1e-12
ROWS = 33  # CSV rows kept per file for the float path, first and last included


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_commands(root: Path) -> dict[str, Path]:
    """Run every command into root/<name>; returns relative name -> output file."""
    for name, argv in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(root / name)])
        assert code == 0, f"{name} exited {code}"
    return {path.relative_to(root).as_posix(): path
            for path in sorted(root.rglob("*")) if path.is_file()}


def _token(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def values(path: Path):
    """The parsed JSON, or a CSV's header and its sampled rows as [index, values...]."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = path.read_text().splitlines()
    keep = sorted({round(i) for i in np.linspace(0, len(rows) - 1, ROWS)}) if rows else []
    return {"header": header.split(","),
            "rows": [[i] + [_token(tok) for tok in rows[i].split(",")] for i in keep]}


def close(got, expected) -> bool:
    if isinstance(got, float) or isinstance(expected, float):
        return (isinstance(got, (int, float)) and isinstance(expected, (int, float))
                and (math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)
                     or math.isnan(got) and math.isnan(expected)))
    if isinstance(got, dict):
        return (isinstance(expected, dict) and got.keys() == expected.keys()
                and all(close(got[key], expected[key]) for key in got))
    if isinstance(got, list):
        return (isinstance(expected, list) and len(got) == len(expected)
                and all(map(close, got, expected)))
    return got == expected


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_the_golden_record(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = run_commands(tmp_path)
    assert sorted(outputs) == sorted(golden["files"])
    if golden["versions"] == versions():
        print(f"golden: byte path, sha256 of {len(outputs)} files under {versions()}")
        moved = [name for name, path in outputs.items()
                 if sha256(path) != golden["files"][name]["sha256"]]
    else:
        print(f"golden: float path, {versions()} against the recorded {golden['versions']}; "
              f"values to {REL_TOL} relative, floor {ABS_FLOOR}")
        moved = [name for name, path in outputs.items()
                 if not close(values(path), golden["files"][name]["values"])]
    assert not moved, f"outputs differ from {GOLDEN.name}: {moved}; if intended: {RECORD}"


def _number_pairs(new, old):
    """(new, old) number pairs at the same places of two value trees; None
    where their shapes or a non-number token differ."""
    if isinstance(new, dict) and isinstance(old, dict) and new.keys() == old.keys():
        parts = [_number_pairs(new[key], old[key]) for key in new]
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        parts = [_number_pairs(a, b) for a, b in zip(new, old)]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (new, old)):
        return [(new, old)]
    else:
        return [] if new == old else None
    return None if None in parts else [pair for part in parts for pair in part]


def moves(old: dict, new: dict) -> list[str]:
    """One line per file whose sha256 moved from the ``old`` record's files to
    ``new``'s, with its largest absolute and relative value change, then the
    count of byte-identical files."""
    lines, same = [], 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: {'no longer written' if name in old else 'new file'}")
            continue
        if new[name]["sha256"] == old[name]["sha256"]:
            same += 1
            continue
        pairs = _number_pairs(new[name]["values"], old[name]["values"])
        if pairs is None:
            lines.append(f"{name}: shape or text changed")
            continue
        changes = [(abs(a - b), abs(a - b) / abs(b) if b else math.inf)
                   for a, b in pairs if a != b and not (math.isnan(a) and math.isnan(b))]
        top = max((d for d, _ in changes), default=0.0)
        rel = max((r for _, r in changes), default=0.0)
        lines.append(f"{name}: max |change| {top:.3g}, max relative {rel:.3g} "
                     f"over {len(changes)} of {len(pairs)} recorded values")
    return lines + [f"{same} of {len(new)} files byte-identical"]


def test_record_reports_what_moved():
    def rec(sha, vals):
        return {"sha256": sha, "values": vals}

    old = {"a.csv": rec("1", {"header": ["x"], "rows": [[0, 1.0], [5, 2.0]]}),
           "b.json": rec("2", {"k": 1}), "c.json": rec("3", {"k": "t"}),
           "gone.json": rec("4", {})}
    new = {"a.csv": rec("9", {"header": ["x"], "rows": [[0, 1.0], [5, 2.5]]}),
           "b.json": rec("2", {"k": 1}), "c.json": rec("8", {"k": "u"}),
           "added.json": rec("5", {})}
    assert moves(old, new) == [
        "a.csv: max |change| 0.5, max relative 0.25 over 1 of 4 recorded values",
        "added.json: new file", "c.json: shape or text changed",
        "gone.json: no longer written", "1 of 4 files byte-identical"]


def record() -> None:
    old = json.loads(GOLDEN.read_text())["files"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: {"sha256": sha256(path), "values": values(path)}
                 for name, path in run_commands(Path(tmp)).items()}
    GOLDEN.write_text(json.dumps({"record": RECORD, "versions": versions(),
                                  "commands": COMMANDS, "files": files}, indent=1) + "\n")
    print("\n".join(moves(old, files)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    record()
    print(f"wrote {GOLDEN}")
