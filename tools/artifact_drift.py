"""Per-file numeric drift between two artifact trees.

    PYTHONPATH=/path/to/parent/src python tools/stock_digest.py --out before > /dev/null
    PYTHONPATH=src python tools/stock_digest.py --out after > /dev/null
    python tools/artifact_drift.py before after

Walks both trees and prints one line per file path found in either,
"<drift>  <relative/path>", sorted by path. A byte-identical file reads
"identical". Otherwise the drift is the largest relative difference
|a - b| / max(|a|, |b|) over the file's numbers, paired in order: the cells
of a .csv file and the numbers of a .json file. A .bin file is an array of
float64 values, and its drift is max |a - b| over the array divided by the
largest magnitude in it. Equal numbers (NaN against NaN included) drift by
0. Anything that cannot be paired drifts by inf: a file found in only one
tree, a changed row, column, key or array length, a changed text cell, a
finite number against a non-finite one, or any change in a file of another
type.

Exits 1 if any file drifts by more than 1e-12 and 0 otherwise. 1e-12 is
the ROADMAP's tolerance for a faster path that rounds differently; the
bound is fixed, and a change that moves results further reports its new
numbers as a change of results.
"""

import csv
import json
import math
import os
import sys

import numpy as np

TOLERANCE = 1e-12


def number_drift(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal numbers, inf if one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _cell_drift(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        return number_drift(float(a), float(b))
    except ValueError:
        return math.inf


def _json_drift(a, b) -> float:
    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if is_number(a) and is_number(b):
        return number_drift(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_json_drift(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_json_drift(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if type(a) is type(b) and a == b else math.inf


def _csv_drift(before: str, after: str) -> float:
    with open(before, newline="", encoding="utf-8") as fa, open(
        after, newline="", encoding="utf-8"
    ) as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    cells = (_cell_drift(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb))
    return max(cells, default=0.0)


def _bin_drift(before: str, after: str) -> float:
    """Drift of float64 values relative to the largest finite magnitude in the
    two files: a parameter vector's coordinates carry the rounding of its
    scale, so a coordinate that nearly cancels would read as a large
    elementwise drift."""
    a, b = np.fromfile(before, dtype="<f8"), np.fromfile(after, dtype="<f8")
    if a.shape != b.shape:
        return math.inf
    moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not moved.any():
        return 0.0
    if not (np.isfinite(a[moved]).all() and np.isfinite(b[moved]).all()):
        return math.inf
    finite = np.concatenate([a[np.isfinite(a)], b[np.isfinite(b)]])
    return float(np.abs(a - b)[moved].max() / np.abs(finite).max())


def file_drift(before: str, after: str) -> float | None:
    """None for byte-identical files, else the file's drift as described above."""
    with open(before, "rb") as fa, open(after, "rb") as fb:
        if fa.read() == fb.read():
            return None
    if before.endswith(".csv"):
        return _csv_drift(before, after)
    if before.endswith(".json"):
        with open(before, encoding="utf-8") as fa, open(after, encoding="utf-8") as fb:
            return _json_drift(json.load(fa), json.load(fb))
    if before.endswith(".bin"):
        return _bin_drift(before, after)
    return math.inf


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names
    }


def tree_drift(before: str, after: str) -> dict[str, float | None]:
    """Every relative path in either tree mapped to its file_drift."""
    files_a, files_b = _files(before), _files(after)
    return {
        path: file_drift(os.path.join(before, path), os.path.join(after, path))
        if path in files_a and path in files_b
        else math.inf
        for path in sorted(files_a | files_b)
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: python tools/artifact_drift.py BEFORE_DIR AFTER_DIR", file=sys.stderr)
        return 2
    drifts = tree_drift(*argv)
    for path, drift in drifts.items():
        print(f"{'identical' if drift is None else f'{drift:.3e}':>9}  {path}")
    changed = [d for d in drifts.values() if d is not None]
    worst = max(changed, default=0.0)
    print(
        f"{len(changed)} of {len(drifts)} files changed; max drift {worst:.3e}"
        f" ({'above' if worst > TOLERANCE else 'within'} {TOLERANCE:.0e})"
    )
    return 1 if worst > TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
