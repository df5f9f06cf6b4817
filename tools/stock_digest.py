"""Hash every artifact the stock configs write.

    PYTHONPATH=src python tools/stock_digest.py > after.txt
    PYTHONPATH=src python tools/stock_digest.py uq_compare risk_compare > after.txt
    PYTHONPATH=src python tools/stock_digest.py --out after_tree > after.txt

Runs each configs/*.cfg through dpckpt.harness.run_experiment at master
seed 0 and workers 1, then runs aggregate_eval, pds_eval and risk_compare
once more with save_runs set to true, so their run directories are hashed
too. Config stems given as arguments (the file names without .cfg) limit
the runs to those configs and their save_runs reruns; no argument runs
all. Prints "sha256  relative/path" for every file written, sorted by
path, to stdout, and "<seconds>  <config name>[+save_runs]" for each run,
the wall time of its run_experiment call, to stderr. The artifacts go to
a temporary directory that is removed afterwards, unless --out DIR names a
directory to keep them in (it must be empty or not yet exist).

dpckpt is imported from PYTHONPATH, so one copy of this script hashes any
checkout; a refactor that claims byte-identical artifacts shows it with

    PYTHONPATH=/path/to/parent/src python tools/stock_digest.py > before.txt
    diff before.txt after.txt

and a change that moves results within a tolerance shows its drift by
keeping both trees and comparing them with tools/artifact_drift.py.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import time
from typing import Sequence

from dpckpt.harness.config import ConfigView, load_config
from dpckpt.harness.experiments import run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
SAVE_RUNS_TASKS = ("aggregate_eval", "pds_eval", "risk_compare")


def write_stock_artifacts(
    config_dir: str,
    out_root: str,
    stems: Sequence[str] = (),
    save_runs: bool = True,
    plain: bool = True,
) -> None:
    """Every stock run, or those of the named config stems, each under
    out_root/<config name>[+save_runs]; each run's wall time goes to stderr.
    With save_runs false the save_runs reruns are left out, and with plain
    false the runs of the stock files as they stand."""
    available = sorted(f[: -len(".cfg")] for f in os.listdir(config_dir) if f.endswith(".cfg"))
    unknown = sorted(set(stems) - set(available))
    if unknown:
        raise SystemExit(
            f"no config {', '.join(unknown)}; the stock configs are {', '.join(available)}"
        )
    for stem in available:
        if stems and stem not in stems:
            continue
        values = load_config(os.path.join(config_dir, f"{stem}.cfg"))
        runs = [(stem, values)] if plain else []
        if save_runs and values["task"] in SAVE_RUNS_TASKS:
            # the stock files assign save_runs, so override the parsed value
            runs.append((f"{stem}+save_runs", {**values, "save_runs": "true"}))
        for label, run_values in runs:
            out_dir = os.path.join(out_root, label)
            start = time.perf_counter()
            run_experiment(ConfigView(run_values), out_dir, master_seed=0, workers=1)
            print(f"{time.perf_counter() - start:8.3f}  {label}", file=sys.stderr)


def digest_lines(out_root: str) -> list[str]:
    entries = []
    for dirpath, _, files in os.walk(out_root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append((os.path.relpath(path, out_root), digest))
    return [f"{digest}  {path}" for path, digest in sorted(entries)]


def main() -> None:
    parser = argparse.ArgumentParser(description="Hash every artifact the stock configs write.")
    parser.add_argument("stems", nargs="*", help="config stems to run (default: all)")
    parser.add_argument("--out", metavar="DIR", help="keep the artifact tree in DIR")
    args = parser.parse_args()
    if args.out and os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty")
    keep = contextlib.nullcontext(args.out) if args.out else tempfile.TemporaryDirectory()
    with keep as out_root:
        write_stock_artifacts(CONFIG_DIR, out_root, args.stems)
        print("\n".join(digest_lines(out_root)))


if __name__ == "__main__":
    main()
