"""Regenerate the stock artifact reference that tier-1 checks.

    PYTHONPATH=src python tools/stock_reference.py

Deletes tests/stock_reference/ and writes into it the artifacts of every
configs/*.cfg run at master seed 0 and workers 1, as tools/stock_digest.py
runs them but without its save_runs reruns (tier-1 replays saved runs on
its own). tests/test_tools.py reruns the same configs and compares them
with this tree by tools/artifact_drift.py's comparison at its fixed 1e-12
bound. A change that moves an artifact further regenerates the tree with
this command, so its diff shows every moved table, and quotes the drift.
"""

import os
import shutil

from stock_digest import CONFIG_DIR, write_stock_artifacts

TOOLS = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(TOOLS, os.pardir, "tests", "stock_reference")


def main() -> None:
    shutil.rmtree(REFERENCE, ignore_errors=True)
    write_stock_artifacts(CONFIG_DIR, REFERENCE, save_runs=False)


if __name__ == "__main__":
    main()
