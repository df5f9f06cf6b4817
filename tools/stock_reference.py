"""Regenerate the stock artifact reference that tier-1 checks.

    PYTHONPATH=src python tools/stock_reference.py

Deletes tests/stock_reference/ and writes into it the artifacts of every
configs/*.cfg run at master seed 0 and workers 1, as tools/stock_digest.py
runs them but without its save_runs reruns, and then save_runs.sha256:
the stock_digest.py digest lines of those reruns alone (aggregate_eval,
pds_eval and risk_compare with save_runs set), whose run directories hold
the only per-step metrics of batched stock runs. tests/test_tools.py
reruns the same configs and compares the artifacts with this tree by
tools/artifact_drift.py's comparison at its fixed 1e-12 bound, and the
reruns' digest lines with save_runs.sha256 line for line, which allows
no drift at all. A change that moves an artifact further regenerates the
tree with this command, so its diff shows every moved table, and quotes
the drift.
"""

import os
import shutil
import tempfile

from stock_digest import CONFIG_DIR, digest_lines, write_stock_artifacts

TOOLS = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(TOOLS, os.pardir, "tests", "stock_reference")
SAVE_RUNS_DIGEST = "save_runs.sha256"


def main() -> None:
    shutil.rmtree(REFERENCE, ignore_errors=True)
    write_stock_artifacts(CONFIG_DIR, REFERENCE, save_runs=False)
    with tempfile.TemporaryDirectory() as out_root:
        write_stock_artifacts(CONFIG_DIR, out_root, plain=False)
        lines = digest_lines(out_root)
    with open(os.path.join(REFERENCE, SAVE_RUNS_DIGEST), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
