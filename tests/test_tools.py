"""The repository tools: tools/artifact_drift.py and tools/stock_digest.py --out."""

import importlib.util
import json
import os

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_tree(root, table, report, params):
    os.makedirs(os.path.join(root, "task", "runs"))
    with open(os.path.join(root, "task", "table.csv"), "w", encoding="utf-8") as fh:
        fh.write("name,value\n" + "".join(f"{k},{v!r}\n" for k, v in table.items()))
    with open(os.path.join(root, "task", "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    np.asarray(params, dtype="<f8").tofile(os.path.join(root, "task", "runs", "checkpoints.bin"))
    with open(os.path.join(root, "status.json"), "w", encoding="utf-8") as fh:
        json.dump({"ok": True}, fh)


def _drift(tmp_path, capsys, table, report, params):
    before, after = str(tmp_path / "before"), str(tmp_path / "after")
    _write_tree(before, {"a": 1.0, "b": 0.0}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0, 1e-9])
    _write_tree(after, table, report, params)
    code = _tool("artifact_drift").main([before, after])
    lines = capsys.readouterr().out.splitlines()
    return code, {path: value for value, path in map(str.split, lines[:-1])}, lines[-1]


def test_drift_within_tolerance_passes_and_names_each_file(tmp_path, capsys):
    code, drifts, summary = _drift(
        tmp_path, capsys,
        {"a": 1.0 + 4e-16, "b": 0.0},
        {"w": [2.0 - 2.0**-47, "nan"], "k": 3},
        [1.0, -2.0, 1e-9 + 2e-16],
    )
    assert code == 0
    assert drifts == {
        "status.json": "identical",
        "task/report.json": "3.553e-15",  # 2**-47 over 2.0
        "task/runs/checkpoints.bin": "1.000e-16",  # 2e-16 over the largest magnitude, 2.0
        "task/table.csv": "4.441e-16",
    }
    assert summary.startswith("3 of 4 files changed") and "within 1e-12" in summary


@pytest.mark.parametrize(
    "table, report, params",
    [
        ({"a": 1.0 + 1e-11, "b": 0.0}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0, 1e-9]),
        ({"a": 1.0, "b": 1e-300}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0, 1e-9]),
        ({"a": 1.0, "b": 0.0}, {"w": [2.0, 1.0], "k": 3}, [1.0, -2.0, 1e-9]),
        ({"a": 1.0, "b": 0.0}, {"w": [2.0, "nan"], "k": 3, "x": 0}, [1.0, -2.0, 1e-9]),
        ({"a": 1.0, "b": 0.0}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0, np.inf]),
        ({"a": 1.0, "b": 0.0}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0]),
        ({"a": 1.0, "b": 0.0, "c": 5.0}, {"w": [2.0, "nan"], "k": 3}, [1.0, -2.0, 1e-9]),
    ],
)
def test_drift_above_tolerance_or_unpaired_fails(tmp_path, capsys, table, report, params):
    code, drifts, summary = _drift(tmp_path, capsys, table, report, params)
    assert code == 1 and "above 1e-12" in summary
    assert sum(value not in ("identical", "0.000e+00") for value in drifts.values()) == 1


def test_a_file_in_one_tree_only_fails(tmp_path, capsys):
    before, after = str(tmp_path / "before"), str(tmp_path / "after")
    for root in (before, after):
        _write_tree(root, {"a": 1.0}, {}, [0.0])
    (tmp_path / "after" / "extra.csv").write_text("x\n1\n")
    assert _tool("artifact_drift").main([before, after]) == 1
    assert "      inf  extra.csv" in capsys.readouterr().out


def test_stock_digest_out_keeps_the_tree_it_hashes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "tree"
    digest = _tool("stock_digest")
    monkeypatch.setattr("sys.argv", ["stock_digest.py", "--out", str(out), "train_theoretical"])
    digest.main()
    printed = capsys.readouterr().out.splitlines()
    assert printed == digest.digest_lines(str(out))
    assert {line.split("  ")[1] for line in printed} >= {
        os.path.join("train_theoretical", "checkpoints.bin"),
        os.path.join("train_theoretical", "table.csv"),
    }
    with pytest.raises(SystemExit):
        digest.main()
    assert "is not empty" in capsys.readouterr().err
