"""The repository tools: tools/artifact_drift.py and tools/stock_digest.py --out."""

import importlib.util
import json
import os
import sys

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


# A stand-in for bench/run.py: the i-th run of a checkout reports the i-th
# wall time of its values.json (null: exits 1), and logs its checkout and
# arguments to the log file beside the checkouts.
_STUB_RUN = """
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "values.json")) as fh:
    values = json.load(fh)
count = len(os.listdir(os.path.join(root, "runs")))
open(os.path.join(root, "runs", str(count)), "w").close()
with open(os.path.join(os.path.dirname(root), "log"), "a") as fh:
    fh.write(os.path.basename(root) + " " + " ".join(sys.argv[1:]) + "\\n")
wall = values[count]
if wall is None:
    sys.exit(1)
metrics = {
    "wall_s": {"value": wall, "unit": "s"},
    "items_per_s": {"value": 100.0 / wall, "unit": "items/s"},
}
print("wall_s", wall)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def _stub_checkout(path, walls):
    os.makedirs(path / "bench")
    os.makedirs(path / "runs")
    (path / "bench" / "run.py").write_text(_STUB_RUN)
    (path / "values.json").write_text(json.dumps(walls))
    spec = {
        "command": [sys.executable, "bench/run.py"],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "items_per_s", "unit": "items/s", "better": "higher"},
        ],
    }
    (path / "BENCHMARK.json").write_text(json.dumps(spec))
    return str(path)


def test_bench_pairs_runs_abba_and_summarizes_the_pairs(tmp_path, capsys):
    parent = _stub_checkout(tmp_path / "pa", [1.0, 1.2, 0.9, 1.1])
    change = _stub_checkout(tmp_path / "ch", [0.8, 1.3, 0.7, None])
    pairs = _tool("bench_pairs")
    argv = [parent, change, "--workload", "w", "--pairs", "4", "--seconds", "2.5"]
    assert pairs.main(argv) == 1  # the change's fourth run failed
    log = (tmp_path / "log").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["pa", "ch", "ch", "pa", "pa", "ch", "ch", "pa"]
    assert log[0].split()[1:] == [
        "--workload", "w", "--seed", "1", "--seconds", "2.5", "--trace", "0"
    ]
    printed = capsys.readouterr().out.splitlines()
    assert printed[2].split() == ["wall_s", "1.05", "0.8", "0.8", "2/4", "0.15", "0/1"]

    results = {
        (pair, side): None if wall is None else {"wall_s": wall, "items_per_s": 100.0 / wall}
        for side, walls in (("parent", [1.0, 1.2, 0.9, 1.1]), ("change", [0.8, 1.3, 0.7, None]))
        for pair, wall in enumerate(walls)
    }
    spec = json.loads((tmp_path / "pa" / "BENCHMARK.json").read_text())["end_to_end"]
    wall, items = pairs.summarize(results, 4, spec)
    # the medians take every successful run, the ratios only complete pairs
    assert wall["parent_median"] == pytest.approx(1.05)
    assert wall["change_median"] == pytest.approx(0.8)
    assert wall["ratio_median"] == pytest.approx(0.8)  # of 0.8, 1.3 / 1.2 and 0.7 / 0.9
    assert wall["parent_iqr"] == pytest.approx(1.125 - 0.975)
    assert (wall["wins"], wall["failed"]) == (2, {"parent": 0, "change": 1})
    # higher is better: the change wins the same pairs
    assert items["wins"] == 2
    assert items["parent_median"] == pytest.approx((100.0 + 100.0 / 1.1) / 2)


def test_bench_pairs_parses_only_a_clean_last_json_line():
    pairs = _tool("bench_pairs")
    ok = json.dumps({"failed": 0, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}})
    assert pairs.parse_result(0, "env {}\n" + ok + "\n") == {"wall_s": 0.5}
    assert pairs.parse_result(1, ok) is None
    assert pairs.parse_result(0, ok + "\ntrailing words") is None
    assert pairs.parse_result(0, "") is None
    assert pairs.parse_result(0, ok.replace('"failed": 0', '"failed": 2')) is None


def test_bench_pairs_refuses_checkout_paths_of_unequal_length(tmp_path, capsys):
    parent = _stub_checkout(tmp_path / "pa", [1.0])
    change = _stub_checkout(tmp_path / "change", [1.0])
    argv = [parent, change, "--workload", "w", "--pairs", "1", "--seconds", "1"]
    assert _tool("bench_pairs").main(argv) == 2
    assert "differ in length" in capsys.readouterr().err
    assert not (tmp_path / "log").exists()
