"""Compare two checkouts on bench workloads, in alternating fresh processes.

    python tools/bench_pairs.py PARENT CHANGE --workload pds_drift --pairs 6 --seconds 8
    python tools/bench_pairs.py PARENT CHANGE --workload uq_theory --workload pds_drift \
        --workload dpld_bias --workload agg_persist --pairs 10 --seconds 25

PARENT and CHANGE are source checkouts, each with its own BENCHMARK.json,
bench/run.py and src/. A pair runs each checkout's benchmark command (the
"command" of its BENCHMARK.json, started in that checkout, with
--workload W --seed SEED --seconds S --trace 0 appended) once, each in a
fresh process. The pairs go in ABBA order: the parent runs first in the
even pairs and second in the odd ones, so a drift in the host's speed
weighs on both sides alike. A run's result is the JSON object on the
last line it prints. --workload may be given more than once; the
workloads run one after another, each with all its pairs, in the order
given.

It prints one table per workload, with a row for every end-to-end
metric of PARENT's BENCHMARK.json: the parent and change medians, the
median over complete pairs of change / parent, the pairs the change wins
by the metric's better direction (a pair with a failed run is no win),
the interquartile range of the parent's values, and the failed runs of
each side. A run fails when its process exits non-zero, prints no JSON
result, or reports a failed workload run.

The two checkout paths must be equally long: the benchmark imports the
package from its own checkout and writes its work files there, and path
length alone has moved a workload's wall time by several percent.

Exit status: 0 when every run succeeded, 1 when a run failed, 2 when the
checkout paths differ in length (then nothing runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in ABBA order: parent first in even pairs, change first in odd."""
    return [
        (pair, side)
        for pair in range(pairs)
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1])
    ]


def parse_result(returncode: int, stdout: str) -> dict | None:
    """{metric: value} from a run's last output line, or None if the run failed."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or result.get("failed") != 0:
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def run_bench(checkout: str, workload: str, seconds: float, seed: int) -> dict | None:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True)
    return parse_result(proc.returncode, proc.stdout)


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(results: dict, pairs: int, end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric, from results[(pair, side)] = metrics or None."""
    failed = {side: sum(results[pair, side] is None for pair in range(pairs)) for side in SIDES}
    complete = [
        (results[pair, "parent"], results[pair, "change"])
        for pair in range(pairs)
        if results[pair, "parent"] is not None and results[pair, "change"] is not None
    ]
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {
            side: [
                results[pair, side][name] for pair in range(pairs)
                if results[pair, side] is not None
            ]
            for side in SIDES
        }
        ratios = [change[name] / parent[name] for parent, change in complete if parent[name]]
        wins = sum(
            change[name] < parent[name] if lower else change[name] > parent[name]
            for parent, change in complete
        )
        rows.append({
            "metric": name,
            "parent_median": statistics.median(values["parent"]) if values["parent"] else None,
            "change_median": statistics.median(values["change"]) if values["change"] else None,
            "ratio_median": statistics.median(ratios) if ratios else None,
            "wins": wins,
            "pairs": pairs,
            "parent_iqr": _iqr(values["parent"]),
            "failed": failed,
        })
    return rows


def _num(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':<12} {'parent':>10} {'change':>10} {'ratio':>8} {'wins':>6}"
             f" {'parent_iqr':>10} {'failed':>7}"]
    for row in rows:
        failed = f"{row['failed']['parent']}/{row['failed']['change']}"
        lines.append(
            f"{row['metric']:<12} {_num(row['parent_median']):>10} {_num(row['change_median']):>10}"
            f" {_num(row['ratio_median']):>8} {row['wins']:>3}/{row['pairs']:<2}"
            f" {_num(row['parent_iqr']):>10} {failed:>7}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        print(
            f"bench_pairs: the checkout paths differ in length ({len(checkouts['parent'])} and"
            f" {len(checkouts['change'])} characters); use paths of equal length",
            file=sys.stderr,
        )
        return 2
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    failed = False
    for number, workload in enumerate(args.workload):
        results = {}
        for pair, side in run_order(args.pairs):
            metrics = run_bench(checkouts[side], workload, args.seconds, args.seed)
            results[pair, side] = metrics
            shown = "failed" if metrics is None else " ".join(
                f"{name}={value:.6g}" for name, value in metrics.items()
            )
            print(f"{workload} pair {pair + 1} {side}: {shown}", file=sys.stderr)
        failed = failed or any(metrics is None for metrics in results.values())
        if number:
            print()
        print(f"workload {workload}, {args.pairs} pairs of {args.seconds:g} s runs, ABBA order")
        print("\n".join(format_rows(summarize(results, args.pairs, end_to_end))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
