"""The four benchmark workloads: config, size, item count and output checks.

Each workload is a stock config from configs/ run through
dpckpt.harness.run_experiment. Only seed and trial counts are changed
(OVERRIDES), so per-call costs keep the stock problem shape. Item counts
come from the config through public helpers, never from counting inside
the program, so removing wasted work raises items_per_s. Output checks
hold for any random stream: they compare artifacts with each other, not
with recorded values.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-12


def read_table(out_dir: str) -> dict[str, tuple[float, float, int]]:
    with open(os.path.join(out_dir, "table.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {r["setting"]: (float(r["mean"]), float(r["std"]), int(r["n_seeds"])) for r in rows}


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size >= 2 else math.nan


def _seeds(view) -> int:
    return view.get_int("num_seeds")


# ---------------------------------------------------------------------------
# uq_theory


def uq_items(view) -> int:
    from dpckpt import privacy, trainer

    delta = view.get_float("train.delta", 1e-5)
    n = view.get_int("data.n", 1000)
    steps = sum(
        trainer.choose_T(n, privacy.epsilon_to_zcdp(eps, delta))
        for eps in view.get_float_list("uq.epsilons", [1.0, 8.0])
    )
    return _seeds(view) * view.get_int("uq.pool_runs", 10) * steps


def _uq_cells(view):
    return [
        (eps, k)
        for eps in view.get_float_list("uq.epsilons", [1.0, 8.0])
        for k in view.get_int_list("uq.k_values", [3, 5, 10])
    ]


def uq_check(out_dir: str, view, prepared, after) -> list[str]:
    table = read_table(out_dir)
    problems = []
    for eps, k in _uq_cells(view):
        for kind in ("width_checkpoints", "width_independent", "frac_checkpoints_narrower"):
            name = f"{kind}(eps={eps},k={k})"
            if name not in table:
                problems.append(f"missing row {name}")
                continue
            mean, std, n = table[name]
            if not math.isfinite(mean) or (n >= 2 and not math.isfinite(std)):
                problems.append(f"non-finite row {name}")
            if kind.startswith("frac") and not 0.0 <= mean <= 1.0:
                problems.append(f"{name} = {mean} outside [0, 1]")
    with open(os.path.join(out_dir, "uq_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    widths = report["perInputWidths"]
    if len(widths) != view.get_int("uq.num_test_inputs", 50):
        problems.append("uq_report.json has the wrong number of per-input widths")
    if not abs(report["averageWidth"] - float(np.mean(widths))) <= TOL:
        problems.append("uq_report.json averageWidth is not the mean of perInputWidths")
    return problems


def uq_gates(out_dir: str, view) -> str:
    table = read_table(out_dir)
    fracs = [
        f"eps={eps:g}/k={k}: {table[f'frac_checkpoints_narrower(eps={eps},k={k})'][0]:.2f}"
        for eps, k in _uq_cells(view)
    ]
    return "AC4 narrower-or-equal fractions " + ", ".join(fracs)


# ---------------------------------------------------------------------------
# pds_drift


def steps_items(view) -> int:
    return _seeds(view) * view.get_int("train.steps")


def _parse_repr(text: str) -> float:
    # under numpy 2 the task writes repr(np.float64), e.g. "np.float64(0.566)"
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def pds_check(out_dir: str, view, prepared, after) -> list[str]:
    table = read_table(out_dir)
    series: dict[tuple[str, int], list[float]] = {}
    with open(os.path.join(out_dir, "plot_data.csv"), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], int(row["seed_index"]))
            series.setdefault(key, []).append(_parse_repr(row["accuracy"]))
    problems = []
    for method in ("baseline", "ema", "upa"):
        per_seed = [v for (m, _), v in sorted(series.items()) if m == method]
        if len(per_seed) != _seeds(view):
            problems.append(f"plot_data.csv has {len(per_seed)} {method} series")
            continue
        expected = {
            f"window_mean_{method}": [float(np.mean(s)) for s in per_seed],
            f"window_std_{method}": [float(np.std(s, ddof=1)) for s in per_seed],
        }
        for name, values in expected.items():
            mean, std = _mean_std(values)
            got = table.get(name)
            if got is None:
                problems.append(f"missing row {name}")
            elif not (_close(got[0], mean) and _close(got[1], std) and got[2] == len(values)):
                problems.append(f"{name} does not match plot_data.csv")
    return problems


def pds_gates(out_dir: str, view) -> str:
    t = {name: row[0] for name, row in read_table(out_dir).items()}
    base = t["window_std_baseline"]
    return (
        f"AC5 window std base={base:.4f} ema={t['window_std_ema']:.4f} "
        f"({t['window_std_ema'] / base:.2f}x) upa={t['window_std_upa']:.4f} "
        f"({t['window_std_upa'] / base:.2f}x), mean base={t['window_mean_baseline']:.4f} "
        f"best-aggregate={max(t['window_mean_ema'], t['window_mean_upa']):.4f}"
    )


# ---------------------------------------------------------------------------
# dpld_bias


def dpld_items(view) -> int:
    return (
        len(view.get_float_pairs("dpld.points"))
        * view.get_int("dpld.trials")
        * view.get_int("dpld.k", 5)
    )


def _dpld_rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "dpld_report.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def dpld_check(out_dir: str, view, prepared, after) -> list[str]:
    table = read_table(out_dir)
    rows = _dpld_rows(out_dir)
    problems = []
    if len(rows) != len(view.get_float_pairs("dpld.points")):
        problems.append(f"dpld_report.csv has {len(rows)} rows")
    for r in rows:
        bias = float(r["abs_bias"])
        if not abs(bias - abs(float(r["mean_S"]) - float(r["oracle_V"]))) <= TOL:
            problems.append(f"abs_bias != |mean_S - oracle_V| at t1={r['t1']} gap={r['gap']}")
        name = f"abs_bias(t1={float(r['t1'])},gap={float(r['gap'])})"
        got = table.get(name)
        if got is None or not _close(got[0], bias) or got[2] != int(r["trials"]):
            problems.append(f"table.csv row {name} does not match dpld_report.csv")
    return problems


def dpld_gates(out_dir: str, view) -> str:
    table = read_table(out_dir)

    def bias(t1, gap):
        mean, se, _ = table[f"abs_bias(t1={t1},gap={gap})"]
        return mean, se

    def non_increasing(points):
        prev_b, prev_se = bias(*points[0])
        for pt in points[1:]:
            b, se = bias(*pt)
            if b > prev_b + 2.0 * math.hypot(se, prev_se):
                return False
            prev_b, prev_se = b, se
        return True

    b_far, se_far = bias(20.0, 20.0)
    b_near, _ = bias(0.01, 0.01)
    trend_t1 = non_increasing([(0.1, 10.0), (1.0, 10.0), (10.0, 10.0)])
    trend_gap = non_increasing([(10.0, 0.1), (10.0, 1.0), (10.0, 10.0)])
    return (
        f"AC3 |bias|(20,20)={b_far:.4f} ({b_far / se_far:.2f} SE), "
        f"|bias|(0.01,0.01)={b_near:.4f} ({b_near / max(b_far, 1e-300):.0f}x), "
        f"trends t1/gap = {trend_t1}/{trend_gap}"
    )


# ---------------------------------------------------------------------------
# agg_persist


RESCORED = ("last", "upa_k(k=5)")


def agg_prepare(view):
    """Model and test split rebuilt with the task's public helpers."""
    from dpckpt.harness.experiments import split_dataset
    from dpckpt.model import LogisticLoss, synth_classification

    data = synth_classification(
        n=view.get_int("data.n", 5000),
        p=view.get_int("data.p", 20),
        num_classes=view.get_int("data.classes", 10),
        separation=view.get_float("data.separation", 3.0),
        seed=view.get_int("data.seed", 11),
    )
    parts = split_dataset(data, seed=view.get_int("data.split_seed", 1))
    model = LogisticLoss.for_data(
        parts["train"], l2_reg=view.get_float("train.l2_reg", 0.0), radius=1.0
    )
    return model, parts["test"]


def agg_reload(out_dir: str, prepared) -> list[tuple[str, object, dict]]:
    """Load every saved run and re-score it; part of the timed work."""
    from dpckpt import aggregate, trainer
    from dpckpt.model import accuracy

    model, test = prepared
    runs_dir = os.path.join(out_dir, "runs")
    out = []
    for name in sorted(os.listdir(runs_dir)):
        record = trainer.load_run(os.path.join(runs_dir, name))
        params = record.checkpoint_params()
        scores = {
            "last": accuracy(model, record.final_params(), test),
            "upa_k(k=5)": accuracy(model, aggregate.upa_past_k(params, 5), test),
        }
        out.append((name, record, scores))
    return out


def agg_check(out_dir: str, view, prepared, reloaded) -> list[str]:
    model, _ = prepared
    steps = view.get_int("train.steps")
    problems = []
    if len(reloaded) != _seeds(view):
        problems.append(f"{len(reloaded)} saved runs, expected {_seeds(view)}")
    for name, record, _ in reloaded:
        ckpt_steps = [c.step for c in record.checkpoints]
        if ckpt_steps != list(range(1, steps + 1)):
            problems.append(f"run {name} does not hold one checkpoint per step")
        if any(c.params.shape != (model.param_dim(),) for c in record.checkpoints):
            problems.append(f"run {name} has checkpoints of the wrong dimension")
        if not (math.isfinite(record.budget.rho) and math.isfinite(record.budget.epsilon)):
            problems.append(f"run {name} has a non-finite budget")
    table = read_table(out_dir)
    for setting in RESCORED:
        mean, std = _mean_std([scores[setting] for _, _, scores in reloaded])
        got = table.get(setting)
        if got is None or not (_close(got[0], mean) and _close(got[1], std)):
            problems.append(f"re-scored {setting} does not reproduce table.csv")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the checkout root
    overrides: dict[str, str]
    items: Callable
    check: Callable
    gates: Callable | None = None
    prepare: Callable | None = None  # untimed, once per benchmark run
    after: Callable | None = None  # timed together with run_experiment


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uq_theory",
            "configs/uq_compare.cfg",
            {"num_seeds": "1"},
            uq_items,
            uq_check,
            uq_gates,
        ),
        Workload(
            "pds_drift",
            "configs/pds_eval.cfg",
            {"num_seeds": "2"},
            steps_items,
            pds_check,
            pds_gates,
        ),
        Workload(
            "dpld_bias",
            "configs/dpld_bias.cfg",
            {"dpld.trials": "2000"},
            dpld_items,
            dpld_check,
            dpld_gates,
        ),
        Workload(
            "agg_persist",
            "configs/aggregate_eval.cfg",
            {"num_seeds": "2", "save_runs": "true"},
            steps_items,
            agg_check,
            prepare=agg_prepare,
            after=agg_reload,
        ),
    )
}
