"""Config parsing, experiment plumbing, task orchestration, and the CLI."""

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import dpckpt
from dpckpt.aggregate import AggregationSpec
from dpckpt.errors import ConfigError, NumericDivergenceError
from dpckpt.harness import cli, experiments
from dpckpt.harness.config import ConfigView, Key, load_config, parse_config_text, read_keys
from dpckpt.harness.experiments import (
    ResultRow,
    ResultTable,
    aggregation_accuracy,
    derive_run_seed,
    normalize_task,
    parse_aggregation_list,
    run_experiment,
    split_dataset,
    summarize,
)
from dpckpt.model import (
    DatasetHandle,
    LogisticLoss,
    LossModel,
    QuadraticLoss,
    synth_classification,
)
from dpckpt import aggregate, trainer

from references import lookup

# ---------------------------------------------------------------------------
# config file format


def test_parse_config_text_basics():
    text = """
    # a comment
    task = risk_compare

    train.rho = 0.5
    agg.list = upa_tail:0.5, pda:1.0
    """
    values = parse_config_text(text)
    assert values == {
        "task": "risk_compare",
        "train.rho": "0.5",
        "agg.list": "upa_tail:0.5, pda:1.0",
    }


def test_parse_config_text_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("a = 1\na = 2\n")
    assert "a" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config_text("just some words\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config_text("= value\n")


def test_load_config_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "nope.cfg"))
    path = tmp_path / "ok.cfg"
    path.write_text("task = train\n")
    assert load_config(str(path)) == {"task": "train"}


def test_config_view_typed_getters():
    view = ConfigView(
        {
            "i": "7",
            "f": "0.25",
            "inf": "inf",
            "b1": "true",
            "b0": "off",
            "ints": "3, 5, 10",
            "floats": "0.85,0.9",
            "words": "ema:0.9, pda:1.0",
        }
    )
    assert view.get_int("i") == 7
    assert view.get_float("f") == 0.25
    assert view.get_float("inf") == math.inf
    assert view.get_bool("b1") is True
    assert view.get_bool("b0") is False
    assert view.get_int_list("ints") == [3, 5, 10]
    assert view.get_float_list("floats") == [0.85, 0.9]
    assert view.get_str_list("words") == ["ema:0.9", "pda:1.0"]
    assert view.get_int("missing", 4) == 4
    kinds = {
        "i": "int",
        "f": "float",
        "inf": "float",
        "b1": "bool",
        "b0": "bool",
        "ints": "int_list",
        "floats": "float_list",
        "words": "str_list",
        "missing": "int",
    }
    values = read_keys(view, tuple(Key(name, kind, 4) for name, kind in kinds.items()))
    assert values["ints"] == [3, 5, 10] and values["b0"] is False and values["missing"] == 4


def test_config_view_errors_carry_the_key():
    view = ConfigView({"x": "notanumber"})
    with pytest.raises(ConfigError) as exc:
        view.get_int("x")
    assert exc.value.key == "x"
    with pytest.raises(ConfigError) as exc:
        view.get_float("x")
    assert exc.value.key == "x"
    with pytest.raises(ConfigError) as exc:
        ConfigView({"x": "maybe"}).get_bool("x")
    assert exc.value.key == "x"
    with pytest.raises(ConfigError) as exc:
        ConfigView({}).get_str("task")
    assert exc.value.key == "task"


def test_config_view_rejects_unknown_keys():
    view = ConfigView({"known": "1", "typo_key": "2", "also_typo": "3"})
    with pytest.raises(ConfigError, match="unknown key for this task") as exc:
        read_keys(view, (Key("known", "int", 0),))
    assert exc.value.key == "also_typo"
    assert read_keys(ConfigView({"known": "1"}), (Key("known", "int", 0),)) == {"known": 1}


# ---------------------------------------------------------------------------
# seeds, summaries, tables


def test_derive_run_seed():
    assert derive_run_seed(0, 0) == 0
    assert derive_run_seed(0, 5) == 5
    assert derive_run_seed(2, 3) == 2 * 1_000_003 + 3
    # nearby masters with many indices never collide
    seeds = {derive_run_seed(m, i) for m in range(4) for i in range(1000)}
    assert len(seeds) == 4000
    with pytest.raises(ValueError):
        derive_run_seed(0, -1)


def test_summarize():
    row = summarize("x", [1.0, 2.0, 3.0])
    assert row.mean == 2.0
    assert row.std == pytest.approx(1.0)
    assert row.n_seeds == 3
    single = summarize("y", [4.0])
    assert math.isnan(single.std)
    with pytest.raises(ValueError):
        summarize("z", [])


def test_result_table_round_trip_with_commas(tmp_path):
    table = ResultTable(
        [
            ResultRow("width_checkpoints(eps=1.0,k=3)", 0.125, 0.5, 4),
            ResultRow("plain", 1.0, math.nan, 1),
        ]
    )
    path = str(tmp_path / "table.csv")
    table.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["setting", "mean", "std", "n_seeds"]
    assert rows[1][0] == "width_checkpoints(eps=1.0,k=3)"  # comma survives quoting
    assert float(rows[1][1]) == 0.125
    assert lookup(table, "plain").mean == 1.0
    with pytest.raises(KeyError):
        lookup(table, "absent")


# ---------------------------------------------------------------------------
# partitions


def test_split_dataset_partitions():
    data = synth_classification(200, 4, num_classes=2, seed=1)
    parts = split_dataset(data, seed=3)
    assert set(parts) == {"train", "validation", "heldout", "test"}
    assert parts["validation"].n == 20 and parts["heldout"].n == 20 and parts["test"].n == 20
    assert parts["train"].n == 140
    # the split covers every example exactly once
    all_rows = np.concatenate([p.features for p in parts.values()])
    assert all_rows.shape == data.features.shape
    assert np.allclose(np.sort(all_rows, axis=0), np.sort(data.features, axis=0))
    again = split_dataset(data, seed=3)
    assert np.array_equal(again["train"].features, parts["train"].features)
    different = split_dataset(data, seed=4)
    assert not np.array_equal(different["train"].features, parts["train"].features)


def test_split_dataset_validation():
    data = synth_classification(20, 2, seed=0)
    with pytest.raises(ConfigError):
        split_dataset(data, 0, val_fraction=0.5, heldout_fraction=0.4, test_fraction=0.2)
    with pytest.raises(ConfigError):
        split_dataset(data, 0, val_fraction=-0.1)


# ---------------------------------------------------------------------------
# tuning


def test_best_index_prefers_smaller_k_on_ties():
    specs = [AggregationSpec("upa_k", k=k) for k in (3, 5, 10)]
    assert experiments._best_index(specs, [0.7, 0.9, 0.9]) == 1
    # a spec with k beats a tied spec without one
    mixed = [AggregationSpec("ema", beta=0.5), AggregationSpec("upa_k", k=3)]
    assert experiments._best_index(mixed, [0.8, 0.8]) == 1


def test_best_index_scalar_then_listing_order_tiebreak():
    specs = [AggregationSpec("ema", beta=b) for b in (0.99, 0.9, 0.95)]
    assert experiments._best_index(specs, [0.8, 0.8, 0.8]) == 1  # smallest coefficient wins
    twins = [AggregationSpec("ema", beta=0.9)] * 2
    assert experiments._best_index(twins, [0.8, 0.8]) == 0  # then listing order
    with pytest.raises(ValueError):
        experiments._best_index([], [])


# ---------------------------------------------------------------------------
# aggregation plumbing


def test_parse_aggregation_list_all_kinds():
    specs = parse_aggregation_list(
        ["ema:0.9", "upa_k:5", "upa_tail:0.5", "pda:1.0", "opa:3", "omv:7", "best_k:5:0.9"]
    )
    kinds = [s.kind for s in specs]
    assert kinds == ["ema", "upa_k", "upa_tail", "pda", "opa", "omv", "best_k"]
    assert specs[0].beta == 0.9
    assert specs[-1].k == 5 and specs[-1].beta == 0.9
    for bad in (
        "median:3", "ema", "upa_k:x", "best_k:5", "", "ema:0.9:7", "upa_k:5:junk", "pda:1.0:2:3"
    ):
        with pytest.raises(ConfigError):
            parse_aggregation_list([bad])
    with pytest.raises(ConfigError):
        parse_aggregation_list([])


def test_combine_checkpoints_matches_operators():
    # the whole-run value is the last row of the rolling form
    gen = np.random.default_rng(3)
    params = [gen.normal(size=4) for _ in range(12)]
    steps = list(range(1, 13))
    for spec in (
        AggregationSpec("ema", beta=0.9),
        AggregationSpec("upa_k", k=4),
        AggregationSpec("upa_tail", alpha=0.5),
        AggregationSpec("pda", gamma=1.0),
    ):
        assert np.allclose(
            aggregate.combine(spec, params, steps),
            aggregate.rolling(spec, params, steps, 1)[0],
        )
    with pytest.raises(ValueError):
        aggregate.combine(AggregationSpec("omv", k=3), params)


def _brute_force_rolling(spec, params, steps):
    out = []
    for i in range(len(params)):
        prefix = params[: i + 1]
        if spec.kind == "upa_k":
            out.append(aggregate.upa_past_k(prefix, min(spec.k, len(prefix))))
        else:
            out.append(aggregate.combine(spec, prefix, steps[: i + 1]))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        AggregationSpec("ema", beta=0.92),
        AggregationSpec("pda", gamma=2.0),
        AggregationSpec("upa_k", k=5),
        AggregationSpec("upa_tail", alpha=0.5),
        AggregationSpec("upa_tail", alpha=1.0),
    ],
    ids=lambda s: s.label(),
)
def test_rolling_aggregate_matches_brute_force(spec):
    gen = np.random.default_rng(11)
    params = [gen.normal(size=3) for _ in range(17)]
    steps = list(range(1, 18))
    rolling = aggregate.rolling(spec, params, steps, 17)
    expected = _brute_force_rolling(spec, params, steps)
    assert len(rolling) == 17
    for got, want in zip(rolling, expected):
        assert np.allclose(got, want, atol=1e-10)


def test_rolling_aggregate_with_coarse_steps():
    # checkpoints every 3 steps: the tail cut must use true step numbers
    spec = AggregationSpec("upa_tail", alpha=0.5)
    params = [np.array([float(i)]) for i in range(1, 7)]
    steps = [3, 6, 9, 12, 15, 18]
    rolling = aggregate.rolling(spec, params, steps, 6)
    expected = _brute_force_rolling(spec, params, steps)
    for got, want in zip(rolling, expected):
        assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# pds_eval scoring


class _ProbModel2(LossModel):
    """Parameters are a two-class probability row; for hand-built runs."""

    def param_dim(self) -> int:
        return 2

    def predict_proba(self, rows, data):
        """(S, n, 2) for (S, 2) rows."""
        rows = self._check_rows(rows)
        return np.repeat(rows[:, None, :], data.n, axis=1)


def _oscillating_run(qs):
    """A hand-built run: its (K, 2) checkpoint matrix and steps 1..K."""
    params = np.array([[1.0 - q, q] for q in qs])
    return SimpleNamespace(params=params, steps=np.arange(1, len(qs) + 1))


def _pds_parts(val_labels, test_labels):
    """Validation and test partitions for _ProbModel2, whose features are unread."""
    return {
        name: DatasetHandle(np.zeros((len(labels), 2)), np.array(labels), 2)
        for name, labels in (("validation", val_labels), ("test", test_labels))
    }


def test_pds_scores_smooths_oscillation():
    run = _oscillating_run([0.2, 0.8, 0.2, 0.8, 0.2, 0.8])
    parts = _pds_parts([1, 1], [1, 1, 1, 1])
    upa = AggregationSpec("upa_k", k=6)
    scores = experiments._pds_scores(
        _ProbModel2(), parts, [AggregationSpec("ema", beta=0.5)], [upa], 4, run
    )
    assert scores["best_upa"] == upa
    assert scores["steps"].tolist() == [3, 4, 5, 6]
    # raw checkpoints alternate between wrong and right
    assert scores["baseline"].tolist() == [0.0, 1.0, 0.0, 1.0]
    # the running mean never crosses 0.5, so the aggregate never flips
    assert scores["upa"].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert scores["upa"].std(ddof=1) == 0.0
    assert scores["baseline"].std(ddof=1) > 0.5


def test_pds_scores_rejects_a_window_past_the_run():
    run = _oscillating_run([0.2, 0.8, 0.2])
    with pytest.raises(ValueError, match="window of 4 exceeds the 3 checkpoints"):
        experiments._pds_scores(
            _ProbModel2(), _pds_parts([1], [1]), [AggregationSpec("ema", beta=0.5)],
            [AggregationSpec("upa_k", k=3)], 4, run,
        )


def test_pds_scores_match_an_independent_reference(monkeypatch):
    # this run ties beta = 0.6 with 0.9 on validation and has one best k
    run = _oscillating_run(np.random.default_rng(11).uniform(size=12))
    params = run.params
    parts = _pds_parts([0, 1, 1], [1, 0, 1, 1, 0])
    beta_specs = [AggregationSpec("ema", beta=b) for b in (0.3, 0.6, 0.9)]
    k_specs = [AggregationSpec("upa_k", k=k) for k in (2, 4, 8)]
    model, window = _ProbModel2(), 5
    calls, rolled = [], []
    real_accuracy, real_rolling = experiments.accuracy, aggregate.rolling

    def counted(*args):
        calls.append(args)
        return real_accuracy(*args)

    def counted_rolling(spec, *args):
        rolled.append(spec)
        return real_rolling(spec, *args)

    monkeypatch.setattr(experiments, "accuracy", counted)
    monkeypatch.setattr(aggregate, "rolling", counted_rolling)
    scores = experiments._pds_scores(model, parts, beta_specs, k_specs, window, run)
    # the raw window is one call; every other test call scores a winner
    test_calls = [c for c in calls if c[2] is parts["test"]]
    assert len(test_calls) == 3
    assert sum(np.array_equal(c[1], params[-window:]) for c in test_calls) == 1
    # each distinct window is rolled once, the winners' included: beta 0.6
    # and 0.9 never bind over 12 checkpoints, so they share one
    assert rolled == beta_specs[:2] + k_specs

    def window_acc(spec, part):
        return real_accuracy(model, real_rolling(spec, params, run.steps, window), part)

    assert np.array_equal(scores["baseline"], real_accuracy(model, params[-window:], parts["test"]))
    for name, specs in (("ema", beta_specs), ("upa", k_specs)):
        means = [np.mean(window_acc(spec, parts["validation"])) for spec in specs]
        best = scores["best_" + name]
        assert np.mean(window_acc(best, parts["validation"])) == max(means)
        assert np.array_equal(scores[name], window_acc(best, parts["test"]))
    assert scores["best_ema"] == beta_specs[1] and scores["best_upa"] == k_specs[1]


def test_pds_scores_score_each_distinct_validation_window_once(monkeypatch):
    # over 12 checkpoints the warm-up coefficient (1+t)/(10+t) stays below
    # 0.6, so the caps 0.6, 0.9 and 0.99 never bind and give one window
    run = _oscillating_run(np.random.default_rng(11).uniform(size=12))
    parts = _pds_parts([0, 1, 1], [1, 0, 1, 1, 0])
    beta_specs = [AggregationSpec("ema", beta=b) for b in (0.3, 0.6, 0.9, 0.99)]
    k_specs = [AggregationSpec("upa_k", k=k) for k in (2, 4, 8)]
    windows = [aggregate.rolling(spec, run.params, run.steps, 5) for spec in beta_specs]
    assert all(np.array_equal(w, windows[1]) for w in windows[2:])
    assert not np.array_equal(windows[0], windows[1])
    scored, real_accuracy = [], experiments.accuracy

    def counted(model, rows, part):
        if part is parts["validation"]:
            scored.append(rows)
        return real_accuracy(model, rows, part)

    monkeypatch.setattr(experiments, "accuracy", counted)
    scores = experiments._pds_scores(_ProbModel2(), parts, beta_specs, k_specs, 5, run)
    assert len(scored) == 2 + len(k_specs)
    assert scores["best_ema"] in beta_specs[:2]


def _counting_scan(monkeypatch, parts):
    """Record every aggregate.rolling spec and every validation window that
    _pds_scores scores: (rolled specs, scored windows)."""
    rolled, scored = [], []
    real_rolling, real_accuracy = aggregate.rolling, experiments.accuracy

    def counted_rolling(spec, *args):
        rolled.append(spec)
        return real_rolling(spec, *args)

    def counted(model, rows, part):
        if part is parts["validation"]:
            scored.append(rows)
        return real_accuracy(model, rows, part)

    monkeypatch.setattr(aggregate, "rolling", counted_rolling)
    monkeypatch.setattr(experiments, "accuracy", counted)
    return rolled, scored


@pytest.mark.parametrize(
    "family, winner, rolls",
    [
        # 0.99, 0.9 and 0.6 never bind over 12 checkpoints: one window, rolled
        # for 0.99 and kept as the best, which 0.6 wins on the tie
        ([("ema", 0.99), ("ema", 0.9), ("ema", 0.6)], 2, [0]),
        # pda(0.95) takes the best from ema(0.99), then ema(0.9), of 0.99's
        # key, takes it back: 0.99's window is gone, so 0.9 rolls its own
        ([("ema", 0.99), ("pda", 0.95), ("ema", 0.9)], 2, [0, 1, 2]),
    ],
    ids=["descending-betas", "key-seen-off-the-best"],
)
def test_pds_scores_give_a_tie_winner_of_a_seen_key_its_own_test_series(
    monkeypatch, family, winner, rolls
):
    """Balanced validation labels score every window of _ProbModel2 at 0.5,
    so every spec ties and _best_index takes the smallest coefficient, a
    later spec whose window key an earlier one already had."""
    run = _oscillating_run(np.random.default_rng(11).uniform(size=12))
    parts = _pds_parts([0, 1], [1, 0, 1, 1, 0])
    specs = [
        AggregationSpec("ema", beta=v) if kind == "ema" else AggregationSpec("pda", gamma=v)
        for kind, v in family
    ]
    k_specs = [AggregationSpec("upa_k", k=2)]
    model, window = _ProbModel2(), 5

    def test_series(spec):
        rows = aggregate.rolling(spec, run.params, run.steps, window)
        return experiments.accuracy(model, rows, parts["test"])

    series = [test_series(spec) for spec in specs]
    # a winner's test series is not that of another key's window
    assert all(
        not np.array_equal(series[winner], other)
        for spec, other in zip(specs, series)
        if aggregate.window_key(spec, 12) != aggregate.window_key(specs[winner], 12)
    )
    rolled, scored = _counting_scan(monkeypatch, parts)
    scores = experiments._pds_scores(model, parts, specs, k_specs, window, run)
    assert scores["best_ema"] == specs[winner]
    assert np.array_equal(scores["ema"], series[winner])
    assert rolled == [specs[i] for i in rolls] + k_specs
    assert len(scored) == len({aggregate.window_key(spec, 12) for spec in specs}) + 1


def test_pds_eval_rolls_and_scores_eleven_windows_per_seed_at_the_stock_grid(
    tmp_path, monkeypatch
):
    """At the stock 800 steps the warm-up coefficient stays below 800 / 809,
    so the caps 0.99, 0.999 and 0.9999 give one window: 4 EMA windows and 7
    UPA ones per seed, each rolled and scored on validation once."""
    raw = load_config(os.path.join(CONFIG_DIR, "pds_eval.cfg"))
    raw["num_seeds"] = "2"
    real_split = experiments.split_dataset
    parts = {}

    def recording_split(*args, **kwargs):
        parts.update(real_split(*args, **kwargs))
        return parts

    monkeypatch.setattr(experiments, "split_dataset", recording_split)
    rolled, scored = _counting_scan(monkeypatch, parts)
    run_experiment(ConfigView(raw), str(tmp_path / "out"), workers=1)
    assert len(rolled) == len(scored) == 2 * 11
    assert len({spec for spec in rolled if spec.kind == "ema"}) == 4


# ---------------------------------------------------------------------------
# task orchestration


def test_normalize_task_spellings():
    for raw in ("risk_compare", "riskCompare", "risk-compare", " RISK_COMPARE "):
        assert normalize_task(raw) == "risk_compare"
    assert normalize_task("dpld-bias") == "dpld_bias"
    assert normalize_task("no_such_task") is None


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRAIN_CFG = """
task = train
train.mode = practical
train.steps = 20
train.batch_size = 16
train.eta = 0.2
train.noise_multiplier = 1.0
data.n = 150
data.p = 4
"""


def test_run_experiment_train_task(tmp_path):
    out = str(tmp_path / "out")
    view = ConfigView(parse_config_text(TRAIN_CFG))
    table = run_experiment(view, out, master_seed=0, workers=1)
    assert lookup(table, "num_checkpoints").mean == 20.0
    assert os.path.exists(os.path.join(out, "table.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    with open(os.path.join(out, "status.json")) as fh:
        assert json.load(fh) == {"status": "complete"}


def test_run_experiment_rejects_unknown_keys(tmp_path):
    view = ConfigView(parse_config_text(TRAIN_CFG + "train.typo = 1\n"))
    with pytest.raises(ConfigError) as exc:
        run_experiment(view, str(tmp_path / "out"), workers=1)
    assert "train.typo" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        run_experiment(ConfigView({"task": "nosuch"}), str(tmp_path / "out"), workers=1)
    assert exc.value.key == "task"
    # config errors fire before any compute, so no status.json appears
    assert not os.path.exists(os.path.join(str(tmp_path / "out"), "status.json"))


def test_run_experiment_flags_partial_output_on_divergence(tmp_path, monkeypatch):
    def exploding_task(cfg, out_dir, master_seed):
        raise NumericDivergenceError("training loss became non-finite", step=7)

    monkeypatch.setitem(experiments._TASK_FUNCS, "train", exploding_task)
    out = str(tmp_path / "out")
    view = ConfigView({"task": "train"})
    with pytest.raises(NumericDivergenceError):
        run_experiment(view, out, workers=1)
    with open(os.path.join(out, "status.json")) as fh:
        payload = json.load(fh)
    assert payload["status"] == "partial"
    assert "step 7" in payload["error"] or "non-finite" in payload["error"]


RISK_CFG = """
task = risk_compare
train.rho = 0.05
num_seeds = 3
data.n = 200
data.p = 4
save_runs = true
"""


UQ_CFG = """
task = uq_compare
uq.epsilons = 2.0, 4.0
uq.k_values = 3
uq.pool_runs = 3
uq.num_test_inputs = 5
num_seeds = 3
data.n = 200
data.p = 4
"""


PDS_CFG = """
task = pds_eval
train.steps = 40
train.batch_size = 32
agg.beta_grid = 0.9, 0.99
agg.k_grid = 3, 5
num_seeds = 2
save_runs = true
data.n = 400
data.p = 4
data.classes = 4
"""


AGG_SAVED_CFG = """
task = aggregate_eval
agg.list = ema:0.9, upa_k:3, best_k:3:0.9
train.steps = 20
train.batch_size = 16
num_seeds = 3
save_runs = true
data.n = 300
data.p = 4
"""


DPLD_CFG = """
task = dpld_bias
dpld.trials = 100
dpld.points = 20:20, 0.1:10, 10:0.1
"""


def test_worker_count_does_not_change_results(tmp_path):
    """The same experiment with 1 and 2 workers writes identical artifacts.

    risk_compare, aggregate_eval and pds_eval train each worker's seeds as
    one batch and save every run in seed order, and uq_compare trains each
    pool as one batch, so this also pins batch composition; dpld_bias sends
    its statistic by name, and pds_eval its pickled diurnal schedule.
    """
    for name, text, files, num_runs in (
        ("risk", RISK_CFG, ["table.csv"], 3),
        ("uq", UQ_CFG, ["table.csv", "uq_report.json"], 0),
        ("dpld", DPLD_CFG, ["dpld_report.csv", "table.csv"], 0),
        ("pds", PDS_CFG, ["table.csv", "aggregates.json", "plot_data.csv"], 2),
        ("agg", AGG_SAVED_CFG, ["table.csv", "aggregates.json"], 3),
    ):
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"{name}_w{workers}"
            view = ConfigView(parse_config_text(text))
            run_experiment(view, str(out), master_seed=0, workers=workers)
            run_files = sorted(
                str(path.relative_to(out))
                for pattern in ("runs/*/manifest.json", "runs/*/checkpoints.bin",
                                "runs/*/metrics.csv")
                for path in out.glob(pattern)
            )
            assert len(run_files) == 3 * num_runs
            for i in range(num_runs):
                run = trainer.load_run(out / "runs" / f"seed_{i:03d}")
                assert run.seed == derive_run_seed(0, i)
            outs.append([(f, (out / f).read_bytes()) for f in files + run_files])
        assert outs[0] == outs[1]


def test_uq_compare_writes_uq_report_format(tmp_path):
    """The harness writes uq_report.json: sorted keys, indent 2, a final
    newline, and the first seed's widths at the first (epsilon, k) cell."""
    run_experiment(ConfigView(parse_config_text(UQ_CFG)), str(tmp_path), workers=1)
    text = (tmp_path / "uq_report.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert list(payload) == [
        "averageWidth", "k", "level", "method", "perInputWidths", "statisticMode"
    ]
    assert payload["method"] == "last_k_checkpoints"
    assert payload["k"] == 3
    assert payload["level"] == 0.95
    assert payload["statisticMode"] == "modal_class_probability"
    widths = payload["perInputWidths"]
    assert len(widths) == 5 and all(w >= 0.0 for w in widths)
    assert payload["averageWidth"] == float(np.mean(widths))


def test_uq_compare_never_computes_a_training_loss(tmp_path, monkeypatch):
    def no_loss(*args, **kwargs):
        raise AssertionError("a training loss was computed")

    monkeypatch.setattr(LogisticLoss, "loss_full", no_loss)
    table = run_experiment(ConfigView(parse_config_text(UQ_CFG)), str(tmp_path), workers=1)
    # three rows for each of the two (epsilon, k) cells
    assert len(table.rows) == 6
    assert (tmp_path / "uq_report.json").exists()


@pytest.mark.parametrize("save_runs", [False, True])
def test_risk_compare_records_the_loss_only_for_saved_runs(tmp_path, monkeypatch, save_runs):
    real = experiments.trainer.dp_sgd_theoretical_runs
    seen = []

    def recording(*args, record_loss=True, **kwargs):
        seen.append(record_loss)
        return real(*args, record_loss=record_loss, **kwargs)

    monkeypatch.setattr(experiments.trainer, "dp_sgd_theoretical_runs", recording)
    text = RISK_CFG.replace("save_runs = true", f"save_runs = {str(save_runs).lower()}")
    run_experiment(ConfigView(parse_config_text(text)), str(tmp_path), workers=1)
    assert seen == [save_runs]
    if save_runs:
        with open(tmp_path / "runs" / "seed_000" / "metrics.csv") as fh:
            losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
        assert losses and all(math.isfinite(v) for v in losses)


@pytest.mark.parametrize("save_runs", [False, True])
@pytest.mark.parametrize("text", [AGG_SAVED_CFG, PDS_CFG], ids=["aggregate_eval", "pds_eval"])
def test_practical_tasks_record_the_loss_only_for_saved_runs(
    tmp_path, monkeypatch, text, save_runs
):
    real = experiments.trainer.dp_sgd_practical_runs
    seen = []

    def recording(*args, record_loss=True, **kwargs):
        seen.append(record_loss)
        return real(*args, record_loss=record_loss, **kwargs)

    monkeypatch.setattr(experiments.trainer, "dp_sgd_practical_runs", recording)
    text = text.replace("save_runs = true", f"save_runs = {str(save_runs).lower()}")
    run_experiment(ConfigView(parse_config_text(text)), str(tmp_path), workers=1)
    assert seen == [save_runs]
    if save_runs:
        with open(tmp_path / "runs" / "seed_000" / "metrics.csv") as fh:
            losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
        assert losses and all(math.isfinite(v) for v in losses)


def test_cli_pds_eval_runs_with_a_period_past_int64(tmp_path):
    # the diurnal phase is taken in Python ints, so any accepted period works
    lines = (
        "task = pds_eval\ntrain.steps = 20\nnum_seeds = 2\ndata.n = 600\n"
        "pds.period = 99999999999999999999\n"
    )
    out = tmp_path / "out"
    assert cli.main(["aggregate", "--config", _write_cfg(tmp_path, lines), "--out", str(out)]) == 0
    assert (out / "table.csv").exists()


@pytest.mark.parametrize("odd_rows", [1, 399], ids=["no-odd-row", "no-even-row"])
def test_cli_pds_eval_names_the_data_when_a_label_parity_misses_the_train_split(
    tmp_path, capsys, odd_rows
):
    n = 400
    # split_dataset's test rows at split seed 5, read off the row tags
    tagged = DatasetHandle(np.arange(n, dtype=np.float64)[:, None], np.zeros(n), 2)
    test_row = int(split_dataset(tagged, seed=5)["test"].features[0, 0])
    # one row of one parity, and it is the test row
    labels = np.full(n, 1 if odd_rows == n - 1 else 0)
    labels[test_row] = 1 - labels[0]
    features = synth_classification(n, 2, separation=2.0, seed=3).features
    data_path = tmp_path / "data.csv"
    data_path.write_text("f0,f1,label\n" + "".join(
        f"{float(a)!r},{float(b)!r},{y}\n" for (a, b), y in zip(features, labels)
    ))
    cfg = _write_cfg(tmp_path, (
        f"task = pds_eval\ntrain.steps = 20\nnum_seeds = 2\ndata.split_seed = 5\n"
        f"data.csv = {data_path}\n"
    ))
    out = str(tmp_path / "out")
    assert cli.main(["aggregate", "--config", cfg, "--out", out]) == 2
    parity = "odd" if odd_rows == 1 else "even"
    assert f"the training split of {data_path} has no {parity}-label row" in capsys.readouterr().err


def test_theoretical_radius_under_the_bound_trains_to_the_boundary(tmp_path):
    lines = "train.mode = theoretical\ntrain.radius = 1e140\ntrain.steps = 20\ndata.n = 50\n"
    out = tmp_path / "out"
    assert cli.main(["train", "--config", _write_cfg(tmp_path, lines), "--out", str(out)]) == 0
    params = trainer.load_run(str(out)).params
    # the noisy steps reach the ball's edge instead of being zeroed by the projection
    assert np.linalg.norm(params[-1]) == pytest.approx(1e140)


def test_dpld_bias_writes_dpld_report_format(tmp_path):
    """The harness writes dpld_report.csv: one header line, one "\\n"-ended
    row per point in config order, and every float as its repr."""
    table = run_experiment(ConfigView(parse_config_text(DPLD_CFG)), str(tmp_path), workers=1)
    text = (tmp_path / "dpld_report.csv").read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "t1,gap,k,trials,mean_S,oracle_V,abs_bias,burn_in_bound"
    assert lines[-1] == "" and "\r" not in text
    rows = [line.split(",") for line in lines[1:-1]]
    assert [row[:4] for row in rows] == [
        ["20.0", "20.0", "5", "100"], ["0.1", "10.0", "5", "100"], ["10.0", "0.1", "5", "100"]
    ]
    for row, table_row in zip(rows, table.rows):
        assert all(repr(float(cell)) == cell for cell in row[4:])
        assert float(row[6]) == table_row.mean


def test_run_parallel_never_starts_more_processes_than_items(monkeypatch):
    """A forked pool starts all of its processes at once, so a workers value
    above the item count must not reach it."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert experiments._run_parallel(abs, [-1, -2, 3], 10**20) == [1, 2, 3]
    assert experiments._run_parallel(abs, [-1, -2, 3], 2) == [1, 2, 3]
    assert experiments._run_parallel(abs, [-4], 10**20) == [4]
    assert sizes == [3, 2]


def test_loading_the_package_and_a_config_imports_no_process_pool():
    """_run_parallel imports the pool only when it makes one, so a fresh
    interpreter that loads numpy, the package and a config (the start of
    every run) has not imported the process pool or multiprocessing."""
    probe = (
        "import sys, numpy, dpckpt\n"
        "from dpckpt.harness import ConfigView, load_config\n"
        "ConfigView(load_config(sys.argv[1]))\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in pool if m in sys.modules))\n"
    )
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "aggregate_eval.cfg")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dpckpt.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe, config], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_dpld_bias_rows_are_standalone_experiments_with_exact_oracle(tmp_path):
    """Each row is the standalone experiment at its point's seed, its
    oracle_V is the statistic's exact stationary variance, and table.csv's
    std is the row's se_mean_s."""
    master_seed = 3
    table = run_experiment(
        ConfigView(parse_config_text(DPLD_CFG)), str(tmp_path), master_seed=master_seed, workers=1
    )
    with open(tmp_path / "dpld_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3

    dpld = experiments.dpld
    config = dpld.LDConfig(model=QuadraticLoss(np.zeros(4)), theta_start=np.full(4, 5.0))
    exact = dpld.make_clamped_coordinate(np.zeros(4)).variance(1.0)
    for i, (row, (t1, gap)) in enumerate(zip(rows, [(20.0, 20.0), (0.1, 10.0), (10.0, 0.1)])):
        assert float(row["oracle_V"]) == exact
        times = dpld.CheckpointTimes(t1=t1, gap=gap, k=5)
        alone = dpld.variance_bias_experiment(
            config, times, "clamped_coord", 100, derive_run_seed(master_seed, i)
        )
        assert float(row["mean_S"]) == alone.mean_s
        assert float(row["abs_bias"]) == alone.abs_bias
        assert lookup(table, f"abs_bias(t1={t1},gap={gap})").std == alone.se_mean_s


def test_uq_compare_pool_validation(tmp_path):
    cfg = """
    task = uq_compare
    uq.k_values = 3, 5
    uq.pool_runs = 4
    """
    view = ConfigView(parse_config_text(cfg))
    with pytest.raises(ConfigError) as exc:
        run_experiment(view, str(tmp_path / "out"), workers=1)
    assert exc.value.key == "uq.pool_runs"


# ---------------------------------------------------------------------------
# CLI


def test_cli_train_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    out = str(tmp_path / "out")
    code = cli.main(["train", "--config", cfg, "--out", out])
    assert code == 0
    assert "table.csv" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "table.csv"))


def test_cli_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRAIN_CFG + "bogus = 1\n")
    code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_subcommand_task_mismatch_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, RISK_CFG)
    code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "report" in err  # the message names the right subcommand


def test_cli_missing_config_exits_4(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_divergence_exits_3(tmp_path, capsys, monkeypatch):
    def exploding(view, out_dir, master_seed=0, workers=None, task=None):
        raise NumericDivergenceError("training loss became non-finite", step=3)

    monkeypatch.setattr(cli, "run_experiment", exploding)
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numeric divergence" in capsys.readouterr().err


def test_cli_scoring_overflow_exits_3_with_a_partial_status(tmp_path, capsys):
    """Non-finite logits while a task scores its runs are a numeric divergence,
    as a diverged iterate is: exit 3 and a partial status.json."""
    n = 400
    # split_dataset's test rows at the default split seed, read off the row tags
    tagged = DatasetHandle(np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2, 2)
    test_row = int(split_dataset(tagged, seed=1)["test"].features[0, 0])
    features = synth_classification(n, 2, separation=2.0, seed=3).features
    features[test_row] = 1e300
    data_path = tmp_path / "data.csv"
    data_path.write_text("f0,f1,label\n" + "".join(
        f"{float(a)!r},{float(b)!r},{i % 2}\n" for i, (a, b) in enumerate(features)
    ))
    cfg = _write_cfg(tmp_path, (
        f"task = aggregate_eval\ntrain.eta = 1e12\ntrain.steps = 20\nnum_seeds = 2\n"
        f"data.csv = {data_path}\n"
    ))
    out = str(tmp_path / "out")
    # numpy reports the overflow of the logits product before the check does
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cli.main(["aggregate", "--config", cfg, "--out", out]) == 3
    assert "non-finite logits in prediction" in capsys.readouterr().err
    with open(os.path.join(out, "status.json")) as fh:
        assert json.load(fh) == {"status": "partial", "error": "non-finite logits in prediction"}


def test_cli_workers_flag_below_one_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", cfg, "--out", out, "--workers", "0"]) == 2
    assert "config key 'workers': workers must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_out_dir_from_config(tmp_path):
    out = str(tmp_path / "from_config")
    cfg = _write_cfg(tmp_path, TRAIN_CFG + f"out_dir = {out}\n")
    assert cli.main(["train", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "table.csv"))


# 100 steps checkpointed every 10 leave 10 checkpoints, fewer than k=20
TEN_CHECKPOINTS = "train.steps = 100\ntrain.checkpoint_every = 10\n"


@pytest.mark.parametrize(
    "command, lines, key",
    [
        ("sweep", "task = k_sweep\nsweep.ks = 3, 20\n" + TEN_CHECKPOINTS, "sweep.ks"),
        ("aggregate", "task = aggregate_eval\nagg.list = upa_k:20\n" + TEN_CHECKPOINTS, "agg.list"),
        ("report", "task = risk_compare\nagg.list = upa_k:20\n" + TEN_CHECKPOINTS, "agg.list"),
        # epsilon 0.01 gives a one-step theoretical run
        (
            "uq",
            "task = uq_compare\nuq.epsilons = 0.01\nuq.k_values = 20\nuq.pool_runs = 20\n",
            "uq.k_values",
        ),
    ],
    ids=["k_sweep", "aggregate_eval", "risk_compare", "uq_compare"],
)
def test_cli_k_beyond_checkpoint_count_exits_2(tmp_path, capsys, command, lines, key):
    cfg = _write_cfg(tmp_path, lines)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert key in err and "k=20" in err
    assert not os.path.exists(os.path.join(out, "status.json"))


@pytest.mark.parametrize("entry", ["opa:3", "omv:3", "best_k:3:0.9"])
def test_cli_risk_compare_rejects_output_space_kinds(tmp_path, capsys, monkeypatch, entry):
    def no_training(*args, **kwargs):
        raise AssertionError("risk_compare trained before rejecting its aggregation list")

    monkeypatch.setattr(experiments.trainer, "dp_sgd_theoretical_runs", no_training)
    cfg = _write_cfg(
        tmp_path, f"task = risk_compare\nagg.list = {entry}\ntrain.steps = 50\nnum_seeds = 2\n"
    )
    out = str(tmp_path / "out")
    assert cli.main(["report", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "agg.list" in err and entry.split(":")[0] in err
    assert not os.path.exists(os.path.join(out, "status.json"))


def test_cli_missing_out_dir_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    code = cli.main(["train", "--config", cfg])
    assert code == 2
    assert "out" in capsys.readouterr().err


def test_cli_seed_flag_changes_derived_runs(tmp_path):
    cfg = _write_cfg(tmp_path, RISK_CFG)
    tables = []
    for seed, name in ((0, "s0"), (1, "s1")):
        out = str(tmp_path / name)
        assert cli.main(["report", "--config", cfg, "--out", out, "--seed", str(seed)]) == 0
        with open(os.path.join(out, "table.csv")) as fh:
            tables.append(fh.read())
    assert tables[0] != tables[1]


def _no_training(*args, **kwargs):
    raise AssertionError("a trainer or simulation ran before the config was rejected")


def _forbid_compute(monkeypatch):
    """Make every compute entry point of the tasks raise _no_training's error."""
    for name in ("dp_sgd_practical_runs", "dp_sgd_theoretical_runs", "min_loss_in_ball"):
        monkeypatch.setattr(experiments.trainer, name, _no_training)
    monkeypatch.setattr(experiments.dpld, "variance_bias_experiment", _no_training)


# (subcommand, config head) of each task, for the one-bad-key cases below
_TASK_HEADS = {
    "train-practical": ("train", ""),
    "train-theoretical": ("train", "train.mode = theoretical\n"),
    "aggregate_eval": ("aggregate", "task = aggregate_eval\n"),
    "pds_eval": ("aggregate", "task = pds_eval\n"),
    "ema_sweep": ("sweep", "task = ema_sweep\n"),
    "k_sweep": ("sweep", "task = k_sweep\n"),
    "risk_compare": ("report", "task = risk_compare\n"),
    "uq_compare": ("uq", "task = uq_compare\n"),
}
_PRACTICAL_TASKS = ["train-practical", "aggregate_eval", "pds_eval", "ema_sweep", "k_sweep"]
# (tasks, the one bad line, what the error must name): values that a library
# object rejects where the harness builds it, or that only a trainer checks
_BAD_KEY_CASES = [
    (list(_TASK_HEADS), "train.delta = 0", "train.delta"),
    (["train-practical", "train-theoretical", "pds_eval", "k_sweep"], "train.delta = 2",
     "train.delta"),
    (_PRACTICAL_TASKS, "train.noise_multiplier = -1", "train.noise_multiplier"),
    (list(_TASK_HEADS), "train.l2_reg = -1", "l2_reg must be nonnegative"),
    (["train-practical", "risk_compare"], "train.l2_reg = nan", "l2_reg must be nonnegative"),
    (["risk_compare", "train-theoretical", "uq_compare"], "train.radius = -1",
     "radius must be positive"),
    (_PRACTICAL_TASKS, "train.clip_norm = nan", "clip_norm must be positive"),
    (["aggregate_eval"], "agg.list = pda:nan", "gamma must be nonnegative"),
    (["ema_sweep"], "sweep.betas = 0", "sweep.betas"),
    (["k_sweep"], "sweep.ks = 0", "sweep.ks"),
    (["pds_eval"], "agg.beta_grid = 1.5", "agg.beta_grid"),
    (["pds_eval"], "agg.k_grid = 0, 3", "agg.k_grid"),
    (["pds_eval"], "pds.period = 1", "pds.period"),
    (["train-practical", "aggregate_eval", "risk_compare"], "data.n = 0", "data.n"),
    (["train-theoretical", "pds_eval", "uq_compare"], "data.p = 0", "data.p"),
    (["train-practical", "k_sweep", "uq_compare"], "data.classes = 1", "data.classes"),
    (["aggregate_eval"], "data.val_fraction = nan", "partition fractions"),
    (["aggregate_eval"], "data.heldout_fraction = nan", "partition fractions"),
    (["aggregate_eval"], "data.test_fraction = nan", "partition fractions"),
    (_PRACTICAL_TASKS, "train.eta = inf", "eta value must be positive and finite"),
    (_PRACTICAL_TASKS, "train.clip_norm = inf", "clip_norm must be positive and finite"),
    (list(_TASK_HEADS), "train.l2_reg = inf", "l2_reg must be nonnegative and finite"),
    (_PRACTICAL_TASKS, "train.noise_multiplier = inf",
     "noise_multiplier must be positive and finite"),
    (["aggregate_eval", "pds_eval", "ema_sweep", "k_sweep"], "data.split_seed = -1",
     "data.split_seed"),
    # risk_compare scales its rows to unit norm before building the model, so
    # there the row norm that overflows is the error
    ([t for t in _TASK_HEADS if t != "risk_compare"], "data.separation = 1e300",
     "feature norm bound"),
    (["risk_compare"], "data.separation = 1e300", "cannot be scaled to unit norm"),
    # radius * max(1, lipschitz) must stay below 1e150: at l2_reg = 0 the
    # radius alone breaks it, and with l2_reg > 0 so does its l2_reg * radius term
    (["train-theoretical"], "train.radius = 1e200", "is not below 1e150"),
    (["risk_compare", "uq_compare"], "train.radius = 1e100", "is not below 1e150"),
    # in (0, 1), but the t quantile's 1 - (1 - level)/2 rounds to 1.0
    (["uq_compare"], "uq.level = 0.9999999999999999", "uq.level"),
    # three rows leave no training row once each held-out part takes one
    (["aggregate_eval", "pds_eval", "ema_sweep", "k_sweep"], "data.n = 3", "dataset too small"),
]
_BAD_KEY_PARAMS = [
    (_TASK_HEADS[task][0], _TASK_HEADS[task][1] + line + "\n", needle)
    for tasks, line, needle in _BAD_KEY_CASES
    for task in tasks
]
_BAD_KEY_IDS = [
    f"{task}-{line.replace(' = ', '=').replace(', ', ',')}"
    for tasks, line, _ in _BAD_KEY_CASES
    for task in tasks
]


@pytest.mark.parametrize(
    "command, lines, needle",
    [
        ("report", "task = risk_compare\ntrain.steps = 5\ntrain.checkpoint_every = 10\n",
         "checkpoint_every"),
        ("aggregate", "task = aggregate_eval\ntrain.batch_size = 5000\n", "train.batch_size"),
        ("sweep", "task = k_sweep\ntrain.eta = 0\n", "eta value must be positive"),
        ("aggregate", "task = pds_eval\ntrain.clip_norm = -1\n", "clip_norm"),
        ("aggregate", "task = pds_eval\nagg.beta_grid =\n", "agg.beta_grid"),
        ("aggregate", "task = pds_eval\ntrain.steps = 40\nagg.k_grid = 50, 100\n",
         "agg.k_grid"),
        ("aggregate", "task = pds_eval\ntrain.steps = 1\n", "window of 2"),
        ("train", TRAIN_CFG.replace("batch_size = 16", "batch_size = 151"), "exceeds the 150"),
        ("train", TRAIN_CFG + "train.checkpoint_every = 21\n", "checkpoint_every"),
        ("train", TRAIN_CFG + "num_seeds = 2\n", "num_seeds"),
        # the practical trainer never projects, so its train task has no radius
        ("train", TRAIN_CFG + "train.radius = 2.0\n",
         "config key 'train.radius': unknown key for this task"),
        ("train", "train.mode = theoretical\ntrain.steps = 5\ntrain.checkpoint_every = 10\n",
         "checkpoint_every"),
        ("train", "train.mode = theoretical\ntrain.steps = 5\nseeds = 1, 2, 3\n", "seeds"),
        ("uq", "task = uq_compare\nuq.k_values = 1\n", "k must be at least 2"),
        ("uq", "task = uq_compare\nuq.k_values =\n", "uq.k_values"),
        ("uq", "task = uq_compare\nuq.epsilons =\n", "uq.epsilons"),
        ("uq", "task = uq_compare\nuq.epsilons = 0\n", "epsilon must be positive"),
        ("train", "train.mode = theoretical\ntrain.rho = 0\n", "rho > 0"),
        ("train", "train.mode = theoretical\ntrain.rho = nan\n", "rho > 0"),
        ("uq", "task = uq_compare\nuq.epsilons = nan\n", "epsilon must be positive"),
        ("report", "task = risk_compare\ntrain.rho = 0\n", "rho > 0"),
        ("train", "train.mode = theoretical\ntrain.rho = inf\n", "explicit step count"),
        ("report", "task = risk_compare\ntrain.rho = inf\n", "explicit step count"),
        ("uq", "task = uq_compare\nuq.epsilons = 2, inf\n", "'uq.epsilons'"),
        ("train", "train.mode = theoretical\ntrain.steps = 0\n", "num_steps"),
        ("dpld-bias", "task = dpld_bias\ndpld.points = 20:20, 0:1\n", "t1 must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.points = 1:-1\n", "gap must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.k = 1\n", "'dpld.k': must be at least 2"),
        ("dpld-bias", "task = dpld_bias\ndpld.sigma = 0\n", "sigma must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.eta = 0\n", "'dpld.eta': unknown key"),
        ("dpld-bias", "task = dpld_bias\ndpld.dim = 0\n", "dpld.dim"),
        ("dpld-bias", "task = dpld_bias\ndpld.c_constant = 4\n",
         "'dpld.c_constant': unknown key"),
        ("dpld-bias", "task = dpld_bias\ndpld.delta_target = 0.01\n",
         "'dpld.delta_target': unknown key"),
        ("dpld-bias", "task = dpld_bias\ndpld.oracle_samples = 1000000\n",
         "'dpld.oracle_samples': unknown key"),
        ("dpld-bias", "task = dpld_bias\ndpld.trials = 2147483648\n", "dpld.trials"),
        ("dpld-bias", "task = dpld_bias\ndpld.sigma = nan\n", "sigma must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.eta = nan\n", "'dpld.eta': unknown key"),
        ("dpld-bias", "task = dpld_bias\ndpld.sigma = inf\n", "sigma must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.start_distance = nan\n",
         "theta_start must be finite"),
        ("dpld-bias", "task = dpld_bias\ndpld.points = nan:1\n", "t1 must be positive"),
        ("dpld-bias", "task = dpld_bias\ndpld.k = 4294967296\n",
         "'dpld.k': must be at least 2 and below 2**31"),
        ("uq", "task = uq_compare\nuq.num_test_inputs = 0\n", "uq.num_test_inputs"),
        ("dpld-bias", "task = dpld_bias\ndpld.start_distance = -1\n", "dpld.start_distance"),
        ("report", "task = risk_compare\nseeds = 1, 2\nnum_seeds = 2\n",
         "only one of 'seeds' and 'num_seeds'"),
        ("train", "train.noise_multiplier = 1e200\n", "out of float range"),
        ("train", "train.noise_multiplier = 1e-200\n", "out of float range"),
        ("train", "train.noise_multiplier = 1e-154\ntrain.steps = 4\n",
         "total rho out of float range"),
        ("train", "train.mode = theoretical\ntrain.l2_reg = 1e300\n", "overflows"),
        ("train", "train.mode = theoretical\ntrain.rho = 1e300\n", "below 2**31"),
        ("report", "task = risk_compare\ntrain.rho = 1e300\n", "below 2**31"),
        ("uq", "task = uq_compare\nuq.epsilons = 1e300\n", "below 2**31"),
        ("train", "train.steps = 99999999999999999999\n", "below 2**31"),
        ("report", "task = risk_compare\nnum_seeds = 99999999999999999999\n", "num_seeds"),
        ("uq", "task = uq_compare\nuq.pool_runs = 99999999999999999999\n", "uq.pool_runs"),
        ("uq", "task = uq_compare\nuq.num_test_inputs = 99999999999999999999\n",
         "uq.num_test_inputs"),
        ("dpld-bias", "task = dpld_bias\ndpld.dim = 99999999999999999999\n", "dpld.dim"),
        ("dpld-bias", "task = dpld_bias\ndpld.statistic = norm_excess\ndpld.dim = 10001\n",
         "config key 'dpld.dim': bad dpld setting: norm_excess takes a dimension of at most"),
        ("aggregate", "task = nosuch\n", "config key 'task': unknown task 'nosuch'"),
    ] + _BAD_KEY_PARAMS,
    ids=[
        "risk_compare-every", "aggregate_eval-batch", "k_sweep-eta", "pds_eval-clip",
        "pds_eval-no-beta", "pds_eval-no-k", "pds_eval-one-checkpoint", "train-practical-batch",
        "train-practical-every", "train-practical-num_seeds", "train-practical-radius",
        "train-theoretical-every",
        "train-theoretical-seeds", "uq_compare-k1", "uq_compare-no-k", "uq_compare-no-eps",
        "uq_compare-eps0", "train-theoretical-rho0", "train-theoretical-rho-nan",
        "uq_compare-eps-nan", "risk_compare-rho0", "train-theoretical-rho-inf",
        "risk_compare-rho-inf", "uq_compare-eps-inf",
        "train-theoretical-steps0", "dpld_bias-t1", "dpld_bias-gap", "dpld_bias-k1",
        "dpld_bias-sigma", "dpld_bias-eta", "dpld_bias-dim", "dpld_bias-c-unknown",
        "dpld_bias-delta-unknown",
        "dpld_bias-oracle", "dpld_bias-trials", "dpld_bias-sigma-nan", "dpld_bias-eta-nan",
        "dpld_bias-sigma-inf", "dpld_bias-start-nan", "dpld_bias-t1-nan",
        "dpld_bias-k-2**32", "uq_compare-no-inputs",
        "dpld_bias-start-negative", "risk_compare-seeds-and-num_seeds",
        "train-practical-noise-1e200", "train-practical-noise-1e-200",
        "train-practical-noise-1e-154-steps-4",
        "train-theoretical-l2-1e300", "train-theoretical-rho-1e300", "risk_compare-rho-1e300",
        "uq_compare-eps-1e300", "train-practical-steps-1e20", "risk_compare-num_seeds-1e20",
        "uq_compare-pool-1e20", "uq_compare-inputs-1e20", "dpld_bias-dim-1e20",
        "dpld_bias-norm_excess-dim", "unknown-task",
    ] + _BAD_KEY_IDS,
)
def test_cli_unfinishable_config_exits_2_before_training(
    tmp_path, capsys, monkeypatch, recwarn, command, lines, needle
):
    _forbid_compute(monkeypatch)
    cfg = _write_cfg(tmp_path, lines)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert needle in err
    # the config error is all the user sees: no numpy warning comes before it
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
    assert not os.path.exists(os.path.join(out, "status.json"))


def _rejects_duplicates(tmp_path, capsys, monkeypatch, command, lines, key):
    """The config exits 2 naming the key, before any training or trial;
    the error line is returned."""
    _forbid_compute(monkeypatch)
    cfg = _write_cfg(tmp_path, lines)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert not os.path.exists(os.path.join(out, "status.json"))
    return err


@pytest.mark.parametrize("points", ["1:1, 1:1", "20:20, 1.0:1, 1:1.0"])
def test_dpld_points_listed_twice_exit_2(tmp_path, capsys, monkeypatch, points):
    # two equal points would write two rows of one setting with different values
    lines = f"task = dpld_bias\ndpld.points = {points}\n"
    _rejects_duplicates(tmp_path, capsys, monkeypatch, "dpld-bias", lines, "dpld.points")


@pytest.mark.parametrize(
    "line, key",
    [("uq.epsilons = 1.0, 1.0", "uq.epsilons"), ("uq.epsilons = 8, 1, 8.0", "uq.epsilons"),
     ("uq.k_values = 3, 3", "uq.k_values")],
)
def test_uq_epsilons_and_k_values_listed_twice_exit_2(tmp_path, capsys, monkeypatch, line, key):
    lines = f"task = uq_compare\n{line}\n"
    _rejects_duplicates(tmp_path, capsys, monkeypatch, "uq", lines, key)


@pytest.mark.parametrize(
    "task, line, key",
    [("ema_sweep", "sweep.betas = 0.9, 0.90", "sweep.betas"),
     ("k_sweep", "sweep.ks = 5, 3, 5", "sweep.ks")],
)
def test_sweep_grids_listed_twice_exit_2(tmp_path, capsys, monkeypatch, task, line, key):
    lines = f"task = {task}\n{line}\n"
    _rejects_duplicates(tmp_path, capsys, monkeypatch, "sweep", lines, key)


@pytest.mark.parametrize(
    "line, key",
    [("agg.beta_grid = 0.9, 0.99, 0.9", "agg.beta_grid"), ("agg.k_grid = 3, 3", "agg.k_grid")],
)
def test_pds_grids_listed_twice_exit_2(tmp_path, capsys, monkeypatch, line, key):
    lines = f"task = pds_eval\n{line}\n"
    _rejects_duplicates(tmp_path, capsys, monkeypatch, "aggregate", lines, key)


@pytest.mark.parametrize(
    "task, entries",
    [("aggregate_eval", "ema:0.9, upa_k:5, ema:0.90"), ("aggregate_eval", "opa:5, opa:5"),
     ("risk_compare", "pda:1, pda:1.0")],
)
def test_agg_list_entries_of_one_label_exit_2(tmp_path, capsys, monkeypatch, task, entries):
    lines = f"task = {task}\nagg.list = {entries}\n"
    command = "report" if task == "risk_compare" else "aggregate"
    err = _rejects_duplicates(tmp_path, capsys, monkeypatch, command, lines, "agg.list")
    assert "is listed twice" in err


def test_cli_config_workers_is_checked_under_the_workers_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TRAIN_CFG + "workers = 0\n")
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", cfg, "--out", out, "--workers", "1"]) == 2
    assert "'workers'" in capsys.readouterr().err


# a data file whose second row (row 1) is the given line
_CSV_ROWS = "f0,f1,label\n0.5,1.0,1\n{}\n2.0,-1.0,0\n"


@pytest.mark.parametrize(
    "text, needle",
    [
        (_CSV_ROWS.format("nan,0.0,0"), "row 1 has a non-finite feature"),
        (_CSV_ROWS.format("0.5,1.0,-1"), "row 1 has label -1"),
        ("", "is empty"),
        ("f0,f2,label\n0.5,1.0,1\n", "has a malformed header"),
        (_CSV_ROWS.format("0.5,1.0"), "row 1 has 2 fields"),
        (_CSV_ROWS.format("0.5,x,0"), "row 1 is not numeric"),
        ("f0,f1,label\n", "has no data rows"),
        # one stray label would make a binary file train a 1001-class model
        (_CSV_ROWS.format("0.5,1.0,1000"), "has no row of class 2 below its largest label 1000"),
        (_CSV_ROWS.format("0.5,1.0,99999999999999999999"), "has no row of class 2"),
    ],
    ids=["nan-feature", "negative-label", "empty", "bad-header", "field-count", "non-numeric",
         "no-rows", "stray-label", "label-past-int64"],
)
def test_cli_bad_csv_row_exits_2_naming_file_and_row(tmp_path, capsys, monkeypatch, text, needle):
    monkeypatch.setattr(experiments.trainer, "dp_sgd_practical_runs", _no_training)
    data_path = tmp_path / "rows.csv"
    data_path.write_text(text)
    cfg = _write_cfg(tmp_path, f"task = train\ntrain.steps = 5\ndata.csv = {data_path}\n")
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(data_path) in err and needle in err
    assert not os.path.exists(os.path.join(out, "status.json"))


def test_cli_infinite_rho_with_explicit_steps_trains_noiselessly(tmp_path):
    lines = "train.mode = theoretical\ntrain.rho = inf\ntrain.steps = 20\ndata.n = 50\n"
    runs = []
    for seed in (5, 6):
        out = str(tmp_path / f"seed{seed}")
        cfg = _write_cfg(tmp_path, lines + f"seeds = {seed}\n")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["budget"]["rho"] == "inf" and manifest["config"]["num_steps"] == 20
        with open(os.path.join(out, "checkpoints.bin"), "rb") as fh:
            runs.append(fh.read())
    # without noise the seed reaches nothing: both runs are the same
    assert runs[0] == runs[1]


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")))
def test_stock_configs_pass_their_checks(tmp_path, monkeypatch, name):
    """Every shipped config passes validation and reaches its first compute call."""
    _forbid_compute(monkeypatch)
    path = os.path.join(CONFIG_DIR, name)
    command = cli._SUBCOMMAND[normalize_task(load_config(path)["task"])]
    out = str(tmp_path / "out")
    with pytest.raises(AssertionError, match="ran before the config was rejected"):
        cli.main([command, "--config", path, "--out", out, "--workers", "1"])


SCORED_TINY = "train.steps = 12\ntrain.batch_size = 16\nnum_seeds = 2\ndata.n = 300\ndata.p = 4\n"


@pytest.mark.parametrize(
    "lines",
    [
        "task = aggregate_eval\nagg.list = ema:0.9, upa_k:3\n",
        "task = pds_eval\nagg.k_grid = 3\n",
    ],
    ids=["aggregate_eval", "pds_eval"],
)
@pytest.mark.parametrize("save_runs", [False, True])
def test_per_step_accuracy_only_for_saved_runs(tmp_path, monkeypatch, lines, save_runs):
    real, real_split = experiments.trainer.dp_sgd_practical_runs, experiments.split_dataset
    seen, splits = [], []

    def recording(*args, eval_data=None, **kwargs):
        seen.append(eval_data)
        return real(*args, eval_data=eval_data, **kwargs)

    def recording_split(*args, **kwargs):
        splits.append(real_split(*args, **kwargs))
        return splits[-1]

    monkeypatch.setattr(experiments.trainer, "dp_sgd_practical_runs", recording)
    monkeypatch.setattr(experiments, "split_dataset", recording_split)
    out = tmp_path / "out"
    text = lines + SCORED_TINY + f"save_runs = {str(save_runs).lower()}\n"
    run_experiment(ConfigView(parse_config_text(text)), str(out), workers=1)
    assert len(seen) == 1  # one worker trains both seeds as one batch
    if not save_runs:
        assert seen == [None]
        assert not (out / "runs").exists()
        return
    # the test split, not one of the three splits of its size
    assert len(splits) == 1 and np.array_equal(seen[0].features, splits[0]["test"].features)
    for run in ("seed_000", "seed_001"):
        with open(out / "runs" / run / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(0.0 <= float(r["eval_acc"]) <= 1.0 for r in rows)


def test_saved_runs_replay_byte_for_byte(tmp_path, monkeypatch):
    text = "task = aggregate_eval\nagg.list = ema:0.9\n" + SCORED_TINY + "save_runs = true\n"
    trees = []
    for stamp in ("2001-01-01T00:00:00+0000", "2030-06-15T12:34:56+0200"):
        monkeypatch.setattr(time, "strftime", lambda *args, stamp=stamp: stamp)
        runs = tmp_path / stamp[:4] / "runs"
        run_experiment(ConfigView(parse_config_text(text)), str(runs.parent), workers=1)
        trees.append({
            str(f.relative_to(runs)): f.read_bytes() for f in sorted(runs.rglob("*")) if f.is_file()
        })
    assert len(trees[0]) == 6
    assert trees[0] == trees[1]


# the config head that selects each key table
_TABLE_HEADS = {
    name: {"task": "train", "train.mode": name.split("-")[1]} if name.startswith("train-")
    else {"task": name}
    for name in experiments.KEY_TABLES
}


def test_every_table_key_fails_before_compute_or_not_at_all(tmp_path, monkeypatch):
    """Every key of every table, set to each probe value, is either rejected
    as a config error or reaches the first trainer or Langevin call."""
    _forbid_compute(monkeypatch)
    outcomes = {"config error": 0, "reached compute": 0}
    for name, keys in experiments.KEY_TABLES.items():
        for key in keys:
            for probe in ("nan", "inf", "-1", "0", "", "99999999999999999999", "1e300"):
                view = ConfigView({**_TABLE_HEADS[name], key.name: probe})
                try:
                    run_experiment(view, str(tmp_path / "out"), workers=1)
                except ConfigError:
                    outcomes["config error"] += 1
                except AssertionError as exc:
                    assert "ran before the config was rejected" in str(exc)
                    outcomes["reached compute"] += 1
                except FileNotFoundError:
                    # data.csv names a file: a missing one is an i/o error (exit 4)
                    assert key.name == "data.csv"
                else:
                    raise AssertionError(f"{name}: {key.name} = {probe!r} ran to completion")
    assert min(outcomes.values()) > 0
