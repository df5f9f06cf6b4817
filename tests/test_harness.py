"""Config parsing, experiment plumbing, task orchestration, and the CLI."""

import csv
import json
import math
import os

import numpy as np
import pytest

from dpckpt.aggregate import AggregationSpec
from dpckpt.errors import ConfigError, NumericDivergenceError
from dpckpt.harness import cli, experiments
from dpckpt.harness.config import ConfigView, load_config, parse_config_text
from dpckpt.harness.experiments import (
    ResultRow,
    ResultTable,
    aggregation_accuracy,
    derive_run_seed,
    ensure_distinct_tags,
    normalize_task,
    parse_aggregation_list,
    run_experiment,
    split_dataset,
    stability_report,
    summarize,
    tune_on_validation,
)
from dpckpt.model import DatasetHandle, LossModel, synth_classification
from dpckpt import aggregate
from dpckpt.trainer import Checkpoint, EtaSchedule, RunRecord, TrainerConfig

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
    view.ensure_all_used()


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
    view = ConfigView({"known": "1", "typo_key": "2"})
    view.get_int("known")
    with pytest.raises(ConfigError) as exc:
        view.ensure_all_used()
    assert "typo_key" in str(exc.value)


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
    assert table.lookup("plain").mean == 1.0
    with pytest.raises(KeyError):
        table.lookup("absent")


# ---------------------------------------------------------------------------
# partitions


def test_split_dataset_partitions():
    data = synth_classification(200, 4, num_classes=2, seed=1, tag="all")
    parts = split_dataset(data, seed=3)
    assert set(parts) == {"train", "validation", "heldout", "test"}
    assert parts["validation"].n == 20 and parts["heldout"].n == 20 and parts["test"].n == 20
    assert parts["train"].n == 140
    for name, part in parts.items():
        assert part.tag == name
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
    with pytest.raises(ConfigError):
        ensure_distinct_tags([data.subset(np.arange(3), "a"), data.subset(np.arange(3), "a")])


# ---------------------------------------------------------------------------
# tuning


def test_tune_on_validation_prefers_smaller_k_on_ties():
    validation = synth_classification(10, 2, seed=0).subset(np.arange(10), tag="validation")
    accs = {3: 0.7, 5: 0.9, 10: 0.9}
    candidates = [AggregationSpec("upa_k", k=k) for k in (3, 5, 10)]
    best, acc = tune_on_validation(
        candidates, lambda spec, part: accs[spec.k], validation
    )
    assert best.k == 5
    assert acc == 0.9


def test_tune_on_validation_scalar_tiebreak_and_errors():
    validation = synth_classification(10, 2, seed=0).subset(np.arange(10), tag="validation")
    candidates = [AggregationSpec("ema", beta=b) for b in (0.99, 0.9, 0.95)]
    best, _ = tune_on_validation(candidates, lambda spec, part: 0.8, validation)
    assert best.beta == 0.9  # all tied, smallest coefficient wins
    train_like = validation.subset(np.arange(validation.n), tag="train")
    with pytest.raises(ConfigError):
        tune_on_validation(candidates, lambda spec, part: 0.8, train_like)
    with pytest.raises(ValueError):
        tune_on_validation([], lambda spec, part: 0.8, validation)


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
    for bad in ("median:3", "ema", "upa_k:x", "best_k:5", ""):
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
# stability report


class _ProbModel2(LossModel):
    """Parameters are a two-class probability row; for hand-built runs."""

    def param_dim(self) -> int:
        return 2

    def predict_proba(self, theta, features):
        return np.tile(np.asarray(theta, dtype=np.float64), (len(features), 1))

    def cache_key(self):
        return ("probmodel2",)


def _oscillating_run(qs):
    ckpts = [
        Checkpoint(t, np.array([1.0 - q, q])) for t, q in enumerate(qs, start=1)
    ]
    return RunRecord(
        TrainerConfig("practical", len(qs), EtaSchedule("constant", 0.1), checkpoint_every=1),
        budget=None,
        checkpoints=ckpts,
        metrics=np.zeros((len(qs), 2)),
        seed=0,
    )


def test_stability_report_smooths_oscillation():
    run = _oscillating_run([0.2, 0.8, 0.2, 0.8, 0.2, 0.8])
    eval_data = DatasetHandle(np.zeros((4, 2)), np.ones(4, dtype=int), 2, tag="test")
    model = _ProbModel2()
    report = stability_report(run, model, eval_data, AggregationSpec("upa_k", k=6), last_n=4)
    assert report.steps == [3, 4, 5, 6]
    # raw checkpoints alternate between wrong and right
    assert report.baseline_accuracy.tolist() == [0.0, 1.0, 0.0, 1.0]
    # the running mean never crosses 0.5, so the aggregate never flips
    assert report.aggregate_accuracy.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert report.aggregate_std == 0.0
    assert report.baseline_std > 0.5


def test_stability_report_window_validation():
    run = _oscillating_run([0.2, 0.8, 0.2])
    eval_data = DatasetHandle(np.zeros((2, 2)), np.ones(2, dtype=int), 2, tag="test")
    with pytest.raises(ValueError):
        stability_report(run, _ProbModel2(), eval_data, AggregationSpec("upa_k", k=3), last_n=1)
    with pytest.raises(ValueError):
        stability_report(run, _ProbModel2(), eval_data, AggregationSpec("upa_k", k=3), last_n=4)


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
    assert table.lookup("num_checkpoints").mean == 20.0
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
    # config errors fire before any compute, so no status.json appears
    assert not os.path.exists(os.path.join(str(tmp_path / "out"), "status.json"))


def test_run_experiment_flags_partial_output_on_divergence(tmp_path, monkeypatch):
    def exploding_task(view, out_dir, master_seed, workers):
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
save_runs = false
"""


def test_worker_count_does_not_change_results(tmp_path):
    """The same experiment with 1 and 2 workers writes identical tables."""
    outs = []
    for workers, name in ((1, "w1"), (2, "w2")):
        out = str(tmp_path / name)
        view = ConfigView(parse_config_text(RISK_CFG))
        run_experiment(view, out, master_seed=0, workers=workers)
        with open(os.path.join(out, "table.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


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
