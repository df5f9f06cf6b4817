"""The names the benchmark scripts under bench/ read from the package still
resolve and behave as those scripts use them.

bench/workloads.py rebuilds a task's model and test split with the public
helpers, reloads saved runs and re-scores them; bench/run.py clears and
reads the t quantile cache; bench/test_bench.py checks which package
modules bind accuracy, diurnal_draw and calibrate_theoretical. A removal
that breaks one of these breaks the benchmark, so it shows here first.
"""

import math

import numpy as np
import pytest

from dpckpt import aggregate, model, privacy, trainer, uncertainty
from dpckpt.harness import ConfigView, run_experiment
from dpckpt.harness.experiments import split_dataset
from dpckpt.model import LogisticLoss, accuracy, synth_classification


def test_config_view_getters_read_values_and_defaults():
    view = ConfigView({
        "num_seeds": "3",
        "train.l2_reg": "0.5",
        "uq.epsilons": "1.0, 8.0",
        "uq.k_values": "3, 5",
        "dpld.points": "20:20, 0.01:0.01",
    })
    assert view.get_int("num_seeds") == 3
    assert view.get_int("data.n", 5000) == 5000
    assert view.get_float("train.l2_reg", 0.0) == 0.5
    assert view.get_float("data.separation", 3.0) == 3.0
    assert view.get_float_list("uq.epsilons", [2.0]) == [1.0, 8.0]
    assert view.get_float_list("missing", [1.0, 8.0]) == [1.0, 8.0]
    assert view.get_int_list("uq.k_values", [3, 5, 10]) == [3, 5]
    assert view.get_float_pairs("dpld.points") == [(20.0, 20.0), (0.01, 0.01)]


def test_split_dataset_default_fractions():
    data = synth_classification(n=5000, p=20, num_classes=10, separation=3.0, seed=11)
    parts = split_dataset(data, seed=1)
    sizes = {name: part.n for name, part in parts.items()}
    assert sizes == {"train": 3500, "validation": 500, "heldout": 500, "test": 500}


def test_accuracy_of_a_vector_is_a_float():
    data = synth_classification(60, 3, num_classes=2, seed=4)
    lossmodel = LogisticLoss.for_data(data)
    theta = np.array([1.0, -0.5, 0.25])
    score = accuracy(lossmodel, theta, data)
    assert type(score) is float
    assert score == accuracy(lossmodel, theta[None], data)[0]


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A saved aggregate_eval run with one checkpoint per step, as the
    agg_persist workload writes it."""
    out = tmp_path_factory.mktemp("agg")
    run_experiment(ConfigView({
        "task": "aggregate_eval", "num_seeds": "1", "train.steps": "6", "train.batch_size": "8",
        "data.n": "200", "data.p": "3", "data.classes": "2", "agg.list": "upa_k:5",
    }), str(out), workers=1)
    return str(out / "runs" / "seed_000")


def test_load_run_and_its_kept_accessors(saved_run):
    record = trainer.load_run(saved_run)
    params = record.checkpoint_params()
    assert params.shape == (6, 3) and not np.shares_memory(params, record.params)
    assert record.final_params().tobytes() == params[-1].tobytes()
    assert [c.step for c in record.checkpoints] == list(range(1, 7))
    assert all(c.params.shape == (3,) for c in record.checkpoints)
    assert math.isfinite(record.budget.rho) and math.isfinite(record.budget.epsilon)
    assert np.allclose(aggregate.upa_past_k(params, 5), params[-5:].mean(axis=0), atol=1e-15)


def test_choose_T_is_ceil_n_rho():
    rho = privacy.epsilon_to_zcdp(8.0, 1e-5)
    assert trainer.choose_T(1000, rho) == math.ceil(1000 * rho)


def test_t_quantile_cache_hooks():
    uncertainty.t_quantile.cache_clear()
    uncertainty.t_quantile(4, 0.975)
    uncertainty.t_quantile(4, 0.975)
    info = uncertainty.t_quantile.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_trainer_binds_the_traced_functions():
    assert trainer.accuracy is model.accuracy
    assert trainer.diurnal_draw is model.diurnal_draw
    assert trainer.calibrate_theoretical is privacy.calibrate_theoretical
