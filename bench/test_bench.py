"""Self-tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import layers  # noqa: E402
from tracer import Tracer, _bucket, hist_quantile  # noqa: E402
from workloads import WORKLOADS, uq_items  # noqa: E402

from dpckpt import harness  # noqa: E402
from dpckpt.harness import ConfigView, load_config  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds hot h [2, 3];
    # b holds hot h [6, 6.5] which itself holds hot g [6.1, 6.2]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 6.1, 6.2, 6.5, 9, 10]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    inner = tracer.wrap_hot("h", lambda: None)
    inner()
    tracer.end(a)
    b = tracer.begin("b")
    nested_g = tracer.wrap_hot("g", lambda: None)
    tracer.wrap_hot("h", nested_g)()
    tracer.end(b)
    tracer.end(root)

    spans = {s["name"]: s for s in tracer.spans}
    assert spans["a"]["parent"] == spans["root"]["id"]
    assert spans["b"]["parent"] == spans["root"]["id"]
    assert spans["a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert spans["b"]["self_s"] == pytest.approx(4.0 - 0.5)
    assert spans["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    folds = tracer.folds
    h_under_b = folds[(spans["b"]["id"], "h")]
    assert h_under_b.calls == 1
    assert h_under_b.total_s == pytest.approx(0.5)
    assert h_under_b.self_s == pytest.approx(0.4)
    assert folds[(spans["b"]["id"], "g")].self_s == pytest.approx(0.1)
    assert folds[(spans["a"]["id"], "h")].self_s == pytest.approx(1.0)


def test_histogram_quantiles_are_within_bucket_width():
    fold_hist = {}
    for us in range(1, 1001):
        b = _bucket(us * 1e-6)
        fold_hist[b] = fold_hist.get(b, 0) + 1
    assert hist_quantile(fold_hist, 0.5) == pytest.approx(500e-6, rel=0.04)
    assert hist_quantile(fold_hist, 0.99) == pytest.approx(990e-6, rel=0.04)
    assert hist_quantile({}, 0.5) == 0.0


def _tiny_train_values(steps):
    return {
        "task": "train",
        "train.mode": "theoretical",
        "train.steps": str(steps),
        "data.n": "40",
        "data.p": "3",
    }


def _bindings():
    """Every function-valued attribute of the package's modules and classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dpckpt" or name.startswith("dpckpt.")):
            continue
        for attr, value in vars(mod).items():
            found[(name, attr)] = value
            if isinstance(value, type):
                for member, obj in vars(value).items():
                    found[(name, attr, member)] = obj
    return found


def test_traced_run_restores_every_patched_attribute(tmp_path):
    before = _bindings()
    tracer = Tracer()
    patch = layers.install(tracer)
    try:
        # the names other modules bound with `from ... import` are wrapped too
        for key in [
            ("dpckpt.harness", "run_experiment"),
            ("dpckpt.trainer", "accuracy"),
            ("dpckpt.aggregate", "accuracy"),
            ("dpckpt.harness.experiments", "accuracy"),
            ("dpckpt.trainer", "diurnal_draw"),
            ("dpckpt.trainer", "calibrate_theoretical"),
        ]:
            assert getattr(sys.modules[key[0]], key[1]) is not before[key], key
        harness.run_experiment(ConfigView(_tiny_train_values(5)), str(tmp_path))
    finally:
        patch.restore()
    after = _bindings()
    assert patch.leftovers() == []
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert any(s["name"] == "harness.run_experiment" for s in tracer.spans)


def test_folded_call_counts_are_exact(tmp_path):
    steps = 17
    tracer = Tracer()
    patch = layers.install(tracer)
    try:
        harness.run_experiment(ConfigView(_tiny_train_values(steps)), str(tmp_path))
    finally:
        patch.restore()
    metrics = layers.layer_metrics(tracer, 1, steps, 0, (0, 0), 0.0)
    assert metrics["model.grad_full.calls"] == steps
    assert metrics["model.loss_full.calls"] == steps
    assert metrics["rng.gaussian_vector.calls"] == steps
    assert metrics["trainer.steps"] == steps
    assert metrics["trainer.metric_evals_per_step"] == 1.0
    assert metrics["trainer.save_run.calls"] == 1


def test_item_count_of_the_stock_uq_config():
    view = ConfigView(load_config(os.path.join(ROOT, "configs", "uq_compare.cfg")))
    assert uq_items(view) == 20 * 10 * (21 + 1050) == 214_200


def test_scaling_divides_by_the_mean_of_the_neighbouring_references():
    import run

    # the machine ran at half the nominal speed around this run
    ref = 2 * run.REF_SECONDS
    assert run.scaled(3.0, ref * 0.5, ref * 1.5) == pytest.approx(1.5)
    assert run.scaled(3.0, run.REF_SECONDS, run.REF_SECONDS) == pytest.approx(3.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "items_per_s", "peak_rss_mb"
    }
