"""The functions the traced run wraps, and the per-layer metrics made from them.

Layers are the package modules. Each metric is named
`<module>.<function>.<stat>` or `<module>.<quantity>`; per-call stats
are averaged over the traced workload runs, so `calls` and `self_s` are
per workload run. MOVES records, for each layer, which end-to-end metric
a change to that layer should move and on which workload.
"""

import functools
import importlib

from tracer import Patch, Tracer, hist_quantile

HOT = ("calls", "self_s", "p50_us", "p99_us")
SPAN = ("calls", "self_s")

# (metric stem, module, attribute path, wrapper kind); several targets may
# share a stem, and then their calls are counted together.
_LOSS_CLASSES = ("LogisticLoss", "QuadraticLoss", "TinyMLP")
TARGETS = [
    *[
        (f"model.{meth}", "dpckpt.model", f"{cls}.{meth}", "hot")
        for cls in _LOSS_CLASSES
        for meth in ("grad_full", "loss_full", "grad_per_example", "predict_proba")
    ],
    ("model.accuracy", "dpckpt.model", "accuracy", "hot"),
    ("model.diurnal_draw", "dpckpt.model", "diurnal_draw", "hot"),
    ("model.subset", "dpckpt.model", "DatasetHandle.subset", "hot"),
    ("rng.gaussian_vector", "dpckpt.rng", "gaussian_vector", "hot"),
    ("rng.uniform_vector", "dpckpt.rng", "uniform_vector", "hot"),
    ("rng.step_generator", "dpckpt.rng", "step_generator", "hot"),
    ("privacy.calibrate", "dpckpt.privacy", "calibrate_theoretical", "hot"),
    ("privacy.calibrate", "dpckpt.privacy", "calibrate_practical", "hot"),
    ("privacy.zcdp_to_epsilon", "dpckpt.privacy", "zcdp_to_epsilon", "hot"),
    ("privacy.epsilon_to_zcdp", "dpckpt.privacy", "epsilon_to_zcdp", "hot"),
    ("privacy.compose_zcdp", "dpckpt.privacy", "compose_zcdp", "hot"),
    ("privacy.budget_from_rho", "dpckpt.privacy", "PrivacyBudget.from_rho", "hot"),
    ("trainer.dp_sgd_theoretical", "dpckpt.trainer", "dp_sgd_theoretical", "span"),
    ("trainer.dp_sgd_practical", "dpckpt.trainer", "dp_sgd_practical", "span"),
    ("trainer.clip_rows", "dpckpt.trainer", "clip_rows", "hot"),
    ("trainer.minibatch_indices", "dpckpt.trainer", "minibatch_indices", "hot"),
    ("trainer.project_l2", "dpckpt.trainer", "project_l2", "hot"),
    ("trainer.save_run", "dpckpt.trainer", "save_run", "span"),
    ("trainer.load_run", "dpckpt.trainer", "load_run", "span"),
    ("aggregate.ema_update", "dpckpt.aggregate", "ema_update", "hot"),
    ("aggregate.pda_update", "dpckpt.aggregate", "pda_update", "hot"),
    ("aggregate.ema_over_stream", "dpckpt.aggregate", "ema_over_stream", "span"),
    ("aggregate.ema_stream_states", "dpckpt.aggregate", "ema_stream_states", "span"),
    ("aggregate.pda_over_stream", "dpckpt.aggregate", "pda_over_stream", "span"),
    ("aggregate.upa_past_k", "dpckpt.aggregate", "upa_past_k", "span"),
    ("aggregate.upa_tail", "dpckpt.aggregate", "upa_tail", "span"),
    ("aggregate.opa_batch_labels", "dpckpt.aggregate", "opa_batch_labels", "span"),
    ("aggregate.omv_batch_labels", "dpckpt.aggregate", "omv_batch_labels", "span"),
    ("aggregate.select_best_k", "dpckpt.aggregate", "select_best_k", "span"),
    ("aggregate.ema_over_best_k", "dpckpt.aggregate", "ema_over_best_k", "span"),
    ("uncertainty.uq_from_checkpoints", "dpckpt.uncertainty", "uq_from_checkpoints", "span"),
    (
        "uncertainty.uq_from_independent_runs",
        "dpckpt.uncertainty",
        "uq_from_independent_runs",
        "span",
    ),
    ("uncertainty.uq_average_width", "dpckpt.uncertainty", "uq_average_width", "span"),
    ("uncertainty.uq_widths", "dpckpt.uncertainty", "uq_widths", "span"),
    ("dpld.ou_exact_sample", "dpckpt.dpld", "ou_exact_sample", "hot"),
    ("dpld.Statistic.evaluate", "dpckpt.dpld", "Statistic.evaluate", "hot"),
    ("dpld.Statistic.evaluate_batch", "dpckpt.dpld", "Statistic.evaluate_batch", "hot"),
    ("dpld.stationary_oracle_V", "dpckpt.dpld", "stationary_oracle_V", "span"),
    ("dpld.variance_bias_experiment", "dpckpt.dpld", "variance_bias_experiment", "span"),
    ("harness.run_experiment", "dpckpt.harness.experiments", "run_experiment", "span"),
    ("harness.rolling_aggregate", "dpckpt.harness.experiments", "rolling_aggregate", "span"),
    ("harness.stability_report", "dpckpt.harness.experiments", "stability_report", "span"),
    ("harness.tune_on_validation", "dpckpt.harness.experiments", "tune_on_validation", "span"),
    (
        "harness.aggregation_accuracy",
        "dpckpt.harness.experiments",
        "aggregation_accuracy",
        "span",
    ),
    # data: synthesis, split and model build
    ("harness.data", "dpckpt.harness.experiments", "_dataset_from_view", "span"),
    ("harness.data", "dpckpt.harness.experiments", "split_dataset", "span"),
    ("harness.data", "dpckpt.model", "synth_classification", "span"),
    ("harness.data", "dpckpt.model", "LogisticLoss.for_data", "span"),
    # writers; save_run is its own span under _save_runs
    ("harness.write", "dpckpt.harness.experiments", "_write_json", "span"),
    ("harness.write", "dpckpt.harness.experiments", "_write_status", "span"),
    ("harness.write", "dpckpt.harness.experiments", "_save_runs", "span"),
    ("harness.write", "dpckpt.harness.experiments", "ResultTable.write_csv", "span"),
    ("harness.write", "dpckpt.dpld", "write_dpld_report", "span"),
    ("harness.write", "dpckpt.uncertainty", "write_uq_report", "span"),
]

# attributes recorded on a span from the wrapped call's return value
_ON_RETURN = {
    "trainer.dp_sgd_theoretical": lambda rec: {"steps": rec.config.num_steps},
    "trainer.dp_sgd_practical": lambda rec: {"steps": rec.config.num_steps},
    "dpld.variance_bias_experiment": lambda rep: {"trials": rep.trials},
}
TRAINER_SPANS = ("trainer.dp_sgd_theoretical", "trainer.dp_sgd_practical")


def install(tracer: Tracer) -> Patch:
    """Wrap every target that exists in the loaded package; returns the patch."""
    patch = Patch("dpckpt")
    for stem, module_name, path, kind in TARGETS:
        module = importlib.import_module(module_name)
        if kind == "hot":
            make = functools.partial(tracer.wrap_hot, stem)
        else:
            make = functools.partial(tracer.wrap_span, stem, on_return=_ON_RETURN.get(stem))
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None:
                patch.method(cls, attr, make)
        else:
            patch.function(module, path, make)
    return patch


def _stats(stem: str, stats: tuple) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
    return [(f"{stem}.{s}", units[s], "lower") for s in stats]


# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    *_stats("model.grad_full", HOT),
    *_stats("model.loss_full", HOT),
    *_stats("model.grad_per_example", HOT),
    *_stats("model.predict_proba", HOT),
    *_stats("model.accuracy", HOT),
    *_stats("model.diurnal_draw", HOT),
    *_stats("model.subset", ("calls",)),
    *_stats("rng.gaussian_vector", HOT),
    *_stats("rng.uniform_vector", HOT),
    *_stats("rng.step_generator", HOT),
    ("rng.generators_built", "count", "lower"),
    ("rng.generators_per_item", "ratio", "lower"),
    *_stats("privacy.calibrate", ("calls",)),
    ("privacy.self_s", "s", "lower"),
    *_stats("trainer.dp_sgd_theoretical", SPAN),
    *_stats("trainer.dp_sgd_practical", SPAN),
    *_stats("trainer.clip_rows", HOT),
    *_stats("trainer.minibatch_indices", HOT),
    *_stats("trainer.project_l2", HOT),
    ("trainer.steps", "count", "lower"),
    ("trainer.useful_step_ratio", "ratio", "higher"),
    ("trainer.metric_evals_per_step", "ratio", "lower"),
    ("trainer.divergences", "count", "lower"),
    *_stats("trainer.save_run", SPAN),
    *_stats("trainer.load_run", SPAN),
    ("io.bytes_written", "B", "lower"),
    *_stats("aggregate.ema_update", HOT),
    *_stats("aggregate.pda_update", HOT),
    *_stats("aggregate.upa_past_k", SPAN),
    *_stats("aggregate.upa_tail", SPAN),
    *_stats("aggregate.opa_batch_labels", SPAN),
    *_stats("aggregate.omv_batch_labels", SPAN),
    *_stats("aggregate.select_best_k", SPAN),
    *_stats("aggregate.ema_over_best_k", SPAN),
    ("aggregate.self_s", "s", "lower"),
    *_stats("uncertainty.uq_from_checkpoints", SPAN),
    *_stats("uncertainty.uq_from_independent_runs", SPAN),
    *_stats("uncertainty.uq_widths", SPAN),
    ("uncertainty.t_quantile.hit_ratio", "ratio", "higher"),
    ("uncertainty.t_quantile.misses", "count", "lower"),
    *_stats("dpld.ou_exact_sample", HOT),
    *_stats("dpld.Statistic.evaluate", HOT),
    ("dpld.stationary_oracle_V.self_s", "s", "lower"),
    ("dpld.variance_bias_experiment.self_s", "s", "lower"),
    ("dpld.trials", "count", "higher"),
    ("harness.run_experiment.self_s", "s", "lower"),
    *_stats("harness.rolling_aggregate", SPAN),
    *_stats("harness.stability_report", SPAN),
    *_stats("harness.tune_on_validation", SPAN),
    *_stats("harness.aggregation_accuracy", SPAN),
    ("harness.data.self_s", "s", "lower"),
    ("harness.write.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

MOVES = {
    "model": "wall_s on uq_theory (grad_full, loss_full), pds_drift (grad_per_example, "
    "accuracy) and agg_persist; no change on dpld_bias",
    "rng": "wall_s on uq_theory (one generator per step), dpld_bias (one per trial) "
    "and pds_drift (two per step)",
    "privacy": "near zero today; a ledger audit shows here on every training workload",
    "trainer": "wall_s on uq_theory and pds_drift; peak_rss_mb if runs are batched",
    "trainer persistence (save_run, load_run, io.bytes_written)": "wall_s on agg_persist only",
    "aggregate": "wall_s on pds_drift (rolling) and agg_persist (final-value, best_k); "
    "no change on uq_theory or dpld_bias",
    "uncertainty": "wall_s on uq_theory only, a small share there",
    "dpld": "wall_s and peak_rss_mb on dpld_bias only",
    "harness": "wall_s on pds_drift and agg_persist",
}


def layer_metrics(
    tracer: Tracer, runs: int, items: float, bytes_written: float,
    t_quantile_info: tuple[float, float], overhead_frac: float,
) -> dict[str, float]:
    """Every PER_LAYER value from a trace of `runs` workload runs.

    t_quantile_info is (hits, misses) summed over the traced runs. A
    metric of a layer that did no work is 0.
    """
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    hists: dict[str, dict[int, int]] = {}
    span_names = {}
    for span in tracer.spans:
        name = span["name"]
        span_names[span["id"]] = name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + span["self_s"]
    for (_, name), fold in tracer.folds.items():
        calls[name] = calls.get(name, 0) + fold.calls
        self_s[name] = self_s.get(name, 0.0) + fold.self_s
        merged = hists.setdefault(name, {})
        for bucket, count in fold.hist.items():
            merged[bucket] = merged.get(bucket, 0) + count

    def per_run(value: float) -> float:
        return value / runs

    def module_self(prefix: str) -> float:
        return per_run(sum(v for k, v in self_s.items() if k.startswith(prefix)))

    steps = sum(
        s["attrs"].get("steps", 0) for s in tracer.spans if s["name"] in TRAINER_SPANS
    )
    trainer_evals = sum(
        fold.calls
        for (parent, name), fold in tracer.folds.items()
        if name in ("model.loss_full", "model.accuracy")
        and span_names.get(parent) in TRAINER_SPANS
    )
    divergences = sum(
        1
        for s in tracer.spans
        if s["name"] in TRAINER_SPANS and s["error"] == "NumericDivergenceError"
    )
    generators = sum(
        calls.get(n, 0)
        for n in ("rng.gaussian_vector", "rng.uniform_vector", "rng.step_generator")
    )
    trials = sum(s["attrs"].get("trials", 0) for s in tracer.spans)
    hits, misses = t_quantile_info
    derived = {
        "rng.generators_built": per_run(generators),
        "rng.generators_per_item": per_run(generators) / items if items else 0.0,
        "privacy.self_s": module_self("privacy."),
        "trainer.steps": per_run(steps),
        "trainer.useful_step_ratio": items / per_run(steps) if steps else 0.0,
        "trainer.metric_evals_per_step": trainer_evals / steps if steps else 0.0,
        "trainer.divergences": per_run(divergences),
        "io.bytes_written": bytes_written,
        "aggregate.self_s": module_self("aggregate."),
        "uncertainty.t_quantile.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "uncertainty.t_quantile.misses": per_run(misses),
        "dpld.trials": per_run(trials),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
            continue
        stem, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = per_run(calls.get(stem, 0))
        elif stat == "self_s":
            out[name] = per_run(self_s.get(stem, 0.0))
        elif stat == "p50_us":
            out[name] = hist_quantile(hists.get(stem, {}), 0.5) * 1e6
        elif stat == "p99_us":
            out[name] = hist_quantile(hists.get(stem, {}), 0.99) * 1e6
        else:
            raise KeyError(name)
    return out
