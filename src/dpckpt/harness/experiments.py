"""Seeded multi-run experiment tasks.

Each task reads its whole key set from the config view up front (so an
unknown key fails before any training starts), fans per-seed work (or
groups of seeds, each trained as one batch) out to a process pool when
workers > 1, and funnels every artifact write through the parent
process. Results are deterministic functions of the
config plus the master seed, independent of worker count.
"""

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .. import aggregate, dpld, privacy, trainer, uncertainty
from ..aggregate import AggregationSpec
from ..errors import ConfigError, NumericDivergenceError
from ..model import (
    DatasetHandle,
    DiurnalSchedule,
    LogisticLoss,
    QuadraticLoss,
    accuracy,
    load_csv,
    synth_classification,
)
from .config import ConfigView

SEED_STRIDE = 1_000_003

DEFAULT_BETA_GRID = (0.85, 0.9, 0.95, 0.99, 0.999, 0.9999)
DEFAULT_K_GRID = (3, 5, 10, 20, 50, 100, 200)


def derive_run_seed(master_seed: int, index: int) -> int:
    """Seed for the index-th run of an experiment; collision-free across
    indices and far apart for nearby master seeds."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return master_seed * SEED_STRIDE + index


# ---------------------------------------------------------------------------
# result tables


@dataclass(frozen=True)
class ResultRow:
    setting: str
    mean: float
    std: float
    n_seeds: int


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["setting", "mean", "std", "n_seeds"])
            for row in self.rows:
                writer.writerow([row.setting, repr(row.mean), repr(row.std), row.n_seeds])

    def lookup(self, setting: str) -> ResultRow:
        for row in self.rows:
            if row.setting == setting:
                return row
        raise KeyError(setting)


def summarize(setting: str, values: Sequence[float]) -> ResultRow:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("cannot summarize an empty value list")
    std = float(arr.std(ddof=1)) if arr.size >= 2 else math.nan
    return ResultRow(setting, float(arr.mean()), std, int(arr.size))


# ---------------------------------------------------------------------------
# partitions and tuning


def ensure_distinct_tags(handles: Sequence[DatasetHandle]) -> None:
    seen: set[str] = set()
    for h in handles:
        if h.tag in seen:
            raise ConfigError(f"partitions share the tag {h.tag!r}; they must be disjoint")
        seen.add(h.tag)


def split_dataset(
    data: DatasetHandle,
    seed: int,
    val_fraction: float = 0.1,
    heldout_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> dict[str, DatasetHandle]:
    """Shuffle and cut into tagged train/validation/heldout/test parts."""
    if not all(f >= 0 for f in (val_fraction, heldout_fraction, test_fraction)):
        raise ConfigError("partition fractions must be nonnegative numbers")
    held_total = val_fraction + heldout_fraction + test_fraction
    if held_total >= 1.0:
        raise ConfigError("partition fractions must leave room for training data")
    perm = np.random.default_rng(seed).permutation(data.n)
    n_val = max(1, int(round(val_fraction * data.n)))
    n_held = max(1, int(round(heldout_fraction * data.n)))
    n_test = max(1, int(round(test_fraction * data.n)))
    n_train = data.n - n_val - n_held - n_test
    if n_train < 1:
        raise ConfigError("dataset too small for the requested partitions")
    bounds = np.cumsum([n_train, n_val, n_held, n_test])
    parts = {
        "train": data.subset(perm[: bounds[0]], tag="train"),
        "validation": data.subset(perm[bounds[0] : bounds[1]], tag="validation"),
        "heldout": data.subset(perm[bounds[1] : bounds[2]], tag="heldout"),
        "test": data.subset(perm[bounds[2] : bounds[3]], tag="test"),
    }
    ensure_distinct_tags(list(parts.values()))
    return parts


def _best_index(specs: Sequence[AggregationSpec], accs: Sequence[float]) -> int:
    """Index of the best accuracy; the one tie-break policy of tuning and
    the sweeps."""

    def key(i: int) -> tuple:
        spec = specs[i]
        k = spec.k if spec.k is not None else math.inf
        scalar = next(
            (v for v in (spec.beta, spec.alpha, spec.gamma) if v is not None), math.inf
        )
        return (-accs[i], k, scalar, i)

    return min(range(len(specs)), key=key)


def tune_on_validation(
    candidates: Sequence[AggregationSpec],
    evaluate: Callable[[AggregationSpec, DatasetHandle], float],
    validation: DatasetHandle,
    forbidden_tags: Sequence[str] = ("train", "heldout"),
) -> tuple[AggregationSpec, float]:
    """Candidate with the best validation accuracy.

    Ties break toward smaller k, then the smaller scalar coefficient
    (beta, alpha or gamma), then listing order. The validation partition
    must not carry a training or heldout tag.
    """
    if not candidates:
        raise ValueError("no candidates to tune over")
    if validation.tag in forbidden_tags:
        raise ConfigError(
            f"validation partition is tagged {validation.tag!r}; tuning data must be disjoint"
        )
    accs = [float(evaluate(cand, validation)) for cand in candidates]
    best = _best_index(candidates, accs)
    return candidates[best], accs[best]


# ---------------------------------------------------------------------------
# applying aggregation specs to finished runs


def aggregation_accuracy(
    spec: AggregationSpec,
    record: "trainer.RunRecord",
    model,
    eval_data: DatasetHandle,
    heldout: DatasetHandle | None = None,
    train_tag: str | None = None,
) -> float:
    """Accuracy on eval_data after applying one aggregation to a run."""
    params, steps = record.params, record.steps
    if spec.kind in ("opa", "omv"):
        if spec.k > len(params):
            raise ValueError(f"k={spec.k} exceeds the {len(params)} checkpoints")
        vote = aggregate.opa_batch_labels if spec.kind == "opa" else aggregate.omv_batch_labels
        labels = vote(params[len(params) - spec.k :], model, eval_data.features)
        return float(np.mean(labels == eval_data.labels))
    if spec.kind == "best_k":
        if heldout is None:
            raise ValueError("best_k aggregation needs a heldout partition")
        rows = aggregate.select_best_k(params, steps, model, heldout, spec.k, train_tag=train_tag)
        params, steps = params[rows], steps[rows]
    return accuracy(model, aggregate.combine(spec, params, steps), eval_data)


def parse_aggregation_list(items: Sequence[str], key: str = "agg.list") -> list[AggregationSpec]:
    """Entries like "ema:0.9", "upa_k:5", "best_k:5:0.9" -> specs.

    The fields after the kind are its aggregate.KIND_PARAMS, in order and
    all of them: k is an int, every other parameter a float.
    """
    specs = []
    for item in items:
        kind, *fields = [p.strip() for p in item.split(":")]
        if kind not in aggregate.KIND_PARAMS:
            raise ConfigError(f"unknown aggregation kind {kind!r}", key=key)
        names = aggregate.KIND_PARAMS[kind]
        try:
            if len(fields) != len(names):
                raise ValueError(f"{kind} takes {len(names)} field(s), got {len(fields)}")
            values = {n: int(v) if n == "k" else float(v) for n, v in zip(names, fields)}
            specs.append(AggregationSpec(kind, **values))
        except ValueError as exc:
            raise ConfigError(f"bad aggregation entry {item!r}: {exc}", key=key) from None
    if not specs:
        raise ConfigError("aggregation list is empty", key=key)
    return specs


# ---------------------------------------------------------------------------
# stability over a trailing window


@dataclass(frozen=True)
class StabilityReport:
    steps: list[int]
    baseline_accuracy: np.ndarray
    aggregate_accuracy: np.ndarray

    @property
    def baseline_std(self) -> float:
        return float(self.baseline_accuracy.std(ddof=1))

    @property
    def aggregate_std(self) -> float:
        return float(self.aggregate_accuracy.std(ddof=1))


def stability_report(
    params: np.ndarray,
    steps: Sequence[int],
    model,
    eval_data: DatasetHandle,
    specs: Sequence[AggregationSpec],
    last_n: int,
) -> list[StabilityReport]:
    """Accuracy series of raw checkpoints vs each spec's rolling aggregate.

    params is a run's (K, p) checkpoint matrix and steps its K checkpoint
    steps. Covers the trailing last_n checkpoints; the window must hold
    at least two points for the stds to exist. The raw checkpoints are
    scored once, and every report shares that baseline.
    """
    if last_n < 2:
        raise ValueError("window must cover at least two checkpoints")
    steps = list(steps)
    base = accuracy(model, params[-last_n:], eval_data)
    reports = []
    for spec in specs:
        rolled = aggregate.rolling(spec, params, steps, last_n)
        reports.append(StabilityReport(steps[-last_n:], base, accuracy(model, rolled, eval_data)))
    return reports


# ---------------------------------------------------------------------------
# shared task plumbing


def _run_parallel(worker, arg_tuples: list, workers: int) -> list:
    if workers <= 1 or len(arg_tuples) <= 1:
        return [worker(args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arg_tuples))


def _resolve_seeds(view: ConfigView, master_seed: int, default_count: int) -> list[int]:
    explicit = view.get_int_list("seeds", None)
    if explicit is not None:
        if not explicit:
            raise ConfigError("seed list is empty", key="seeds")
        if len(set(explicit)) != len(explicit):
            raise ConfigError("seeds must be distinct", key="seeds")
        return explicit
    count = view.get_int("num_seeds", default_count)
    if count < 1:
        raise ConfigError("need at least one seed", key="num_seeds")
    return [derive_run_seed(master_seed, i) for i in range(count)]


@contextmanager
def _config_errors(what: str, key: str | None = None):
    """Turn a ValueError raised in the block (a library object rejecting a
    value read from the config) into the ConfigError "bad <what>: <reason>"
    for key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}", key=key) from None


def _read_delta(view: ConfigView) -> float:
    with _config_errors("privacy setting", "train.delta"):
        return privacy.check_delta(view.get_float("train.delta", 1e-5))


def _dataset_from_view(
    view: ConfigView, n: int, p: int, classes: int, separation: float, seed: int
) -> DatasetHandle:
    csv_path = view.get_str("data.csv", None)
    if csv_path is not None:
        return load_csv(csv_path)
    with _config_errors("data setting (data.n, data.p, data.classes, data.separation)"):
        return synth_classification(
            n=view.get_int("data.n", n),
            p=view.get_int("data.p", p),
            num_classes=view.get_int("data.classes", classes),
            separation=view.get_float("data.separation", separation),
            seed=view.get_int("data.seed", seed),
        )


def _logistic_model(data: DatasetHandle, l2_reg: float, radius: float) -> LogisticLoss:
    with _config_errors("model setting"):
        return LogisticLoss.for_data(data, l2_reg=l2_reg, radius=radius)


def _grid_specs(kind: str, param: str, values: Sequence, key: str) -> list[AggregationSpec]:
    """One spec of the given kind per grid value, passed as its param."""
    with _config_errors("grid value", key):
        return [AggregationSpec(kind, **{param: v}) for v in values]


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spec_entry(spec: AggregationSpec, acc: float, n_seeds: int) -> dict:
    params = {name: getattr(spec, name) for name in aggregate.KIND_PARAMS[spec.kind]}
    return {
        "kind": spec.kind,
        "params": params,
        "resultingAccuracy": acc,
        "nSeeds": n_seeds,
    }


def _num_checkpoints(config: "trainer.TrainerConfig") -> int:
    return len(trainer.checkpoint_steps(config.num_steps, config.resolved_checkpoint_every()))


def _check_k_fits(specs: Sequence[AggregationSpec], config: "trainer.TrainerConfig", key: str):
    """Reject, before any training, a k larger than the run's checkpoint count."""
    count = _num_checkpoints(config)
    for spec in specs:
        if spec.k is not None and spec.k > count:
            raise ConfigError(
                f"k={spec.k} exceeds the {count} checkpoints of a {config.num_steps}-step run",
                key=key,
            )


def _check_batch_fits(config: "trainer.TrainerConfig", data: DatasetHandle) -> None:
    """Reject, before any training, a minibatch larger than the rows it is drawn
    from without replacement."""
    if config.batch_size > data.n:
        raise ConfigError(
            f"batch of {config.batch_size} exceeds the {data.n} training rows",
            key="train.batch_size",
        )


def _trainer_configs(seeds: Sequence[int], eta: tuple[str, float], **fields):
    """One TrainerConfig per seed, alike in every other field.

    This is the harness's only TrainerConfig construction: a value that
    TrainerConfig or its EtaSchedule (kind, value) rejects becomes a config
    error here, before any training starts.
    """
    with _config_errors("trainer setting"):
        template = trainer.TrainerConfig(eta=trainer.EtaSchedule(*eta), **fields)
    return [replace(template, seed=s) for s in seeds]


def _theoretical_configs(
    model, n: int, rho: float, radius: float, seeds: Sequence[int],
    steps: int | None = None, every: int | None = None,
) -> list["trainer.TrainerConfig"]:
    """Configs of seeded theoretical runs under a total budget of rho-zCDP.

    T is choose_T(n, rho) unless steps is given; the step size is the
    theorem schedule for the noise that rho calibrates over T steps. A
    rho or steps that the calibration rejects is a config error.
    """
    with _config_errors("trainer setting"):
        steps = trainer.choose_T(n, rho) if steps is None else steps
        noise = privacy.calibrate_theoretical(model.lipschitz, steps, n, rho)
        eta = trainer.theorem_step_size(radius, model.lipschitz, noise.std, model.param_dim())
    return _trainer_configs(
        seeds,
        (eta.kind, eta.value),
        mode="theoretical",
        num_steps=steps,
        projection_radius=radius,
        checkpoint_every=every,
    )


def _practical_configs(
    view: ConfigView, seeds: Sequence[int], steps: int, eta: float, batch: int, every: int | None
) -> tuple[list["trainer.TrainerConfig"], float]:
    """Configs of seeded practical runs and their noise multiplier; the
    arguments after seeds are the defaults of the train.* keys."""
    configs = _trainer_configs(
        seeds,
        ("constant", view.get_float("train.eta", eta)),
        mode="practical",
        num_steps=view.get_int("train.steps", steps),
        clip_norm=view.get_float("train.clip_norm", 1.0),
        batch_size=view.get_int("train.batch_size", batch),
        checkpoint_every=view.get_int("train.checkpoint_every", every),
    )
    z = view.get_float("train.noise_multiplier", 1.0)
    with _config_errors("trainer setting", "train.noise_multiplier"):
        trainer.practical_noise(configs[0], z)
    return configs, z


def _contiguous_groups(items: list, parts: int) -> list[list]:
    """items cut, in order, into at most `parts` groups of near-equal size."""
    size = -(-len(items) // parts)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _save_runs(records, out_dir: str) -> None:
    for i, record in enumerate(records):
        trainer.save_run(record, os.path.join(out_dir, "runs", f"seed_{i:03d}"))


# ---------------------------------------------------------------------------
# task: single training run


def run_single_training(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    mode = view.get_str("train.mode", "practical")
    delta = _read_delta(view)
    radius = view.get_float("train.radius", 1.0)
    l2 = view.get_float("train.l2_reg", 0.0)
    seeds = _resolve_seeds(view, master_seed, 1)
    if len(seeds) > 1:
        raise ConfigError(
            f"the train task writes one run; got {len(seeds)} seeds",
            key="seeds" if view.has("seeds") else "num_seeds",
        )
    data = _dataset_from_view(view, n=1000, p=10, classes=2, separation=2.0, seed=7)
    data = data.subset(np.arange(data.n), tag="train")
    model = _logistic_model(data, l2, radius)

    if mode == "theoretical":
        rho = view.get_float("train.rho", 0.5)
        steps = view.get_int("train.steps", None)
        every = view.get_int("train.checkpoint_every", None)
        (config,) = _theoretical_configs(model, data.n, rho, radius, seeds, steps, every)
        view.ensure_all_used()
        record = trainer.dp_sgd_theoretical(model, data, config, rho=rho, delta=delta)
    elif mode == "practical":
        (config,), z = _practical_configs(view, seeds, 200, 0.1, 32, None)
        _check_batch_fits(config, data)
        view.ensure_all_used()
        record = trainer.dp_sgd_practical(model, data, config, z, delta=delta)
    else:
        raise ConfigError(f"unknown trainer mode {mode!r}", key="train.mode")

    trainer.save_run(record, out_dir)
    rows = [
        ResultRow("final_train_loss", float(record.metrics[-1, 0]), math.nan, 1),
        ResultRow("num_checkpoints", float(len(record.steps)), math.nan, 1),
    ]
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: excess-risk comparison of aggregators vs the last iterate


def _risk_group_worker(args):
    """Train a group of seeds as one batch; (record, excess risks) per seed."""
    model, data, configs, rho, delta, min_loss, specs = args
    records = trainer.dp_sgd_theoretical_runs(model, data, configs, rho=rho, delta=delta)
    out = []
    for record in records:
        params, steps = record.params, record.steps
        thetas = [params[-1]] + [aggregate.combine(spec, params, steps) for spec in specs]
        excess = model.loss_full(np.array(thetas), data) - min_loss
        labels = ["last"] + [spec.label() for spec in specs]
        out.append((record, dict(zip(labels, excess.tolist()))))
    return out


def run_risk_compare(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    rho = view.get_float("train.rho", 0.5)
    delta = _read_delta(view)
    radius = view.get_float("train.radius", 2.0)
    l2 = view.get_float("train.l2_reg", 1.0)
    steps_cfg = view.get_int("train.steps", None)
    every = view.get_int("train.checkpoint_every", 1)
    agg_items = view.get_str_list("agg.list", ["upa_tail:0.5", "pda:1.0"])
    save_runs = view.get_bool("save_runs", True)
    unit_norm = view.get_bool("data.unit_norm", True)
    seeds = _resolve_seeds(view, master_seed, 20)
    data = _dataset_from_view(view, n=1000, p=10, classes=2, separation=2.0, seed=7)
    feats = data.features
    if unit_norm:
        # Unit-norm rows keep the per-example gradient bound at 1 + l2*radius,
        # the usual setup when a Lipschitz constant replaces gradient clipping.
        feats = feats / np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
    data = DatasetHandle(feats, data.labels, data.num_classes, tag="train")
    specs = parse_aggregation_list(agg_items)
    output_space = [spec.label() for spec in specs if spec.kind in ("opa", "omv", "best_k")]
    if output_space:
        raise ConfigError(
            f"excess risk needs parameter-space aggregations; {', '.join(output_space)} "
            "aggregate predictions",
            key="agg.list",
        )
    view.ensure_all_used()

    model = _logistic_model(data, l2, radius)
    configs = _theoretical_configs(model, data.n, rho, radius, seeds, steps_cfg, every)
    _check_k_fits(specs, configs[0], "agg.list")
    min_loss = trainer.min_loss_in_ball(model, data, radius)

    # one batched trainer call per worker group; bit-identical per seed
    # whatever the grouping, so the table does not depend on workers
    args = [
        (model, data, group, rho, delta, min_loss, specs)
        for group in _contiguous_groups(configs, workers)
    ]
    results = [r for group in _run_parallel(_risk_group_worker, args, workers) for r in group]

    rows = [summarize("excess_last", [r[1]["last"] for r in results])]
    for spec in specs:
        label = spec.label()
        rows.append(summarize(f"excess_{label}", [r[1][label] for r in results]))
    for spec in specs:
        label = spec.label()
        wins = [1.0 if r[1][label] < r[1]["last"] else 0.0 for r in results]
        rows.append(summarize(f"frac_{label}_beats_last", wins))
    if save_runs:
        _save_runs([r[0] for r in results], out_dir)
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: aggregation accuracy evaluation (and the two sweep variants)


def _train_and_score_worker(args):
    """Train a group of seeds as one batch; (record, accuracy per setting) per seed."""
    model, parts, configs, z, delta, specs, eval_part, eval_data = args
    records = trainer.dp_sgd_practical_runs(
        model, parts["train"], configs, z, delta=delta, eval_data=eval_data
    )
    target = parts[eval_part]
    out = []
    for record in records:
        scores = {"last": accuracy(model, record.params[-1], target)}
        for spec in specs:
            scores[spec.label()] = aggregation_accuracy(
                spec, record, model, target, heldout=parts["heldout"], train_tag="train"
            )
        out.append((record, scores))
    return out


def _practical_setup(
    view: ConfigView,
    seeds: Sequence[int],
    default_steps: int,
    default_eta: float = 0.1,
    default_separation: float = 3.0,
):
    """Shared data/model/config keys of the practical-trainer tasks:
    (model, partitions, one config per seed, noise multiplier, delta)."""
    delta = _read_delta(view)
    l2 = view.get_float("train.l2_reg", 0.0)
    configs, z = _practical_configs(view, seeds, default_steps, default_eta, 128, 1)
    data = _dataset_from_view(
        view, n=5000, p=20, classes=10, separation=default_separation, seed=11
    )
    parts = split_dataset(
        data,
        seed=view.get_int("data.split_seed", 1),
        val_fraction=view.get_float("data.val_fraction", 0.1),
        heldout_fraction=view.get_float("data.heldout_fraction", 0.1),
        test_fraction=view.get_float("data.test_fraction", 0.1),
    )
    model = _logistic_model(parts["train"], l2, 1.0)
    return model, parts, configs, z, delta


def _run_scored(
    view: ConfigView, out_dir: str, master_seed: int, workers: int,
    specs: Sequence[AggregationSpec], specs_key: str, eval_part: str, save_default: bool,
) -> tuple[list[ResultRow], list[float]]:
    """Train the seeds on the practical trainer and score every spec on the
    eval_part partition: one row per spec, also written to aggregates.json,
    and the last iterate's accuracy per seed. When save_runs holds, the runs
    are saved with their per-step test accuracy."""
    seeds = _resolve_seeds(view, master_seed, 5)
    model, parts, configs, z, delta = _practical_setup(view, seeds, default_steps=400)
    save_runs = view.get_bool("save_runs", save_default)
    _check_k_fits(specs, configs[0], specs_key)
    _check_batch_fits(configs[0], parts["train"])
    view.ensure_all_used()

    eval_data = parts["test"] if save_runs else None
    # one batched trainer call per worker group, as in run_risk_compare
    args = [
        (model, parts, group, z, delta, specs, eval_part, eval_data)
        for group in _contiguous_groups(configs, workers)
    ]
    results = [r for group in _run_parallel(_train_and_score_worker, args, workers) for r in group]

    rows = [summarize(spec.label(), [r[1][spec.label()] for r in results]) for spec in specs]
    entries = [_spec_entry(spec, row.mean, row.n_seeds) for spec, row in zip(specs, rows)]
    _write_json(os.path.join(out_dir, "aggregates.json"), entries)
    if save_runs:
        _save_runs([r[0] for r in results], out_dir)
    return rows, [r[1]["last"] for r in results]


def run_aggregate_eval(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    agg_items = view.get_str_list(
        "agg.list",
        ["ema:0.9", "upa_k:5", "upa_tail:0.5", "pda:1.0", "opa:5", "omv:5", "best_k:5:0.9"],
    )
    specs = parse_aggregation_list(agg_items)
    rows, last = _run_scored(view, out_dir, master_seed, workers, specs, "agg.list", "test", True)
    return ResultTable([summarize("last", last)] + rows)


def _run_sweep(
    view: ConfigView, out_dir: str, master_seed: int, workers: int,
    specs: list[AggregationSpec], key: str,
) -> ResultTable:
    """Validation rows of one spec grid, then the winner's row."""
    rows, _ = _run_scored(view, out_dir, master_seed, workers, specs, key, "validation", False)
    best = rows[_best_index(specs, [row.mean for row in rows])]
    rows.append(ResultRow(f"best={best.setting}", best.mean, best.std, best.n_seeds))
    return ResultTable(rows)


def run_ema_sweep(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    betas = view.get_float_list("sweep.betas", list(DEFAULT_BETA_GRID))
    if not betas:
        raise ConfigError("beta grid is empty", key="sweep.betas")
    specs = _grid_specs("ema", "beta", betas, "sweep.betas")
    return _run_sweep(view, out_dir, master_seed, workers, specs, "sweep.betas")


def run_k_sweep(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    ks = view.get_int_list("sweep.ks", list(DEFAULT_K_GRID))
    if not ks:
        raise ConfigError("k grid is empty", key="sweep.ks")
    specs = _grid_specs("upa_k", "k", ks, "sweep.ks")
    return _run_sweep(view, out_dir, master_seed, workers, specs, "sweep.ks")


# ---------------------------------------------------------------------------
# task: periodically shifting distribution, aggregation as a stabilizer


def _pds_group_worker(args):
    """Train a group of seeds as one batch, then tune and score each seed."""
    (model, parts, configs, z, delta, beta_specs, k_specs, window, eval_data) = args
    records = trainer.dp_sgd_practical_runs(
        model, parts["train"], configs, z, delta=delta, eval_data=eval_data
    )
    return [_pds_scores(record, model, parts, beta_specs, k_specs, window) for record in records]


def _pds_scores(record, model, parts, beta_specs, k_specs, window) -> dict:
    params, steps = record.params, record.steps

    def spec_window_accuracy(spec: AggregationSpec, part: DatasetHandle) -> float:
        # Score by the trailing-window mean, not the final value: under a
        # shifting distribution the endpoint rewards phase luck.
        rolled = aggregate.rolling(spec, params, steps, window)
        return float(np.mean(accuracy(model, rolled, part)))

    best_ema, _ = tune_on_validation(beta_specs, spec_window_accuracy, parts["validation"])
    best_upa, _ = tune_on_validation(k_specs, spec_window_accuracy, parts["validation"])

    ema_rep, upa_rep = stability_report(
        params, steps, model, parts["test"], [best_ema, best_upa], window
    )
    return {
        "record": record,
        "best_ema": best_ema,
        "best_upa": best_upa,
        "steps": ema_rep.steps,
        "baseline": ema_rep.baseline_accuracy,
        "ema": ema_rep.aggregate_accuracy,
        "upa": upa_rep.aggregate_accuracy,
    }


def run_pds_eval(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    # Large steps and nearer clusters make each oscillation phase reshape the
    # model, so the per-step accuracy swings the aggregates are meant to tame
    # actually show up at this scale.
    seeds = _resolve_seeds(view, master_seed, 5)
    model, parts, configs, z, delta = _practical_setup(
        view, seeds, default_steps=800, default_eta=4.0, default_separation=2.0
    )
    period = view.get_int("pds.period", max(2, configs[0].num_steps // 8))
    beta_grid = view.get_float_list("agg.beta_grid", list(DEFAULT_BETA_GRID))
    k_grid = view.get_int_list("agg.k_grid", list(DEFAULT_K_GRID))
    window_fraction = view.get_float("stability.window_fraction", 0.1)
    save_runs = view.get_bool("save_runs", True)
    if not 0.0 < window_fraction <= 1.0:
        raise ConfigError("window fraction must be in (0, 1]", key="stability.window_fraction")
    num_ckpts = _num_checkpoints(configs[0])
    window = max(2, int(round(window_fraction * num_ckpts)))
    beta_specs = _grid_specs("ema", "beta", beta_grid, "agg.beta_grid")
    k_specs = _grid_specs("upa_k", "k", [k for k in k_grid if k <= num_ckpts], "agg.k_grid")
    if window > num_ckpts:
        raise ConfigError(
            f"the stability window of {window} checkpoints exceeds the {num_ckpts} "
            "checkpoints set by train.steps and train.checkpoint_every"
        )
    if not beta_specs:
        raise ConfigError("beta grid is empty", key="agg.beta_grid")
    if not k_specs:
        raise ConfigError(f"no k at or below the {num_ckpts} checkpoints", key="agg.k_grid")
    view.ensure_all_used()

    labels = parts["train"].labels
    even = np.flatnonzero(labels % 2 == 0)
    odd = np.flatnonzero(labels % 2 == 1)
    with _config_errors("diurnal schedule", "pds.period"):
        schedule = DiurnalSchedule(period, even, odd)
    eval_data = parts["test"] if save_runs else None
    configs = [replace(c, diurnal=schedule) for c in configs]
    args = [
        (model, parts, group, z, delta, beta_specs, k_specs, window, eval_data)
        for group in _contiguous_groups(configs, workers)
    ]
    results = [r for group in _run_parallel(_pds_group_worker, args, workers) for r in group]

    methods = ("baseline", "ema", "upa")
    rows = [
        summarize(f"window_std_{m}", [r[m].std(ddof=1) for r in results]) for m in methods
    ] + [summarize(f"window_mean_{m}", [r[m].mean() for r in results]) for m in methods]
    entries = []
    for name, series in (("best_ema", "ema"), ("best_upa", "upa")):
        chosen: list[AggregationSpec] = []
        for r in results:  # first-seen order keeps the file deterministic
            if r[name] not in chosen:
                chosen.append(r[name])
        for spec in chosen:
            accs = [r[series].mean() for r in results if r[name] == spec]
            entries.append(_spec_entry(spec, float(np.mean(accs)), len(accs)))
    _write_json(os.path.join(out_dir, "aggregates.json"), entries)

    with open(os.path.join(out_dir, "plot_data.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed_index,method,step,accuracy\n")
        for i, r in enumerate(results):
            for method in methods:
                for step, acc in zip(r["steps"], r[method]):
                    fh.write(f"{i},{method},{step},{float(acc)!r}\n")
    if save_runs:
        _save_runs([r["record"] for r in results], out_dir)
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: single-run uncertainty vs independent runs


def _uq_seed_worker(args):
    model, data, test_inputs, outer_seed, eps_list, k_list, level, mode, pool, delta, radius = args
    out = {}
    pool_seeds = [derive_run_seed(outer_seed, j) for j in range(pool)]
    chosen = {k: uncertainty.independent_rows(pool_seeds, k, outer_seed) for k in k_list}
    for eps in eps_list:
        rho = privacy.epsilon_to_zcdp(eps, delta)
        configs = _theoretical_configs(model, data.n, rho, radius, pool_seeds, every=1)
        runs = trainer.dp_sgd_theoretical_runs(model, data, configs, rho=rho, delta=delta)
        # statistics of the first run's last max(k) checkpoints and of every
        # run's final checkpoint; each (eps, k) cell selects rows of these
        last = uncertainty.statistic_matrix(
            runs[0].params[-max(k_list) :], model, test_inputs, mode
        )
        final = uncertainty.statistic_matrix(
            [r.params[-1] for r in runs], model, test_inputs, mode
        )
        for k in k_list:
            # per-input widths of the last k checkpoints; their mean is the
            # checkpoint method's width
            w_ck = uncertainty.t_widths(last[-k:], level)
            w_ind = float(uncertainty.t_widths(final[chosen[k]], level).mean())
            out[(eps, k)] = (w_ck, w_ind)
    return out


def run_uq_compare(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    delta = _read_delta(view)
    radius = view.get_float("train.radius", 2.0)
    l2 = view.get_float("train.l2_reg", 0.05)
    eps_list = view.get_float_list("uq.epsilons", [1.0, 8.0])
    k_list = view.get_int_list("uq.k_values", [3, 5, 10])
    pool = view.get_int("uq.pool_runs", 10)
    level = view.get_float("uq.level", 0.95)
    mode = view.get_str("uq.statistic", "modal_class_probability")
    num_inputs = view.get_int("uq.num_test_inputs", 50)
    seeds = _resolve_seeds(view, master_seed, 20)
    data = _dataset_from_view(view, n=1000, p=10, classes=2, separation=2.0, seed=7)
    data = data.subset(np.arange(data.n), tag="train")
    if mode not in uncertainty.STATISTIC_MODES:
        raise ConfigError(f"unknown statistic mode {mode!r}", key="uq.statistic")
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be in (0, 1)", key="uq.level")
    if not eps_list:
        raise ConfigError("epsilon list is empty", key="uq.epsilons")
    if not k_list:
        raise ConfigError("k list is empty", key="uq.k_values")
    if min(k_list) < 2:
        raise ConfigError("k must be at least 2", key="uq.k_values")
    if num_inputs < 1:
        raise ConfigError("need at least one test input", key="uq.num_test_inputs")
    if pool < max(k_list):
        raise ConfigError("pool must hold at least max(k) runs", key="uq.pool_runs")
    with _config_errors("privacy setting", "uq.epsilons"):
        rhos = [privacy.epsilon_to_zcdp(e, delta) for e in eps_list]
        shortest = min(trainer.choose_T(data.n, rho) for rho in rhos)
    if shortest < max(k_list):
        raise ConfigError(
            f"k={max(k_list)} exceeds the {shortest} checkpoints of the shortest run",
            key="uq.k_values",
        )
    view.ensure_all_used()

    model = _logistic_model(data, l2, radius)
    test_inputs = synth_classification(
        num_inputs, data.p, data.num_classes, separation=2.0, seed=99
    ).features

    args = [
        (model, data, test_inputs, s, eps_list, k_list, level, mode, pool, delta, radius)
        for s in seeds
    ]
    results = _run_parallel(_uq_seed_worker, args, workers)

    rows = []
    for eps in eps_list:
        for k in k_list:
            ck = [float(r[(eps, k)][0].mean()) for r in results]
            ind = [r[(eps, k)][1] for r in results]
            rows.append(summarize(f"width_checkpoints(eps={eps},k={k})", ck))
            rows.append(summarize(f"width_independent(eps={eps},k={k})", ind))
            rows.append(
                summarize(
                    f"frac_checkpoints_narrower(eps={eps},k={k})",
                    [1.0 if c <= i else 0.0 for c, i in zip(ck, ind)],
                )
            )

    # one canonical per-input report for the checkpoint method: the first
    # seed's first run at the first (epsilon, k) cell
    widths = results[0][(eps_list[0], k_list[0])][0]
    uncertainty.write_uq_report(
        os.path.join(out_dir, "uq_report.json"), k_list[0], level, mode, widths
    )
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: variance-estimator bias on the Langevin simulator


def _make_statistic(name: str, center: np.ndarray) -> dpld.Statistic:
    if name == "clamped_coord":
        return dpld.make_clamped_coordinate(center)
    if name == "sign_coord":
        return dpld.make_sign_coordinate(center)
    if name == "norm_excess":
        return dpld.make_clamped_norm_excess(center)
    raise ConfigError(f"unknown statistic {name!r}", key="dpld.statistic")


def _dpld_point_worker(args):
    config, times, stat_name, trials, seed, oracle = args
    stat = _make_statistic(stat_name, config.model.center)
    return dpld.variance_bias_experiment(config, times, stat, trials, seed, oracle)


def run_dpld_bias(view: ConfigView, out_dir: str, master_seed: int, workers: int):
    dim = view.get_int("dpld.dim", 4)
    sigma = view.get_float("dpld.sigma", 1.0)
    k = view.get_int("dpld.k", 5)
    trials = view.get_int("dpld.trials", 10_000)
    points = view.get_float_pairs(
        "dpld.points",
        [
            (20.0, 20.0),
            (0.01, 0.01),
            (0.1, 10.0),
            (1.0, 10.0),
            (10.0, 10.0),
            (10.0, 0.1),
            (10.0, 1.0),
        ],
    )
    distance = view.get_float("dpld.start_distance", 10.0)
    stat_name = view.get_str("dpld.statistic", "clamped_coord")
    oracle_samples = view.get_int("dpld.oracle_samples", 1_000_000)
    c_constant = view.get_float("dpld.c_constant", 4.0)
    delta_target = view.get_float("dpld.delta_target", 1e-2)
    if not dpld.MIN_TRIALS <= trials < dpld.MAX_TRIALS:
        raise ConfigError(
            f"need at least {dpld.MIN_TRIALS} and fewer than 2**31 trials", key="dpld.trials"
        )
    if oracle_samples < dpld.MIN_ORACLE_SAMPLES:
        raise ConfigError(
            f"need at least {dpld.MIN_ORACLE_SAMPLES} samples", key="dpld.oracle_samples"
        )
    if dim < 1:
        raise ConfigError("dim must be at least 1", key="dpld.dim")
    if not points:
        raise ConfigError("need at least one t1:gap point", key="dpld.points")
    stat = _make_statistic(stat_name, np.zeros(dim))
    view.ensure_all_used()

    model = QuadraticLoss(np.zeros(dim))
    theta_start = np.full(dim, distance / math.sqrt(dim))
    with _config_errors("dpld setting"):
        config = dpld.LDConfig(
            model=model,
            theta_start=theta_start,
            sigma=sigma,
            c_constant=c_constant,
            delta_target=delta_target,
        )
        all_times = [dpld.CheckpointTimes(t1=t1, gap=gap, k=k) for t1, gap in points]
    # every point shares the stationary law and the statistic, so one oracle
    # serves them all; it takes the first point's seed
    oracle = dpld.stationary_oracle_V(
        *dpld.stationary_law(config), stat, oracle_samples, seed=derive_run_seed(master_seed, 0)
    )
    args = [
        (config, times, stat_name, trials, derive_run_seed(master_seed, i), oracle)
        for i, times in enumerate(all_times)
    ]
    reports = _run_parallel(_dpld_point_worker, args, workers)

    dpld.write_dpld_report(reports, os.path.join(out_dir, "dpld_report.csv"))
    rows = [
        ResultRow(
            f"abs_bias(t1={r.times.t1},gap={r.times.gap})",
            r.abs_bias,
            r.combined_se,
            r.trials,
        )
        for r in reports
    ]
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# dispatch


_TASK_FUNCS = {
    "train": run_single_training,
    "risk_compare": run_risk_compare,
    "aggregate_eval": run_aggregate_eval,
    "pds_eval": run_pds_eval,
    "uq_compare": run_uq_compare,
    "dpld_bias": run_dpld_bias,
    "ema_sweep": run_ema_sweep,
    "k_sweep": run_k_sweep,
}


def normalize_task(name: str) -> str | None:
    """Accept snake_case, camelCase, and hyphenated task spellings."""
    folded = name.strip().lower().replace("_", "").replace("-", "")
    for task in _TASK_FUNCS:
        if folded == task.replace("_", ""):
            return task
    return None


def _write_status(out_dir: str, status: str, error: str | None) -> None:
    payload = {"status": status}
    if error is not None:
        payload["error"] = error
    _write_json(os.path.join(out_dir, "status.json"), payload)


def run_experiment(
    view: ConfigView,
    out_dir: str,
    master_seed: int = 0,
    workers: int | None = None,
    task: str | None = None,
) -> ResultTable:
    """Run one configured task and write its artifacts under out_dir.

    Unknown config keys fail before compute starts. A numeric divergence
    mid-run leaves a status.json flagging the partial output, then
    propagates (the CLI maps it to exit code 3).
    """
    if task is None:
        task = normalize_task(view.get_str("task"))
        if task is None:
            raise ConfigError("unknown task name", key="task")
    view.get_str("task", None)
    view.get_str("out_dir", None)
    config_workers = view.get_int("workers", 1)
    if workers is None:
        workers = config_workers
    if workers < 1:
        raise ConfigError("workers must be at least 1", key="workers")
    os.makedirs(out_dir, exist_ok=True)

    try:
        table = _TASK_FUNCS[task](view, out_dir, master_seed, workers)
    except NumericDivergenceError as exc:
        _write_status(out_dir, "partial", str(exc))
        raise
    table.write_csv(os.path.join(out_dir, "table.csv"))
    _write_status(out_dir, "complete", None)
    return table
