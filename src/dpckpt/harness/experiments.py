"""Seeded multi-run experiment tasks.

run_experiment owns the life of a run: its one read_keys call parses and
checks every value of the task's KEY_TABLES entry and rejects a key the
table does not list; then it applies the workers override and resolves
the seed list. The driver run_<task>(cfg, out_dir, master_seed) only
computes; its cross-key checks and the library objects that own the other
value rules come first, so a config that cannot finish fails before any
training or simulation starts.

A training task builds one TrainerConfig for all of its seeds. One
_train_and_score call cuts the seed list into contiguous groups, trains
each group as one batched trainer call, scores every record and returns
the scores in seed order; _run_parallel fans the groups (or uq_compare's
seeds, or dpld_bias's points) out to a process pool when workers > 1.
Results are deterministic functions of the config plus the master seed,
independent of worker count. The harness writes every artifact, in the
parent process, through _write_json and _write_csv.
"""

import csv
import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from typing import Sequence

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
from .config import ConfigView, Key, read_keys

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
        _write_csv(path, [f.name for f in fields(ResultRow)], map(astuple, self.rows))


def summarize(setting: str, values: Sequence[float]) -> ResultRow:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("cannot summarize an empty value list")
    std = float(arr.std(ddof=1)) if arr.size >= 2 else math.nan
    return ResultRow(setting, float(arr.mean()), std, int(arr.size))


# ---------------------------------------------------------------------------
# partitions and tuning


def split_dataset(
    data: DatasetHandle,
    seed: int,
    val_fraction: float = 0.1,
    heldout_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> dict[str, DatasetHandle]:
    """Shuffle and cut into train/validation/heldout/test parts."""
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
    return {
        "train": data.subset(perm[: bounds[0]]),
        "validation": data.subset(perm[bounds[0] : bounds[1]]),
        "heldout": data.subset(perm[bounds[1] : bounds[2]]),
        "test": data.subset(perm[bounds[2] : bounds[3]]),
    }


def _best_index(specs: Sequence[AggregationSpec], accs: Sequence[float]) -> int:
    """Index of the best accuracy; the one tie-break policy of tuning and
    the sweeps. Ties break toward the smaller k, then the smaller scalar
    coefficient (beta, alpha or gamma), then listing order."""

    def key(i: int) -> tuple:
        spec = specs[i]
        k = spec.k if spec.k is not None else math.inf
        scalar = next(
            (v for v in (spec.beta, spec.alpha, spec.gamma) if v is not None), math.inf
        )
        return (-accs[i], k, scalar, i)

    return min(range(len(specs)), key=key)


# ---------------------------------------------------------------------------
# applying aggregation specs to finished runs


def aggregation_accuracy(
    spec: AggregationSpec,
    record: "trainer.RunRecord",
    model,
    eval_data: DatasetHandle,
    heldout: DatasetHandle,
) -> float:
    """Accuracy on eval_data after applying one aggregation to a run; best_k
    ranks the checkpoints on heldout."""
    params, steps = record.params, record.steps
    if spec.kind in ("opa", "omv"):
        if spec.k > len(params):
            raise ValueError(f"k={spec.k} exceeds the {len(params)} checkpoints")
        vote = aggregate.opa_batch_labels if spec.kind == "opa" else aggregate.omv_batch_labels
        labels = vote(params[len(params) - spec.k :], model, eval_data)
        return float(np.mean(labels == eval_data.labels))
    if spec.kind == "best_k":
        rows = aggregate.select_best_k(params, steps, model, heldout, spec.k)
        params, steps = params[rows], steps[rows]
    return accuracy(model, aggregate.combine(spec, params, steps), eval_data)


def parse_aggregation_list(items: Sequence[str]) -> list[AggregationSpec]:
    """agg.list entries like "ema:0.9", "upa_k:5", "best_k:5:0.9" -> specs.

    The fields after the kind are its aggregate.KIND_PARAMS, in order and
    all of them: k is an int, every other parameter a float. Two entries
    of one label are a config error.
    """
    specs = []
    for item in items:
        kind, *fields = [p.strip() for p in item.split(":")]
        if kind not in aggregate.KIND_PARAMS:
            raise ConfigError(f"unknown aggregation kind {kind!r}", key="agg.list")
        names = aggregate.KIND_PARAMS[kind]
        try:
            if len(fields) != len(names):
                raise ValueError(f"{kind} takes {len(names)} field(s), got {len(fields)}")
            values = {n: int(v) if n == "k" else float(v) for n, v in zip(names, fields)}
            spec = AggregationSpec(kind, **values)
        except ValueError as exc:
            raise ConfigError(f"bad aggregation entry {item!r}: {exc}", key="agg.list") from None
        if spec.label() in (s.label() for s in specs):
            raise ConfigError(f"aggregation {spec.label()} is listed twice", key="agg.list")
        specs.append(spec)
    if not specs:
        raise ConfigError("aggregation list is empty", key="agg.list")
    return specs


# ---------------------------------------------------------------------------
# key tables
#
# A value rule that a library object owns stays in that object; the driver
# builds the object before any compute, so its ValueError is a config error.


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low), f"must be at least {low}"


def _count(low: int) -> tuple:
    """A count is bounded like a step count, below 2**31."""
    return (lambda v: low <= v <= trainer.MAX_STEPS), f"must be at least {low} and below 2**31"


def _one_of(names: Sequence[str]) -> tuple:
    return (lambda v: v in names), "must be one of " + ", ".join(names)


def _distinct(values) -> bool:
    """One or more values, none of them listed twice."""
    return 0 < len(values) == len(set(values))


_DISTINCT = (_distinct, "must list one or more distinct entries")
_DELTA = Key("train.delta", "float", 1e-5, lambda d: 0 < d < 1, "must be in (0, 1)")
_RUN_KEYS = (
    Key("task", "str", None),
    Key("out_dir", "str", None),
    Key("workers", "int", 1, *_at_least(1)),
)
_SYNTH_KEYS = ("data.n", "data.p", "data.classes", "data.separation", "data.seed")
_SPLIT_KEYS = (
    Key("data.split_seed", "int", 1, *_at_least(0)),
    Key("data.val_fraction", "float", 0.1),
    Key("data.heldout_fraction", "float", 0.1),
    Key("data.test_fraction", "float", 0.1),
)


def _training_keys(num_seeds: int, n: int, p: int, classes: int, separation: float,
                   data_seed: int) -> tuple[Key, ...]:
    """The run, seed and data keys of a training task; data.csv replaces the
    synthetic data."""
    return _RUN_KEYS + (
        Key("seeds", "int_list", None, *_DISTINCT, excludes=("num_seeds",)),
        Key("num_seeds", "int", num_seeds, *_count(1)),
        Key("data.csv", "str", None, excludes=_SYNTH_KEYS),
        Key("data.n", "int", n),
        Key("data.p", "int", p),
        Key("data.classes", "int", classes),
        Key("data.separation", "float", separation),
        Key("data.seed", "int", data_seed),
    )


def _practical_keys(steps: int, eta: float, batch: int, every: int | None) -> tuple[Key, ...]:
    return (
        Key("train.steps", "int", steps),
        Key("train.eta", "float", eta),
        Key("train.clip_norm", "float", 1.0),
        Key("train.batch_size", "int", batch),
        Key("train.checkpoint_every", "int", every),
        Key("train.noise_multiplier", "float", 1.0),
        _DELTA,
        Key("train.l2_reg", "float", 0.0),
    )


def _theoretical_keys(radius: float, l2: float, every: int | None) -> tuple[Key, ...]:
    """train.steps unset is choose_T(n, rho)."""
    return (
        Key("train.rho", "float", 0.5),
        Key("train.steps", "int", None),
        Key("train.checkpoint_every", "int", every),
        Key("train.radius", "float", radius),
        Key("train.l2_reg", "float", l2),
        _DELTA,
    )


def _scored_keys(steps: int, eta: float, separation: float) -> tuple[Key, ...]:
    """The keys that aggregate_eval, the sweeps and pds_eval share."""
    return (
        _training_keys(5, 5000, 20, 10, separation, 11) + _SPLIT_KEYS
        + _practical_keys(steps, eta, 128, 1)
    )


_TRAIN_MODE = Key("train.mode", "str", "practical")

# train-practical and train-theoretical are the train task under each
# train.mode; the other tables are named after their task.
KEY_TABLES: dict[str, tuple[Key, ...]] = {
    "train-practical": _training_keys(1, 1000, 10, 2, 2.0, 7) + (_TRAIN_MODE,)
    + _practical_keys(200, 0.1, 32, None),
    "train-theoretical": _training_keys(1, 1000, 10, 2, 2.0, 7) + (_TRAIN_MODE,)
    + _theoretical_keys(1.0, 0.0, None),
    "risk_compare": _training_keys(20, 1000, 10, 2, 2.0, 7) + _theoretical_keys(2.0, 1.0, 1) + (
        Key("data.unit_norm", "bool", True),
        Key("agg.list", "str_list", ("upa_tail:0.5", "pda:1.0")),
        Key("save_runs", "bool", True),
    ),
    "aggregate_eval": _scored_keys(400, 0.1, 3.0) + (
        Key("agg.list", "str_list", (
            "ema:0.9", "upa_k:5", "upa_tail:0.5", "pda:1.0", "opa:5", "omv:5", "best_k:5:0.9",
        )),
        Key("save_runs", "bool", True),
    ),
    "ema_sweep": _scored_keys(400, 0.1, 3.0) + (
        Key("sweep.betas", "float_list", DEFAULT_BETA_GRID, *_DISTINCT),
        Key("save_runs", "bool", False),
    ),
    "k_sweep": _scored_keys(400, 0.1, 3.0) + (
        Key("sweep.ks", "int_list", DEFAULT_K_GRID, *_DISTINCT),
        Key("save_runs", "bool", False),
    ),
    "pds_eval": _scored_keys(800, 4.0, 2.0) + (
        Key("pds.period", "int", None),  # unset: an eighth of train.steps, at least 2
        Key("agg.beta_grid", "float_list", DEFAULT_BETA_GRID, *_DISTINCT),
        Key("agg.k_grid", "int_list", DEFAULT_K_GRID, *_DISTINCT),
        Key("stability.window_fraction", "float", 0.1, lambda f: 0 < f <= 1,
            "window fraction must be in (0, 1]"),
        Key("save_runs", "bool", True),
    ),
    "uq_compare": _training_keys(20, 1000, 10, 2, 2.0, 7) + (
        Key("train.radius", "float", 2.0),
        Key("train.l2_reg", "float", 0.05),
        _DELTA,
        Key("uq.epsilons", "float_list", (1.0, 8.0), *_DISTINCT),
        Key("uq.k_values", "int_list", (3, 5, 10), lambda ks: _distinct(ks) and min(ks) >= 2,
            "must list one or more distinct k, and k must be at least 2"),
        Key("uq.pool_runs", "int", 10, *_count(1)),
        Key("uq.level", "float", 0.95, lambda a: 0 < a and 1 - (1 - a) / 2 < 1,
            "level must be in (0, 1), and the t quantile's 1 - (1 - level)/2 below 1"),
        Key("uq.statistic", "str", "modal_class_probability",
            *_one_of(uncertainty.STATISTIC_MODES)),
        Key("uq.num_test_inputs", "int", 50, *_count(1)),
    ),
    "dpld_bias": _RUN_KEYS + (
        Key("dpld.dim", "int", 4, *_count(1)),
        Key("dpld.sigma", "float", 1.0),
        Key("dpld.k", "int", 5, *_count(2)),
        Key("dpld.trials", "int", 10_000, *_count(dpld.MIN_TRIALS)),
        Key("dpld.points", "float_pairs", (
            (20.0, 20.0), (0.01, 0.01), (0.1, 10.0), (1.0, 10.0), (10.0, 10.0), (10.0, 0.1),
            (10.0, 1.0),
        ), *_DISTINCT),
        # NaN and inf are left to LDConfig, whose theta_start must be finite
        Key("dpld.start_distance", "float", 10.0, lambda d: not d < 0, "must be nonnegative"),
        Key("dpld.statistic", "str", "clamped_coord", *_one_of(tuple(dpld.STATISTICS))),
    ),
}


# ---------------------------------------------------------------------------
# shared task plumbing


def _run_parallel(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], on a pool of at most `workers` processes."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here, so a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked pool starts all its processes at once, so never more than items
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


@contextmanager
def _config_errors(what: str, key: str | None = None):
    """Turn a ValueError raised in the block (a library object rejecting a
    value read from the config) into the ConfigError "bad <what>: <reason>"
    for key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}", key=key) from None


def _dataset(cfg: dict) -> DatasetHandle:
    if cfg["data.csv"] is not None:
        return load_csv(cfg["data.csv"])
    with _config_errors("data setting (data.n, data.p, data.classes, data.separation)"):
        return synth_classification(
            n=cfg["data.n"],
            p=cfg["data.p"],
            num_classes=cfg["data.classes"],
            separation=cfg["data.separation"],
            seed=cfg["data.seed"],
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


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """A header line, then one line per row; a float is its repr, which reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _spec_entry(spec: AggregationSpec, acc: float, n_seeds: int) -> dict:
    params = {name: getattr(spec, name) for name in aggregate.KIND_PARAMS[spec.kind]}
    return {
        "kind": spec.kind,
        "params": params,
        "resultingAccuracy": acc,
        "nSeeds": n_seeds,
    }


def _num_checkpoints(config: "trainer.TrainerConfig") -> int:
    return len(trainer.checkpoint_steps(config.num_steps, config.checkpoint_every))


def _check_k_fits(ks: Sequence[int | None], config: "trainer.TrainerConfig", key: str):
    """Reject, before any training, a k larger than the run's checkpoint count;
    a None k (a spec without one) always fits."""
    count = _num_checkpoints(config)
    for k in ks:
        if k is not None and k > count:
            raise ConfigError(
                f"k={k} exceeds the {count} checkpoints of a {config.num_steps}-step run", key=key
            )


def _check_batch_fits(config: "trainer.TrainerConfig", data: DatasetHandle) -> None:
    """Reject, before any training, a minibatch larger than the rows it is drawn
    from without replacement."""
    if config.batch_size > data.n:
        raise ConfigError(
            f"batch of {config.batch_size} exceeds the {data.n} training rows",
            key="train.batch_size",
        )


def _trainer_config(eta: tuple[str, float], **fields) -> "trainer.TrainerConfig":
    """The harness's only TrainerConfig construction: a value that
    TrainerConfig or its EtaSchedule (kind, value) rejects becomes a config
    error here, before any training starts."""
    with _config_errors("trainer setting"):
        return trainer.TrainerConfig(eta=trainer.EtaSchedule(*eta), **fields)


def _theoretical_config(
    model, n: int, rho: float, radius: float, steps: int | None = None, every: int | None = None
) -> "trainer.TrainerConfig":
    """The config of theoretical runs under a total budget of rho-zCDP.

    T is choose_T(n, rho) unless steps is given; the step size is the
    theorem schedule for the noise that rho calibrates over T steps. A
    rho or steps that the calibration rejects is a config error, and so
    is a radius outside the trainer's precondition
    radius * max(1, lipschitz) < 1e150.
    """
    with _config_errors("trainer setting"):
        steps = trainer.choose_T(n, rho) if steps is None else steps
        noise_std = privacy.calibrate_theoretical(model.lipschitz, steps, n, rho)
        eta = trainer.theorem_step_size(radius, model.lipschitz, noise_std, model.param_dim())
    if not radius * max(1.0, model.lipschitz) < 1e150:
        raise ConfigError(
            f"radius {radius} times max(1, Lipschitz bound {model.lipschitz})"
            " is not below 1e150",
            key="train.radius",
        )
    return _trainer_config(
        (eta.kind, eta.value),
        mode="theoretical",
        num_steps=steps,
        projection_radius=radius,
        checkpoint_every=every,
    )


def _practical_config(cfg: dict) -> tuple["trainer.TrainerConfig", float]:
    """The config of practical runs and their noise multiplier."""
    config = _trainer_config(
        ("constant", cfg["train.eta"]),
        mode="practical",
        num_steps=cfg["train.steps"],
        clip_norm=cfg["train.clip_norm"],
        batch_size=cfg["train.batch_size"],
        checkpoint_every=cfg["train.checkpoint_every"],
    )
    z = cfg["train.noise_multiplier"]
    with _config_errors("trainer setting", "train.noise_multiplier"):
        privacy.calibrate_practical(config.clip_norm, z, config.num_steps, config.batch_size)
    return config, z


def _contiguous_groups(items: list, parts: int) -> list[list]:
    """items cut, in order, into at most `parts` groups of near-equal size."""
    size = -(-len(items) // parts)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _save_runs(records, out_dir: str) -> None:
    for i, record in enumerate(records):
        trainer.save_run(record, os.path.join(out_dir, "runs", f"seed_{i:03d}"))


def _train_group(train, score, seeds: list[int]) -> list[tuple]:
    return [(record, score(record)) for record in train(seeds)]


def _train_and_score(cfg: dict, out_dir: str, train, score) -> list:
    """score(record) for each seed's run, in seed order.

    train(group) is one batched trainer call. The seeds are cut into at
    most `workers` contiguous groups, one call each; a run is bit-identical
    whatever batch it trains in, so the scores do not depend on workers.
    When save_runs holds, the runs are saved under out_dir/runs.
    """
    workers = cfg["workers"]
    train_group = functools.partial(_train_group, train, score)
    groups = _run_parallel(train_group, _contiguous_groups(cfg["seeds"], workers), workers)
    results = [pair for group in groups for pair in group]
    if cfg["save_runs"]:
        _save_runs([record for record, _ in results], out_dir)
    return [scores for _, scores in results]


# ---------------------------------------------------------------------------
# task: single training run


def run_single_training(cfg: dict, out_dir: str, master_seed: int):
    seeds, delta = cfg["seeds"], cfg["train.delta"]
    if len(seeds) > 1:
        # the train table's num_seeds defaults to 1, and seeds excludes it
        raise ConfigError(
            f"the train task writes one run; got {len(seeds)} seeds",
            key="num_seeds" if cfg["num_seeds"] > 1 else "seeds",
        )
    data = _dataset(cfg)

    if cfg["train.mode"] == "theoretical":
        rho, radius = cfg["train.rho"], cfg["train.radius"]
        model = _logistic_model(data, cfg["train.l2_reg"], radius)
        config = _theoretical_config(
            model, data.n, rho, radius, cfg["train.steps"], cfg["train.checkpoint_every"]
        )
        (record,) = trainer.dp_sgd_theoretical_runs(model, data, config, seeds, rho, delta)
    else:
        config, z = _practical_config(cfg)
        model = _logistic_model(data, cfg["train.l2_reg"], 1.0)
        _check_batch_fits(config, data)
        (record,) = trainer.dp_sgd_practical_runs(model, data, config, seeds, z, delta)

    trainer.save_run(record, out_dir)
    rows = [
        ResultRow("final_train_loss", float(record.metrics[-1, 0]), math.nan, 1),
        ResultRow("num_checkpoints", float(len(record.steps)), math.nan, 1),
    ]
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: excess-risk comparison of aggregators vs the last iterate


def _excess_risks(model, data, min_loss, specs, record) -> dict:
    """Excess risk of the last iterate and of each spec's aggregate."""
    params, steps = record.params, record.steps
    thetas = [params[-1]] + [aggregate.combine(spec, params, steps) for spec in specs]
    excess = model.loss_full(np.array(thetas), data) - min_loss
    return dict(zip(["last"] + [spec.label() for spec in specs], excess.tolist()))


def run_risk_compare(cfg: dict, out_dir: str, master_seed: int):
    rho, radius = cfg["train.rho"], cfg["train.radius"]
    data = _dataset(cfg)
    feats = data.features
    if cfg["data.unit_norm"]:
        # Unit-norm rows keep the per-example gradient bound at 1 + l2*radius,
        # the usual setup when a Lipschitz constant replaces gradient clipping.
        with np.errstate(over="ignore"):  # an overflowed norm is caught below
            norms = np.linalg.norm(feats, axis=1, keepdims=True)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            # a row divided by its overflowed norm would be all zeros
            raise ConfigError(
                f"the norm of feature row {bad[0]} overflows, so it cannot be scaled to unit norm",
                key="data.unit_norm",
            )
        feats = feats / np.maximum(norms, 1e-12)
    data = DatasetHandle(feats, data.labels, data.num_classes)
    specs = parse_aggregation_list(cfg["agg.list"])
    output_space = [spec.label() for spec in specs if spec.kind in ("opa", "omv", "best_k")]
    if output_space:
        raise ConfigError(
            f"excess risk needs parameter-space aggregations; {', '.join(output_space)} "
            "aggregate predictions",
            key="agg.list",
        )

    model = _logistic_model(data, cfg["train.l2_reg"], radius)
    config = _theoretical_config(
        model, data.n, rho, radius, cfg["train.steps"], cfg["train.checkpoint_every"]
    )
    _check_k_fits([spec.k for spec in specs], config, "agg.list")
    min_loss = trainer.min_loss_in_ball(model, data, radius)

    # the per-step loss is read only by the saved runs' metrics.csv
    train = functools.partial(
        trainer.dp_sgd_theoretical_runs, model, data, config, rho=rho, delta=cfg["train.delta"],
        record_loss=cfg["save_runs"],
    )
    results = _train_and_score(
        cfg, out_dir, train, functools.partial(_excess_risks, model, data, min_loss, specs)
    )
    rows = [summarize("excess_last", [r["last"] for r in results])]
    for spec in specs:
        label = spec.label()
        rows.append(summarize(f"excess_{label}", [r[label] for r in results]))
    for spec in specs:
        label = spec.label()
        wins = [1.0 if r[label] < r["last"] else 0.0 for r in results]
        rows.append(summarize(f"frac_{label}_beats_last", wins))
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: aggregation accuracy evaluation (and the two sweep variants)


def _accuracies(model, parts, specs, eval_part, record) -> dict:
    """Accuracy on the eval_part partition of the last iterate and of each spec."""
    target = parts[eval_part]
    scores = {"last": accuracy(model, record.params[-1], target)}
    for spec in specs:
        scores[spec.label()] = aggregation_accuracy(spec, record, model, target, parts["heldout"])
    return scores


def _practical_setup(cfg: dict):
    """Shared data/model/config values of the practical-trainer tasks:
    (model, partitions, config, noise multiplier)."""
    config, z = _practical_config(cfg)
    parts = split_dataset(
        _dataset(cfg),
        seed=cfg["data.split_seed"],
        val_fraction=cfg["data.val_fraction"],
        heldout_fraction=cfg["data.heldout_fraction"],
        test_fraction=cfg["data.test_fraction"],
    )
    model = _logistic_model(parts["train"], cfg["train.l2_reg"], 1.0)
    return model, parts, config, z


def _run_scored(
    cfg: dict, out_dir: str, specs: Sequence[AggregationSpec], specs_key: str, eval_part: str
) -> tuple[list[ResultRow], list[float]]:
    """Train the seeds on the practical trainer and score every spec on the
    eval_part partition: one row per spec, also written to aggregates.json,
    and the last iterate's accuracy per seed. When save_runs holds, the runs
    are saved with their per-step test accuracy."""
    model, parts, config, z = _practical_setup(cfg)
    _check_k_fits([spec.k for spec in specs], config, specs_key)
    _check_batch_fits(config, parts["train"])

    # the per-step loss and accuracy are read only by the saved runs' metrics.csv
    train = functools.partial(
        trainer.dp_sgd_practical_runs, model, parts["train"], config, noise_multiplier=z,
        delta=cfg["train.delta"], eval_data=parts["test"] if cfg["save_runs"] else None,
        record_loss=cfg["save_runs"],
    )
    results = _train_and_score(
        cfg, out_dir, train, functools.partial(_accuracies, model, parts, specs, eval_part)
    )
    rows = [summarize(spec.label(), [r[spec.label()] for r in results]) for spec in specs]
    entries = [_spec_entry(spec, row.mean, row.n_seeds) for spec, row in zip(specs, rows)]
    _write_json(os.path.join(out_dir, "aggregates.json"), entries)
    return rows, [r["last"] for r in results]


def run_aggregate_eval(cfg: dict, out_dir: str, master_seed: int):
    specs = parse_aggregation_list(cfg["agg.list"])
    rows, last = _run_scored(cfg, out_dir, specs, "agg.list", "test")
    return ResultTable([summarize("last", last)] + rows)


def _run_sweep(cfg: dict, out_dir: str, specs: list[AggregationSpec], key: str) -> ResultTable:
    """Validation rows of one spec grid, then the winner's row."""
    rows, _ = _run_scored(cfg, out_dir, specs, key, "validation")
    best = rows[_best_index(specs, [row.mean for row in rows])]
    rows.append(ResultRow(f"best={best.setting}", best.mean, best.std, best.n_seeds))
    return ResultTable(rows)


def run_ema_sweep(cfg: dict, out_dir: str, master_seed: int):
    specs = _grid_specs("ema", "beta", cfg["sweep.betas"], "sweep.betas")
    return _run_sweep(cfg, out_dir, specs, "sweep.betas")


def run_k_sweep(cfg: dict, out_dir: str, master_seed: int):
    specs = _grid_specs("upa_k", "k", cfg["sweep.ks"], "sweep.ks")
    return _run_sweep(cfg, out_dir, specs, "sweep.ks")


# ---------------------------------------------------------------------------
# task: periodically shifting distribution, aggregation as a stabilizer


def _pds_scores(model, parts, beta_specs, k_specs, window, record) -> dict:
    """Tune EMA and UPA on validation, then the test accuracy series of the
    raw checkpoints and of both winners over the trailing window.

    A spec's validation score is the mean accuracy of its rolling aggregate
    over the window, not its final value: under a shifting distribution the
    endpoint rewards phase luck. _best_index breaks the ties. Specs with
    one aggregate.window_key have equal windows bit for bit (EMA caps that
    never bind share one), so each distinct key's window is rolled and
    scored once. The scan keeps only the window of its family's best spec
    so far, which the winner's test series reads; a spec whose key was
    seen reads that window when it is the best one's, else rolls its own."""
    params, steps = record.params, record.steps
    test = parts["test"]
    scored: dict[bytes | AggregationSpec, float] = {}
    scores = {"steps": steps[-window:], "baseline": accuracy(model, params[-window:], test)}
    for name, specs in (("ema", beta_specs), ("upa", k_specs)):
        accs: list[float] = []
        best_key = None
        for i, spec in enumerate(specs):
            key, rows = aggregate.window_key(spec, len(params)), None
            if key not in scored:
                rows = aggregate.rolling(spec, params, steps, window)
                scored[key] = float(np.mean(accuracy(model, rows, parts["validation"])))
            accs.append(scored[key])
            if _best_index(specs[: i + 1], accs) == i:
                if rows is None:
                    rows = best_rows if key == best_key else aggregate.rolling(
                        spec, params, steps, window
                    )
                best, best_rows, best_key = spec, rows, key
            del rows  # the next window rolls beside the best one only
        scores["best_" + name], scores[name] = best, accuracy(model, best_rows, test)
    return scores


def run_pds_eval(cfg: dict, out_dir: str, master_seed: int):
    # Large steps and nearer clusters make each oscillation phase reshape the
    # model, so the per-step accuracy swings the aggregates are meant to tame
    # actually show up at this scale.
    model, parts, config, z = _practical_setup(cfg)
    num_ckpts = _num_checkpoints(config)
    window = max(2, int(round(cfg["stability.window_fraction"] * num_ckpts)))
    if window > num_ckpts:
        raise ConfigError(
            f"the stability window of {window} checkpoints exceeds the {num_ckpts} "
            "checkpoints set by train.steps and train.checkpoint_every"
        )
    beta_specs = _grid_specs("ema", "beta", cfg["agg.beta_grid"], "agg.beta_grid")
    k_grid = [k for k in cfg["agg.k_grid"] if k <= num_ckpts]
    k_specs = _grid_specs("upa_k", "k", k_grid, "agg.k_grid")
    if not k_specs:
        raise ConfigError(f"no k at or below the {num_ckpts} checkpoints", key="agg.k_grid")

    period = cfg["pds.period"]
    if period is None:
        period = max(2, config.num_steps // 8)
    labels = parts["train"].labels
    even, odd = np.flatnonzero(labels % 2 == 0), np.flatnonzero(labels % 2 == 1)
    for parity, rows in (("even", even), ("odd", odd)):
        if rows.size == 0:
            data = cfg["data.csv"] or "the synthetic data"
            raise ConfigError(
                f"the training split of {data} has no {parity}-label row, and the "
                "diurnal schedule mixes the even- and odd-label rows"
            )
    with _config_errors("diurnal schedule", "pds.period"):
        schedule = DiurnalSchedule(period, even, odd)
    train = functools.partial(
        trainer.dp_sgd_practical_runs, model, parts["train"], replace(config, diurnal=schedule),
        noise_multiplier=z, delta=cfg["train.delta"],
        eval_data=parts["test"] if cfg["save_runs"] else None, record_loss=cfg["save_runs"],
    )
    results = _train_and_score(
        cfg, out_dir, train,
        functools.partial(_pds_scores, model, parts, beta_specs, k_specs, window),
    )

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

    _write_csv(
        os.path.join(out_dir, "plot_data.csv"), ["seed_index", "method", "step", "accuracy"],
        [
            [i, method, step, acc]
            for i, r in enumerate(results)
            for method in methods
            for step, acc in zip(r["steps"], r[method])
        ],
    )
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: single-run uncertainty vs independent runs


def _uq_widths(model, data, test_inputs, cfg: dict, budgets: list, outer_seed: int) -> dict:
    """(eps, k) -> (per-input checkpoint widths, mean independent width)
    for one outer seed, whose pool trains as one batch per epsilon.
    budgets holds each epsilon's (rho, TrainerConfig)."""
    k_list, level, mode = cfg["uq.k_values"], cfg["uq.level"], cfg["uq.statistic"]
    out = {}
    pool_seeds = [derive_run_seed(outer_seed, j) for j in range(cfg["uq.pool_runs"])]
    chosen = {k: uncertainty.independent_rows(pool_seeds, k, outer_seed) for k in k_list}
    for eps, (rho, config) in zip(cfg["uq.epsilons"], budgets):
        runs = trainer.dp_sgd_theoretical_runs(
            model, data, config, pool_seeds, rho, cfg["train.delta"], record_loss=False
        )
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


def run_uq_compare(cfg: dict, out_dir: str, master_seed: int):
    eps_list, k_list = cfg["uq.epsilons"], cfg["uq.k_values"]
    data = _dataset(cfg)
    if cfg["uq.pool_runs"] < max(k_list):
        raise ConfigError("pool must hold at least max(k) runs", key="uq.pool_runs")
    with _config_errors("privacy setting", "uq.epsilons"):
        rhos = [privacy.epsilon_to_zcdp(e, cfg["train.delta"]) for e in eps_list]
        steps = [trainer.choose_T(data.n, rho) for rho in rhos]

    model = _logistic_model(data, cfg["train.l2_reg"], cfg["train.radius"])
    budgets = [
        (rho, _theoretical_config(model, data.n, rho, cfg["train.radius"], T, every=1))
        for rho, T in zip(rhos, steps)
    ]
    shortest = min((config for _, config in budgets), key=_num_checkpoints)
    _check_k_fits(k_list, shortest, "uq.k_values")
    test_inputs = synth_classification(
        cfg["uq.num_test_inputs"], data.p, data.num_classes, separation=2.0, seed=99
    )

    results = _run_parallel(
        functools.partial(_uq_widths, model, data, test_inputs, cfg, budgets),
        cfg["seeds"], cfg["workers"],
    )

    rows = []
    for eps in eps_list:
        for k in k_list:
            ck = [float(r[(eps, k)][0].mean()) for r in results]
            ind = [r[(eps, k)][1] for r in results]
            rows.append(summarize(f"width_checkpoints(eps={eps},k={k})", ck))
            rows.append(summarize(f"width_independent(eps={eps},k={k})", ind))
            wins = [1.0 if c <= i else 0.0 for c, i in zip(ck, ind)]
            rows.append(summarize(f"frac_checkpoints_narrower(eps={eps},k={k})", wins))

    # one canonical per-input report for the checkpoint method: the first
    # seed's first run at the first (epsilon, k) cell
    widths = results[0][(eps_list[0], k_list[0])][0]
    _write_json(os.path.join(out_dir, "uq_report.json"), {
        "method": "last_k_checkpoints",
        "k": k_list[0],
        "level": cfg["uq.level"],
        "statisticMode": cfg["uq.statistic"],
        "averageWidth": float(widths.mean()),
        "perInputWidths": [float(w) for w in widths],
    })
    return ResultTable(rows)


# ---------------------------------------------------------------------------
# task: variance-estimator bias on the Langevin simulator


def _dpld_point(config, stat_name: str, trials: int, point) -> "dpld.VarianceBiasReport":
    """The bias experiment at one (times, seed) point."""
    times, seed = point
    return dpld.variance_bias_experiment(config, times, stat_name, trials, seed)


def run_dpld_bias(cfg: dict, out_dir: str, master_seed: int):
    dim, stat_name, trials = cfg["dpld.dim"], cfg["dpld.statistic"], cfg["dpld.trials"]
    model = QuadraticLoss(np.zeros(dim))
    with _config_errors("dpld setting", key="dpld.dim"):
        dpld.STATISTICS[stat_name](model.center)  # norm_excess caps the dimension
    theta_start = np.full(dim, cfg["dpld.start_distance"] / math.sqrt(dim))
    with _config_errors("dpld setting"):
        config = dpld.LDConfig(
            model=model,
            theta_start=theta_start,
            sigma=cfg["dpld.sigma"],
        )
        all_times = [
            dpld.CheckpointTimes(t1=t1, gap=gap, k=cfg["dpld.k"]) for t1, gap in cfg["dpld.points"]
        ]
    points = [(times, derive_run_seed(master_seed, i)) for i, times in enumerate(all_times)]
    reports = _run_parallel(
        functools.partial(_dpld_point, config, stat_name, trials), points, cfg["workers"]
    )

    _write_csv(
        os.path.join(out_dir, "dpld_report.csv"),
        ["t1", "gap", "k", "trials", "mean_S", "oracle_V", "abs_bias", "burn_in_bound"],
        [
            [r.times.t1, r.times.gap, r.times.k, r.trials, r.mean_s, r.oracle_v, r.abs_bias,
             r.burn_in_bound]
            for r in reports
        ],
    )
    return ResultTable([
        ResultRow(f"abs_bias(t1={r.times.t1},gap={r.times.gap})", r.abs_bias, r.se_mean_s, r.trials)
        for r in reports
    ])


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

    The task's key table is read and checked before its driver starts;
    workers, when given, overrides the config's. A numeric divergence
    mid-run leaves a status.json flagging the partial output, then
    propagates (the CLI maps it to exit code 3).
    """
    if task is None:
        task = normalize_task(view.raw("task"))
        if task is None:
            raise ConfigError("unknown task name", key="task")
    if workers is not None and workers < 1:
        raise ConfigError("workers must be at least 1", key="workers")
    os.makedirs(out_dir, exist_ok=True)
    # the train task's table follows train.mode
    table_name = "train-" + view.raw("train.mode", "practical") if task == "train" else task
    if table_name not in KEY_TABLES:
        raise ConfigError(f"unknown trainer mode {view.raw('train.mode')!r}", key="train.mode")
    cfg = read_keys(view, KEY_TABLES[table_name])
    if workers is not None:
        cfg["workers"] = workers
    if "seeds" in cfg and cfg["seeds"] is None:
        cfg["seeds"] = [derive_run_seed(master_seed, i) for i in range(cfg["num_seeds"])]

    try:
        table = _TASK_FUNCS[task](cfg, out_dir, master_seed)
    except NumericDivergenceError as exc:
        _write_status(out_dir, "partial", str(exc))
        raise
    table.write_csv(os.path.join(out_dir, "table.csv"))
    _write_status(out_dir, "complete", None)
    return table
