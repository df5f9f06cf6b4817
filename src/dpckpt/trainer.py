"""DP-SGD trainers emitting checkpoint streams.

A TrainerConfig holds everything about a run but its seed; an unset
checkpoint_every becomes ceil(num_steps / 2048) when it is built. Both
trainers take one config and a list of S seeds and run one loop,
_dp_sgd_runs, over an (S, p) iterate matrix whose rows are the seeds'
runs; each gives one RunRecord per seed, bit-equal to the run trained
alone, so one run is the seed list [seed]. Step t takes the mode's
gradient g at theta_{t-1} on its batch, adds the seed's noise times the
calibrated std, sets theta_t = theta_{t-1} - eta_t g, projects it if the
mode does, and stops every run at the first step with a row outside the
ball of model.finite_loss_radius(data, B), inside which every loss on B
rows is finite. What each mode supplies:

               theoretical                        practical
  start        the origin                         uniform in [-0.01, 0.01]^p
  batches      none: the data is the batch        uniform or diurnal (S, B)
                                                  index matrices
  gradient     model.grad_full                    model.clipped_grad_mean
  projection   project_l2 onto radius R           none
  noise std    calibrate_theoretical: the whole   calibrate_practical: plain
               T-step run is rho-zCDP             T-fold composition
  B            n                                  batch_size
  chunk        rng.steps_per_draw(S, p)           rng.steps_per_draw(S, max(p, B))
  train_loss   model.loss_full on the data        model.loss_full on the batch
  eval_acc     NaN                                accuracy on eval_data, too

The loop runs a chunk of steps at a time. A chunk draws the noise of all
its seeds with one rng.gaussian_rows call, an (S, count, p) array whose
step-t rows are row t - 1 of each seed's lane 0 of STREAM_NOISE, and asks
the mode for the chunk's batches with one call: in practical mode the
(count, S, B) index matrices as model.Batches, whose per-example terms
(squared feature norms, and the softmax head's true-class logit offsets)
are gathered for the whole chunk at once. It then takes its steps, each
with one gradient call, which reads row r of those terms at the chunk's
r-th step and gathers its own batch design, and keeps their
iterates. A projected step takes the iterate's squared norms once, before
project_l2, which reads them: a finite row ends within a few ulp of the
ball, so when the finite-loss ball's squared radius is at least twice the
ball's, finite norms pass the divergence check, and only a NaN or
overflowed norm (or a smaller finite-loss ball) makes the check take the
projected rows' norms. After the chunk,
one loss_full call and one accuracy call score the iterates of every
steps_per_draw(S, max(p, B)) of its steps, the metrics a run records
(with B = n, a theoretical chunk can hold several such blocks). Each
stream row is addressed by (seed, step) and each kernel scores a row
alone, so neither the chunk nor the scoring block changes a bit. A run
that diverges scores the chunk's earlier steps first, so an earlier
step's scoring error is the one raised.

A practical minibatch is row indices into the training data. Uniform
batches (without replacement) come from one generator per seed,
repositioned to each step by the run's one rng.step_generators iterator,
which equals its own (seed, step) generator bit for bit. Diurnal batches
come from one rng.raw_rows draw of STREAM_BATCH per seed per chunk, step
t at row t - 1 of lane 0, and one diurnal_draw call that maps the
chunk's words to its batches.

A run is its checkpoints: RunRecord holds the (K, p) float64 checkpoint
matrix and its (K,) step vector, the (params, steps) pair the aggregators
read, and save_run/load_run write and read that matrix as it is.

Runs are deterministic functions of (model, data, config, seed): all noise,
batch selection, and initialization draws are addressed by
(seed, stream, step) through the counter-based generator in rng.py, so
concurrent runs can never perturb each other.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NumericDivergenceError
from .model import (
    DatasetHandle,
    DiurnalSchedule,
    LossModel,
    accuracy,
    diurnal_draw,
    project_l2,
    row_sq_norms,
)
from .privacy import PrivacyBudget, calibrate_practical, calibrate_theoretical

# ---------------------------------------------------------------------------
# configuration

# the largest step count, the bound dpld.MAX_TRIALS puts on trials
MAX_STEPS = 2**31 - 1


@dataclass(frozen=True)
class EtaSchedule:
    """Step-size schedule: eta_t = value (constant) or value/sqrt(t)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("constant", "inverse_sqrt"):
            raise ValueError(f"unknown eta schedule kind {self.kind!r}")
        if not 0 < self.value < math.inf:
            raise ValueError("eta value must be positive and finite")

    def at(self, t: int) -> float:
        if t < 1:
            raise ValueError("step index starts at 1")
        if self.kind == "constant":
            return self.value
        return self.value / math.sqrt(t)


def theorem_step_size(
    radius: float, lipschitz: float, noise_std: float, dim: int
) -> EtaSchedule:
    """Default schedule for the full-gradient trainer.

    eta_t = 2 R / (G_eff sqrt(t)) with G_eff = L + sigma_b * sqrt(p), the
    expected magnitude of the noisy gradient.
    """
    g_eff = lipschitz + noise_std * math.sqrt(dim)
    return EtaSchedule("inverse_sqrt", 2.0 * radius / g_eff)


@dataclass(frozen=True)
class TrainerConfig:
    mode: str  # "theoretical" | "practical"
    num_steps: int
    eta: EtaSchedule
    projection_radius: float = 1.0
    clip_norm: float = 1.0
    batch_size: int = 32
    checkpoint_every: int | None = None  # None: ceil(num_steps / 2048), set at construction
    diurnal: DiurnalSchedule | None = None

    def __post_init__(self):
        if self.mode not in ("theoretical", "practical"):
            raise ValueError(f"unknown trainer mode {self.mode!r}")
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError("num_steps must be at least 1 and below 2**31")
        if not self.projection_radius > 0:
            raise ValueError("projection_radius must be positive")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.diurnal is not None and self.mode != "practical":
            raise ValueError("a diurnal schedule needs practical mode")
        if self.checkpoint_every is None:  # at most 2048 checkpoints
            object.__setattr__(self, "checkpoint_every", math.ceil(self.num_steps / 2048))
        elif not 1 <= self.checkpoint_every <= self.num_steps:
            raise ValueError("checkpoint_every must lie in [1, num_steps]")


@dataclass
class Checkpoint:
    step: int
    params: np.ndarray


@dataclass
class RunRecord:
    """One run: its seed, the (K, p) checkpoint matrix, its (K,) steps, and metrics.

    Row i of params is theta after step steps[i]; metrics has one row per step.
    """

    config: TrainerConfig
    seed: int
    budget: PrivacyBudget
    params: np.ndarray  # (K, p) float64, one row per checkpoint
    steps: np.ndarray  # (K,) checkpoint steps
    metrics: np.ndarray  # (num_steps, 2): train_loss, eval_acc (nan if unset)

    # Kept because the benchmark's reload check and AC9 read them; the
    # package itself reads params and steps directly.
    @property
    def checkpoints(self) -> list[Checkpoint]:
        return [Checkpoint(int(t), row) for t, row in zip(self.steps, self.params)]

    def checkpoint_params(self) -> np.ndarray:
        """A copy of the (K, p) checkpoint matrix."""
        return self.params.copy()

    def final_params(self) -> np.ndarray:
        return self.params[-1]


# ---------------------------------------------------------------------------
# core operations


def choose_T(n: int, rho: float) -> int:
    """Step count ceil(n * rho) used by the theoretical trainer."""
    if n < 1 or not rho > 0:
        raise ValueError("need n >= 1 and rho > 0")
    if not math.isfinite(rho):
        raise ValueError("an infinite rho (no noise) needs an explicit step count")
    if n * rho > MAX_STEPS:
        raise ValueError(f"ceil(n * rho) = {n * rho:.3g} steps is not below 2**31")
    return max(1, math.ceil(n * rho))


def checkpoint_steps(num_steps: int, every: int) -> list[int]:
    """Steps at which checkpoints are taken: every-th step plus the final one."""
    steps = list(range(every, num_steps + 1, every))
    if not steps or steps[-1] != num_steps:
        steps.append(num_steps)
    return steps


def _dp_sgd_runs(model, data, config, seeds, start, grad, batches, width, noise_std, budget,
                 batch, radius=None, record_loss=False, eval_data=None) -> list[RunRecord]:
    """The one DP-SGD loop (see the module docstring); row s starts at start(seeds[s]).

    It runs rng.steps_per_draw(S, width) steps a chunk. batches(first, count)
    gives the chunk's model.Batches of (count, S, B) index matrices (None:
    the whole data), and grad(theta, step_batches) the (S, p) gradient at
    theta_{t-1} on a step's (S, B) Batches. record_loss and eval_data score
    the chunk's iterates after it, rng.steps_per_draw(S, max(p, B)) steps a
    call.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    S, T, dim = len(seeds), config.num_steps, model.param_dim()
    ckpt_steps = checkpoint_steps(T, config.checkpoint_every)
    ckpt_index = {t: i for i, t in enumerate(ckpt_steps)}
    finite_loss_sq = model.finite_loss_radius(data, batch) ** 2
    # a row ends a projection at most a few ulp outside the ball, so with this
    # much room every row finite before it ends inside the finite-loss ball
    ball_inside = radius is not None and 2.0 * radius * radius <= finite_loss_sq
    chunk, block = rng.steps_per_draw(S, width), rng.steps_per_draw(S, max(dim, batch))

    theta = np.stack([start(s) for s in seeds])
    ckpts = np.empty((S, len(ckpt_steps), dim))
    metrics = np.full((S, T, 2), math.nan)
    iterates = np.empty((chunk, S, dim))

    def score(first: int, count: int, drawn) -> None:
        """Fill the metrics of steps first + 1..first + count from the chunk's iterates."""
        if not (record_loss or eval_data is not None):
            return
        for lo in range(0, count, block):
            m = min(block, count - lo)
            rows, steps = iterates[lo : lo + m].reshape(m * S, dim), slice(first + lo, first + lo + m)
            if record_loss:
                at = None if drawn is None else drawn.idx[lo : lo + m].reshape(m * S, batch)
                metrics[:, steps, 0] = model.loss_full(rows, data, at).reshape(m, S).T
            if eval_data is not None:
                metrics[:, steps, 1] = accuracy(model, rows, eval_data).reshape(m, S).T

    for first in range(0, T, chunk):
        count = min(chunk, T - first)
        drawn = batches(first, count)
        if noise_std > 0:
            noise = noise_std * rng.gaussian_rows(seeds, rng.STREAM_NOISE, 0, first, count, dim)
        for r in range(count):
            t = first + r + 1
            g = grad(theta, None if drawn is None else drawn.step(r))
            if noise_std > 0:
                g = g + noise[:, r]
            theta = theta - config.eta.at(t) * g
            if radius is not None:
                with np.errstate(over="ignore"):
                    sq_norms = row_sq_norms(theta)
                theta = project_l2(theta, radius, sq_norms)
            # a NaN or infinite coordinate makes a row's squared norm, and so the
            # max, NaN or inf, which fails the comparison too; the projected
            # rows' norms are needed only if the ball has no room or a row's
            # squared norm was NaN or overflowed before the projection
            if not (ball_inside and sq_norms.max() < math.inf) and not (
                row_sq_norms(theta).max() <= finite_loss_sq
            ):
                # the chunk's earlier steps are scored first, so that a scoring
                # error of an earlier step is the one raised
                score(first, r, drawn)
                raise NumericDivergenceError("iterate left the finite-loss ball", step=t)
            iterates[r] = theta
            if t in ckpt_index:
                ckpts[:, ckpt_index[t]] = theta
        score(first, count, drawn)
    steps = np.array(ckpt_steps)
    return [RunRecord(config, s, budget, ckpts[i], steps, metrics[i]) for i, s in enumerate(seeds)]


def dp_sgd_theoretical_runs(
    model: LossModel,
    data: DatasetHandle,
    config: TrainerConfig,
    seeds: list[int],
    rho: float,
    delta: float = 1e-5,
    record_loss: bool = True,
) -> list[RunRecord]:
    """Projected full-gradient DP-SGD under a total budget of rho-zCDP, one run per seed.

    theta_0 = 0; at each step the exact gradient plus calibrated Gaussian
    noise is applied and the iterate is projected back onto the radius-R
    ball. rho = inf runs the zero-noise limit. Pass record_loss=False to
    skip the per-step training loss; the eval_acc column is always NaN, and
    so is the train_loss column when the loss is skipped. The iterates do
    not depend on it.

    The S runs advance together as the rows of one (S, p) iterate
    matrix; record s is bit-identical to the call with seeds [seeds[s]].
    An iterate row outside the ball of model.finite_loss_radius(data, n)
    stops all of them at that step. Precondition: R * (1 + 1e-12) is at
    most that radius, which R * max(1, model.lipschitz) < 1e150 ensures for
    a logistic model (its Lipschitz bound is at least the largest feature
    norm and at least l2_reg * R). Then every point of the radius-R ball
    has a finite loss, and the check fires exactly when an iterate is
    non-finite.
    """
    if config.mode != "theoretical":
        raise ValueError("config.mode must be 'theoretical'")
    if model.lipschitz is None or not math.isfinite(model.lipschitz):
        raise ValueError("theoretical mode needs a model with a finite Lipschitz bound")
    noise_std = calibrate_theoretical(model.lipschitz, config.num_steps, data.n, rho)
    dim = model.param_dim()
    return _dp_sgd_runs(
        model, data, config, seeds, lambda seed: np.zeros(dim),
        lambda theta, batches: model.grad_full(theta, data), lambda first, count: None, dim,
        noise_std, PrivacyBudget.from_rho(rho, delta), data.n,
        radius=config.projection_radius, record_loss=record_loss,
    )


def _uniform_batches(seeds: list[int], num_steps: int, n: int, batch: int):
    """batches(first, count) for uniform batches: the (count, S, B) index
    matrices of steps first + 1..first + count, each seed's step-t batch B
    of the n rows without replacement from its step generator. The one
    rng.step_generators iterator of the run repositions the generators, so
    the chunks must be asked for in order."""
    gens = rng.step_generators(seeds, rng.STREAM_BATCH, range(1, num_steps + 1))

    def draw(first: int, count: int) -> np.ndarray:
        idx = np.empty((count, len(seeds), batch), dtype=np.int64)
        for rows, step_gens in zip(idx, itertools.islice(gens, count)):
            for s, gen in enumerate(step_gens):
                rows[s] = gen.choice(n, size=batch, replace=False)
        return idx

    return draw


def _diurnal_batches(schedule: DiurnalSchedule, seeds: list[int], batch: int):
    """batches(first, count) for diurnal batches: a seed's step-t batch is
    diurnal_draw on row t - 1 of lane 0 of its STREAM_BATCH, 2B words, at
    phase t - 1 (so the first batch is all rows_a), one rng.raw_rows draw
    and one diurnal_draw call per seed per chunk."""
    return lambda first, count: np.stack([
        diurnal_draw(schedule, first, rng.raw_rows(seed, rng.STREAM_BATCH, 0, first, count, 2 * batch))
        for seed in seeds
    ], axis=1)


def dp_sgd_practical_runs(
    model: LossModel,
    data: DatasetHandle,
    config: TrainerConfig,
    seeds: list[int],
    noise_multiplier: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
    record_loss: bool = True,
) -> list[RunRecord]:
    """Minibatch DP-SGD with per-example clipping, one run per seed.

    Initialization is uniform in [-0.01, 0.01]^p from the run seed. Each
    step clips example gradients to clip_norm, averages, and perturbs the
    mean by N(0, (z*clip_norm / batch)^2) per coordinate. The reported
    budget is plain composition: rho = T / (2 z^2). noise_multiplier = 0
    degrades to non-private SGD and reports an infinite budget. Pass
    eval_data to record per-step accuracy, and record_loss=False to skip
    the per-step batch loss; each skipped metric column is NaN. The
    iterates do not depend on either.

    The S runs advance together as the rows of one (S, p) iterate matrix;
    each seed draws its own batches and noise, so record s is bit-identical
    to the call with seeds [seeds[s]]. An iterate row outside the ball of
    model.finite_loss_radius, or non-finite, stops all of them at that
    step; every row inside it has a finite batch loss, so the check is the
    same whether or not the loss is recorded.
    """
    if config.mode != "practical":
        raise ValueError("config.mode must be 'practical'")
    diurnal, batch = config.diurnal, config.batch_size
    if diurnal is None and batch > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if diurnal is not None and any(
        rows.min() < 0 or rows.max() >= data.n for rows in (diurnal.rows_a, diurnal.rows_b)
    ):
        raise ValueError(f"diurnal rows must index the {data.n} training rows")
    T, dim = config.num_steps, model.param_dim()
    mean_noise_std, rho_total = calibrate_practical(config.clip_norm, noise_multiplier, T, batch)
    if diurnal is not None:
        draw = _diurnal_batches(diurnal, seeds, batch)
    else:
        draw = _uniform_batches(seeds, T, data.n, batch)
    return _dp_sgd_runs(
        model, data, config, seeds,
        lambda seed: 0.02 * rng.uniform_vector(seed, rng.STREAM_INIT, 0, dim) - 0.01,
        lambda theta, batches: model.clipped_grad_mean(theta, data, batches, config.clip_norm),
        lambda first, count: model.batches(data, draw(first, count)),
        max(dim, batch), mean_noise_std, PrivacyBudget.from_rho(rho_total, delta),
        batch, record_loss=record_loss, eval_data=eval_data,
    )


# ---------------------------------------------------------------------------
# the constrained minimizer


def minimize_loss(model: LossModel, data: DatasetHandle | None, radius: float) -> np.ndarray:
    """Noiseless projected gradient descent to the constrained (p,) minimizer.

    Runs at step size 1/M until the projected-gradient norm drops below
    1e-9. Raises if the model has no positive smoothness constant or the
    tolerance is not reached within 100,000 steps.
    """
    if model.smoothness <= 0:
        raise ValueError("minimize_loss needs a model with positive smoothness")
    max_steps, tol = 100_000, 1e-9
    eta = 1.0 / model.smoothness
    theta = np.zeros((1, model.param_dim()))
    for _ in range(max_steps):
        nxt = project_l2(theta - eta * model.grad_full(theta, data), radius)
        if np.linalg.norm(theta - nxt) / eta < tol:
            return nxt[0]
        theta = nxt
    raise RuntimeError(
        f"projected GD did not reach gradient tolerance {tol} in {max_steps} steps"
    )


def min_loss_in_ball(model: LossModel, data: DatasetHandle | None, radius: float) -> float:
    """Minimum loss over the radius ball."""
    return float(model.loss_full(minimize_loss(model, data, radius)[None], data)[0])


# ---------------------------------------------------------------------------
# run directory persistence


def _num_out(x: float):
    # strict JSON has no Infinity/NaN literals
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def save_run(record: RunRecord, run_dir: str) -> None:
    """Write manifest.json, checkpoints.bin, and metrics.csv."""
    os.makedirs(run_dir, exist_ok=True)
    cfg = record.config
    manifest = {
        "config": {
            "mode": cfg.mode,
            "num_steps": cfg.num_steps,
            "eta_kind": cfg.eta.kind,
            "eta_value": cfg.eta.value,
            "projection_radius": cfg.projection_radius,
            "clip_norm": cfg.clip_norm,
            "batch_size": cfg.batch_size,
            "checkpoint_every": cfg.checkpoint_every,
            "diurnal_period": cfg.diurnal.period if cfg.diurnal else None,
        },
        "budget": {
            "rho": _num_out(record.budget.rho),
            "delta": record.budget.delta,
            "epsilon": _num_out(record.budget.epsilon),
        },
        "seed": record.seed,
        "dim": record.params.shape[1],
        "checkpoint_steps": record.steps.tolist(),
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with open(os.path.join(run_dir, "checkpoints.bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(record.params, dtype="<f8").tobytes())
    # tolist gives Python floats, whose repr is the shortest round-trip text
    metrics = record.metrics.tolist()
    rows = "".join(f"{t},{loss!r},{acc!r}\n" for t, (loss, acc) in enumerate(metrics, 1))
    with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,train_loss,eval_acc\n" + rows)


def load_run(run_dir: str) -> RunRecord:
    """Rebuild a RunRecord from a run directory (diurnal schedule excluded).

    A file that save_run could not have written (a missing or malformed
    manifest field, a count, seed or checkpoint step that is not an int,
    a bool where a float belongs, a dim below 1, checkpoint steps off the
    config's cadence, a checkpoint file of the wrong size, a metrics row
    that is not the next step's three numbers) is a ValueError naming the
    file."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        c = manifest["config"]
        steps, dim, seed = manifest["checkpoint_steps"], manifest["dim"], manifest["seed"]
        counts = (c["num_steps"], c["batch_size"], c["checkpoint_every"], dim, seed, *steps)
        if not all(type(v) is int for v in counts) or dim < 1:  # no bool, float or str
            raise ValueError("step counts, seed and checkpoint steps must be integers, dim >= 1")
        reals = (c["eta_value"], c["projection_radius"], c["clip_norm"])
        reals += tuple(manifest["budget"].values())
        if any(type(v) is bool for v in reals):  # float(True) is 1.0
            raise ValueError("eta_value, projection_radius, clip_norm and the budget are not bools")
        config = TrainerConfig(
            mode=c["mode"],
            num_steps=c["num_steps"],
            eta=EtaSchedule(c["eta_kind"], c["eta_value"]),
            projection_radius=c["projection_radius"],
            clip_norm=c["clip_norm"],
            batch_size=c["batch_size"],
            checkpoint_every=c["checkpoint_every"],
        )
        budget = PrivacyBudget(**{k: float(v) for k, v in manifest["budget"].items()})
        steps = np.array(steps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path} is malformed: {type(exc).__name__}: {exc}") from None
    every = config.checkpoint_every
    if steps.tolist() != checkpoint_steps(config.num_steps, every):
        raise ValueError(
            f"{manifest_path} lists checkpoint steps other than every {every}th of "
            f"{config.num_steps} steps and the last"
        )
    bin_path = os.path.join(run_dir, "checkpoints.bin")
    size, expected = os.path.getsize(bin_path), len(steps) * dim * 8
    if size != expected:
        raise ValueError(
            f"{bin_path} holds {size} bytes, not the {expected} of "
            f"{len(steps)} checkpoints of dim {dim}"
        )
    params = np.fromfile(bin_path, dtype="<f8").reshape(len(steps), dim)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    rows = []
    with open(metrics_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "step,train_loss,eval_acc":
            raise ValueError(f"unexpected header {header!r} in {metrics_path}")
        for line in fh:
            try:
                step_s, loss_s, acc_s = line.strip().split(",")
                step, row = int(step_s), (float(loss_s), float(acc_s))
            except ValueError as exc:
                raise ValueError(
                    f"{metrics_path} row {len(rows) + 1} is not step,train_loss,eval_acc: {exc}"
                ) from None
            if step != len(rows) + 1:
                raise ValueError(
                    f"{metrics_path} has step {step_s} where step {len(rows) + 1} "
                    f"belongs; rows must be steps 1..{config.num_steps} in order"
                )
            rows.append(row)
    if len(rows) != config.num_steps:
        raise ValueError(f"{metrics_path} has {len(rows)} step rows, not {config.num_steps}")
    return RunRecord(config, seed, budget, params, steps, np.array(rows))
