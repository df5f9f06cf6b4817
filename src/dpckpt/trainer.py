"""DP-SGD trainers emitting checkpoint streams.

A TrainerConfig holds everything about a run but its seed; an unset
checkpoint_every becomes ceil(num_steps / 2048) when it is built. Each
trainer takes one config and a list of S seeds, and returns one RunRecord
per seed. Two modes share the checkpoint/metrics plumbing:

  theoretical  full-gradient projected DP-SGD started at the origin,
               with per-step Gaussian noise calibrated so the whole
               T-step run is rho-zCDP. The S seeds train as one loop
               over an (S, p) iterate matrix: each step makes one
               logits pass on the S projected rows that gives the next
               step's gradient (T + 1 passes in all, the first at the
               origin). That pass is one model.loss_and_grad call when
               the step's loss is recorded, and one model.grad_full
               call, with no loss term, when record_loss is off and the
               train_loss column stays NaN. A non-finite iterate stops
               the run. The noise for a chunk of steps comes from
               one rng.gaussian_steps draw per seed. Every row equals
               the run trained alone bit for bit, so one run is the
               seed list [seed].
  practical    minibatch DP-SGD with per-example clipping, noise on the
               summed clipped gradient, and plain T-fold composition
               accounting (no subsampling amplification claimed): one
               privacy.calibrate_practical call gives the noise std on
               the mean clipped gradient and the total rho T * rho_step.
               The S seeds train as one loop over an (S, p) iterate
               matrix too. Each seed draws its step's minibatch as row
               indices into the training data. Uniform batches (without
               replacement) come from one generator built per seed and
               repositioned to each step by rng.step_generators, which
               equals its own (seed, step) generator bit for bit.
               Diurnal batches come a chunk of steps at a time: one
               rng.raw_rows draw of STREAM_BATCH per seed, step t at row
               t - 1 of lane 0, and one diurnal_draw call that maps the
               chunk's words to its batches. Either way each step has
               one (S, B) index matrix, passed with the dataset to one
               model.clipped_grad_mean call (the clipped per-example
               mean, without forming per-example gradients), which
               gathers the batch rows itself, and, when record_loss
               holds, one model.loss_full call on the same index
               matrix; with record_loss off the train_loss column stays
               NaN. An iterate row that is non-finite or outside the
               ball of model.finite_loss_radius, inside which every
               batch loss is finite, stops the run. Every row equals
               the run trained alone bit for bit.

Both modes take their noise from the one path: rng.gaussian_steps,
which draws a chunk of steps at a time, one rng.gaussian_rows call per
seed; step t's noise is row t - 1 of the seed's lane 0 of STREAM_NOISE,
whatever the chunking or the other seeds. The diurnal batches chunk
through the same rng.step_rows, so step t's batch is likewise a function
of row t - 1 of lane 0 of STREAM_BATCH alone.

A run is its checkpoints: RunRecord holds the (K, p) float64 checkpoint
matrix and its (K,) step vector, the (params, steps) pair the aggregators
read, and save_run/load_run write and read that matrix as it is.

Runs are deterministic functions of (model, data, config, seed): all noise,
batch selection, and initialization draws are addressed by
(seed, stream, step) through the counter-based generator in rng.py, so
concurrent runs can never perturb each other.
"""

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
    clip_factors,
    diurnal_draw,
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


def project_l2(rows: np.ndarray, radius: float) -> np.ndarray:
    """Project each row of an (S, p) matrix onto the origin-centered l2 ball
    of the given radius.

    A finite row whose squared norm overflows is projected through its
    direction u = x / max_j |x_j|, whose norm lies in [1, sqrt(p)], as
    u * min(max_j |x_j|, radius / ||u||).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if np.ndim(rows) != 2:
        raise ValueError(f"project_l2 takes (S, p) rows, not shape {np.shape(rows)}")
    # the stacked row dot equals np.linalg.norm's dot bit for bit, and a
    # factor of exactly 1.0 leaves rows inside the ball untouched
    with np.errstate(over="ignore"):
        sq_norms = row_sq_norms(rows)
    out = rows * clip_factors(sq_norms, radius)[:, None]
    huge = np.isinf(sq_norms)
    if huge.any():
        scale = np.abs(rows[huge]).max(axis=1)
        unit = rows[huge] / scale[:, None]
        out[huge] = unit * np.minimum(scale, radius / np.sqrt(row_sq_norms(unit)))[:, None]
    return out


def checkpoint_steps(num_steps: int, every: int) -> list[int]:
    """Steps at which checkpoints are taken: every-th step plus the final one."""
    steps = list(range(every, num_steps + 1, every))
    if not steps or steps[-1] != num_steps:
        steps.append(num_steps)
    return steps


def _check_runs(config: TrainerConfig, seeds: list[int], mode: str) -> None:
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    if not seeds:
        raise ValueError("need at least one seed")


def dp_sgd_theoretical_runs(
    model: LossModel,
    data: DatasetHandle,
    config: TrainerConfig,
    seeds: list[int],
    rho: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
    record_loss: bool = True,
) -> list[RunRecord]:
    """Projected full-gradient DP-SGD under a total budget of rho-zCDP, one run per seed.

    theta_0 = 0; at each step the exact gradient plus calibrated Gaussian
    noise is applied and the iterate is projected back onto the radius-R
    ball. rho = inf runs the zero-noise limit. Pass eval_data to record
    per-step accuracy, and record_loss=False to skip the per-step training
    loss; each skipped metric column is NaN. The iterates do not depend on
    either.

    The S runs advance together as the rows of one (S, p) iterate
    matrix; record s is bit-identical to the call with seeds [seeds[s]].
    A non-finite iterate in any row stops all of them at that step.
    Precondition: R * max(1, model.lipschitz) < 1e150. Then every point
    of the ball has finite logits and a finite loss (the Lipschitz bound
    is at least the largest feature norm and at least l2_reg * R), so an
    iterate is finite exactly when its loss is, and the squared norm that
    the projection takes does not overflow.
    """
    _check_runs(config, seeds, "theoretical")
    if model.lipschitz is None or not math.isfinite(model.lipschitz):
        raise ValueError("theoretical mode needs a model with a finite Lipschitz bound")
    dim = model.param_dim()
    T = config.num_steps
    noise_std = calibrate_theoretical(model.lipschitz, T, data.n, rho)
    ckpt_steps = checkpoint_steps(T, config.checkpoint_every)
    ckpt_index = {t: i for i, t in enumerate(ckpt_steps)}

    theta = np.zeros((len(seeds), dim))
    ckpts = np.empty((len(seeds), len(ckpt_steps), dim))
    metrics = np.full((len(seeds), T, 2), math.nan)
    noise = rng.gaussian_steps(seeds, rng.STREAM_NOISE, T, dim) if noise_std > 0 else None
    g = model.grad_full(theta, data)
    for t in range(1, T + 1):
        if noise is not None:
            g = g + noise_std * next(noise)
        theta = project_l2(theta - config.eta.at(t) * g, config.projection_radius)
        if not np.all(np.isfinite(theta)):
            raise NumericDivergenceError("iterate became non-finite", step=t)
        # theta_t's loss is step t's metric and its gradient drives step t + 1
        if record_loss:
            metrics[:, t - 1, 0], g = model.loss_and_grad(theta, data)
        else:
            g = model.grad_full(theta, data)
        if eval_data is not None:
            metrics[:, t - 1, 1] = accuracy(model, theta, eval_data)
        if t in ckpt_index:
            ckpts[:, ckpt_index[t]] = theta
    budget = PrivacyBudget.from_rho(rho, delta)
    steps = np.array(ckpt_steps)
    return [RunRecord(config, s, budget, ckpts[i], steps, metrics[i]) for i, s in enumerate(seeds)]


def _uniform_batches(seeds: list[int], num_steps: int, n: int, batch: int):
    """Yield the (S, B) index matrix of steps 1..num_steps: each seed's
    step-t batch is B of the n rows without replacement, from its
    step generator repositioned by rng.step_generators. The same matrix
    comes back every step, refilled."""
    idx = np.empty((len(seeds), batch), dtype=np.int64)
    for gens in rng.step_generators(seeds, rng.STREAM_BATCH, range(1, num_steps + 1)):
        for s, gen in enumerate(gens):
            idx[s] = gen.choice(n, size=batch, replace=False)
        yield idx


def _diurnal_batches(schedule: DiurnalSchedule, seeds: list[int], num_steps: int, batch: int):
    """Yield the (S, B) index matrix of steps 1..num_steps: a seed's step-t
    batch is diurnal_draw on row t - 1 of lane 0 of its STREAM_BATCH, 2B
    words, at phase t - 1 (so the first batch is all rows_a), one
    rng.raw_rows draw and one diurnal_draw call per seed per chunk."""
    return rng.step_rows(
        seeds, num_steps, batch,
        lambda seed, first, count: diurnal_draw(
            schedule, first, rng.raw_rows(seed, rng.STREAM_BATCH, 0, first, count, 2 * batch)
        ),
    )


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
    _check_runs(config, seeds, "practical")
    diurnal = config.diurnal
    if diurnal is None and config.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if diurnal is not None and any(
        rows.min() < 0 or rows.max() >= data.n for rows in (diurnal.rows_a, diurnal.rows_b)
    ):
        raise ValueError(f"diurnal rows must index the {data.n} training rows")
    dim = model.param_dim()
    T = config.num_steps
    mean_noise_std, rho_total = calibrate_practical(
        config.clip_norm, noise_multiplier, T, config.batch_size
    )
    ckpt_steps = checkpoint_steps(T, config.checkpoint_every)
    ckpt_index = {t: i for i, t in enumerate(ckpt_steps)}

    batch = config.batch_size
    finite_loss_sq = model.finite_loss_radius(data, batch) ** 2

    theta = np.stack([0.02 * rng.uniform_vector(s, rng.STREAM_INIT, 0, dim) - 0.01 for s in seeds])
    ckpts = np.empty((len(seeds), len(ckpt_steps), dim))
    metrics = np.full((len(seeds), T, 2), math.nan)
    noise = None
    if mean_noise_std > 0:
        noise = rng.gaussian_steps(seeds, rng.STREAM_NOISE, T, dim)
    if diurnal is not None:
        batches = _diurnal_batches(diurnal, seeds, T, batch)
    else:
        batches = _uniform_batches(seeds, T, data.n, batch)
    for t, idx in enumerate(batches, start=1):
        g = model.clipped_grad_mean(theta, data, idx, config.clip_norm)
        if noise is not None:
            g = g + mean_noise_std * next(noise)
        theta = theta - config.eta.at(t) * g
        # a NaN or infinite coordinate makes a row's squared norm NaN or inf,
        # which fails the comparison too
        if not np.all(row_sq_norms(theta) <= finite_loss_sq):
            raise NumericDivergenceError("iterate left the finite-loss ball", step=t)
        if record_loss:
            metrics[:, t - 1, 0] = model.loss_full(theta, data, idx)
        if eval_data is not None:
            metrics[:, t - 1, 1] = accuracy(model, theta, eval_data)
        if t in ckpt_index:
            ckpts[:, ckpt_index[t]] = theta
    budget = PrivacyBudget.from_rho(rho_total, delta)
    steps = np.array(ckpt_steps)
    return [RunRecord(config, s, budget, ckpts[i], steps, metrics[i]) for i, s in enumerate(seeds)]


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
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run_dir, "checkpoints.bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(record.params, dtype="<f8").tobytes())
    with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,train_loss,eval_acc\n")
        for t in range(cfg.num_steps):
            loss = repr(float(record.metrics[t, 0]))
            acc = repr(float(record.metrics[t, 1]))
            fh.write(f"{t + 1},{loss},{acc}\n")


def load_run(run_dir: str) -> RunRecord:
    """Rebuild a RunRecord from a run directory (diurnal schedule excluded).

    A file that save_run could not have written (a missing or malformed
    manifest field, checkpoint steps off the config's cadence, a checkpoint
    file of the wrong size, a metrics row that is not the next step's three
    numbers) is a ValueError naming the file."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        c = manifest["config"]
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
        steps = np.array(manifest["checkpoint_steps"])
        dim, seed = manifest["dim"], manifest["seed"]
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
