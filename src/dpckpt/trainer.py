"""DP-SGD trainers emitting checkpoint streams.

Two modes share the checkpoint/metrics plumbing:

  theoretical  full-gradient projected DP-SGD started at the origin,
               with per-step Gaussian noise calibrated so the whole
               T-step run is rho-zCDP. S runs that differ only in their
               seed train as one loop over an (S, p) iterate matrix:
               each step makes one model.loss_and_grad call on the S
               projected rows, one logits pass that gives the step's
               recorded loss and the next step's gradient (T + 1 passes
               in all, the first at the origin), and the noise for a
               chunk of steps of all S seeds comes from one
               rng.gaussian_steps draw. Every row equals the run trained
               alone bit for bit, so a one-run call is the S = 1 case of
               the same loop.
  practical    minibatch DP-SGD with per-example clipping, noise on the
               summed clipped gradient, and plain T-fold composition
               accounting (no subsampling amplification claimed).
               S runs that differ only in their seed train as one loop
               over an (S, p) iterate matrix too. Each seed draws its
               step's minibatch from its own (seed, step) generator, as
               row indices into the training data, uniformly without
               replacement or by the diurnal schedule; the S index
               vectors gather one (S, B, d) batch, and each step makes
               one model.clipped_grad_mean call (the clipped per-example
               mean, without forming per-example gradients) and one
               model.batch_loss call on it. Every row equals the run
               trained alone bit for bit.

Both modes take their noise from the one path: rng.gaussian_steps,
which draws a chunk of steps at a time and equals the per-step
rng.gaussian_vector(seed, STREAM_NOISE, t, dim) bit for bit.

A run is its checkpoints: RunRecord holds the (K, p) float64 checkpoint
matrix and its (K,) step vector, the (params, steps) pair the aggregators
read, and save_run/load_run write and read that matrix as it is.

Runs are deterministic functions of (model, data, config): all noise,
batch selection, and initialization draws are addressed by
(seed, stream, step) through the counter-based generator in rng.py, so
concurrent runs can never perturb each other.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .errors import NumericDivergenceError
from .model import DatasetHandle, DiurnalSchedule, LossModel, accuracy, diurnal_draw
from .privacy import PrivacyBudget, calibrate_practical, calibrate_theoretical, compose_zcdp

# ---------------------------------------------------------------------------
# configuration


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
    checkpoint_every: int | None = None  # None = resolve by default cadence
    seed: int = 0
    diurnal: DiurnalSchedule | None = None

    def __post_init__(self):
        if self.mode not in ("theoretical", "practical"):
            raise ValueError(f"unknown trainer mode {self.mode!r}")
        if self.num_steps < 1:
            raise ValueError("num_steps must be at least 1")
        if not self.projection_radius > 0:
            raise ValueError("projection_radius must be positive")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.checkpoint_every is not None and not (
            1 <= self.checkpoint_every <= self.num_steps
        ):
            raise ValueError("checkpoint_every must lie in [1, num_steps]")

    def resolved_checkpoint_every(self) -> int:
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        if self.num_steps <= 2048:
            return 1
        return math.ceil(self.num_steps / 2048)


@dataclass
class Checkpoint:
    step: int
    params: np.ndarray


@dataclass
class RunRecord:
    """One run: the (K, p) checkpoint matrix, its (K,) steps, and metrics.

    Row i of params is theta after step steps[i]; metrics has one row per step.
    """

    config: TrainerConfig
    budget: PrivacyBudget
    params: np.ndarray  # (K, p) float64, one row per checkpoint
    steps: np.ndarray  # (K,) checkpoint steps
    metrics: np.ndarray  # (num_steps, 2): train_loss, eval_acc (nan if unset)

    @property
    def seed(self) -> int:
        return self.config.seed

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
    return max(1, math.ceil(n * rho))


def project_l2(v: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the origin-centered l2 ball of the given radius.

    A (p,) vector is projected as one point, an (S, p) matrix row by row.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rows = np.atleast_2d(v)
    # the stacked row dot equals np.linalg.norm's dot bit for bit, and a
    # factor of exactly 1.0 leaves rows inside the ball untouched
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
    factors = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    out = rows * factors[:, None]
    return out if np.ndim(v) == 2 else out[0]


def minibatch_indices(seed: int, step: int, n: int, batch_size: int) -> np.ndarray:
    """The batch drawn at a given step; pure function of its arguments."""
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    gen = rng.step_generator(seed, rng.STREAM_BATCH, step)
    return gen.choice(n, size=batch_size, replace=False)


def checkpoint_steps(num_steps: int, every: int) -> list[int]:
    """Steps at which checkpoints are taken: every-th step plus the final one."""
    steps = list(range(every, num_steps + 1, every))
    if not steps or steps[-1] != num_steps:
        steps.append(num_steps)
    return steps


def dp_sgd_theoretical(
    model: LossModel,
    data: DatasetHandle,
    config: TrainerConfig,
    rho: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
) -> RunRecord:
    """Projected full-gradient DP-SGD under a total budget of rho-zCDP.

    theta_0 = 0; at each step the exact gradient plus calibrated Gaussian
    noise is applied and the iterate is projected back onto the radius-R
    ball. rho = inf runs the zero-noise limit. Pass eval_data to record
    per-step accuracy (otherwise that metric column is NaN).
    """
    return dp_sgd_theoretical_runs(model, data, [config], rho, delta, eval_data)[0]


def _shared_config(configs: list[TrainerConfig], mode: str) -> TrainerConfig:
    """The config of a batch of runs, which must differ only in their seed."""
    if not configs:
        raise ValueError("need at least one config")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError(f"batched {mode} runs must differ only in their seed")
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    return config


def dp_sgd_theoretical_runs(
    model: LossModel,
    data: DatasetHandle,
    configs: list[TrainerConfig],
    rho: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
) -> list[RunRecord]:
    """dp_sgd_theoretical for configs that differ only in their seed.

    The S runs advance together as the rows of one (S, p) iterate
    matrix; record s is bit-identical to dp_sgd_theoretical(configs[s]).
    A non-finite loss in any row stops all of them at that step.
    """
    config = _shared_config(configs, "theoretical")
    if model.lipschitz is None or not math.isfinite(model.lipschitz):
        raise ValueError("theoretical mode needs a model with a finite Lipschitz bound")
    seeds = [c.seed for c in configs]
    dim = model.param_dim()
    T = config.num_steps
    noise_std = calibrate_theoretical(model.lipschitz, T, data.n, rho).std
    ckpt_steps = checkpoint_steps(T, config.resolved_checkpoint_every())
    ckpt_index = {t: i for i, t in enumerate(ckpt_steps)}

    theta = np.zeros((len(seeds), dim))
    ckpts = np.empty((len(seeds), len(ckpt_steps), dim))
    metrics = np.full((len(seeds), T, 2), math.nan)
    noise = rng.gaussian_steps(seeds, rng.STREAM_NOISE, T, dim) if noise_std > 0 else None
    g = model.loss_and_grad(theta, data)[1]
    for t in range(1, T + 1):
        if noise is not None:
            g = g + noise_std * next(noise)
        theta = project_l2(theta - config.eta.at(t) * g, config.projection_radius)
        # theta_t's loss is step t's metric and its gradient drives step t + 1
        loss, g = model.loss_and_grad(theta, data)
        if not np.all(np.isfinite(loss)):
            raise NumericDivergenceError("training loss became non-finite", step=t)
        metrics[:, t - 1, 0] = loss
        if eval_data is not None:
            metrics[:, t - 1, 1] = accuracy(model, theta, eval_data)
        if t in ckpt_index:
            ckpts[:, ckpt_index[t]] = theta
    budget = PrivacyBudget.from_rho(rho, delta)
    steps = np.array(ckpt_steps)
    return [RunRecord(c, budget, ckpts[s], steps, metrics[s]) for s, c in enumerate(configs)]


def practical_noise(config: TrainerConfig, noise_multiplier: float) -> tuple[float, float]:
    """(std of the noise on the mean clipped gradient, total rho) of a practical run.

    rho is plain T-fold composition; noise_multiplier = 0 is noiseless SGD
    with an infinite budget.
    """
    if noise_multiplier > 0:
        scale, rho_step = calibrate_practical(config.clip_norm, noise_multiplier)
        return scale.std / config.batch_size, compose_zcdp([rho_step] * config.num_steps)
    if noise_multiplier == 0:
        return 0.0, math.inf
    raise ValueError("noise_multiplier must be nonnegative")


def dp_sgd_practical(
    model: LossModel,
    data: DatasetHandle,
    config: TrainerConfig,
    noise_multiplier: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
) -> RunRecord:
    """Minibatch DP-SGD with per-example clipping.

    Initialization is uniform in [-0.01, 0.01]^p from the run seed. Each
    step clips example gradients to clip_norm, averages, and perturbs the
    mean by N(0, (z*clip_norm / batch)^2) per coordinate. The reported
    budget is plain composition: rho = T / (2 z^2). noise_multiplier = 0
    degrades to non-private SGD and reports an infinite budget.
    """
    return dp_sgd_practical_runs(model, data, [config], noise_multiplier, delta, eval_data)[0]


def dp_sgd_practical_runs(
    model: LossModel,
    data: DatasetHandle,
    configs: list[TrainerConfig],
    noise_multiplier: float,
    delta: float = 1e-5,
    eval_data: DatasetHandle | None = None,
) -> list[RunRecord]:
    """dp_sgd_practical for configs that differ only in their seed.

    The S runs advance together as the rows of one (S, p) iterate matrix;
    each seed draws its own batches and noise, so record s is bit-identical
    to dp_sgd_practical(configs[s]). A non-finite loss or iterate in any
    row stops all of them at that step.
    """
    config = _shared_config(configs, "practical")
    diurnal = config.diurnal
    if diurnal is None and config.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if diurnal is not None and any(
        rows.min() < 0 or rows.max() >= data.n for rows in (diurnal.rows_a, diurnal.rows_b)
    ):
        raise ValueError(f"diurnal rows must index the {data.n} training rows")
    seeds = [c.seed for c in configs]
    dim = model.param_dim()
    T = config.num_steps
    mean_noise_std, rho_total = practical_noise(config, noise_multiplier)
    ckpt_steps = checkpoint_steps(T, config.resolved_checkpoint_every())
    ckpt_index = {t: i for i, t in enumerate(ckpt_steps)}
    feature_sq_norms = np.einsum("ij,ij->i", data.features, data.features)

    theta = np.stack([0.02 * rng.uniform_vector(s, rng.STREAM_INIT, 0, dim) - 0.01 for s in seeds])
    ckpts = np.empty((len(seeds), len(ckpt_steps), dim))
    metrics = np.full((len(seeds), T, 2), math.nan)
    noise = None
    if mean_noise_std > 0:
        noise = rng.gaussian_steps(seeds, rng.STREAM_NOISE, T, dim)
    for t in range(1, T + 1):
        if diurnal is not None:
            # diurnal phase starts at 0 so the first batch is all rows_a
            idx = np.stack([
                diurnal_draw(
                    diurnal, t - 1, config.batch_size, rng.step_generator(s, rng.STREAM_BATCH, t)
                )
                for s in seeds
            ])
        else:
            idx = np.stack([minibatch_indices(s, t, data.n, config.batch_size) for s in seeds])
        features, labels = data.features[idx], data.labels[idx]
        g = model.clipped_grad_mean(
            theta, features, labels, feature_sq_norms[idx], config.clip_norm
        )
        if noise is not None:
            g = g + mean_noise_std * next(noise)
        theta = theta - config.eta.at(t) * g
        loss = model.batch_loss(theta, features, labels)
        if not (np.all(np.isfinite(loss)) and np.all(np.isfinite(theta))):
            raise NumericDivergenceError("training loss became non-finite", step=t)
        metrics[:, t - 1, 0] = loss
        if eval_data is not None:
            metrics[:, t - 1, 1] = accuracy(model, theta, eval_data)
        if t in ckpt_index:
            ckpts[:, ckpt_index[t]] = theta
    budget = PrivacyBudget.from_rho(rho_total, delta)
    steps = np.array(ckpt_steps)
    return [RunRecord(c, budget, ckpts[s], steps, metrics[s]) for s, c in enumerate(configs)]


# ---------------------------------------------------------------------------
# the constrained minimizer


def minimize_loss(model: LossModel, data: DatasetHandle | None, radius: float) -> np.ndarray:
    """Noiseless projected gradient descent to the constrained minimizer.

    Runs at step size 1/M until the projected-gradient norm drops below
    1e-9. Raises if the model has no positive smoothness constant or the
    tolerance is not reached within 100,000 steps.
    """
    if model.smoothness <= 0:
        raise ValueError("minimize_loss needs a model with positive smoothness")
    max_steps, tol = 100_000, 1e-9
    eta = 1.0 / model.smoothness
    theta = np.zeros(model.param_dim())
    for _ in range(max_steps):
        nxt = project_l2(theta - eta * model.grad_full(theta, data), radius)
        if np.linalg.norm(theta - nxt) / eta < tol:
            return nxt
        theta = nxt
    raise RuntimeError(
        f"projected GD did not reach gradient tolerance {tol} in {max_steps} steps"
    )


def min_loss_in_ball(model: LossModel, data: DatasetHandle | None, radius: float) -> float:
    """Minimum loss over the radius ball."""
    return model.loss_full(minimize_loss(model, data, radius), data)


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
            "checkpoint_every": cfg.resolved_checkpoint_every(),
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
    """Rebuild a RunRecord from a run directory (diurnal schedule excluded)."""
    with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
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
        seed=manifest["seed"],
    )
    budget = PrivacyBudget(
        rho=float(manifest["budget"]["rho"]),
        delta=float(manifest["budget"]["delta"]),
        epsilon=float(manifest["budget"]["epsilon"]),
    )
    steps = np.array(manifest["checkpoint_steps"])
    dim = manifest["dim"]
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
            step_s, loss_s, acc_s = line.strip().split(",")
            if int(step_s) != len(rows) + 1:
                raise ValueError(
                    f"{metrics_path} has step {step_s} where step {len(rows) + 1} "
                    f"belongs; rows must be steps 1..{config.num_steps} in order"
                )
            rows.append((float(loss_s), float(acc_s)))
    if len(rows) != config.num_steps:
        raise ValueError(f"{metrics_path} has {len(rows)} step rows, not {config.num_steps}")
    return RunRecord(config, budget, params, steps, np.array(rows))
