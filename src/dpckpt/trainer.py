"""DP-SGD trainers emitting checkpoint streams.

Two modes share the checkpoint/metrics plumbing:

  theoretical  full-gradient projected DP-SGD started at the origin,
               with per-step Gaussian noise calibrated so the whole
               T-step run is rho-zCDP.
  practical    minibatch DP-SGD with per-example clipping, noise on the
               summed clipped gradient, and plain T-fold composition
               accounting (no subsampling amplification claimed).

Runs are deterministic functions of (model, data, config): all noise,
batch selection, and initialization draws are addressed by
(seed, stream, step) through the counter-based generator in rng.py, so
concurrent runs can never perturb each other.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

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
        if not self.value > 0:
            raise ValueError("eta value must be positive")

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
        if self.projection_radius <= 0:
            raise ValueError("projection_radius must be positive")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
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
    config: TrainerConfig
    budget: PrivacyBudget
    checkpoints: list[Checkpoint]
    metrics: np.ndarray  # (num_steps, 2): train_loss, eval_acc (nan if unset)
    seed: int

    @property
    def steps(self) -> np.ndarray:
        return np.arange(1, self.config.num_steps + 1)

    def checkpoint_params(self) -> np.ndarray:
        """The (K, p) float64 matrix of checkpoint parameters, one row per step."""
        return np.array([c.params for c in self.checkpoints], dtype=np.float64)

    def final_params(self) -> np.ndarray:
        return self.checkpoints[-1].params


# ---------------------------------------------------------------------------
# core operations


def choose_T(n: int, rho: float) -> int:
    """Step count ceil(n * rho) used by the theoretical trainer."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    return max(1, math.ceil(n * rho))


def project_l2(v: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the origin-centered l2 ball of the given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


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


def _eval_acc(model, theta, eval_data) -> float:
    if eval_data is None:
        return math.nan
    return accuracy(model, theta, eval_data)


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
    if config.mode != "theoretical":
        raise ValueError("config.mode must be 'theoretical'")
    if model.lipschitz is None or not math.isfinite(model.lipschitz):
        raise ValueError("theoretical mode needs a model with a finite Lipschitz bound")
    dim = model.param_dim()
    T = config.num_steps
    scale = calibrate_theoretical(model.lipschitz, T, data.n, rho)
    noise_std = scale.std
    ckpt_steps = set(checkpoint_steps(T, config.resolved_checkpoint_every()))

    theta = np.zeros(dim)
    checkpoints: list[Checkpoint] = []
    metrics = np.empty((T, 2))
    for t in range(1, T + 1):
        g = model.grad_full(theta, data)
        if noise_std > 0:
            g = g + noise_std * rng.gaussian_vector(config.seed, rng.STREAM_NOISE, t, dim)
        theta = project_l2(theta - config.eta.at(t) * g, config.projection_radius)
        loss = model.loss_full(theta, data)
        if not math.isfinite(loss):
            raise NumericDivergenceError("training loss became non-finite", step=t)
        metrics[t - 1, 0] = loss
        metrics[t - 1, 1] = _eval_acc(model, theta, eval_data)
        if t in ckpt_steps:
            checkpoints.append(Checkpoint(t, theta.copy()))
    budget = PrivacyBudget.from_rho(rho, delta)
    return RunRecord(config, budget, checkpoints, metrics, config.seed)


def clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row to norm at most clip_norm (rows at the bound untouched)."""
    norms = np.linalg.norm(grads, axis=1)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    return grads * factors[:, None]


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
    if config.mode != "practical":
        raise ValueError("config.mode must be 'practical'")
    if config.diurnal is None and config.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    dim = model.param_dim()
    T = config.num_steps
    if noise_multiplier > 0:
        scale, rho_step = calibrate_practical(config.clip_norm, noise_multiplier)
        mean_noise_std = scale.std / config.batch_size
        rho_total = compose_zcdp([rho_step] * T)
    elif noise_multiplier == 0:
        mean_noise_std = 0.0
        rho_total = math.inf
    else:
        raise ValueError("noise_multiplier must be nonnegative")
    ckpt_steps = set(checkpoint_steps(T, config.resolved_checkpoint_every()))

    theta = 0.02 * rng.uniform_vector(config.seed, rng.STREAM_INIT, 0, dim) - 0.01
    checkpoints: list[Checkpoint] = []
    metrics = np.empty((T, 2))
    for t in range(1, T + 1):
        if config.diurnal is not None:
            # diurnal phase starts at 0 so the first batch is pure source_a
            gen = rng.step_generator(config.seed, rng.STREAM_BATCH, t)
            batch = diurnal_draw(config.diurnal, t - 1, config.batch_size, gen)
        else:
            idx = minibatch_indices(config.seed, t, data.n, config.batch_size)
            batch = data.subset(idx, tag=data.tag)
        grads = clip_rows(model.grad_per_example(theta, batch), config.clip_norm)
        g = grads.mean(axis=0)
        if mean_noise_std > 0:
            g = g + mean_noise_std * rng.gaussian_vector(
                config.seed, rng.STREAM_NOISE, t, dim
            )
        theta = theta - config.eta.at(t) * g
        loss = model.loss_full(theta, batch)
        if not math.isfinite(loss) or not np.all(np.isfinite(theta)):
            raise NumericDivergenceError("training loss became non-finite", step=t)
        metrics[t - 1, 0] = loss
        metrics[t - 1, 1] = _eval_acc(model, theta, eval_data)
        if t in ckpt_steps:
            checkpoints.append(Checkpoint(t, theta.copy()))
    budget = PrivacyBudget.from_rho(rho_total, delta)
    return RunRecord(config, budget, checkpoints, metrics, config.seed)


# ---------------------------------------------------------------------------
# excess risk against a cached constrained minimizer


_MINIMIZER_CACHE: dict[tuple, tuple[np.ndarray, float]] = {}


def minimize_loss(
    model: LossModel,
    data: DatasetHandle | None,
    radius: float,
    max_steps: int = 100_000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Noiseless projected gradient descent to the constrained minimizer.

    Runs at step size 1/M until the projected-gradient norm drops below
    tol. Raises if the model has no positive smoothness constant or the
    tolerance is not reached within max_steps.
    """
    if model.smoothness <= 0:
        raise ValueError("minimize_loss needs a model with positive smoothness")
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
    """Minimum loss over the radius ball, cached per (model, data, radius)."""
    data_key = data.fingerprint() if data is not None else None
    key = (model.cache_key(), data_key, radius)
    if key not in _MINIMIZER_CACHE:
        theta = minimize_loss(model, data, radius)
        _MINIMIZER_CACHE[key] = (theta, model.loss_full(theta, data))
    return _MINIMIZER_CACHE[key][1]


def excess_risk(
    model: LossModel, data: DatasetHandle | None, theta: np.ndarray, radius: float
) -> float:
    """loss_full(theta) minus the constrained minimum (>= -1e-9)."""
    return model.loss_full(theta, data) - min_loss_in_ball(model, data, radius)


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
        "dim": len(record.checkpoints[-1].params),
        "checkpoint_steps": [c.step for c in record.checkpoints],
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stacked = np.stack([c.params for c in record.checkpoints])
    with open(os.path.join(run_dir, "checkpoints.bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(stacked, dtype="<f8").tobytes())
    with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,train_loss,eval_acc\n")
        for t in range(cfg.num_steps):
            loss = repr(float(record.metrics[t, 0]))
            acc = repr(float(record.metrics[t, 1]))
            fh.write(f"{t + 1},{loss},{acc}\n")


def load_run(run_dir: str) -> RunRecord:
    """Rebuild a RunRecord from a run directory (diurnal sources excluded)."""
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
    steps = manifest["checkpoint_steps"]
    dim = manifest["dim"]
    raw = np.fromfile(os.path.join(run_dir, "checkpoints.bin"), dtype="<f8")
    stacked = raw.reshape(len(steps), dim)
    checkpoints = [Checkpoint(s, stacked[i].copy()) for i, s in enumerate(steps)]
    metrics = np.full((config.num_steps, 2), math.nan)
    with open(os.path.join(run_dir, "metrics.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "step,train_loss,eval_acc":
            raise ValueError(f"unexpected metrics header {header!r} in {run_dir}")
        for line in fh:
            step_s, loss_s, acc_s = line.strip().split(",")
            metrics[int(step_s) - 1] = (float(loss_s), float(acc_s))
    return RunRecord(config, budget, checkpoints, metrics, manifest["seed"])
