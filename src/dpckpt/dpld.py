"""Langevin-dynamics simulation of noisy training checkpoints.

Verifies, numerically, that the sample variance of a bounded statistic
over k checkpoints of the diffusion dtheta = -grad L dt + sigma*sqrt(2) dW
approaches the statistic's true stationary variance once the first
checkpoint time and the inter-checkpoint gap are past burn-in.

The loss is quadratic, so the diffusion is an Ornstein-Uhlenbeck process
and checkpoints are sampled exactly by chaining OU transitions through the
Markov property; no discretization error enters the comparison. Curvature
m != 1 is normalized away before simulation: running the unit-curvature
process on the sped-up clock m*t with noise scale sigma/sqrt(m) gives the
same law.

All trials of an experiment run together as one (trials, p) iterate
matrix. Their noise is counter-addressed: the s-th OU segment of trial j
uses the normals rng.gaussian_vector(seed, STREAM_TRIAL, (j << 32) + s, p),
so each trial is a pure function of (seed, j) whatever the trial count or
worker count.

Every checkpoint schedule of one configuration shares the stationary law
N(theta*, sigma_eff^2 I) (stationary_law), so the Monte-Carlo oracle of
the statistic's stationary variance (stationary_oracle_V) is drawn once
and handed to each variance_bias_experiment as a (V, SE) pair.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .model import QuadraticLoss

_ORACLE_CHUNK = 100_000
MIN_TRIALS = 100
MIN_ORACLE_SAMPLES = 100_000
# trial j and event s share one 63-bit counter step, (j << 32) + s
MAX_TRIALS = 2**31
MAX_EVENTS = 2**32


# ---------------------------------------------------------------------------
# bounded statistics


@dataclass(frozen=True)
class Statistic:
    """Named map from a parameter vector to a scalar in [-1, 1].

    The callable must accept a (n, p) batch and return (n,) values.
    """

    name: str
    batch_fn: Callable[[np.ndarray], np.ndarray]

    def evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch_fn(thetas), dtype=np.float64)


def make_clamped_coordinate(theta_star: np.ndarray, coord: int = 0) -> Statistic:
    center = float(np.asarray(theta_star)[coord])

    def fn(batch: np.ndarray) -> np.ndarray:
        return np.clip(batch[:, coord] - center, -1.0, 1.0)

    return Statistic(name=f"clamped_coord{coord}", batch_fn=fn)


def make_sign_coordinate(theta_star: np.ndarray, coord: int = 0) -> Statistic:
    center = float(np.asarray(theta_star)[coord])

    def fn(batch: np.ndarray) -> np.ndarray:
        return np.sign(batch[:, coord] - center)

    return Statistic(name=f"sign_coord{coord}", batch_fn=fn)


def make_clamped_norm_excess(theta_star: np.ndarray) -> Statistic:
    center = np.asarray(theta_star, dtype=np.float64)
    root_p = math.sqrt(center.size)

    def fn(batch: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(batch - center, axis=1)
        return np.clip(norms - root_p, -1.0, 1.0)

    return Statistic(name="clamped_norm_excess", batch_fn=fn)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class LDConfig:
    model: QuadraticLoss
    theta_start: np.ndarray
    sigma: float = 1.0
    # annotation-only knobs for the burn-in formula on reports
    c_constant: float = 4.0
    delta_target: float = 1e-2

    def __post_init__(self):
        if not isinstance(self.model, QuadraticLoss):
            raise ValueError(f"model must be a QuadraticLoss, got {type(self.model).__name__}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not 0 < self.c_constant < math.inf:
            raise ValueError("c_constant must be positive and finite")
        if not 0.0 < self.delta_target < 1.0:
            raise ValueError("delta_target must be in (0, 1)")
        theta = np.asarray(self.theta_start, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta_start must be a nonempty 1-d vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_start must be finite")
        object.__setattr__(self, "theta_start", theta)


@dataclass(frozen=True)
class CheckpointTimes:
    t1: float
    gap: float
    k: int

    def __post_init__(self):
        if not self.t1 > 0:
            raise ValueError("t1 must be positive")
        if not self.gap > 0:
            raise ValueError("gap must be positive")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        # one noise event per checkpoint, and a trial's events share a counter
        if self.k >= MAX_EVENTS:
            raise ValueError(
                f"a trajectory must have fewer than {MAX_EVENTS} noise events, got k = {self.k}"
            )

    def times(self) -> list[float]:
        return [self.t1 + i * self.gap for i in range(self.k)]

    def elapsed_segments(self) -> list[float]:
        """Waiting times between consecutive checkpoints, first from t=0."""
        return [self.t1] + [self.gap] * (self.k - 1)


# ---------------------------------------------------------------------------
# exact OU transition


def ou_exact_sample(
    theta_star: np.ndarray,
    sigma: float,
    theta_t: np.ndarray,
    elapsed: float,
    normals: np.ndarray,
) -> np.ndarray:
    """Exact unit-curvature OU transition over the given elapsed time.

    Draws from N(theta* + exp(-s)(theta_t - theta*), sigma^2 (1-exp(-2s)) I)
    for a (p,) vector or each row of (S, p) rows, using standard normals
    of theta_t's shape. s=0 returns theta_t unchanged.
    """
    if elapsed < 0:
        raise ValueError("elapsed time must be nonnegative")
    if elapsed == 0.0:
        return theta_t.copy()
    decay = math.exp(-elapsed)
    std = sigma * math.sqrt(-math.expm1(-2.0 * elapsed))
    mean = theta_star + decay * (theta_t - theta_star)
    return mean + std * normals


# ---------------------------------------------------------------------------
# stationary oracle


def stationary_oracle_V(
    theta_star: np.ndarray,
    sigma: float,
    statistic: Statistic,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo Var[f(theta)] under the stationary law N(theta*, sigma^2 I).

    Returns (estimate, standard error); the SE comes from the large-sample
    variance of a sample variance, (m4 - v^2) / n.
    """
    if samples < MIN_ORACLE_SAMPLES:
        raise ValueError("oracle needs at least 1e5 samples")
    center = np.asarray(theta_star, dtype=np.float64)
    gen = rng.step_generator(seed, rng.STREAM_ORACLE, 0)
    values = np.empty(samples, dtype=np.float64)
    chunk = np.empty((min(_ORACLE_CHUNK, samples), center.size), dtype=np.float64)
    done = 0
    while done < samples:
        draws = chunk[: min(_ORACLE_CHUNK, samples - done)]
        gen.standard_normal(out=draws)
        draws *= sigma
        draws += center
        values[done : done + len(draws)] = statistic.evaluate_batch(draws)
        done += len(draws)
    v = float(np.var(values, ddof=1))
    fourth = values - values.mean()
    # squaring twice in place skips the libm pow that centered**4 goes through
    fourth *= fourth
    fourth *= fourth
    m4 = float(np.mean(fourth))
    se = math.sqrt(max(0.0, m4 - v * v) / samples)
    return v, se


# ---------------------------------------------------------------------------
# the bias experiment


@dataclass(frozen=True)
class VarianceBiasReport:
    times: CheckpointTimes
    statistic: str
    trials: int
    mean_s: float
    se_mean_s: float
    oracle_v: float
    oracle_se: float
    burn_in_bound: float

    @property
    def abs_bias(self) -> float:
        return abs(self.mean_s - self.oracle_v)

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.se_mean_s**2 + self.oracle_se**2)


def _trial_normals(seed: int, trials: int, dim: int, event: int) -> np.ndarray:
    """(trials, dim) standard normals of one event; row j is
    gaussian_vector(seed, STREAM_TRIAL, (j << 32) + event, dim)."""
    steps = (np.arange(trials, dtype=np.int64) << 32) + event
    return rng.gaussian_block([seed], rng.STREAM_TRIAL, steps, dim)[:, 0]


def stationary_law(config: LDConfig) -> tuple[np.ndarray, float]:
    """(theta*, sigma_eff) of the stationary law N(theta*, sigma_eff^2 I) of
    the curvature-normalized dynamics, sigma_eff = sigma / sqrt(m)."""
    center = config.model.center.copy()
    if center.size != config.theta_start.size:
        raise ValueError("theta_start dimension does not match the model")
    return center, config.sigma / math.sqrt(config.model.curvature)


def variance_bias_experiment(
    config: LDConfig,
    times: CheckpointTimes,
    statistic: Statistic,
    trials: int,
    experiment_seed: int,
    oracle: tuple[float, float],
) -> VarianceBiasReport:
    """Bias of the checkpoint sample-variance estimator vs the true variance.

    Each trial runs one trajectory from config.theta_start, reads the
    statistic at the k checkpoint times, and takes the sample variance S.
    The trials advance together as one (trials, p) matrix through exact OU
    transitions on the curvature-normalized clock. The s-th segment of
    trial j draws the normals
    gaussian_vector(experiment_seed, STREAM_TRIAL, (j << 32) + s, p), so
    trials are independent, trial j does not depend on the trial count,
    and the whole experiment replays bit-for-bit.

    oracle is the (variance, SE) pair of the statistic under the
    stationary law, usually stationary_oracle_V(*stationary_law(config),
    statistic, samples, seed); experiments that share the law and the
    statistic share one oracle.
    """
    if trials < MIN_TRIALS:
        raise ValueError("need at least 100 trials")
    if trials >= MAX_TRIALS:
        raise ValueError(f"trials must be below 2**31, got {trials}")
    center, sigma_eff = stationary_law(config)
    m = config.model.curvature
    segments = [m * s for s in times.elapsed_segments()]

    dim = center.size
    theta = np.tile(config.theta_start, (trials, 1))
    vals = np.empty((trials, times.k), dtype=np.float64)
    for i, seg in enumerate(segments):
        normals = _trial_normals(experiment_seed, trials, dim, i)
        theta = ou_exact_sample(center, sigma_eff, theta, seg, normals)
        vals[:, i] = statistic.evaluate_batch(theta)
    s_values = np.var(vals, axis=1, ddof=1)

    mean_s = float(s_values.mean())
    se_mean_s = float(s_values.std(ddof=1) / math.sqrt(trials))
    oracle_v, oracle_se = oracle
    dist0sq = float(np.sum((config.theta_start - center) ** 2))
    # smoothness / strong convexity of the normalized quadratic is exactly 1
    bound = burn_in_gamma(
        smoothness=1.0,
        dim=center.size,
        dist0sq=dist0sq,
        delta=config.delta_target,
        c=config.c_constant,
    )
    return VarianceBiasReport(
        times=times,
        statistic=statistic.name,
        trials=trials,
        mean_s=mean_s,
        se_mean_s=se_mean_s,
        oracle_v=oracle_v,
        oracle_se=oracle_se,
        burn_in_bound=bound,
    )


def burn_in_gamma(
    smoothness: float, dim: int, dist0sq: float, delta: float, c: float
) -> float:
    """Burn-in time scale sufficient for near-unbiased variance estimation.

    1/(2M) + ln(c M (p + ln(1/delta) + dist0sq)) + c ln(1/delta). The
    constant c is a report annotation, never a gate.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if c <= 0:
        raise ValueError("c must be positive")
    if smoothness <= 0:
        raise ValueError("smoothness must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if dist0sq < 0:
        raise ValueError("dist0sq must be nonnegative")
    log_inv_delta = math.log(1.0 / delta)
    inner = c * smoothness * (dim + log_inv_delta + dist0sq)
    return 1.0 / (2.0 * smoothness) + math.log(inner) + c * log_inv_delta


# ---------------------------------------------------------------------------
# closed-form lemma checks


def renyi_gaussians_shared_cov(
    mu1: np.ndarray, mu2: np.ndarray, var_scalar: float, alpha: float
) -> float:
    """Renyi divergence of order alpha between N(mu1, v I) and N(mu2, v I)."""
    if var_scalar <= 0:
        raise ValueError("variance must be positive")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    gap_sq = float(np.sum((np.asarray(mu1) - np.asarray(mu2)) ** 2))
    return alpha * gap_sq / (2.0 * var_scalar)


def expectation_gap_bound(d2: float) -> float:
    """Bound |E_P g - E_Q g| for |g| <= 1 given the order-2 divergence."""
    if d2 < 0:
        raise ValueError("d2 must be nonnegative")
    return math.sqrt(math.expm1(d2))


def subgaussian_tail_check(
    dim: int, x: float, samples: int, seed: int = 0
) -> tuple[float, float, float]:
    """Empirical P(|theta| > sqrt(p) + x) under N(0, I_p) vs exp(-x^2/2).

    Returns (empirical frequency, analytic bound, frequency SE).
    """
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    gen = rng.step_generator(seed, rng.STREAM_ORACLE, 1)
    threshold = math.sqrt(dim) + x
    exceed = 0
    done = 0
    while done < samples:
        count = min(_ORACLE_CHUNK, samples - done)
        draws = gen.standard_normal((count, dim))
        exceed += int(np.count_nonzero(np.linalg.norm(draws, axis=1) > threshold))
        done += count
    empirical = exceed / samples
    bound = math.exp(-0.5 * x * x)
    se = math.sqrt(empirical * (1.0 - empirical) / samples)
    return empirical, bound, se


# ---------------------------------------------------------------------------
# report output


def write_dpld_report(reports: Sequence[VarianceBiasReport], path: str) -> None:
    """One CSV row per experiment setting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "t1",
                "gap",
                "k",
                "trials",
                "mean_S",
                "oracle_V",
                "abs_bias",
                "oracle_SE",
                "burn_in_bound",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    repr(r.times.t1),
                    repr(r.times.gap),
                    r.times.k,
                    r.trials,
                    repr(r.mean_s),
                    repr(r.oracle_v),
                    repr(r.abs_bias),
                    repr(r.oracle_se),
                    repr(r.burn_in_bound),
                ]
            )
