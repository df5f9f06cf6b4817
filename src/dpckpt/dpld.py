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

The comparison target is exact: each statistic, centred on theta*, has a
closed-form variance under the stationary law N(theta*, sigma_eff^2 I)
(stationary_law) that every checkpoint schedule shares, read from
chi-square CDFs, since its distance from theta* is sigma_eff * chi_p.

The module computes and opens no file; the harness writes the dpld_bias
task's dpld_report.csv from the VarianceBiasReports.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .model import QuadraticLoss

_ORACLE_CHUNK = 100_000
MIN_TRIALS = 100
# the norm excess's exact variance is off by up to 1e-7 at p = 1e4, more above
MAX_NORM_EXCESS_DIM = 10_000
# trial j and event s share one 63-bit counter step, (j << 32) + s
MAX_TRIALS = 2**31
MAX_EVENTS = 2**32


# ---------------------------------------------------------------------------
# bounded statistics


@dataclass(frozen=True)
class Statistic:
    """Named map from a parameter vector to a scalar in [-1, 1].

    batch_fn maps a (n, p) batch to (n,) values; variance(sigma) is the
    exact variance under N(center, sigma^2 I), center as built.
    """

    name: str
    batch_fn: Callable[[np.ndarray], np.ndarray]
    variance: Callable[[float], float]

    def evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch_fn(thetas), dtype=np.float64)


def _chi_cdf(dof: int, r: float) -> float:
    """P(R <= r) for R ~ chi_dof and r >= 0: the series sum_{n >= 0}
    x^(s+n) e^-x / Gamma(s+n+1), s = dof/2, x = r^2/2 (Abramowitz & Stegun
    6.5.29), so a small P keeps its digits. P(R > sqrt(dof) + t) <=
    exp(-t^2/2), so from t = 9 on P is 1 to 3e-18."""
    if r >= math.sqrt(dof) + 9.0:
        return 1.0
    s, x = 0.5 * dof, 0.5 * r * r
    if x == 0.0:
        return 0.0
    t = s
    term = total = math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
    while term > total * 1e-17:
        t += 1.0
        term *= x / t
        total += term
    return total


def _clip_moments(dof: int, sigma: float, c: float) -> tuple[float, float]:
    """(E[g], E[g^2]) for g = clip(sigma R - c, -1, 1) with R ~ chi_dof.

    g is -1 for R <= a = (c - 1)/sigma, +1 for R > b = (c + 1)/sigma and
    sigma R - c between, where E[R^j; a < R <= b] is E[R^j] times the
    chi_{dof+j} mass of (a, b], by r f_dof = E[R] f_{dof+1} and r^2 f_dof =
    dof f_{dof+2}. sigma^2 may overflow, so sigma scales a mass twice.
    """
    a, b = max(0.0, (c - 1.0) / sigma), (c + 1.0) / sigma
    below, lo1, lo2 = (_chi_cdf(d, a) for d in (dof, dof + 1, dof + 2))
    hi0, hi1, hi2 = (_chi_cdf(d, b) for d in (dof, dof + 1, dof + 2))
    mean_r = math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof))
    first = mean_r * (sigma * (hi1 - lo1))  # sigma E[R; a < R <= b]
    second = dof * (sigma * (sigma * (hi2 - lo2)))  # sigma^2 E[R^2; a < R <= b]
    above, mass = 1.0 - hi0, hi0 - below
    return (
        above - below + first - c * mass,
        above + below + second - 2.0 * c * first + c * c * mass,
    )


def make_clamped_coordinate(theta_star: np.ndarray, coord: int = 0) -> Statistic:
    center = float(np.asarray(theta_star)[coord])

    def fn(batch: np.ndarray) -> np.ndarray:
        return np.clip(batch[:, coord] - center, -1.0, 1.0)

    # |theta_c - center| is sigma chi_1 and the clip is odd: mean 0, so the
    # variance is E[min(sigma chi_1, 1)^2]
    return Statistic(
        name=f"clamped_coord{coord}", batch_fn=fn, variance=lambda s: _clip_moments(1, s, 0.0)[1]
    )


def make_sign_coordinate(theta_star: np.ndarray, coord: int = 0) -> Statistic:
    center = float(np.asarray(theta_star)[coord])

    def fn(batch: np.ndarray) -> np.ndarray:
        return np.sign(batch[:, coord] - center)

    # +-1 with probability 1/2 each
    return Statistic(name=f"sign_coord{coord}", batch_fn=fn, variance=lambda sigma: 1.0)


def make_clamped_norm_excess(theta_star: np.ndarray) -> Statistic:
    center = np.asarray(theta_star, dtype=np.float64)
    if center.size > MAX_NORM_EXCESS_DIM:
        raise ValueError(
            f"norm_excess takes a dimension of at most {MAX_NORM_EXCESS_DIM}, got {center.size}"
        )
    root_p = math.sqrt(center.size)

    def fn(batch: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(batch - center, axis=1)
        return np.clip(norms - root_p, -1.0, 1.0)

    # ||theta - center|| is sigma chi_p; rounding can take a near-0 variance below 0
    def variance(sigma: float) -> float:
        mean, second = _clip_moments(center.size, sigma, root_p)
        return max(0.0, second - mean * mean)

    return Statistic(name="clamped_norm_excess", batch_fn=fn, variance=variance)


# the statistics a dpld_bias run can name, each built at the stationary center
STATISTICS = {
    "clamped_coord": make_clamped_coordinate,
    "sign_coord": make_sign_coordinate,
    "norm_excess": make_clamped_norm_excess,
}


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
# the bias experiment


@dataclass(frozen=True)
class VarianceBiasReport:
    times: CheckpointTimes
    statistic: str
    trials: int
    mean_s: float
    se_mean_s: float
    oracle_v: float
    burn_in_bound: float

    @property
    def abs_bias(self) -> float:
        return abs(self.mean_s - self.oracle_v)


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
    statistic: str,
    trials: int,
    experiment_seed: int,
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

    statistic names an entry of STATISTICS; it is built at the stationary
    center theta*, so its exact variance under the stationary law
    N(theta*, sigma_eff^2 I) is the report's oracle_v.
    """
    if trials < MIN_TRIALS:
        raise ValueError("need at least 100 trials")
    if trials >= MAX_TRIALS:
        raise ValueError(f"trials must be below 2**31, got {trials}")
    center, sigma_eff = stationary_law(config)
    stat = STATISTICS[statistic](center)
    m = config.model.curvature
    segments = [m * s for s in times.elapsed_segments()]

    dim = center.size
    theta = np.tile(config.theta_start, (trials, 1))
    vals = np.empty((trials, times.k), dtype=np.float64)
    for i, seg in enumerate(segments):
        normals = _trial_normals(experiment_seed, trials, dim, i)
        theta = ou_exact_sample(center, sigma_eff, theta, seg, normals)
        vals[:, i] = stat.evaluate_batch(theta)
    s_values = np.var(vals, axis=1, ddof=1)

    mean_s = float(s_values.mean())
    se_mean_s = float(s_values.std(ddof=1) / math.sqrt(trials))
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
        statistic=stat.name,
        trials=trials,
        mean_s=mean_s,
        se_mean_s=se_mean_s,
        oracle_v=stat.variance(sigma_eff),
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

