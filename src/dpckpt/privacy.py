"""Zero-concentrated differential privacy accounting.

All noise in the toolkit is Gaussian, so budgets compose additively in
rho and convert to an (epsilon, delta) report via the standard
rho + 2*sqrt(rho*ln(1/delta)) bound. No subsampling amplification is
claimed anywhere: minibatch steps are accounted as if full-batch.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrivacyBudget:
    """A spent budget: rho plus the (epsilon, delta) point it converts to."""

    rho: float
    delta: float
    epsilon: float

    @classmethod
    def from_rho(cls, rho: float, delta: float) -> "PrivacyBudget":
        return cls(rho=rho, delta=delta, epsilon=zcdp_to_epsilon(rho, delta))


@dataclass(frozen=True)
class NoiseScale:
    """Per-coordinate variance of the Gaussian noise added at one step."""

    variance_per_step: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance_per_step)


def check_delta(delta: float) -> float:
    """delta itself, if an (epsilon, delta) report can use it."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return delta


def zcdp_to_epsilon(rho: float, delta: float) -> float:
    """epsilon = rho + 2*sqrt(rho*ln(1/delta)); rho = inf maps to inf."""
    check_delta(delta)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if math.isinf(rho):
        return math.inf
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def epsilon_to_zcdp(epsilon: float, delta: float) -> float:
    """Inverse of zcdp_to_epsilon at fixed delta (exact, via the quadratic)."""
    check_delta(delta)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    log_term = math.log(1.0 / delta)
    # epsilon = rho + 2*sqrt(rho*log_term): solve for sqrt(rho)
    root = math.sqrt(log_term + epsilon) - math.sqrt(log_term)
    return root * root


def compose_zcdp(rhos) -> float:
    """Total rho of a sequence of zCDP mechanisms (additive)."""
    rhos = list(rhos)
    for r in rhos:
        if r < 0:
            raise ValueError(f"rho values must be nonnegative, got {r}")
    return math.fsum(rhos)


def calibrate_theoretical(
    lipschitz: float, num_steps: int, n: int, rho: float
) -> NoiseScale:
    """Per-step noise for the full-gradient trainer at total budget rho.

    Per-coordinate variance lipschitz^2 * num_steps / (2 * n * rho),
    added to the full gradient at every one of the num_steps updates.
    rho = inf requests the zero-noise limit.
    """
    if lipschitz <= 0 or num_steps < 1 or n < 1:
        raise ValueError("lipschitz, num_steps, n must be positive")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if math.isinf(rho):
        return NoiseScale(0.0)
    try:
        return NoiseScale(lipschitz**2 * num_steps / (2.0 * n * rho))
    except OverflowError:
        raise ValueError(f"the noise variance of lipschitz {lipschitz} overflows") from None


def calibrate_practical(clip_norm: float, noise_multiplier: float) -> tuple[NoiseScale, float]:
    """Noise scale and per-step rho for the clipped minibatch trainer.

    The noise has std noise_multiplier * clip_norm on the *summed*
    clipped gradient; each step costs rho_step = 1 / (2 * noise_multiplier^2).
    """
    if not 0 < clip_norm < math.inf:
        raise ValueError(f"clip_norm must be positive and finite, got {clip_norm}")
    if not 0 < noise_multiplier < math.inf:
        raise ValueError(f"noise_multiplier must be positive and finite, got {noise_multiplier}")
    try:
        scale = NoiseScale((noise_multiplier * clip_norm) ** 2)
        return scale, 1.0 / (2.0 * noise_multiplier**2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"noise_multiplier {noise_multiplier} with clip_norm {clip_norm} puts the noise"
            " variance or rho_step out of float range"
        ) from None


def gaussian_hockey_stick_mc(
    sigma: float, epsilon: float, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo hockey-stick divergence for a sensitivity-1 Gaussian sum.

    Estimates E_{x~N(0,sigma^2)}[(1 - e^{epsilon - l(x)})^+] where l is
    the privacy-loss log-ratio against N(1, sigma^2); an (epsilon, delta)
    guarantee requires this to be <= delta. Returns (estimate, std error).
    """
    if sigma <= 0 or n_samples < 2:
        raise ValueError("need sigma > 0 and n_samples >= 2")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, sigma, n_samples)
    # log density ratio of N(0, s^2) vs N(1, s^2) at x
    loss = (1.0 - 2.0 * x) / (2.0 * sigma**2)
    contrib = np.maximum(0.0, 1.0 - np.exp(epsilon - loss))
    est = float(contrib.mean())
    se = float(contrib.std(ddof=1) / math.sqrt(n_samples))
    return est, se
