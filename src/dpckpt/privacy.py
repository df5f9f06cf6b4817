"""Zero-concentrated differential privacy accounting.

All noise in the toolkit is Gaussian, so budgets compose additively in
rho and convert to an (epsilon, delta) report via the standard
rho + 2*sqrt(rho*ln(1/delta)) bound. No subsampling amplification is
claimed anywhere: minibatch steps are accounted as if full-batch.
Each trainer mode has one calibration call: calibrate_theoretical gives
the noise std that a total rho buys, and calibrate_practical gives the
noise std and the total rho of a noise multiplier over a run.
gaussian_hockey_stick gives the exact delta(epsilon) curve of a Gaussian
sum, against which that bound can be checked. The module draws no noise.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PrivacyBudget:
    """A spent budget: rho plus the (epsilon, delta) point it converts to."""

    rho: float
    delta: float
    epsilon: float

    @classmethod
    def from_rho(cls, rho: float, delta: float) -> "PrivacyBudget":
        return cls(rho=rho, delta=delta, epsilon=zcdp_to_epsilon(rho, delta))


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


def calibrate_theoretical(lipschitz: float, num_steps: int, n: int, rho: float) -> float:
    """Per-coordinate noise std for the full-gradient trainer at total budget rho.

    The variance lipschitz^2 * num_steps / (2 * n * rho) is added to the
    full gradient at every one of the num_steps updates, which compose to
    rho. rho = inf requests the zero-noise limit.
    """
    if lipschitz <= 0 or num_steps < 1 or n < 1:
        raise ValueError("lipschitz, num_steps, n must be positive")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if math.isinf(rho):
        return 0.0
    try:
        return math.sqrt(lipschitz**2 * num_steps / (2.0 * n * rho))
    except OverflowError:
        raise ValueError(f"the noise variance of lipschitz {lipschitz} overflows") from None


def calibrate_practical(
    clip_norm: float, noise_multiplier: float, num_steps: int, batch_size: int
) -> tuple[float, float]:
    """(std of the noise on the mean clipped gradient, total rho) of a practical run.

    The noise has std noise_multiplier * clip_norm on the *summed* clipped
    gradient, so std / batch_size on its mean; each step costs rho_step =
    1 / (2 * noise_multiplier^2), and the run's rho is T-fold composition
    in closed form, num_steps * rho_step (the correctly rounded sum).
    noise_multiplier = 0 is noiseless SGD with an infinite budget.
    """
    if noise_multiplier == 0:
        return 0.0, math.inf
    if not noise_multiplier > 0:
        raise ValueError("noise_multiplier must be nonnegative")
    if not 0 < clip_norm < math.inf:
        raise ValueError(f"clip_norm must be positive and finite, got {clip_norm}")
    if not noise_multiplier < math.inf:
        raise ValueError(f"noise_multiplier must be positive and finite, got {noise_multiplier}")
    try:
        std = math.sqrt((noise_multiplier * clip_norm) ** 2)
        rho_step = 1.0 / (2.0 * noise_multiplier**2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"noise_multiplier {noise_multiplier} with clip_norm {clip_norm} puts the noise"
            " variance or rho_step out of float range"
        ) from None
    rho = num_steps * rho_step
    if not math.isfinite(rho):
        raise ValueError(
            f"noise_multiplier {noise_multiplier} over {num_steps} steps puts the"
            " total rho out of float range"
        )
    return std / batch_size, rho


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_hockey_stick(sigma: float, epsilon: float) -> float:
    """Exact hockey-stick divergence of a sensitivity-1 Gaussian sum.

    delta(epsilon) = Phi(a) - e^epsilon Phi(b), a = 1/(2 sigma) - epsilon sigma,
    b = -1/(2 sigma) - epsilon sigma (Balle & Wang 2018): the smallest delta
    for which noise sigma gives an (epsilon, delta) guarantee. Above
    b = -37, Phi(b) is a normal float and e^epsilon <= e^(b^2/2) is finite.
    Below, e^epsilon phi(b) = phi(a) turns the second term into phi(a) times
    the Mills ratio Phi(b)/phi(b), summed from its asymptotic series
    1/|b| sum_k (-1)^k (2k-1)!!/b^2k.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    a = 0.5 / sigma - epsilon * sigma
    b = -0.5 / sigma - epsilon * sigma
    if b > -37.0:
        return max(0.0, _norm_cdf(a) - math.exp(epsilon) * _norm_cdf(b))
    term = total = 1.0 / -b
    k = 1
    while abs(term) > 1e-17 * total:
        term *= -(2 * k - 1) / (b * b)
        total += term
        k += 1
    return max(0.0, _norm_cdf(a) - math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) * total)
