"""Monte-Carlo estimates of the package's closed-form privacy and tail values.

privacy.gaussian_hockey_stick and references.subgaussian_tail compute
exact values. These samplers share no formula with them, so the tests use them
as independent references: a closed form that drifts from the sampled
value by more than a few standard errors is wrong.
"""

import math

import numpy as np

from dpckpt import rng

_CHUNK = 100_000


def gaussian_hockey_stick_mc(
    sigma: float, epsilon: float, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo hockey-stick divergence for a sensitivity-1 Gaussian sum.

    Estimates E_{x~N(0,sigma^2)}[(1 - e^{epsilon - l(x)})^+] where l is
    the privacy-loss log-ratio against N(1, sigma^2). Returns (estimate,
    std error).
    """
    gen = np.random.default_rng(seed)
    x = gen.normal(0.0, sigma, n_samples)
    # log density ratio of N(0, s^2) vs N(1, s^2) at x
    loss = (1.0 - 2.0 * x) / (2.0 * sigma**2)
    contrib = np.maximum(0.0, 1.0 - np.exp(epsilon - loss))
    est = float(contrib.mean())
    se = float(contrib.std(ddof=1) / math.sqrt(n_samples))
    return est, se


def subgaussian_tail_mc(dim: int, x: float, samples: int, seed: int = 0) -> tuple[float, float]:
    """Empirical P(|Z| > sqrt(p) + x) under N(0, I_p): (frequency, its SE)."""
    gen = rng.step_generator(seed, rng.STREAM_ORACLE, 1)
    threshold = math.sqrt(dim) + x
    exceed = 0
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        draws = gen.standard_normal((count, dim))
        exceed += int(np.count_nonzero(np.linalg.norm(draws, axis=1) > threshold))
        done += count
    frequency = exceed / samples
    return frequency, math.sqrt(frequency * (1.0 - frequency) / samples)
