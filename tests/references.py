"""Independent references for behaviour the package computes another way.

gaussian_row builds each noise row from a fresh numpy Philox placed at the
row's own counter, where rng.gaussian_rows draws a whole run of rows in
one call and the trainers take their noise a chunk of steps at a time.
minibatch_indices draws one seed's uniform batch from a freshly built
step generator, where the practical trainer repositions one generator per
seed. diurnal_row builds one step's diurnal batch from a fresh Philox
placed at the step's row and maps its words with Python integers, where
the trainer maps a chunk of steps per seed in uint64 arithmetic. The
closed forms of the Langevin lemmas (renyi_gaussians_shared_cov,
expectation_gap_bound, subgaussian_tail) are what the acceptance checks
hold the Monte-Carlo samplers of monte_carlo.py to. lookup reads one row
of a task's ResultTable by its setting.
"""

import math

import numpy as np

from dpckpt import rng
from dpckpt.dpld import _chi_cdf
from dpckpt.harness.experiments import ResultRow, ResultTable
from dpckpt.model import DiurnalSchedule, diurnal_prob


def gaussian_row(seed: int, stream: int, lane: int, row: int, dim: int) -> np.ndarray:
    """dim normals of one row: Box-Muller on the ceil(dim / 2) blocks that
    follow counter [row * nb, 0, 0, lane] of key (seed mod 2**64, stream),
    coordinate j on words (2j, 2j + 1)."""
    nb = -(-dim // 2)
    key = [np.uint64(seed & (2**64 - 1)), np.uint64(stream)]
    counter = [np.uint64(row * nb), 0, 0, np.uint64(lane)]
    raw = np.random.Philox(counter=counter, key=key).random_raw(2 * dim)
    u1 = (raw[0::2].astype(np.float64) + 1.0) / 2.0**64
    u2 = raw[1::2].astype(np.float64) / 2.0**64
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def minibatch_indices(seed: int, step: int, n: int, batch_size: int) -> np.ndarray:
    """The uniform batch a seed draws at a given step: batch_size of the n
    rows without replacement, from step_generator(seed, STREAM_BATCH, step)."""
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    gen = rng.step_generator(seed, rng.STREAM_BATCH, step)
    return gen.choice(n, size=batch_size, replace=False)


def diurnal_row(seed: int, schedule: DiurnalSchedule, step: int, batch: int) -> np.ndarray:
    """The diurnal batch a seed draws at a step: the 2 * batch words after
    counter [(step - 1) * nb, 0, 0, 0] of key (seed mod 2**64,
    STREAM_BATCH), nb = ceil(2 * batch / 4). Example i comes from rows_a
    when (w_i >> 11) / 2**53 is below diurnal_prob at phase step - 1, and
    takes entry (w * n) >> 64 of its set of n rows, w = word batch + i."""
    nb = -(-2 * batch // 4)
    key = [np.uint64(seed & (2**64 - 1)), np.uint64(rng.STREAM_BATCH)]
    counter = [np.uint64((step - 1) * nb), 0, 0, 0]
    words = [int(w) for w in np.random.Philox(counter=counter, key=key).random_raw(2 * batch)]
    p = diurnal_prob(schedule, step - 1)
    out = []
    for member, pick in zip(words[:batch], words[batch:]):
        rows = schedule.rows_a if (member >> 11) / 2.0**53 < p else schedule.rows_b
        out.append(int(rows[(pick * len(rows)) >> 64]))
    return np.array(out, dtype=np.int64)


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


def subgaussian_tail(dim: int, x: float) -> tuple[float, float]:
    """(P(|Z| > sqrt(p) + x), exp(-x^2/2)) for Z ~ N(0, I_p) and x >= 0:
    the exact chi_p tail and the subgaussian bound on it."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return 1.0 - _chi_cdf(dim, math.sqrt(dim) + x), math.exp(-0.5 * x * x)


def lookup(table: ResultTable, setting: str) -> ResultRow:
    """The table's row of the given setting; KeyError if it has none."""
    for row in table.rows:
        if row.setting == setting:
            return row
    raise KeyError(setting)
