"""Independent references for behaviour the package computes another way.

gaussian_row builds each noise row from a fresh numpy Philox placed at the
row's own counter, where rng.gaussian_rows draws a whole run of rows in
one call and the trainers take their noise a chunk of steps at a time.
minibatch_indices draws one seed's uniform batch from a freshly built
step generator, where the practical trainer repositions one generator per
seed. diurnal_row builds one step's diurnal batch from a fresh Philox
placed at the step's row and maps its words with Python integers, where
the trainer maps a chunk of steps per seed in uint64 arithmetic.
row_loop_batches gathers the softmax head's (S, d, B) batch factors a
row at a time into a C-contiguous array, where the model takes one
np.take of the store's columns. row_loop_terms builds one step's
model.Batches an example at a time, where the trainer gathers the terms
of a whole chunk of steps at once. clipped_grad_mean_l2 and batch_loss_l2
are the practical kernels with every l2 term computed, whatever l2_reg
is, where the loss models skip the terms that are exact zeros at
l2_reg = 0. The closed forms of the
Langevin lemmas (renyi_gaussians_shared_cov, expectation_gap_bound,
subgaussian_tail) are what the acceptance checks hold the Monte-Carlo
samplers of monte_carlo.py to. lookup reads one row of a task's
ResultTable by its setting.
"""

import math

import numpy as np

from dpckpt import rng
from dpckpt.dpld import _chi_cdf
from dpckpt.harness.experiments import ResultRow, ResultTable
from dpckpt.model import (
    Batches,
    DiurnalSchedule,
    QuadraticLoss,
    _binary_ce,
    _softmax_terms,
    clip_factors,
    diurnal_prob,
    row_sq_norms,
)


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


def row_loop_batches(data, idx: np.ndarray) -> np.ndarray:
    """(S, d, B) C-contiguous: row s holds the transposed features of its batch idx[s]."""
    design = np.empty((len(idx), data.p, idx.shape[-1]))
    for s, batch in enumerate(idx):
        design[s] = data.features[batch].T
    return design


def row_loop_terms(model, data, idx: np.ndarray) -> Batches:
    """model.batches(data, idx) for one step's (S, B) index matrix, an example
    at a time: example i of row s reads data.sq_norms at its row j, and a
    softmax head's true-class logit sits at (s c + labels[j]) B + i."""
    num_rows, batch = idx.shape
    sq_norms = np.empty((num_rows, batch))
    offsets = np.empty((num_rows, batch), dtype=np.int64)
    for s in range(num_rows):
        for i, j in enumerate(idx[s]):
            sq_norms[s, i] = data.sq_norms[j]
            offsets[s, i] = (s * data.num_classes + int(data.labels[j])) * batch + i
    return Batches(idx, sq_norms, None if model.binary else offsets)


def clipped_grad_mean_l2(model, rows, data, idx, clip_norm) -> np.ndarray:
    """model.clipped_grad_mean with each per-example squared norm taken as
    |R_i|^2 |x_i|^2 + 2 l2 <R_i, logits_i> + l2^2 |theta|^2 and the clipped
    mean's l2 part, l2 theta times the mean clip factor, always added. A
    quadratic model's examples share one gradient, which is clipped."""
    if isinstance(model, QuadraticLoss):
        grad = model.curvature * (rows - model.center)
        return grad * clip_factors(row_sq_norms(grad), clip_norm)[:, None]
    design = model._design(data, idx)
    logits = model._logits(rows, design)
    resid = model._residual(logits, model._true_class_offsets(len(rows), data, idx))
    if model.binary:
        logits, resid = logits[:, None, :], resid[:, None, :]
    lam = model.l2_reg
    # class-major (S, c, B) terms: every sum over classes runs along axis 1
    sq_norms = (
        (resid * resid).sum(axis=1) * data.sq_norms[idx]
        + 2.0 * lam * (resid * logits).sum(axis=1)
        + lam * lam * row_sq_norms(rows)[:, None]
    )
    factors = clip_factors(sq_norms, clip_norm)
    batch = idx.shape[-1]
    design = design if model.binary else np.swapaxes(design, 1, 2)  # (S, B, d)
    grad = (np.matmul(factors[:, None, :] * resid, design) / batch).reshape(len(rows), -1)
    return grad + lam * rows * (factors.sum(axis=1) / batch)[:, None]


def batch_loss_l2(model, rows, data, idx) -> np.ndarray:
    """model.loss_full on the (S, B) index matrix idx with the l2 term
    (l2 / 2) |theta|^2 always added to the mean cross-entropy."""
    if isinstance(model, QuadraticLoss):
        return 0.5 * model.curvature * row_sq_norms(rows - model.center)
    logits = model._logits(rows, model._design(data, idx))
    if model.binary:
        ce = _binary_ce(logits)
    else:
        zmax, _, total = _softmax_terms(logits)  # over the class axis of (S, c, B) logits
        labels = data.labels[idx]
        true = np.take_along_axis(logits, labels[:, None, :], axis=1)[:, 0]
        ce = (zmax + np.log(total))[:, 0] - true
    return ce.sum(axis=1) / logits.shape[-1] + 0.5 * model.l2_reg * row_sq_norms(rows)


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
