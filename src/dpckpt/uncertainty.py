"""Student-t confidence intervals over per-model prediction statistics.

The interval for one test input treats the k models' statistics as a
small i.i.d. sample: mean +/- t_{k-1, 1-(1-level)/2} * s / sqrt(k). The
average interval width over many test inputs is the uncertainty proxy
compared between two ways of obtaining the k models: the final
checkpoints of k independent runs, or the last k checkpoints of one run.
Both are row selections of a statistic_matrix: its last k rows for one
run's checkpoints, its independent_rows for the runs' final checkpoints.

The t quantile is computed from scratch. Every interval has k - 1
degrees of freedom, an integer, so the CDF is the closed-form finite
series in cos^2(atan(|x| / sqrt(dof))) for integer dof (Abramowitz &
Stegun 26.7.3-26.7.4), and the quantile inverts the CDF by bisection.

The module computes and opens no file; the harness writes the uq_compare
task's uq_report.json from the widths t_widths returns.
"""

import math
import numbers
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import rng
from .model import LossModel

STATISTIC_MODES = ("label_as_integer", "modal_class_probability")


# ---------------------------------------------------------------------------
# special functions


def _check_dof(dof: int) -> None:
    if isinstance(dof, bool) or not isinstance(dof, numbers.Integral) or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")


def t_cdf(dof: int, x: float) -> float:
    """CDF of Student's t with a positive integer dof.

    With theta = atan(|x| / sqrt(dof)), P(|T| < |x|) is a finite series in
    cos^2 theta (Abramowitz & Stegun 26.7.3 for even dof, 26.7.4 for odd).
    """
    _check_dof(dof)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    theta = math.atan2(abs(x), math.sqrt(dof))
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    term = total = 1.0
    if dof % 2 == 0:
        for j in range(1, dof // 2):
            term *= cos2 * (2 * j - 1) / (2 * j)
            total += term
        inside = sin * total
    else:
        if dof > 1:
            for j in range(1, (dof - 1) // 2):
                term *= cos2 * (2 * j) / (2 * j + 1)
                total += term
            theta += sin * cos * total
        inside = 2.0 / math.pi * theta
    return 0.5 + math.copysign(0.5 * inside, x)


# typed: True and 1 are equal keys to an untyped cache, and True is no dof
@lru_cache(maxsize=8192, typed=True)
def t_quantile(dof: int, p: float) -> float:
    """x with t_cdf(dof, x) = p, by bisection (absolute error < 1e-10)."""
    _check_dof(dof)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(dof, 1.0 - p)
    lo, hi = 0.0, 1.0
    while t_cdf(dof, hi) < p:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError(f"t_quantile bracket failed for dof={dof}, p={p}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(dof, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# confidence intervals


def statistic_matrix(
    thetas: Sequence[np.ndarray], model: LossModel, inputs: np.ndarray, mode: str
) -> np.ndarray:
    """(S, n_inputs) statistics, one row per model.

    Each row depends only on its own model, so a row slice of the result
    equals the matrix of those rows' models bit for bit.
    """
    if mode not in STATISTIC_MODES:
        raise ValueError(f"unknown statistic mode {mode!r}")
    if mode == "label_as_integer":
        return model.predict_labels(np.asarray(thetas), inputs).astype(np.float64)
    return model.predict_proba(np.asarray(thetas), inputs).max(axis=2)


def t_widths(stats: np.ndarray, level: float) -> np.ndarray:
    """Widths 2 * t_{k-1} * s / sqrt(k) of the two-sided t intervals for
    the mean of each column of a (k, n) sample matrix, or one width for a
    (k,) sample.

    Zero sample variance gives width 0 (all models agree); fewer than
    two samples is an error.
    """
    stats = np.asarray(stats, dtype=np.float64)
    k = stats.shape[0]
    if k < 2:
        raise ValueError(f"a t interval needs at least two samples, got {k}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    q = t_quantile(k - 1, 1.0 - (1.0 - level) / 2.0)
    return 2.0 * q * stats.std(axis=0, ddof=1) / math.sqrt(k)


def independent_rows(seeds: Sequence[int], k: int, selection_seed: int) -> np.ndarray:
    """Sorted indices of k of the runs with these seeds, drawn without
    replacement from the selection_seed's STREAM_SELECT generator."""
    if len(seeds) < k:
        raise ValueError(f"have {len(seeds)} runs, need at least {k}")
    if len(set(seeds)) != len(seeds):
        raise ValueError("independent runs must carry distinct seeds")
    gen = rng.step_generator(selection_seed, rng.STREAM_SELECT, 0)
    return np.sort(gen.choice(len(seeds), size=k, replace=False))
