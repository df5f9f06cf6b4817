"""Student-t confidence intervals over per-model prediction statistics.

The interval for one test input treats the k models' statistics as a
small i.i.d. sample: mean +/- t_{k-1, 1-(1-level)/2} * s / sqrt(k). The
average interval width over many test inputs is the uncertainty proxy
compared between two ways of obtaining the k models: the final
checkpoints of k independent runs, or the last k checkpoints of one run.

The t quantile is computed from scratch. Every interval has k - 1
degrees of freedom, an integer, so the CDF is the closed-form finite
series in cos^2(atan(|x| / sqrt(dof))) for integer dof (Abramowitz &
Stegun 26.7.3-26.7.4), and the quantile inverts the CDF by bisection.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import rng
from .model import LossModel

if TYPE_CHECKING:
    from .trainer import RunRecord

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


@dataclass(frozen=True)
class CIReport:
    mean: float
    half_width: float
    k: int
    level: float

    @property
    def dof(self) -> int:
        return self.k - 1

    @property
    def width(self) -> float:
        return 2.0 * self.half_width


def ci_mean(samples: Sequence[float], level: float = 0.95) -> CIReport:
    """Two-sided t interval for the mean of a small i.i.d. sample.

    Zero sample variance gives half_width 0 (all models agree); fewer
    than two samples is an error.
    """
    values = np.asarray(samples, dtype=np.float64)
    k = len(values)
    if k < 2:
        raise ValueError("ci_mean needs at least two samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    q = t_quantile(k - 1, 1.0 - (1.0 - level) / 2.0)
    return CIReport(mean=mean, half_width=q * s / math.sqrt(k), k=k, level=level)


@dataclass(frozen=True)
class UQConfig:
    method: str = "last_k_checkpoints"  # or "independent_runs"
    k: int = 5
    level: float = 0.95
    statistic_mode: str = "modal_class_probability"
    num_test_inputs: int = 50

    def __post_init__(self):
        if self.method not in ("last_k_checkpoints", "independent_runs"):
            raise ValueError(f"unknown UQ method {self.method!r}")
        if self.k < 2:
            raise ValueError("k must be at least 2 for a t interval")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        if self.statistic_mode not in STATISTIC_MODES:
            raise ValueError(f"unknown statistic mode {self.statistic_mode!r}")
        if self.num_test_inputs < 1:
            raise ValueError("num_test_inputs must be positive")


def _statistic_matrix(
    thetas: Sequence[np.ndarray], model: LossModel, inputs: np.ndarray, mode: str
) -> np.ndarray:
    """(k, n_inputs) statistics, one row per model."""
    if mode not in STATISTIC_MODES:
        raise ValueError(f"unknown statistic mode {mode!r}")
    probs = model.predict_proba(np.asarray(thetas), inputs)
    if mode == "label_as_integer":
        return probs.argmax(axis=2).astype(np.float64)
    return probs.max(axis=2)


def uq_widths(
    thetas: Sequence[np.ndarray],
    model: LossModel,
    test_inputs: np.ndarray,
    config: UQConfig,
) -> np.ndarray:
    """Per-input CI widths (2 * half_width) over the k models."""
    if len(thetas) < 2:
        raise ValueError("need at least two models")
    inputs = np.atleast_2d(np.asarray(test_inputs, dtype=np.float64))
    stats = _statistic_matrix(thetas, model, inputs, config.statistic_mode)
    k = stats.shape[0]
    q = t_quantile(k - 1, 1.0 - (1.0 - config.level) / 2.0)
    s = stats.std(axis=0, ddof=1)
    return 2.0 * q * s / math.sqrt(k)


def uq_average_width(
    thetas: Sequence[np.ndarray],
    model: LossModel,
    test_inputs: np.ndarray,
    config: UQConfig,
) -> float:
    """Mean CI width over test inputs; the paper-style uncertainty proxy."""
    return float(uq_widths(thetas, model, test_inputs, config).mean())


def uq_from_independent_runs(
    runs: Sequence["RunRecord"],
    model: LossModel,
    test_inputs: np.ndarray,
    config: UQConfig,
    selection_seed: int = 0,
) -> float:
    """Average width using final checkpoints of k seeded-randomly chosen runs."""
    if len(runs) < config.k:
        raise ValueError(f"have {len(runs)} runs, need at least {config.k}")
    seeds = [r.seed for r in runs]
    if len(set(seeds)) != len(seeds):
        raise ValueError("independent runs must carry distinct seeds")
    gen = rng.step_generator(selection_seed, rng.STREAM_SELECT, 0)
    chosen = gen.choice(len(runs), size=config.k, replace=False)
    thetas = [runs[i].params[-1] for i in sorted(chosen)]
    return uq_average_width(thetas, model, test_inputs, config)


def write_uq_report(
    path: str,
    config: UQConfig,
    average_width: float,
    per_input_widths: Sequence[float] | None = None,
) -> None:
    """JSON report of one uncertainty measurement."""
    payload = {
        "method": config.method,
        "k": config.k,
        "level": config.level,
        "statisticMode": config.statistic_mode,
        "averageWidth": average_width,
    }
    if per_input_widths is not None:
        payload["perInputWidths"] = [float(w) for w in per_input_widths]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
