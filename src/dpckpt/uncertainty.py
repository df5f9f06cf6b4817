"""Student-t confidence intervals over per-model prediction statistics.

The interval for one test input treats the k models' statistics as a
small i.i.d. sample: mean +/- t_{k-1, 1-(1-level)/2} * s / sqrt(k). The
average interval width over many test inputs is the uncertainty proxy
compared between two ways of obtaining the k models: the final
checkpoints of k independent runs, or the last k checkpoints of one run.

The t quantile is computed from scratch: the CDF goes through the
regularized incomplete beta function I_x(a, b), evaluated with the
classic continued fraction (modified Lentz iteration, as in the Cephes
incbet/incbcf routines), and the quantile inverts the CDF by bisection.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import rng
from .model import LossModel

if TYPE_CHECKING:
    from .trainer import RunRecord

_FPMIN = 1e-300
_CF_EPS = 1e-15
_MAX_CF_ITER = 400

STATISTIC_MODES = ("label_as_integer", "modal_class_probability")


# ---------------------------------------------------------------------------
# special functions


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz.

    Converges quickly for x < (a+1)/(a+b+2); the caller flips to the
    symmetric form otherwise.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - math.exp(b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)) * _betacf(
        b, a, 1.0 - x
    ) / b


def t_cdf(dof: int, x: float) -> float:
    """CDF of Student's t with dof degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if x == 0.0:
        return 0.5
    z = dof / (dof + x * x)
    tail = 0.5 * betainc_regularized(0.5 * dof, 0.5, z)
    return 1.0 - tail if x > 0 else tail


@lru_cache(maxsize=8192)
def t_quantile(dof: int, p: float) -> float:
    """x with t_cdf(dof, x) = p, by bisection (absolute error < 1e-10)."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
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
    rows = []
    for theta in thetas:
        probs = model.predict_proba(theta, inputs)
        if mode == "label_as_integer":
            rows.append(probs.argmax(axis=1).astype(np.float64))
        else:
            rows.append(probs.max(axis=1))
    return np.stack(rows)


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


def uq_from_checkpoints(
    run: "RunRecord",
    model: LossModel,
    test_inputs: np.ndarray,
    config: UQConfig,
) -> float:
    """Average width using the last k checkpoints of a single run."""
    if len(run.checkpoints) < config.k:
        raise ValueError(
            f"run has {len(run.checkpoints)} checkpoints, need {config.k}"
        )
    thetas = [c.params for c in run.checkpoints[-config.k :]]
    return uq_average_width(thetas, model, test_inputs, config)


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
    thetas = [runs[i].final_params() for i in sorted(chosen)]
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
