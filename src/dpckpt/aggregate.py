"""Checkpoint aggregation: parameter averages and output ensembles.

A run is a (K, p) checkpoint matrix plus the step of each row. Every
parameter-space method (EMA with a warm-up coefficient schedule, uniform
past-k / tail averages, polynomial-decay averaging, constant-beta EMA
over accuracy-ranked checkpoints) is a weight vector on the simplex over
those K rows, given by weights(spec, steps); its value is that vector
times the matrix, so it is always a convex combination of its inputs.
combine() applies a spec to a whole run and rolling() gives its value
after each checkpoint of a trailing window. Output-space methods
(prediction averaging, majority vote) combine per-checkpoint predictions
instead. Everything here is post-processing: no function reads training
data, noise state, or the privacy ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import DatasetHandle, LossModel, accuracy

# which optional parameters each aggregation kind uses, in the order a
# config entry such as "best_k:5:0.9" lists them
KIND_PARAMS = {
    "ema": ("beta",),
    "upa_k": ("k",),
    "upa_tail": ("alpha",),
    "pda": ("gamma",),
    "opa": ("k",),
    "omv": ("k",),
    "best_k": ("k", "beta"),
}
VALID_KINDS = tuple(KIND_PARAMS)


@dataclass(frozen=True)
class AggregationSpec:
    """One aggregation method plus exactly the parameters it needs."""

    kind: str
    k: int | None = None
    alpha: float | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown aggregation kind {self.kind!r}")
        needed = KIND_PARAMS[self.kind]
        for name in ("k", "alpha", "gamma", "beta"):
            val = getattr(self, name)
            if name in needed and val is None:
                raise ValueError(f"aggregation {self.kind!r} requires {name}")
            if name not in needed and val is not None:
                raise ValueError(f"aggregation {self.kind!r} does not take {name}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.gamma is not None and not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if self.beta is not None and not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")

    def label(self) -> str:
        inner = ",".join(f"{name}={getattr(self, name)}" for name in KIND_PARAMS[self.kind])
        return f"{self.kind}({inner})"


# ---------------------------------------------------------------------------
# parameter-space weights


def ema_beta(beta_cap: float, t):
    """Warm-up coefficient min(beta_cap, (1+t)/(10+t)) used at update t.

    t may be an integer or an array of them. The scheduled coefficient
    decays the previous average, so a cold average adopts early values
    quickly (the warm-up term binds) while large beta_cap values give long
    memory late in training.
    """
    if not 0 < beta_cap <= 1:
        raise ValueError("beta_cap must be in (0, 1]")
    t = np.asarray(t)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return np.minimum(beta_cap, (1.0 + t) / (10.0 + t))


def _fold_weights(keep: np.ndarray) -> np.ndarray:
    """Weights of the fold x_0 = row 0, x_t = keep_t x_{t-1} + (1 - keep_t) row t.

    keep holds keep_1..keep_{K-1} along its last axis, one fold per leading
    index. Row j keeps its share (1 - keep_j, or 1 for row 0) times the
    product of every later keep, taken from the last keep backwards.
    """
    w = np.empty(keep.shape[:-1] + (keep.shape[-1] + 1,))
    np.cumprod(keep[..., ::-1], axis=-1, out=w[..., -2::-1])
    w[..., -1] = 1.0
    w[..., 1:] *= 1.0 - keep
    return w


def _fold_keep(spec: AggregationSpec, t: np.ndarray) -> np.ndarray | None:
    """keep_t of a fold kind at updates t, or None for the other kinds."""
    if spec.kind == "ema":
        return ema_beta(spec.beta, t)
    if spec.kind == "pda":
        # the s-th checkpoint (s = t+1) enters with w_s = (gamma+1)/(s+gamma)
        return t / (t + 1.0 + spec.gamma)
    if spec.kind == "best_k":
        return np.full(len(t), spec.beta)
    return None


def weights(spec: AggregationSpec, steps: Sequence[int]) -> np.ndarray:
    """The (K,) simplex weights a parameter-space spec puts on K checkpoints.

    steps are the checkpoints' increasing step numbers. Only upa_tail
    reads their values; the other kinds index rows by position. For
    best_k the rows are the selected checkpoints, best first.
    """
    steps = np.asarray(steps)
    K = len(steps)
    if K < 1:
        raise ValueError("need at least one checkpoint")
    keep = _fold_keep(spec, np.arange(1, K))
    if keep is not None:
        return _fold_weights(keep)
    w = np.zeros(K)
    if spec.kind == "upa_k":
        if spec.k > K:
            raise ValueError(f"k={spec.k} outside [1, {K}]")
        w[K - spec.k :] = 1.0 / spec.k
        return w
    if spec.kind == "upa_tail":
        tail = steps > math.floor((1.0 - spec.alpha) * steps[-1])
        # the last step lies past the cut in exact arithmetic, but
        # (1 - alpha) * T rounds up to T for alpha below about one ulp
        tail[-1] = True
        w[tail] = 1.0 / tail.sum()
        return w
    raise ValueError(f"aggregation {spec.kind!r} does not produce a parameter vector")


def _aligned_steps(steps: Sequence[int] | None, count: int) -> np.ndarray:
    if steps is None:
        return np.arange(1, count + 1)
    steps = np.asarray(steps)
    if len(steps) != count:
        raise ValueError("steps and checkpoints must align")
    return steps


def combine(
    spec: AggregationSpec, params: np.ndarray, steps: Sequence[int] | None = None
) -> np.ndarray:
    """The spec's parameter vector over a (K, p) checkpoint matrix.

    steps default to 1..K; pass explicit step numbers when the run was
    checkpointed at a coarser cadence.
    """
    params = np.asarray(params, dtype=np.float64)
    return weights(spec, _aligned_steps(steps, len(params))) @ params


def rolling(
    spec: AggregationSpec, params: np.ndarray, steps: Sequence[int], last_n: int
) -> np.ndarray:
    """The spec's value after each of the last last_n checkpoints, (last_n, p).

    Row i is the spec applied to the run's prefix ending at that
    checkpoint; a prefix shorter than k averages every row it has.
    """
    params = np.asarray(params, dtype=np.float64)
    K = len(params)
    steps = _aligned_steps(steps, K)
    if spec.kind == "best_k":
        raise ValueError("best_k ranks its rows, so it has no per-step rolling form")
    if not 1 <= last_n <= K:
        raise ValueError(f"window of {last_n} exceeds the {K} checkpoints")
    t = np.arange(1, K)
    keep = _fold_keep(spec, t)
    if keep is not None:
        ends = np.arange(K - last_n + 1, K + 1)
        # A fold's keeps do not depend on where its prefix ends. Each window
        # row keeps exact 1.0s past its prefix: they leave the backward
        # products of its own keeps unchanged and give its later rows a
        # share of 0, so every row equals weights() on its prefix bit for bit.
        return _fold_weights(np.where(t < ends[:, None], keep, 1.0)) @ params
    W = np.zeros((last_n, K))
    for row, end in enumerate(range(K - last_n + 1, K + 1)):
        prefix = spec if spec.k is None or spec.k <= end else replace(spec, k=end)
        W[row, :end] = weights(prefix, steps[:end])
    return W @ params


def upa_past_k(thetas: np.ndarray, k: int) -> np.ndarray:
    """Unweighted mean of the last k parameter vectors."""
    return combine(AggregationSpec("upa_k", k=k), thetas)


# ---------------------------------------------------------------------------
# output aggregation


def opa_batch_labels(
    thetas: Sequence[np.ndarray], model: LossModel, features: np.ndarray
) -> np.ndarray:
    """Label of the averaged prediction vector per input (ties to lowest class)."""
    return np.mean(model.predict_proba(np.asarray(thetas), features), axis=0).argmax(axis=1)


def omv_batch_labels(
    thetas: Sequence[np.ndarray], model: LossModel, features: np.ndarray
) -> np.ndarray:
    """Majority vote over per-checkpoint labels per input (ties to lowest class)."""
    labels = model.predict_labels(np.asarray(thetas), features)  # (k, n)
    # classes above the largest label get no votes, so they cannot win
    votes = (labels[:, :, None] == np.arange(labels.max() + 1)).sum(axis=0)  # (n, c')
    return votes.argmax(axis=1)


# ---------------------------------------------------------------------------
# data-dependent selection


def select_best_k(
    params: np.ndarray,
    steps: Sequence[int],
    model: LossModel,
    heldout: DatasetHandle,
    k: int,
) -> np.ndarray:
    """Row indices of the k checkpoints scoring best on heldout data, best first.

    Accuracy ties resolve toward the earlier step. heldout must be disjoint
    from the training data, as split_dataset's "heldout" part is.
    """
    if not 1 <= k <= len(params):
        raise ValueError(f"k={k} outside [1, {len(params)}]")
    # lexsort is stable, so rows tied on accuracy and step keep their order
    return np.lexsort((np.asarray(steps), -accuracy(model, params, heldout)))[:k]
