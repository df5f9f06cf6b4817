"""The explicit per-example oracle of the practical trainer's clipped step.

per_example_grads builds the (n, p) matrix of per-example gradients from
the public prediction head, and clip_rows scales its rows to a norm bound.
The mean of the clipped rows is what LossModel.clipped_grad_mean computes
without forming that matrix, so the tests compare the two.
"""

import numpy as np

from dpckpt.model import DatasetHandle, LossModel, QuadraticLoss


def per_example_grads(model: LossModel, theta: np.ndarray, data: DatasetHandle) -> np.ndarray:
    """(n, p): the gradient of each example's loss, l2 term included, at a (p,) theta.

    A logistic example's gradient is R_i (x) x_i + l2 * theta, where R_i is
    its class probabilities minus its one-hot label (for the binary head,
    the positive-class probability minus the label). The quadratic loss
    reads no data, so every example has the full gradient.
    """
    if isinstance(model, QuadraticLoss):
        return np.tile(model.grad_full(theta[None])[0], (data.n, 1))
    probs = model.predict_proba(theta[None], data)[0]
    resid = probs - np.eye(model.num_classes)[data.labels]
    if model.binary:
        resid = resid[:, 1:]
    grads = resid[:, :, None] * data.features[:, None, :]
    return grads.reshape(data.n, -1) + model.l2_reg * theta


def clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row to norm at most clip_norm (rows at the bound untouched)."""
    norms = np.linalg.norm(grads, axis=1)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    return grads * factors[:, None]


def clipped_mean(model: LossModel, theta: np.ndarray, batch: DatasetHandle, clip_norm: float):
    """(p,) mean of the batch's clipped per-example gradients at a (p,) theta."""
    return clip_rows(per_example_grads(model, theta, batch), clip_norm).mean(axis=0)
