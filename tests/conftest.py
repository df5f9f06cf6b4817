"""Shared fixtures: small synthetic datasets, models, and test helpers."""

import numpy as np
import pytest
from hypothesis import settings

from dpckpt.model import DatasetHandle, LogisticLoss, LossModel, synth_classification

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def binary_data() -> DatasetHandle:
    return synth_classification(80, 5, num_classes=2, separation=4.0, seed=3)


@pytest.fixture(scope="session")
def multi_data() -> DatasetHandle:
    return synth_classification(120, 6, num_classes=3, separation=3.0, seed=7)


@pytest.fixture(scope="session")
def binary_model(binary_data) -> LogisticLoss:
    return LogisticLoss.for_data(binary_data, l2_reg=0.01, radius=2.0)


@pytest.fixture(scope="session")
def multi_model(multi_data) -> LogisticLoss:
    return LogisticLoss.for_data(multi_data, l2_reg=0.01, radius=2.0)


@pytest.fixture(scope="session")
def fd_grad():
    """Central finite differences, the reference for every analytic gradient."""

    def _fd(f, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            grad[i] = (f(theta + bump) - f(theta - bump)) / (2.0 * h)
        return grad

    return _fd


class ProbVectorModel(LossModel):
    """Stub classifier whose parameter vector *is* the class-probability row.

    Lets prediction-space aggregation be checked against hand-computed
    votes without training anything.
    """

    def __init__(self, num_classes: int):
        self.num_classes = num_classes

    def param_dim(self) -> int:
        return self.num_classes

    def predict_proba(self, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
        """(S, n, c) for (S, p) rows."""
        rows = self._check_rows(rows)
        probs = rows / rows.sum(axis=1, keepdims=True)
        return np.repeat(probs[:, None, :], len(features), axis=1)


@pytest.fixture(scope="session")
def prob_model() -> ProbVectorModel:
    return ProbVectorModel(3)
