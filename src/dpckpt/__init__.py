"""Differentially private training with checkpoint aggregation.

The toolkit trains small convex models under zCDP budgets, combines the
intermediate checkpoints of a single run (parameter averages, output
ensembles, data-dependent selection), quantifies prediction uncertainty
from one run via Student-t intervals, and verifies the underlying
variance-estimation theory on an exactly solvable Langevin simulator.
Everything downstream of training is post-processing: no aggregation or
uncertainty routine touches data, noise, or the privacy ledger.
"""

from . import aggregate, dpld, harness, model, privacy, rng, trainer, uncertainty
from .aggregate import AggregationSpec
from .errors import ConfigError, NumericDivergenceError, NumericOverflowError
from .model import (
    DatasetHandle,
    DiurnalSchedule,
    LogisticLoss,
    LossModel,
    QuadraticLoss,
    accuracy,
    synth_classification,
)
from .privacy import (
    PrivacyBudget,
    calibrate_practical,
    calibrate_theoretical,
    compose_zcdp,
    epsilon_to_zcdp,
    zcdp_to_epsilon,
)
from .trainer import (
    RunRecord,
    TrainerConfig,
    dp_sgd_practical_runs,
    dp_sgd_theoretical_runs,
    load_run,
    save_run,
)
from .uncertainty import independent_rows, statistic_matrix, t_quantile, t_widths

__version__ = "0.1.0"

__all__ = [
    "aggregate",
    "dpld",
    "harness",
    "model",
    "privacy",
    "rng",
    "trainer",
    "uncertainty",
    "AggregationSpec",
    "ConfigError",
    "NumericDivergenceError",
    "NumericOverflowError",
    "DatasetHandle",
    "DiurnalSchedule",
    "LogisticLoss",
    "LossModel",
    "QuadraticLoss",
    "accuracy",
    "synth_classification",
    "PrivacyBudget",
    "calibrate_practical",
    "calibrate_theoretical",
    "compose_zcdp",
    "epsilon_to_zcdp",
    "zcdp_to_epsilon",
    "RunRecord",
    "TrainerConfig",
    "dp_sgd_practical_runs",
    "dp_sgd_theoretical_runs",
    "load_run",
    "save_run",
    "independent_rows",
    "statistic_matrix",
    "t_quantile",
    "t_widths",
    "__version__",
]
