"""Experiment harness: config files, task orchestration, CLI."""

from .config import ConfigView, load_config, parse_config_text
from .experiments import (
    ResultRow,
    ResultTable,
    derive_run_seed,
    run_experiment,
)

__all__ = [
    "ConfigView",
    "load_config",
    "parse_config_text",
    "ResultRow",
    "ResultTable",
    "derive_run_seed",
    "run_experiment",
]
