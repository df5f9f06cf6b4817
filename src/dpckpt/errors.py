"""Exception types shared across the toolkit.

Plain ValueError is used for bad arguments; the classes here mark the
failure modes that callers (and the CLI exit-code mapping) need to tell
apart. Every numeric failure, in training or in scoring, is a
NumericDivergenceError: the task leaves a partial status and exits 3.
"""


class ConfigError(Exception):
    """Raised for malformed or inconsistent experiment configuration."""

    def __init__(self, message: str, key: str | None = None):
        if key is not None:
            message = f"config key '{key}': {message}"
        super().__init__(message)
        self.key = key


class NumericDivergenceError(RuntimeError):
    """Raised when an iterate, a simulated path or a prediction's logits stop being finite."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)
        self.step = step

