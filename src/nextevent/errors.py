"""Exception types shared across the package.

Configuration, data and hierarchy errors subclass ``ValueError``; numerical
failures subclass ``RuntimeError``. The package has no command-line entry
point, so no exit codes are assigned yet.
"""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Malformed input data (bad file, unsorted times, bad target)."""


class HierarchyError(ValueError):
    """Inconsistent clustering hierarchy or pooling groups."""


class NumericsError(RuntimeError):
    """Non-finite values where finite ones are required."""


class TrainingDivergedError(NumericsError):
    """Loss became non-finite during optimization; carries the batch id."""

    def __init__(self, message, batch_id=None):
        super().__init__(message)
        self.batch_id = batch_id
