"""Exception types shared across the recovery pipeline."""


class DepthrayError(Exception):
    """Base class for all library errors."""


class ConfigError(DepthrayError):
    """Bad or missing configuration (unknown keys, unparseable files)."""


class SchemaError(DepthrayError):
    """Input log violates the expected CSV schema.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyTrajectory(DepthrayError):
    """No samples left to evaluate."""


class LengthMismatch(DepthrayError):
    """Estimate and ground-truth sequences differ in length after sync."""


class InfeasibleScene(DepthrayError):
    """A simulated trajectory point cannot be observed by the camera."""

    def __init__(self, message, index=None):
        if index is not None:
            message = f"sample {index}: {message}"
        super().__init__(message)
        self.index = index
