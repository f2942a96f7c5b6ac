"""Exception types shared across the pipeline."""


class HemocultError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HemocultError):
    """Invalid configuration values (counts, rates, ranges, CLI flags)."""


class SchemaError(HemocultError):
    """A series refers to an unknown variable or breaks a structural invariant."""


class FormatError(HemocultError):
    """A cohort file or a text artifact is malformed or has the wrong header."""


class TensorCacheError(HemocultError):
    """A binary tensor cache file is malformed or truncated."""


class CheckpointError(HemocultError):
    """A model checkpoint file is malformed, truncated, or inconsistent."""


class ShapeError(HemocultError):
    """Array dimensions do not match the declared model or tensor layout."""


class FitError(HemocultError):
    """Normalization statistics cannot be fitted (a variable has no values)."""


class EmptySeriesError(HemocultError):
    """A series has no measurements where at least one is required."""


class StratificationError(HemocultError):
    """A stratified split is impossible (empty class or infeasible counts)."""


class FoldError(HemocultError):
    """A cross-validation fold plan is impossible (class smaller than k)."""


class TrainingDivergence(HemocultError):
    """Training produced a non-finite loss. Carries the epoch and loss value."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")

    def __reduce__(self):
        # exceptions cross process boundaries during parallel fold training
        return (type(self), (self.epoch, self.loss))


class ContractViolationError(HemocultError):
    """An API was called with state it cannot have produced (stale cache, empty ensemble)."""


class UndefinedRecallError(HemocultError):
    """Precision-recall evaluation was requested with zero positive labels."""
