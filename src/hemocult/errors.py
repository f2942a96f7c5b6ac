"""Exception types shared across the pipeline, each with its CLI exit code."""


class HemocultError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HemocultError):
    """Invalid configuration values (counts, rates, ranges, CLI flags)."""
    exit_code = 2


class SchemaError(HemocultError):
    """A series refers to an unknown variable or breaks a structural invariant."""
    exit_code = 2


class FormatError(HemocultError):
    """A cohort file or a text artifact is malformed or has the wrong header."""
    exit_code = 3


class TensorCacheError(HemocultError):
    """A binary tensor cache file is malformed or truncated."""
    exit_code = 6


class CheckpointError(HemocultError):
    """A model checkpoint file is malformed, truncated, or inconsistent."""
    exit_code = 6


class ShapeError(HemocultError):
    """Array dimensions do not match the declared model or tensor layout."""
    exit_code = 6


class FitError(HemocultError):
    """Normalization statistics cannot be fitted (a variable has no values)."""
    exit_code = 2


class EmptySeriesError(HemocultError):
    """A series has no measurements where at least one is required."""
    exit_code = 2


class StratificationError(HemocultError):
    """A stratified split is impossible (empty class or infeasible counts)."""
    exit_code = 4


class FoldError(HemocultError):
    """A cross-validation fold plan is impossible (class smaller than k)."""
    exit_code = 4


class TrainingDivergence(HemocultError):
    """Training produced a non-finite loss; names the epoch, and the cell and fold if known."""
    exit_code = 5

    def __init__(self, epoch: int, loss: float, cell=None, fold=None):
        # all four go to args, so the default pickling rebuilds it across processes
        super().__init__(epoch, loss, cell, fold)
        self.epoch, self.loss, self.cell, self.fold = epoch, loss, cell, fold

    def __str__(self):
        where = []
        if self.cell is not None:
            where.append(f"cell hidden={self.cell[0]} lr={self.cell[1]}")
        if self.fold is not None:
            where.append(f"fold {self.fold}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"training diverged: non-finite loss {self.loss!r} at epoch {self.epoch}{suffix}"


class ContractViolationError(HemocultError):
    """An API was called with state it cannot have produced (stale cache, empty ensemble)."""
    exit_code = 6


class UndefinedRecallError(HemocultError):
    """Precision-recall evaluation was requested with zero positive labels."""
    exit_code = 2
