"""Exception types shared across the pipeline: one class per CLI exit code."""


class HemocultError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HemocultError):
    """Exit 2: a configuration value or CLI flag is invalid, or the data cannot meet a
    precondition (unknown variable, nothing to fit or anchor, no positive label)."""
    exit_code = 2


class FormatError(HemocultError):
    """Exit 3: a cohort file or a text artifact is malformed or has the wrong header (an OSError
    from reading or writing a file exits 3 too)."""
    exit_code = 3


class SplitError(HemocultError):
    """Exit 4: a stratified split or a cross-validation fold plan is impossible."""
    exit_code = 4


class TrainingDivergence(HemocultError):
    """Exit 5: training produced a non-finite loss, or an update left a non-finite weight in
    `block`; names the epoch, and the cell and fold if known."""
    exit_code = 5

    def __init__(self, epoch: int, loss: float, cell=None, fold=None, block=None):
        # all five go to args, so the default pickling rebuilds it across processes
        super().__init__(epoch, loss, cell, fold, block)
        self.epoch, self.loss, self.cell, self.fold, self.block = epoch, loss, cell, fold, block

    def __str__(self):
        where = []
        if self.cell is not None:
            where.append(f"cell hidden={self.cell[0]} lr={self.cell[1]}")
        if self.fold is not None:
            where.append(f"fold {self.fold}")
        suffix = f" ({', '.join(where)})" if where else ""
        what = (f"non-finite loss {self.loss!r}" if self.block is None else
                f"an update left a non-finite weight in block {self.block!r} "
                f"(batch loss {self.loss!r})")
        return f"training diverged: {what} at epoch {self.epoch}{suffix}"


class IntegrityError(HemocultError):
    """Exit 6: a tensor cache or checkpoint is malformed, truncated or inconsistent, an
    array does not have its declared shape, or artifacts do not belong together."""
    exit_code = 6
