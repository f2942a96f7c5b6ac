"""Training protocol: stratified split, 10-fold CV, grid search, ensemble.

Optimization is plain mini-batch gradient descent on the mean per-batch
class-weighted squared error. After every epoch the validation PR AUC is
computed; training stops when it exceeds 0.90, when it strictly drops
`patience` epochs in a row (default 1), or at max_epochs. The model
returned is the one from the epoch with the highest validation PR AUC.

All randomness flows from explicit seeds: fold f of a run trains with
seed + f, and each fold's generator drives both its parameter init and
its per-epoch shuffles.

The folds of a cell train in lockstep: at each batch offset, the folds
whose batch has the same size share one lstm.loss_and_grads call, its
stacked forward and backward pass, while each keeps its own generator,
updates, validation and stopping rules; validation and the ensemble score
through lstm.score. Every fold model is bit-identical to training that
fold alone, as train_one does. Stacking pays only while the per-call numpy
overhead dominates, so it stops at LOCKSTEP_MAX_HIDDEN hidden units; above
that the folds train one at a time. With several worker processes, each
takes a contiguous group of folds.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import lstm
from .errors import ConfigError, IntegrityError, SplitError, TrainingDivergence
from .metrics import pr_auc
from .prep import SampleTensor

GRID_HIDDEN = (10, 100, 1000)
GRID_LR = (0.0001, 0.001, 0.01)
EARLY_STOP_THRESHOLD = 0.90
# Folds train in lockstep only up to this hidden size. Measured at batch 32:
# stacking was neutral at H=20 and slower at H=32 and H=100, and each stacked
# fold holds its own BPTT caches (its gate activations alone take about 74 MB
# per direction at H=1000).
LOCKSTEP_MAX_HIDDEN = 16


@dataclass
class HyperParams:
    hidden_size: int = 10
    learning_rate: float = 0.01
    max_epochs: int = 150
    w_pos: float = 8.0
    batch_size: int = 32
    seed: int = 0
    patience: int = 1

    def validate(self):
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not self.w_pos > 0:
            raise ConfigError(f"w_pos must be > 0, got {self.w_pos}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class FoldPlan:
    """k disjoint id partitions of the training set, class-balanced."""

    folds: List[List[str]]

    @property
    def k(self) -> int:
        return len(self.folds)


@dataclass
class TrainResult:
    params: lstm.ModelParams
    history: List[float]  # one validation PR AUC per completed epoch
    best_epoch: int  # 1-based epoch whose parameters are returned
    best_val: float


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(ids: Sequence[str], labels: Sequence[int],
                     test_fraction: float = 0.10, seed: int = 0):
    """Class-proportional train/test split; counts use round-half-up."""
    ids = list(ids)
    labels = [int(v) for v in labels]
    if len(ids) != len(labels):
        raise ConfigError("ids and labels differ in length")
    if not ids:
        raise SplitError("cannot split an empty cohort")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    pos = [i for i, y in zip(ids, labels) if y == 1]
    neg = [i for i, y in zip(ids, labels) if y == 0]
    if not pos or not neg:
        raise SplitError("stratified split needs both classes present")
    n_test = _round_half_up(test_fraction * len(ids))
    n_test_pos = _round_half_up(test_fraction * len(pos))
    n_test_neg = n_test - n_test_pos
    if n_test_pos == 0:
        raise SplitError(f"test fraction {test_fraction} of {len(pos)} positives "
                         "puts no positive on the test side")
    if not (0 <= n_test_pos <= len(pos) and 0 <= n_test_neg <= len(neg)):
        raise SplitError(
            f"infeasible split: {n_test_pos} positives / {n_test_neg} negatives requested")
    rng = np.random.default_rng(seed)
    pos_pick = set(np.array(pos, dtype=object)[rng.permutation(len(pos))[:n_test_pos]])
    neg_pick = set(np.array(neg, dtype=object)[rng.permutation(len(neg))[:n_test_neg]])
    test_set = pos_pick | neg_pick
    train_ids = [i for i in ids if i not in test_set]
    test_ids = [i for i in ids if i in test_set]
    return train_ids, test_ids


def make_folds(ids: Sequence[str], labels: Sequence[int], k: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each class and deal both through one round-robin pointer."""
    ids = list(ids)
    labels = [int(v) for v in labels]
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    pos = [i for i, y in zip(ids, labels) if y == 1]
    neg = [i for i, y in zip(ids, labels) if y == 0]
    for name, cls in (("positive", pos), ("negative", neg)):
        if len(cls) < k:
            raise SplitError(f"{name} class has {len(cls)} members, fewer than k={k}")
    rng = np.random.default_rng(seed)
    folds: List[List[str]] = [[] for _ in range(k)]
    pointer = 0
    for cls in (pos, neg):
        arr = np.array(cls, dtype=object)
        for i in rng.permutation(len(arr)):
            folds[pointer % k].append(str(arr[i]))
            pointer += 1
    return FoldPlan(folds=folds)


def _score_matrix(params: lstm.ModelParams, X: np.ndarray, chunk: int = 256) -> np.ndarray:
    scores = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], chunk):
        scores[lo:lo + chunk] = lstm.score(X[lo:lo + chunk], params)
    return scores


class _Fold:
    """One split's model, generator and early-stopping state in the lockstep trainer."""

    def __init__(self, labels: np.ndarray, train_rows, val_rows, hyper: HyperParams, val_metric):
        if not len(train_rows):
            raise ConfigError("empty training set")
        if val_metric is None:
            if not len(val_rows):
                raise ConfigError("empty validation set")
            if labels[val_rows].sum() == 0:
                raise ConfigError("validation set has no positive example")
        self.train_rows, self.val_rows = np.asarray(train_rows), np.asarray(val_rows)
        self.rng = np.random.default_rng(hyper.seed)
        self.params = lstm.init_params(hyper.hidden_size, self.rng)
        self.history: List[float] = []
        self.best_val, self.best_epoch, self.best_params = -np.inf, 0, self.params.copy()
        self.drops = 0
        self.order = None  # this epoch's shuffle of train_rows
        self.stopped = False
        self.failure: Optional[Exception] = None

    def step(self, grads: lstm.ModelParams, loss_sum: float, size: int, epoch: int,
             learning_rate: float):
        """One gradient descent update from a batch of `size` examples."""
        batch_loss = loss_sum / size
        if not np.isfinite(batch_loss):
            raise TrainingDivergence(epoch, batch_loss)
        step = learning_rate / size
        for (name, arr), (_, g) in zip(self.params.named_arrays(), grads.named_arrays()):
            arr -= step * g
            if not np.isfinite(arr).all():
                raise TrainingDivergence(epoch, batch_loss, block=name)

    def end_epoch(self, metric: float, epoch: int, patience: int) -> bool:
        """Record the epoch's validation metric; True once a stopping rule fires."""
        self.history.append(metric)
        if metric > self.best_val:
            self.best_val, self.best_epoch, self.best_params = metric, epoch, self.params.copy()
        if metric > EARLY_STOP_THRESHOLD:
            return True
        if len(self.history) >= 2 and metric < self.history[-2]:
            self.drops += 1
            return self.drops >= patience
        self.drops = 0
        return False


def _before_failure(folds):
    """The folds ahead of the first failed one: a fold after it can no longer be returned."""
    for n, fold in enumerate(folds):
        if fold.failure is not None:
            return folds[:n]
    return folds


def _train_lockstep(tensors: Sequence[SampleTensor], splits, hyper: HyperParams,
                    val_metric=None) -> list:
    """Train one model per (train rows, val rows, seed) split of tensors, all in lockstep.

    Each split keeps train_one's rules and its own generator; at every batch
    offset the splits whose batch has the same size share one loss_and_grads
    call, so each model is bit-identical to training its split alone. Returns
    one TrainResult per split, in order, as training them one after another
    would: a split that fails (a divergence, or an error from its validation
    scoring) ends the list with its exception, and the splits after it are
    dropped. A split that cannot train (an empty side, or no positive to
    validate on) raises its ConfigError before any split trains.
    """
    hyper.validate()
    labels = np.array([t.label for t in tensors], dtype=int)
    X = np.stack([t.values for t in tensors]) if len(tensors) else None
    y = labels.astype(float)
    folds = [_Fold(labels, train_rows, val_rows, replace(hyper, seed=seed), val_metric)
             for train_rows, val_rows, seed in splits]
    live = folds
    # a non-finite loss or weight is refused below; numpy's overflow warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hyper.max_epochs + 1):
            for fold in live:
                fold.order = fold.train_rows[fold.rng.permutation(fold.train_rows.size)]
            for lo in range(0, max((f.order.size for f in live), default=0), hyper.batch_size):
                # folds differ in size, so their last batches do; padding would change the bits
                sizes = {min(hyper.batch_size, f.order.size - lo) for f in live if f.order.size > lo}
                for size in sorted(sizes, reverse=True):
                    group = [f for f in live if min(hyper.batch_size, f.order.size - lo) == size]
                    idx = np.stack([f.order[lo:lo + size] for f in group])
                    losses, grads = lstm.loss_and_grads(X[idx], y[idx], [f.params for f in group],
                                                        hyper.w_pos)
                    for fold, loss_sum, g in zip(group, losses, grads):
                        try:
                            fold.step(g, loss_sum, size, epoch, hyper.learning_rate)
                        except TrainingDivergence as exc:
                            fold.failure = exc
                    live = _before_failure(live)
            for fold in live:
                try:
                    if val_metric is not None:
                        metric = float(val_metric(fold.params, epoch))
                    else:
                        metric = pr_auc(_score_matrix(fold.params, X[fold.val_rows]),
                                        labels[fold.val_rows])
                except Exception as exc:  # raised by the caller if no earlier fold fails
                    fold.failure = exc
                    continue
                fold.stopped = fold.end_epoch(metric, epoch, hyper.patience)
            live = [f for f in _before_failure(live) if not f.stopped]
            if not live:
                break
    outcomes = []
    for fold in folds:
        if fold.failure is not None:
            return outcomes + [fold.failure]
        outcomes.append(TrainResult(params=fold.best_params, history=fold.history,
                                    best_epoch=fold.best_epoch, best_val=fold.best_val))
    return outcomes


def train_one(train_tensors: Sequence[SampleTensor], val_tensors: Sequence[SampleTensor],
              hyper: HyperParams,
              val_metric: Optional[Callable[[lstm.ModelParams, int], float]] = None) -> TrainResult:
    """Mini-batch gradient descent with per-epoch validation early stopping.

    The lockstep trainer with one split. val_metric, when given, replaces
    the validation PR AUC computation; it receives (current params,
    1-based epoch) and returns the metric.
    """
    n = len(train_tensors)
    split = (range(n), range(n, n + len(val_tensors)), hyper.seed)
    (outcome,) = _train_lockstep([*train_tensors, *val_tensors], [split], hyper, val_metric)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _train_group(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                 group) -> list:
    """The lockstep trainer on the folds in group: fold f validates on partition f with seed+f."""
    splits = []
    for fold in group:
        val_ids = set(plan.folds[fold])
        in_val = [t.admission_id in val_ids for t in tensors]
        splits.append(([i for i, v in enumerate(in_val) if not v],
                       [i for i, v in enumerate(in_val) if v], hyper.seed + int(fold)))
    return _train_lockstep(tensors, splits, hyper)


def train_folds(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                jobs: int = 1) -> List[TrainResult]:
    """One model per fold, fold f validating on partition f with seed+f.

    At hidden sizes up to LOCKSTEP_MAX_HIDDEN the folds of each process
    train in lockstep: with jobs > 1, each of min(jobs, k) worker processes
    takes a contiguous group of folds. Above it, every fold trains on its
    own, in worker processes when jobs > 1. Results come back in fold order
    either way, and a failure is raised for the lowest failed fold.
    """
    workers = min(jobs, plan.k)
    if hyper.hidden_size <= LOCKSTEP_MAX_HIDDEN:
        groups = np.array_split(np.arange(plan.k), workers)
    else:
        groups = [[fold] for fold in range(plan.k)]
    task = partial(_train_group, tensors, plan, hyper)
    results: List[TrainResult] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for outcome in chain.from_iterable((pool.map if pool else map)(task, groups)):
            if isinstance(outcome, TrainingDivergence):
                raise TrainingDivergence(outcome.epoch, outcome.loss,
                                         (hyper.hidden_size, hyper.learning_rate),
                                         len(results), outcome.block) from None
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
    return results


@dataclass
class GridResult:
    best: HyperParams
    cv_mean: float  # the winner's mean best-epoch val PR AUC over folds
    rows: List[Tuple[int, float, int, int, float]]  # (hidden, lr, fold, best_epoch, val PR AUC)
    results: List[TrainResult]  # the winning cell's folds, in fold order


def grid_search(tensors: Sequence[SampleTensor], plan: FoldPlan, cells: Sequence[HyperParams],
                jobs: int = 1) -> GridResult:
    """Average best-epoch val PR AUC over folds per cell; argmax wins.

    Ties prefer the smaller hidden size, then the smaller learning rate;
    of equal keys the first cell wins. Only the leader's fold results are
    kept while the search runs, so a losing cell's models are freed before
    the next cell trains.
    """
    if not cells:
        raise ConfigError("empty hyperparameter grid")
    rows = []
    best_key = best = best_results = None
    for cell in cells:
        results = train_folds(tensors, plan, cell, jobs=jobs)
        rows.extend((cell.hidden_size, cell.learning_rate, fold, r.best_epoch, r.best_val)
                    for fold, r in enumerate(results))
        mean = float(np.mean([r.best_val for r in results]))
        key = (-mean, cell.hidden_size, cell.learning_rate)
        if best_key is None or key < best_key:
            best_key, best, best_results = key, cell, results
        del results  # a loser's models must not stay alive while the next cell trains
    return GridResult(best=best, cv_mean=-best_key[0], rows=rows, results=best_results)


def ensemble_scores(members: Sequence[lstm.ModelParams], tensors: Sequence[SampleTensor],
                    chunk: int = 256) -> np.ndarray:
    """Arithmetic mean of member scores, members in fixed fold order."""
    if not members:
        raise IntegrityError("ensemble has no members")
    X = np.stack([t.values for t in tensors])
    stacked = np.stack([_score_matrix(m, X, chunk) for m in members])
    return stacked.mean(axis=0)


__all__ = [
    "HyperParams", "FoldPlan", "TrainResult", "GridResult",
    "GRID_HIDDEN", "GRID_LR", "stratified_split", "make_folds", "train_one",
    "train_folds", "grid_search", "ensemble_scores",
]
