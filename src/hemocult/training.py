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
overhead dominates, so it stops at lstm.STACK_MAX_HIDDEN hidden units, the
bound up to which loss_and_grads stacks a model's two directions as well;
above it the folds train one at a time. With several worker processes, each
takes a contiguous group of folds.

A failed fold's error is raised: a divergence, which names its cell and
fold, or an error from its validation scoring. If several folds fail, the
lowest fold's error is raised, whatever the number of worker processes.
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
# Rows per lstm.score call in validation and ensemble scoring. The chunk bounds
# score's largest array, its input pre-activations: rows * 72 * 4H * 8 bytes.
# It is part of the scores' bits: chunks of 1, 3 or 7 rows gave scores 1 ulp
# off one 300-row call at H = 10, 16 and 100, while chunks of 64 and 256 matched.
SCORE_CHUNK = 256


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


def _score_matrix(params: lstm.ModelParams, X: np.ndarray) -> np.ndarray:
    scores = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], SCORE_CHUNK):
        scores[lo:lo + SCORE_CHUNK] = lstm.score(X[lo:lo + SCORE_CHUNK], params)
    return scores


def _stacked(tensors: Sequence[SampleTensor]):
    """The (N, T, n_in) values and the float labels of tensors."""
    X = np.stack([t.values for t in tensors]) if len(tensors) else None
    return X, np.array([t.label for t in tensors], dtype=float)


def _val_pr_auc(X: np.ndarray, y: np.ndarray, val_rows):
    """The validation metric (params, epoch) -> PR AUC of params' scores on rows val_rows."""
    val_rows = np.asarray(val_rows)
    if not len(val_rows):
        raise ConfigError("empty validation set")
    if y[val_rows].sum() == 0:
        raise ConfigError("validation set has no positive example")
    return lambda params, epoch: pr_auc(_score_matrix(params, X[val_rows]), y[val_rows])


class _Fold:
    """One fold's model, generator, val_metric(params, epoch) and early-stopping state in the
    lockstep trainer; its cell and fold number (None in train_one) name a divergence."""

    def __init__(self, train_rows, hyper: HyperParams, val_metric, fold=None):
        hyper.validate()
        if not len(train_rows):
            raise ConfigError("empty training set")
        self.train_rows = np.asarray(train_rows)
        self.val_metric, self.fold = val_metric, fold
        self.cell = (hyper.hidden_size, hyper.learning_rate)
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
            raise TrainingDivergence(epoch, batch_loss, self.cell, self.fold)
        step = learning_rate / size
        for (name, arr), (_, g) in zip(self.params.named_arrays(), grads.named_arrays()):
            arr -= step * g
            if not np.isfinite(arr).all():
                raise TrainingDivergence(epoch, batch_loss, self.cell, self.fold, name)

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


def _train_lockstep(X: np.ndarray, y: np.ndarray, folds: List[_Fold],
                    hyper: HyperParams) -> List[TrainResult]:
    """Train the folds on their rows of (X, y) in lockstep; one TrainResult per fold, in order.

    Each fold keeps its own generator; at every batch offset the folds whose
    batch has the same size share one loss_and_grads call, so each model is
    bit-identical to training its fold alone. A failed fold stops the folds
    after it too, and the lowest failed fold's error is raised, as training
    the folds one after another would raise it.
    """
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
                    metric = float(fold.val_metric(fold.params, epoch))
                except Exception as exc:  # raised below if no earlier fold fails
                    fold.failure = exc
                    continue
                fold.stopped = fold.end_epoch(metric, epoch, hyper.patience)
            live = [f for f in _before_failure(live) if not f.stopped]
            if not live:
                break
    for fold in folds:
        if fold.failure is not None:
            raise fold.failure
    return [TrainResult(params=f.best_params, history=f.history, best_epoch=f.best_epoch,
                        best_val=f.best_val) for f in folds]


def train_one(train_tensors: Sequence[SampleTensor], val_tensors: Sequence[SampleTensor],
              hyper: HyperParams,
              val_metric: Optional[Callable[[lstm.ModelParams, int], float]] = None) -> TrainResult:
    """Mini-batch gradient descent with per-epoch validation early stopping.

    The lockstep trainer with one split. val_metric, when given, replaces
    the validation PR AUC computation; it receives (current params,
    1-based epoch) and returns the metric.
    """
    n = len(train_tensors)
    X, y = _stacked([*train_tensors, *val_tensors])
    if val_metric is None:
        val_metric = _val_pr_auc(X, y, range(n, len(y)))
    (result,) = _train_lockstep(X, y, [_Fold(range(n), hyper, val_metric)], hyper)
    return result


def _train_group(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                 group) -> List[TrainResult]:
    """The lockstep trainer on the folds in group: fold f validates on partition f with seed+f."""
    X, y = _stacked(tensors)
    folds = []
    for fold in map(int, group):
        val_ids = set(plan.folds[fold])
        in_val = [t.admission_id in val_ids for t in tensors]
        folds.append(_Fold([i for i, v in enumerate(in_val) if not v],
                           replace(hyper, seed=hyper.seed + fold),
                           _val_pr_auc(X, y, [i for i, v in enumerate(in_val) if v]), fold))
    return _train_lockstep(X, y, folds, hyper)


def train_folds(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                jobs: int = 1) -> List[TrainResult]:
    """One model per fold, fold f validating on partition f with seed+f.

    At hidden sizes up to lstm.STACK_MAX_HIDDEN the folds of each process
    train in lockstep: with jobs > 1, each of min(jobs, k) worker processes
    takes a contiguous group of folds. Above it, every fold trains on its
    own, in worker processes when jobs > 1. Results come back in fold order
    either way. The groups ascend and map re-raises a group's error in its
    turn, so the lowest failed fold's error is raised whatever jobs is.
    """
    workers = min(jobs, plan.k)
    if hyper.hidden_size <= lstm.STACK_MAX_HIDDEN:
        groups = np.array_split(np.arange(plan.k), workers)
    else:
        groups = [[fold] for fold in range(plan.k)]
    task = partial(_train_group, tensors, plan, hyper)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        return list(chain.from_iterable((pool.map if pool else map)(task, groups)))


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


def ensemble_scores(members: Sequence[lstm.ModelParams],
                    tensors: Sequence[SampleTensor]) -> np.ndarray:
    """Arithmetic mean of member scores, members in fixed fold order."""
    if not members:
        raise IntegrityError("ensemble has no members")
    X = np.stack([t.values for t in tensors])
    stacked = np.stack([_score_matrix(m, X) for m in members])
    return stacked.mean(axis=0)


__all__ = [
    "HyperParams", "FoldPlan", "TrainResult", "GridResult",
    "GRID_HIDDEN", "GRID_LR", "stratified_split", "make_folds", "train_one",
    "train_folds", "grid_search", "ensemble_scores",
]
