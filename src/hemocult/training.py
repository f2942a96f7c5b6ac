"""Training protocol: stratified split, 10-fold CV, grid search, ensemble.

Optimization is plain mini-batch gradient descent on the mean per-batch
class-weighted squared error. After every epoch the validation PR AUC is
computed; training stops when it exceeds 0.90, when it strictly drops
`patience` epochs in a row (default 1), or at max_epochs. The model
returned is the one from the epoch with the highest validation PR AUC.

All randomness flows from explicit seeds: fold f of a run trains with
seed + f, and each fold's generator drives both its parameter init and
its per-epoch shuffles.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import lstm
from .errors import (ConfigError, ContractViolationError, FoldError,
                     StratificationError, TrainingDivergence)
from .metrics import pr_auc
from .prep import SampleTensor

GRID_HIDDEN = (10, 100, 1000)
GRID_LR = (0.0001, 0.001, 0.01)
EARLY_STOP_THRESHOLD = 0.90


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
        if self.w_pos <= 0:
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
        raise StratificationError("cannot split an empty cohort")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    pos = [i for i, y in zip(ids, labels) if y == 1]
    neg = [i for i, y in zip(ids, labels) if y == 0]
    if not pos or not neg:
        raise StratificationError("stratified split needs both classes present")
    n_test = _round_half_up(test_fraction * len(ids))
    n_test_pos = _round_half_up(test_fraction * len(pos))
    n_test_neg = n_test - n_test_pos
    if n_test_pos == 0:
        raise StratificationError(f"test fraction {test_fraction} of {len(pos)} positives "
                                  "puts no positive on the test side")
    if not (0 <= n_test_pos <= len(pos) and 0 <= n_test_neg <= len(neg)):
        raise StratificationError(
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
            raise FoldError(f"{name} class has {len(cls)} members, fewer than k={k}")
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
        piece = np.ascontiguousarray(X[lo:lo + chunk])
        scores[lo:lo + chunk], _ = lstm.forward_batch(piece, params)
    return scores


def train_one(train_tensors: Sequence[SampleTensor], val_tensors: Sequence[SampleTensor],
              hyper: HyperParams,
              val_metric: Optional[Callable[[lstm.ModelParams, int], float]] = None) -> TrainResult:
    """Mini-batch gradient descent with per-epoch validation early stopping.

    val_metric, when given, replaces the validation PR AUC computation;
    it receives (current params, 1-based epoch) and returns the metric.
    """
    hyper.validate()
    if not len(train_tensors):
        raise ConfigError("empty training set")
    val_labels = np.array([t.label for t in val_tensors], dtype=int)
    if val_metric is None:
        if not len(val_tensors):
            raise ConfigError("empty validation set")
        if val_labels.sum() == 0:
            raise ConfigError("validation set has no positive example")
    rng = np.random.default_rng(hyper.seed)
    params = lstm.init_params(hyper.hidden_size, rng)
    X = np.stack([t.values for t in train_tensors])
    y = np.array([float(t.label) for t in train_tensors])
    val_X = np.stack([t.values for t in val_tensors]) if len(val_tensors) else None

    history: List[float] = []
    best_val = -np.inf
    best_epoch = 0
    best_params = params.copy()
    drops = 0
    # a non-finite loss or weight is refused below; numpy's overflow warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hyper.max_epochs + 1):
            order = rng.permutation(X.shape[0])
            for lo in range(0, X.shape[0], hyper.batch_size):
                idx = order[lo:lo + hyper.batch_size]
                Xb = np.ascontiguousarray(X[idx])
                yb = y[idx]
                _, cache = lstm.forward_batch(Xb, params)
                loss_sum, grads = lstm.backward_batch(Xb, yb, params, hyper.w_pos, 1.0, cache)
                batch_loss = loss_sum / idx.size
                if not np.isfinite(batch_loss):
                    raise TrainingDivergence(epoch, batch_loss)
                step = hyper.learning_rate / idx.size
                for (name, arr), (_, g) in zip(params.named_arrays(), grads.named_arrays()):
                    arr -= step * g
                    if not np.isfinite(arr).all():
                        raise TrainingDivergence(epoch, batch_loss, block=name)
            if val_metric is not None:
                metric = float(val_metric(params, epoch))
            else:
                metric = pr_auc(_score_matrix(params, val_X), val_labels)
            history.append(metric)
            if metric > best_val:
                best_val = metric
                best_epoch = epoch
                best_params = params.copy()
            if metric > EARLY_STOP_THRESHOLD:
                break
            if len(history) >= 2 and metric < history[-2]:
                drops += 1
                if drops >= hyper.patience:
                    break
            else:
                drops = 0
    return TrainResult(params=best_params, history=history,
                       best_epoch=best_epoch, best_val=best_val)


def _train_fold(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                fold: int) -> TrainResult:
    val_ids = set(plan.folds[fold])
    train = [t for t in tensors if t.admission_id not in val_ids]
    val = [t for t in tensors if t.admission_id in val_ids]
    try:
        return train_one(train, val, replace(hyper, seed=hyper.seed + fold))
    except TrainingDivergence as exc:
        raise TrainingDivergence(exc.epoch, exc.loss, (hyper.hidden_size, hyper.learning_rate),
                                 fold, exc.block) from None


def train_folds(tensors: Sequence[SampleTensor], plan: FoldPlan, hyper: HyperParams,
                jobs: int = 1) -> List[TrainResult]:
    """One model per fold, fold f validating on partition f with seed+f.

    With jobs > 1 the folds train in that many worker processes; results
    come back in fold order either way.
    """
    task = partial(_train_fold, tensors, plan, hyper)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        return list((pool.map if pool else map)(task, range(plan.k)))


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
        raise ContractViolationError("ensemble has no members")
    X = np.stack([t.values for t in tensors])
    stacked = np.stack([_score_matrix(m, X, chunk) for m in members])
    return stacked.mean(axis=0)


__all__ = [
    "HyperParams", "FoldPlan", "TrainResult", "GridResult",
    "GRID_HIDDEN", "GRID_LR", "stratified_split", "make_folds", "train_one",
    "train_folds", "grid_search", "ensemble_scores",
]
