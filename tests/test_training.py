import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logit

from helpers import make_tensors
from hemocult import lstm, training
from hemocult.errors import ConfigError, IntegrityError, SplitError, TrainingDivergence
from hemocult.training import (FoldPlan, HyperParams, TrainResult,
                               ensemble_scores, grid_search, make_folds,
                               stratified_split, train_folds, train_one)


def fake_ids(n, n_pos):
    ids = [f"adm{i:05d}" for i in range(n)]
    labels = [1 if i < n_pos else 0 for i in range(n)]
    return ids, labels


def zero_model(hidden_size):
    params = lstm.init_params(hidden_size, np.random.default_rng(0))
    for _, arr in params.named_arrays():
        arr[:] = 0.0
    return params


def params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in
               zip(a.named_arrays(), b.named_arrays()))


def scripted(sequence, capture=None):
    """val_metric stub that replays a fixed sequence of metrics."""
    def metric(params, epoch):
        if capture is not None:
            capture.append(params.copy())
        return sequence[epoch - 1]
    return metric


SMALL_HYPER = HyperParams(hidden_size=2, learning_rate=0.05, max_epochs=3,
                          batch_size=8, seed=9)


def test_split_default_cohort_arithmetic():
    ids, labels = fake_ids(2177, 229)
    train_ids, test_ids = stratified_split(ids, labels, 0.10, seed=0)
    positive = set(ids[:229])
    assert len(test_ids) == 218
    assert sum(i in positive for i in test_ids) == 23
    assert len(train_ids) == 1959
    assert sum(i in positive for i in train_ids) == 206


def test_split_rounds_half_up():
    ids, labels = fake_ids(10, 5)
    _, test_ids = stratified_split(ids, labels, 0.5, seed=1)
    assert len(test_ids) == 5
    assert sum(i in set(ids[:5]) for i in test_ids) == 3


def test_split_partitions_in_original_order():
    ids, labels = fake_ids(100, 20)
    train_ids, test_ids = stratified_split(ids, labels, 0.2, seed=4)
    assert sorted(train_ids + test_ids) == ids
    assert not set(train_ids) & set(test_ids)
    position = {aid: i for i, aid in enumerate(ids)}
    assert [position[i] for i in train_ids] == sorted(position[i] for i in train_ids)
    assert [position[i] for i in test_ids] == sorted(position[i] for i in test_ids)


def test_split_determinism_and_seed_sensitivity():
    ids, labels = fake_ids(100, 20)
    again = stratified_split(ids, labels, 0.2, seed=4)
    assert again == stratified_split(ids, labels, 0.2, seed=4)
    assert stratified_split(ids, labels, 0.2, seed=5)[1] != again[1]


def test_split_validation():
    ids, labels = fake_ids(10, 5)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            stratified_split(ids, labels, bad)
    with pytest.raises(ConfigError):
        stratified_split(ids, labels[:-1])
    with pytest.raises(SplitError, match="stratified split needs both classes present"):
        stratified_split(ids, [0] * 10)
    with pytest.raises(SplitError, match="cannot split an empty cohort"):
        stratified_split([], [])


def test_folds_on_default_training_side():
    ids, labels = fake_ids(1959, 206)
    plan = make_folds(ids, labels, k=10, seed=0)
    assert plan.k == 10
    sizes = sorted(len(f) for f in plan.folds)
    assert set(sizes) <= {195, 196} and sum(sizes) == 1959
    positive = set(ids[:206])
    per_fold = sorted(sum(i in positive for i in f) for f in plan.folds)
    assert per_fold == [20] * 4 + [21] * 6
    assert sorted(i for f in plan.folds for i in f) == sorted(ids)


def test_folds_tiny_exact_balance():
    ids, labels = fake_ids(20, 10)
    plan = make_folds(ids, labels, k=10, seed=3)
    positive = set(ids[:10])
    for fold in plan.folds:
        assert len(fold) == 2
        assert sum(i in positive for i in fold) == 1


def test_folds_determinism():
    ids, labels = fake_ids(60, 12)
    assert make_folds(ids, labels, k=4, seed=7).folds == \
        make_folds(ids, labels, k=4, seed=7).folds
    assert make_folds(ids, labels, k=4, seed=8).folds != \
        make_folds(ids, labels, k=4, seed=7).folds


def test_folds_validation():
    ids, labels = fake_ids(20, 5)
    with pytest.raises(ConfigError):
        make_folds(ids, labels, k=1)
    with pytest.raises(SplitError, match="positive class has 5 members, fewer than k=10"):
        make_folds(ids, labels, k=10)
    with pytest.raises(SplitError, match="negative class has 3 members, fewer than k=4"):
        make_folds(ids[:8], labels[:8], k=4)


def test_train_one_reduces_training_loss():
    tensors = make_tensors(40, 8, seed=3)
    X = np.stack([t.values for t in tensors])
    y = np.array([float(t.label) for t in tensors])
    losses = []

    def metric(params, epoch):
        losses.append(lstm.weighted_mse(lstm.score(X, params), y, 8.0, 1.0) / len(tensors))
        return 0.5

    hyper = HyperParams(hidden_size=10, learning_rate=0.01, max_epochs=6,
                        batch_size=32, seed=0)
    result = train_one(tensors, [], hyper, val_metric=metric)
    assert len(losses) == 6
    assert losses[5] < losses[0]
    assert result.history == [0.5] * 6


def test_training_holds_one_steps_caches_at_a_time():
    B, T, H = 32, 72, 100
    one_step = 2 * 8 * (T * B * 4 * H + 2 * T * B * H + (T + 1) * B * H)  # A, C and TC, Hs
    hyper = HyperParams(hidden_size=H, max_epochs=2, batch_size=B, seed=0)
    tracemalloc.start()
    try:
        train_one(make_tensors(96, 16), [], hyper, val_metric=lambda params, epoch: 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * one_step, peak / one_step


def test_train_one_returns_best_epoch_snapshot():
    tensors = make_tensors(8, 2, seed=1)
    snaps = []
    result = train_one(tensors, [], replace(SMALL_HYPER, max_epochs=10),
                       val_metric=scripted([0.40, 0.55, 0.52], snaps))
    assert result.history == [0.40, 0.55, 0.52]  # a drop stops epoch 3
    assert result.best_epoch == 2 and result.best_val == 0.55
    assert params_equal(result.params, snaps[1])
    assert not params_equal(result.params, snaps[2])


def test_train_one_stops_at_threshold_immediately():
    tensors = make_tensors(8, 2, seed=1)
    result = train_one(tensors, [], replace(SMALL_HYPER, max_epochs=10),
                       val_metric=scripted([0.93, 0.99, 0.99]))
    assert result.history == [0.93]
    assert result.best_epoch == 1 and result.best_val == 0.93


def test_train_one_threshold_is_strictly_greater():
    tensors = make_tensors(8, 2, seed=1)
    result = train_one(tensors, [], replace(SMALL_HYPER, max_epochs=10),
                       val_metric=scripted([0.90, 0.89, 0.88]))
    assert result.history == [0.90, 0.89]  # 0.90 itself does not stop
    assert result.best_epoch == 1


def test_train_one_patience_two_needs_consecutive_drops():
    tensors = make_tensors(8, 2, seed=1)
    seq = [0.5, 0.4, 0.45, 0.44, 0.43, 0.42]
    result = train_one(tensors, [], replace(SMALL_HYPER, max_epochs=10, patience=2),
                       val_metric=scripted(seq))
    assert result.history == seq[:5]  # lone drop at epoch 2 was forgiven
    assert result.best_epoch == 1 and result.best_val == 0.5


def test_train_one_tie_keeps_earliest_best():
    tensors = make_tensors(8, 2, seed=1)
    snaps = []
    result = train_one(tensors, [], replace(SMALL_HYPER, max_epochs=10),
                       val_metric=scripted([0.6, 0.6, 0.3], snaps))
    assert result.best_epoch == 1
    assert params_equal(result.params, snaps[0])


_STOP_TENSORS = make_tensors(4, 2, seed=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8))
def test_train_one_stop_rule_invariants(sequence):
    hyper = HyperParams(hidden_size=1, learning_rate=0.01,
                        max_epochs=len(sequence), batch_size=4, seed=2)
    result = train_one(_STOP_TENSORS, [], hyper, val_metric=scripted(sequence))
    h = result.history
    assert h == sequence[:len(h)]
    if len(h) < len(sequence):
        assert h[-1] > 0.90 or (len(h) >= 2 and h[-1] < h[-2])
    assert result.best_val == max(h)
    assert result.best_epoch == h.index(max(h)) + 1


def test_train_one_validation_requirements():
    tensors = make_tensors(8, 2, seed=1)
    with pytest.raises(ConfigError):
        train_one([], tensors, SMALL_HYPER)
    with pytest.raises(ConfigError):
        train_one(tensors, [], SMALL_HYPER)  # no metric and no val set
    with pytest.raises(ConfigError):
        train_one(tensors, make_tensors(4, 0, seed=2), SMALL_HYPER)


def test_infinite_class_weight_diverges():
    # scores are clipped strictly inside (0, 1), so a positive example
    # under w_pos=inf yields an infinite batch loss before any update
    tensors = make_tensors(12, 3, seed=6)
    hyper = replace(SMALL_HYPER, w_pos=float("inf"), max_epochs=5)
    with pytest.raises(TrainingDivergence) as info:
        train_one(tensors, tensors, hyper)
    exc = info.value
    assert exc.epoch == 1
    assert np.isinf(exc.loss)
    assert exc.cell == (2, 0.05) and exc.fold is None  # train_one names its cell, not a fold
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.epoch == exc.epoch and np.isinf(clone.loss)


def test_poisoned_input_diverges():
    tensors = make_tensors(12, 3, seed=6)
    tensors[4].values[10, 2] = np.nan
    with pytest.raises(TrainingDivergence) as info:
        train_one(tensors, tensors, replace(SMALL_HYPER, max_epochs=5))
    assert info.value.epoch == 1
    assert np.isnan(info.value.loss)


def test_train_folds_uses_per_fold_seeds():
    tensors = make_tensors(20, 10, seed=5)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=5, seed=2)
    results = train_folds(tensors, plan, SMALL_HYPER)
    assert len(results) == 5
    for fold in (0, 3):
        val_ids = set(plan.folds[fold])
        train = [t for t in tensors if t.admission_id not in val_ids]
        val = [t for t in tensors if t.admission_id in val_ids]
        solo = train_one(train, val, replace(SMALL_HYPER, seed=SMALL_HYPER.seed + fold))
        assert solo.best_val == results[fold].best_val
        assert params_equal(solo.params, results[fold].params)


def test_train_folds_parallel_matches_serial():
    tensors = make_tensors(16, 8, seed=4)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=2, seed=0)
    hyper = replace(SMALL_HYPER, max_epochs=2)
    serial = train_folds(tensors, plan, hyper, jobs=1)
    parallel = train_folds(tensors, plan, hyper, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.history == b.history
        assert params_equal(a.params, b.params)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces the worker pool; returns the (worker count, mapped items) of each pool opened."""
    opened = []

    class InProcessPool:
        """Records its worker count and the items mapped, and maps in this process."""

        def __init__(self, max_workers):
            opened.append((max_workers, []))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            opened[-1][1].extend([int(i) for i in item] for item in items)
            return map(fn, items)

    monkeypatch.setattr(training, "ProcessPoolExecutor", InProcessPool)
    return opened


def test_train_folds_starts_no_more_workers_than_folds(in_process_pool):
    tensors = make_tensors(16, 8, seed=4)
    plan = make_folds([t.admission_id for t in tensors], [t.label for t in tensors], k=3, seed=0)
    hyper = replace(SMALL_HYPER, max_epochs=1)
    pooled = train_folds(tensors, plan, hyper, jobs=64)
    assert [workers for workers, _ in in_process_pool] == [3]
    for a, b in zip(train_folds(tensors, plan, hyper), pooled, strict=True):
        assert params_equal(a.params, b.params)
    # each worker takes a contiguous group of folds to train in lockstep
    in_process_pool.clear()
    tensors = make_tensors(20, 10, seed=5)
    plan = make_folds([t.admission_id for t in tensors], [t.label for t in tensors], k=5, seed=2)
    train_folds(tensors, plan, hyper, jobs=2)
    # above STACK_MAX_HIDDEN every fold is a task of its own
    train_folds(tensors, plan, replace(hyper, hidden_size=lstm.STACK_MAX_HIDDEN + 1), jobs=2)
    assert in_process_pool == [(2, [[0, 1, 2], [3, 4]]), (2, [[0], [1], [2], [3], [4]])]


def test_train_folds_in_lockstep_equals_one_fold_at_a_time(in_process_pool):
    # 23 tensors in 4 folds: training sides of 17 and 18, so batches of 4 end in tails of 1 and 2
    tensors = make_tensors(23, 8, seed=5, shift=0.05)
    plan = make_folds([t.admission_id for t in tensors], [t.label for t in tensors], k=4, seed=5)
    hyper = replace(SMALL_HYPER, max_epochs=8, batch_size=4)
    lockstep = train_folds(tensors, plan, hyper)
    assert len({len(r.history) for r in lockstep}) == 4  # every fold stops at its own epoch
    pooled = train_folds(tensors, plan, hyper, jobs=2)
    assert in_process_pool == [(2, [[0, 1], [2, 3]])]
    for fold, (result, other) in enumerate(zip(lockstep, pooled, strict=True)):
        val_ids = set(plan.folds[fold])
        train = [t for t in tensors if t.admission_id not in val_ids]
        val = [t for t in tensors if t.admission_id in val_ids]
        solo = train_one(train, val, replace(hyper, seed=hyper.seed + fold))
        for r in (result, other):
            assert r.history == solo.history
            assert (r.best_epoch, r.best_val) == (solo.best_epoch, solo.best_val)
            assert params_equal(r.params, solo.params)


def test_train_folds_tags_divergent_fold():
    tensors = make_tensors(16, 8, seed=4)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=2, seed=0)
    with pytest.raises(TrainingDivergence) as info:
        train_folds(tensors, plan, replace(SMALL_HYPER, w_pos=float("inf")))
    exc = info.value
    assert exc.fold == 0  # every fold diverges; the first one reports
    assert exc.cell == (SMALL_HYPER.hidden_size, SMALL_HYPER.learning_rate)
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_folds_reports_the_lowest_divergent_fold(jobs):
    tensors = make_tensors(16, 8, seed=4)
    plan = make_folds([t.admission_id for t in tensors], [t.label for t in tensors], k=3, seed=0)
    # the other folds train on this tensor and diverge; fold 0 only scores it, and stays finite
    poisoned = next(t for t in tensors if t.admission_id in set(plan.folds[0]))
    poisoned.values[5, 0] = np.inf
    with pytest.raises(TrainingDivergence) as info:
        train_folds(tensors, plan, SMALL_HYPER, jobs=jobs)
    exc = info.value
    assert exc.fold == 1
    assert exc.block == "fwd_W" and exc.cell == (2, 0.05)


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_folds_raises_a_lower_folds_scoring_error_over_later_divergences(jobs):
    tensors = make_tensors(16, 8, seed=4)
    plan = make_folds([t.admission_id for t in tensors], [t.label for t in tensors], k=3, seed=0)
    # folds 1 and 2 train on this tensor and diverge; fold 0 scores it as NaN at epoch 1
    poisoned = next(t for t in tensors if t.admission_id in set(plan.folds[0]))
    poisoned.values[5, 0] = np.nan
    with pytest.raises(IntegrityError, match="non-finite score"):
        train_folds(tensors, plan, SMALL_HYPER, jobs=jobs)


def test_grid_search_single_cell():
    tensors = make_tensors(20, 10, seed=5)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=5, seed=2)
    result = grid_search(tensors, plan, [SMALL_HYPER])
    assert (result.best.hidden_size, result.best.learning_rate) == (2, 0.05)
    assert len(result.rows) == 5 and {row[:2] for row in result.rows} == {(2, 0.05)}
    direct = train_folds(tensors, plan, SMALL_HYPER)
    assert [row[4] for row in result.rows] == [r.best_val for r in direct]
    assert [row[3] for row in result.rows] == [r.best_epoch for r in direct]
    assert result.cv_mean == float(np.mean([r.best_val for r in direct]))
    assert len(result.results) == 5
    for kept, fresh in zip(result.results, direct):
        assert kept.history == fresh.history and kept.best_epoch == fresh.best_epoch
        assert params_equal(kept.params, fresh.params)


def test_grid_search_prefers_learning_cell(monkeypatch):
    tensors = make_tensors(30, 10, seed=8)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=3, seed=1)
    base = replace(SMALL_HYPER, max_epochs=10)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return train_folds(*args, **kwargs)

    monkeypatch.setattr(training, "train_folds", counted)
    result = grid_search(tensors, plan, [replace(base, learning_rate=lr) for lr in (0.05, 1e-12)])
    assert [h.learning_rate for h in calls] == [0.05, 1e-12]  # each cell trains once
    assert result.best.learning_rate == 0.05
    means = {cell: np.mean([row[4] for row in result.rows if row[:2] == cell])
             for cell in [(2, 0.05), (2, 1e-12)]}
    assert means[(2, 0.05)] > means[(2, 1e-12)]
    winner = train_folds(tensors, plan, replace(base, learning_rate=0.05))
    assert [r.history for r in result.results] == [r.history for r in winner]
    assert all(params_equal(a.params, b.params) for a, b in zip(result.results, winner))


def test_grid_search_tie_prefers_small_then_slow(monkeypatch):
    def fake_train_folds(tensors, plan, hyper, jobs=1):
        member = zero_model(hyper.hidden_size)
        return [TrainResult(params=member, history=[0.7], best_epoch=1, best_val=0.7)
                for _ in range(plan.k)]

    monkeypatch.setattr(training, "train_folds", fake_train_folds)
    plan = FoldPlan(folds=[["a"], ["b"]])
    result = grid_search([], plan, [replace(SMALL_HYPER, hidden_size=h, learning_rate=lr)
                                  for h, lr in [(5, 0.01), (2, 0.1), (2, 0.01)]])
    assert (result.best.hidden_size, result.best.learning_rate) == (2, 0.01)
    assert [r.params.hidden_size for r in result.results] == [2, 2]


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ConfigError):
        grid_search([], FoldPlan(folds=[["a"], ["b"]]), [])


def test_grid_search_tags_divergent_cell():
    tensors = make_tensors(16, 8, seed=4)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=2, seed=0)
    base = replace(SMALL_HYPER, w_pos=float("inf"))
    with pytest.raises(TrainingDivergence) as info:
        grid_search(tensors, plan, [base])
    assert info.value.cell == (2, 0.05)
    assert info.value.fold == 0


def test_grid_search_one_member_per_fold():
    tensors = make_tensors(40, 16, seed=10)
    ids = [t.admission_id for t in tensors]
    labels = [t.label for t in tensors]
    plan = make_folds(ids, labels, k=10, seed=0)
    hyper = replace(SMALL_HYPER, max_epochs=2)
    members = [r.params for r in grid_search(tensors, plan, [hyper]).results]
    assert len(members) == 10
    again = [r.params for r in grid_search(tensors, plan, [hyper]).results]
    assert all(params_equal(a, b) for a, b in zip(members, again))
    assert not params_equal(members[0], members[1])


def test_ensemble_scores_average_members():
    members = []
    for target in (0.2, 0.4):
        params = zero_model(2)
        params.head_b[0] = float(logit(target))
        members.append(params)
    tensors = make_tensors(6, 2, seed=3)
    scores = ensemble_scores(members, tensors)
    assert np.all(np.abs(scores - 0.3) < 1e-12)
    assert ensemble_scores(members, tensors[:1])[0] == scores[0]


def test_ensemble_scores_permutation_invariant():
    rng = np.random.default_rng(12)
    members = [lstm.init_params(3, rng) for _ in range(4)]
    tensors = make_tensors(10, 3, seed=2)
    forward = ensemble_scores(members, tensors)
    backward = ensemble_scores(members[::-1], tensors)
    assert np.allclose(forward, backward, rtol=0.0, atol=1e-14)


def test_ensemble_requires_members():
    with pytest.raises(IntegrityError, match="ensemble has no members"):
        ensemble_scores([], make_tensors(2, 1))


def test_class_weights_balance_one_to_eight_imbalance():
    params = zero_model(2)
    rng = np.random.default_rng(5)
    base = rng.normal(size=(72, 9))
    X = np.repeat(base[None], 9, axis=0)
    y = np.array([1.0] + [0.0] * 8)
    _, (grads,) = lstm.loss_and_grads(X[None], y[None], [params], 8.0)
    for _, g in grads.named_arrays():
        assert np.all(np.abs(g) < 1e-12)  # one positive offsets eight negatives
    _, (unweighted,) = lstm.loss_and_grads(X[None], y[None], [params], 1.0)
    norms = [np.abs(g).max() for _, g in unweighted.named_arrays()]
    assert max(norms) > 1e-6


def test_hyperparams_validation():
    HyperParams().validate()
    bad = [dict(hidden_size=0), dict(learning_rate=0.0), dict(learning_rate=-1.0),
           dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
           dict(max_epochs=0), dict(w_pos=0.0), dict(w_pos=float("nan")),
           dict(batch_size=0), dict(patience=0)]
    for overrides in bad:
        with pytest.raises(ConfigError):
            HyperParams(**overrides).validate()


def test_ensemble_scores_chunking_is_stable(monkeypatch):
    params = lstm.init_params(3, np.random.default_rng(1))
    tensors = make_tensors(10, 3, seed=7)
    whole = ensemble_scores([params], tensors)
    monkeypatch.setattr(training, "SCORE_CHUNK", 3)
    pieces = ensemble_scores([params], tensors)
    assert whole.shape == (10,)
    assert np.allclose(whole, pieces, rtol=0.0, atol=1e-12)
