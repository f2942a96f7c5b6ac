"""End-to-end acceptance checks, one test per release criterion.

The conftest plugin prints a PASS/FAIL line per criterion after the run.
Numeric claims use independent reference implementations from oracles.py;
benchmark claims run the installed CLI in fresh interpreters.
"""

import hashlib
import math
import re
import shutil
import time

import numpy as np
import pytest

import oracles
from helpers import make_tensors, run_cli
from hemocult import lstm
from hemocult.cohort import CohortConfig, generate_cohort
from hemocult.metrics import pr_curve
from hemocult.prep import (NormStats, filter_outliers, fit_normalizer,
                           normalize, resample_channel)
from hemocult.training import HyperParams, make_folds, stratified_split, train_one
from hemocult.variables import BY_NAME, VARIABLES, WINDOW_SECONDS

SUMMARY_RE = re.compile(
    r"test_pr_auc=([0-9.e+-]+) baseline1=([0-9.e+-]+) baseline2=([0-9.e+-]+)")


def parse_summary(stdout):
    match = SUMMARY_RE.search(stdout)
    assert match, f"no summary line in {stdout!r}"
    return tuple(float(g) for g in match.groups())


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c01_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    schedule = [1] * 40 + [2] * 35 + [5] * 25
    start = time.perf_counter()
    worst = 0.0
    for hidden in schedule:
        params = lstm.init_params(hidden, rng)
        for _, arr in params.named_arrays():
            arr += rng.normal(0.0, 0.2, size=arr.shape)
        X = rng.normal(0.0, 0.6, size=(72, 9))
        label = int(rng.integers(0, 2))
        score = lstm.score(X[None], params)[0]
        assert abs(float(score) - float(oracles.forward_ld(X, params))) < 1e-12
        _, (grads,) = lstm.loss_and_grads(X[None, None], np.array([[float(label)]]), [params], 8.0)
        worst = max(worst, oracles.fd_gradient_worst_error(
            params, X, label, grads, w_pos=8.0, w_neg=1.0, eps=1e-5))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"{len(schedule)} triples took {elapsed:.1f}s"


def test_c02_pr_auc_matches_enumeration():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            scores = rng.integers(0, 5, size=n) / 4.0  # forced ties
        else:
            scores = rng.random(n)
        labels = np.zeros(n, dtype=int)
        labels[int(rng.integers(0, n))] = 1
        labels[rng.random(n) < 0.4] = 1
        curve = pr_curve(scores, labels)
        assert curve.points == oracles.pr_points_reference(scores, labels)
        assert curve.auc == oracles.pr_auc_reference(scores, labels)
    tied = pr_curve(np.full(8, 0.3), np.array([1, 0, 1, 0, 0, 0, 0, 0]))
    assert tied.points == [(1.0, 2 / 8, 0.3)]
    assert tied.auc == 2 / 8  # all-tied scores collapse to the prevalence
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"10000 instances took {elapsed:.1f}s"


def test_c03_resampler_matches_enumeration():
    rng = np.random.default_rng(303)
    for trial in range(1000):
        spec = VARIABLES[trial % 9]
        end = int(rng.integers(WINDOW_SECONDS // 2, 8 * WINDOW_SECONDS))
        n = int(rng.integers(0, 501))
        ts = np.sort(rng.choice(np.arange(0, end + 7200), size=n, replace=False))
        vals = np.round(rng.normal(60.0, 30.0, size=n), 4)
        avg = float(rng.normal(60.0, 10.0))
        std = 0.0 if trial % 9 == 0 else float(rng.uniform(0.0, 25.0))
        col = spec.column_index
        stats = NormStats(avg=np.zeros(9), std=np.ones(9))
        stats.avg[col] = avg
        stats.std[col] = std
        ours = resample_channel(ts, vals, spec, end, stats)
        ref = oracles.resample_reference(ts, vals, spec, end, avg, std)
        assert np.array_equal(ours, ref)


def test_c04_normalized_training_statistics():
    cohort = generate_cohort(CohortConfig(n_admissions=200, n_positive=30, seed=11))
    filtered = [filter_outliers(series)[0] for series in cohort]
    stats = fit_normalizer(filtered)
    for spec in VARIABLES:
        pooled = np.concatenate([s.channels[spec.name][1] for s in filtered
                                 if spec.name in s.channels])
        z = normalize(pooled, *stats.for_name(spec.name))
        assert abs(float(z.mean())) < 1e-9
        assert abs(float(z.std()) - 1.0 / 3.0) < 1e-9


def test_c05_weighted_loss_spot_values():
    perfect = lstm.weighted_mse(np.array([1.0, 0.0, 0.0]),
                                np.array([1.0, 0.0, 0.0]), 8.0, 1.0)
    assert perfect == 0.0
    halfway = lstm.weighted_mse(np.array([0.5]), np.array([1.0]), 8.0, 1.0)
    assert halfway == 2.0  # 8 * (0.5 - 1)^2 exactly
    rng = np.random.default_rng(5)
    scores = rng.random(64)
    labels = (rng.random(64) < 0.3).astype(float)
    unweighted = lstm.weighted_mse(scores, labels, 1.0, 1.0)
    assert unweighted == math.fsum((s - y) ** 2 for s, y in zip(scores, labels))


def test_c06_stratified_split_arithmetic():
    ids = [f"adm{i:05d}" for i in range(2177)]
    labels = [1 if i < 229 else 0 for i in range(2177)]
    train_ids, test_ids = stratified_split(ids, labels, 0.10, seed=0)
    positive = set(ids[:229])
    assert len(test_ids) == 218
    assert sum(i in positive for i in test_ids) == 23
    train_labels = [1 if i in positive else 0 for i in train_ids]
    plan = make_folds(train_ids, train_labels, k=10, seed=0)
    per_fold = [sum(i in positive for i in fold) for fold in plan.folds]
    assert max(per_fold) - min(per_fold) <= 1


@pytest.mark.slow
def test_c07_end_to_end_benchmark(tmp_path):
    out = tmp_path / "full"
    start = time.perf_counter()
    proc = run_cli("pipeline", "--out-dir", out, "--seed", 0,
                   "--hidden", 10, "--lr", 0.01)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    auc, baseline1, baseline2 = parse_summary(proc.stdout)
    shutil.rmtree(out, ignore_errors=True)
    assert auc >= 0.85, f"ensemble test PR AUC {auc}"
    assert auc > baseline1 and auc > baseline2
    assert elapsed < 900.0, f"pipeline took {elapsed:.0f}s"


@pytest.mark.slow
def test_c08_null_signal_control(tmp_path):
    aucs = []
    prevalence = None
    for seed in range(1, 6):
        out = tmp_path / f"null{seed}"
        proc = run_cli("pipeline", "--out-dir", out, "--seed", seed,
                       "--signal-strength", 0, "--hidden", 10, "--lr", 0.01)
        assert proc.returncode == 0, proc.stderr
        auc, baseline1, _ = parse_summary(proc.stdout)
        aucs.append(auc)
        prevalence = baseline1
        shutil.rmtree(out, ignore_errors=True)
    assert prevalence == 23 / 218  # split arithmetic fixes the test prevalence
    mean = float(np.mean(aucs))
    stderr = float(np.std(aucs, ddof=1)) / math.sqrt(len(aucs))
    assert abs(mean - prevalence) <= 3.0 * stderr, \
        f"mean null AUC {mean:.4f} vs prevalence {prevalence:.4f} (se {stderr:.4f})"


@pytest.mark.slow
def test_c09_run_determinism(tmp_path):
    summaries = []
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = run_cli("pipeline", "--out-dir", out, "--seed", 0, "--quick")
        assert proc.returncode == 0, proc.stderr
        summaries.append(proc.stdout)
        run_dir = out / "run"
        snapshot = {p.name: sha256(p) for p in run_dir.glob("ensemble_fold*.ckpt")}
        snapshot["cv_table.csv"] = sha256(run_dir / "cv_table.csv")
        snapshot["tensors.bin"] = sha256(out / "prep" / "tensors.bin")
        digests.append(snapshot)
    assert summaries[0] == summaries[1]
    assert digests[0] == digests[1]
    assert sum(1 for k in digests[0] if k.startswith("ensemble_fold")) == 10
    shutil.rmtree(tmp_path / "r1", ignore_errors=True)
    shutil.rmtree(tmp_path / "r2", ignore_errors=True)


def test_c10_early_stop_contract():
    tensors = make_tensors(8, 2, seed=1)
    hyper = HyperParams(hidden_size=2, learning_rate=0.05, max_epochs=10,
                        batch_size=8, seed=9)
    snaps = []

    def declining(params, epoch):
        snaps.append(params.copy())
        return [0.40, 0.55, 0.52][epoch - 1]

    result = train_one(tensors, [], hyper, val_metric=declining)
    assert len(result.history) == 3  # the drop at epoch 3 ends training
    assert result.best_epoch == 2 and result.best_val == 0.55
    assert all(np.array_equal(a, b) for (_, a), (_, b) in
               zip(result.params.named_arrays(), snaps[1].named_arrays()))

    result = train_one(tensors, [], hyper, val_metric=lambda p, e: 0.93)
    assert len(result.history) == 1  # crossing 0.90 stops immediately
    assert result.best_epoch == 1 and result.best_val == 0.93
