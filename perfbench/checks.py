"""Output checks computed apart from the program.

Artifacts are decoded with the program's own readers, so a later change of
a file format does not break the benchmark; every decoded value is then
compared with a reference computed here from the documented method: a bin
enumeration resampler, avg/std over an own bio-limit filter, round-half-up
split counts, a per-step float64 BiLSTM forward written from the equations
in the ``lstm`` docstring, and a threshold-enumeration PR AUC.
"""

import csv
import math
import re
from pathlib import Path

import numpy as np

N_BINS, N_VARS, BIN_SECONDS = 72, 9, 3600
# column order, per-bin aggregation and closed bio-limit interval, as documented
VARIABLES = (
    ("temperature", "max", (29.0, 43.0)),
    ("thrombocytes", "min", None),
    ("leukocytes", "mean", None),
    ("crp", "max", None),
    ("sofa", "max", None),
    ("heart_rate", "max", (30.0, 250.0)),
    ("resp_rate", "max", (0.0, 100.0)),
    ("inr", "max", None),
    ("mean_sap", "max", (30.0, 170.0)),
)


class CheckFailed(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def expect(condition, stage, message):
    if not condition:
        raise CheckFailed(stage, message)


def summary_fields(text: str) -> dict:
    """key=value tokens of the last non-empty stdout line."""
    lines = [line for line in text.splitlines() if line.strip()]
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------- ingest

def own_filter(cohort):
    """{admission id: {variable: (ts, vals)}} after the bio-limit filter, and the drop count."""
    out, removed = {}, 0
    for series in cohort:
        channels = {}
        for name, _, limits in VARIABLES:
            ts, vals = series.channels.get(name, (np.empty(0, np.int64), np.empty(0)))
            if limits is not None:
                keep = (vals >= limits[0]) & (vals <= limits[1])
                removed += int(keep.size - keep.sum())
                ts, vals = ts[keep], vals[keep]
            channels[name] = (ts, vals)
        out[series.admission_id] = channels
    return out, removed


def own_stats(filtered, train_ids):
    avg, std = np.zeros(N_VARS), np.zeros(N_VARS)
    for col, (name, _, _) in enumerate(VARIABLES):
        values = np.concatenate([filtered[aid][name][1] for aid in train_ids])
        avg[col], std[col] = values.mean(), values.std()
    return avg, std


def own_tensor(channels, end_time, avg, std):
    """Bin enumeration: bin k holds end - (72-k) h <= t < end - (71-k) h; bin 71 closes at end."""
    start = end_time - N_BINS * BIN_SECONDS
    out = np.zeros((N_BINS, N_VARS))
    for col, (name, agg, _) in enumerate(VARIABLES):
        ts, vals = channels[name]
        filled = None
        for k in range(N_BINS):
            lo = start + k * BIN_SECONDS
            hi = end_time + 1 if k == N_BINS - 1 else lo + BIN_SECONDS
            members = vals[(ts >= lo) & (ts < hi)]
            if members.size:
                x = {"min": np.min, "max": np.max, "mean": np.mean}[agg](members)
                filled = 0.0 if std[col] == 0.0 else (x - avg[col]) / (3.0 * std[col])
            if filled is not None:
                out[k, col] = filled
    return out


def check_cohort_readback(reference, read_back, stage="preprocess"):
    expect(read_back is not None, stage, "cohort was not read back")
    expect(len(read_back) == len(reference), stage,
           f"{len(read_back)} admissions read back, {len(reference)} generated")
    for want, got in zip(reference, read_back):
        expect((got.admission_id, got.label, got.first_positive_time)
               == (want.admission_id, want.label, want.first_positive_time),
               stage, f"header of {want.admission_id} differs after the round trip")
        # the line format has no record for a channel without values, so an
        # empty channel comes back absent; both mean "no measurements"
        expect({n for n, (ts, _) in got.channels.items() if ts.size}
               == {n for n, (ts, _) in want.channels.items() if ts.size}, stage,
               f"channels of {want.admission_id} differ")
        for name, (ts, vals) in want.channels.items():
            if not ts.size:
                continue
            gts, gvals = got.channels[name]
            expect(np.array_equal(ts, gts) and np.array_equal(vals, gvals)
                   and gts.dtype.kind == "i", stage,
                   f"{want.admission_id}/{name} differs after the round trip")


def check_ingest(reference, read_back, summaries, prep_dir: Path, seed, test_fraction,
                 sample_size=8):
    from hemocult.cli import read_split
    from hemocult.prep import read_stats, read_tensors

    n_values = sum(s.n_values() for s in reference)
    n_pos = sum(s.label for s in reference)
    gen = summary_fields(summaries["generate"])
    expect(gen.get("admissions") == str(len(reference)) and gen.get("positives") == str(n_pos)
           and gen.get("values") == str(n_values), "generate", f"summary {gen}")
    check_cohort_readback(reference, read_back)

    stage = "preprocess"
    filtered, removed = own_filter(reference)
    pre = summary_fields(summaries["preprocess"])
    expect(pre.get("removed_outliers") == str(removed), stage,
           f"removed_outliers={pre.get('removed_outliers')}, recount {removed}")

    partition = read_split(prep_dir / "split.tsv")
    ids = [s.admission_id for s in reference]
    labels = {s.admission_id: s.label for s in reference}
    expect(sorted(partition) == sorted(ids), stage, "split does not cover every admission once")
    test = [a for a in ids if partition[a] == "test"]
    train = [a for a in ids if partition[a] == "train"]
    n_test_pos = sum(labels[a] for a in test)
    expect(len(test) == round_half_up(test_fraction * len(ids))
           and n_test_pos == round_half_up(test_fraction * n_pos), stage,
           f"test side has {len(test)} admissions / {n_test_pos} positives")

    stats = read_stats(prep_dir / "stats.tsv")
    avg, std = own_stats(filtered, train)
    expect(np.allclose(stats.avg, avg, rtol=1e-12, atol=0)
           and np.allclose(stats.std, std, rtol=1e-12, atol=0), stage,
           "stats.tsv differs from avg/std recomputed over the training ids")

    tensors = read_tensors(prep_dir / "tensors.bin")
    expect(sorted(t.admission_id for t in tensors) == sorted(ids), stage,
           "tensors.bin does not hold one record per admission")
    for t in tensors:
        expect(t.values.shape == (N_BINS, N_VARS) and np.all(np.isfinite(t.values))
               and t.label == labels[t.admission_id], stage,
               f"record {t.admission_id} is malformed")
    by_id = {t.admission_id: t for t in tensors}
    by_series = {s.admission_id: s for s in reference}
    rng = np.random.default_rng(seed)
    for aid in rng.choice(ids, size=min(sample_size, len(ids)), replace=False):
        series = by_series[aid]
        channels = filtered[aid]
        end = series.first_positive_time if series.label == 1 else \
            max(int(ts[-1]) for ts, _ in channels.values() if ts.size)
        want = own_tensor(channels, end, stats.avg, stats.std)
        expect(np.array_equal(want, by_id[aid].values), stage,
               f"tensor of {aid} differs from the bin-enumeration resampler")


# -------------------------------------------------------------- training

def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def own_scores(params, X):
    """Per-step float64 forward from the lstm docstring, batched over examples."""
    def direction(cell, seq):
        H = cell.U.shape[1]
        h = np.zeros((seq.shape[0], H))
        c = np.zeros((seq.shape[0], H))
        for t in range(seq.shape[1]):
            z = seq[:, t, :] @ cell.W.T + h @ cell.U.T + cell.b
            i, f, o = _sigmoid(z[:, :H]), _sigmoid(z[:, H:2 * H]), _sigmoid(z[:, 2 * H:3 * H])
            g = np.tanh(z[:, 3 * H:])
            c = f * c + i * g
            h = o * np.tanh(c)
        return h
    H = params.fwd.U.shape[1]
    hf = direction(params.fwd, X)
    hb = direction(params.bwd, X[:, ::-1, :])
    return _sigmoid(hf @ params.head_w[:H] + hb @ params.head_w[H:] + params.head_b[0])


def enumeration_pr(scores, labels):
    """(threshold, recall, precision) for every distinct score, and the step-rule AUC."""
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    rows, areas, prev = [], [], 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        picked = scores >= thr
        tp = int(labels[picked].sum())
        recall, precision = tp / n_pos, tp / int(picked.sum())
        rows.append((thr, recall, precision))
        areas.append((recall - prev) * precision)
        prev = recall
    return rows, math.fsum(areas)


def check_training(prep_dir: Path, run_dir: Path, eval_dir: Path, summaries, folds: int,
                   cells):
    """cells: the (hidden, lr) grid the train stage searched, in order."""
    from hemocult.cli import read_split
    from hemocult.lstm import load_params
    from hemocult.metrics import import_curve
    from hemocult.prep import read_tensors

    stage = "train"
    train = summary_fields(summaries["train"])
    expect({"hidden", "lr", "cv_pr_auc"} <= set(train), stage, f"summary {train}")
    with open(run_dir / "cv_table.csv", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    expect(len(table) == len(cells) * folds, stage, f"cv_table.csv has {len(table)} rows")
    means = []
    for hidden, lr in cells:
        vals = [float(r["val_pr_auc"]) for r in table
                if int(r["hidden"]) == hidden and float(r["lr"]) == lr]
        expect(len(vals) == folds, stage, f"cell {hidden}x{lr} has {len(vals)} folds")
        means.append((hidden, lr, float(np.mean(vals))))
    # documented rule: highest mean; ties prefer the smaller hidden size, then the smaller rate
    win_h, win_lr, win_mean = min(means, key=lambda m: (-m[2], m[0], m[1]))
    expect(int(train["hidden"]) == win_h and float(train["lr"]) == win_lr, stage,
           f"winner {train['hidden']}x{train['lr']}, argmax over cv_table.csv {win_h}x{win_lr}")
    expect(math.isclose(float(train["cv_pr_auc"]), win_mean, rel_tol=1e-12), stage,
           f"cv_pr_auc={train['cv_pr_auc']} but the winning cell's mean is {win_mean!r}")

    found = sorted(int(re.search(r"(\d+)$", p.stem).group(1))
                   for p in run_dir.glob("ensemble_fold*.ckpt"))
    expect(found == list(range(folds)), stage,
           f"checkpoints of folds {found}, want folds 0..{folds - 1}")
    members = [load_params(run_dir / f"ensemble_fold{fold}.ckpt") for fold in found]
    expect(all(m.fwd.U.shape[1] == win_h for m in members), stage,
           "a checkpoint has the wrong hidden size")

    stage = "evaluate"
    ev = summary_fields(summaries["evaluate"])
    expect({"test_pr_auc", "baseline1", "baseline2"} <= set(ev), stage, f"summary {ev}")
    partition = read_split(prep_dir / "split.tsv")
    test = [t for t in read_tensors(prep_dir / "tensors.bin") if partition[t.admission_id] == "test"]
    X = np.stack([t.values for t in test])
    labels = np.array([t.label for t in test])
    scores = np.mean([own_scores(m, X) for m in members], axis=0)

    exported = import_curve(eval_dir / "pr_curve.csv")
    curve = sorted(((t, r, p) for r, p, t in exported.points), reverse=True)
    thresholds = np.array(sorted(row[0] for row in curve))
    expect(thresholds.size > 0, stage, "pr_curve.csv has no rows")
    nearest = np.abs(thresholds[None, :] - scores[:, None]).argmin(axis=1)
    expect(np.all(np.abs(thresholds[nearest] - scores) <= 1e-9), stage,
           "rescored test scores do not match the thresholds in pr_curve.csv")
    mapped = thresholds[nearest]
    rows, auc = enumeration_pr(mapped, labels)
    expect(len(rows) == len(curve) and all(
        math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
        for want, got in zip(rows, curve) for a, b in zip(want, got)),
        stage, "pr_curve.csv rows differ from the threshold enumeration")
    test_auc = float(ev["test_pr_auc"])
    expect(math.isclose(auc, test_auc, rel_tol=1e-12) and exported.auc == test_auc, stage,
           f"test_pr_auc={test_auc!r}, enumeration gives {auc!r}")
    prevalence = labels.sum() / labels.size
    expect(math.isclose(float(ev["baseline1"]), prevalence, rel_tol=1e-12), stage,
           f"baseline1={ev['baseline1']} but the test prevalence is {prevalence!r}")
    expect(test_auc > float(ev["baseline1"]) and test_auc > float(ev["baseline2"]), stage,
           f"test_pr_auc={test_auc} does not beat both baselines")
    return {"test_pr_auc": test_auc, "cv_pr_auc": float(train["cv_pr_auc"])}
