"""Reference figures quoted in perfbench/README.md, measured once.

    python3 perfbench/reference.py [--skip-pipeline]

Prints one JSON line per figure: the full default ``hemocult pipeline``,
forward_batch/backward_batch per call at H in {10, 100, 1000}, test and CV
PR AUC over signal strength {0.1, 0.2, 0.35, 0.5, 0.8} x seeds {0, 1, 2} at
the cv_train workload's size, and both training workloads' quality over
seeds 0-9 (seed 0 twice, to show it repeats). One BLAS thread, as in the
benchmark.
"""

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

import argparse
import json
import shutil
import statistics
import sys
import time

from workloads import CvTrain, GridWide

WORK = run.WORK_ROOT / "reference"


def pipeline():
    t0 = time.perf_counter()
    code, out, _ = run.run_stage(["pipeline", "--out-dir", str(WORK / "pipeline"), "--seed", "0"])
    return {"figure": "pipeline_default", "exit": code, "seconds": time.perf_counter() - t0,
            "summary": out.strip()}


def lstm_calls():
    import numpy as np
    from hemocult import lstm
    rows = []
    for H, repeats in ((10, 20), (100, 5), (1000, 2)):
        p = lstm.init_params(H, 0)
        X = np.random.default_rng(0).normal(size=(32, 72, 9))
        y = (np.arange(32) % 8 == 0).astype(float)
        fwd, bwd = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _, cache = lstm.forward_batch(X, p)
            t1 = time.perf_counter()
            lstm.backward_batch(X, y, p, 8.0, 1.0, cache)
            fwd.append(t1 - t0)
            bwd.append(time.perf_counter() - t1)
        rows.append({"figure": "lstm_call_ms", "B": 32, "T": 72, "H": H, "repeats": repeats,
                     "forward_ms_median": 1e3 * statistics.median(fwd),
                     "backward_ms_median": 1e3 * statistics.median(bwd)})
    return rows


def quality(cls, seed, **overrides):
    from checks import summary_fields
    w = cls(seed, WORK / f"{cls.name}-{seed}")
    for key, value in overrides.items():
        setattr(w, key, value)
    w.setup()
    rd = w.work / "round"
    rd.mkdir(parents=True)
    out = {stage: run.run_stage(argv)[1] for stage, argv in w.stages(rd)}
    shutil.rmtree(w.work)
    return {"workload": cls.name, "seed": seed, "signal_strength": w.signal_strength,
            "cv_pr_auc": float(summary_fields(out["train"])["cv_pr_auc"]),
            "test_pr_auc": float(summary_fields(out["evaluate"])["test_pr_auc"]),
            "baseline1": float(summary_fields(out["evaluate"])["baseline1"])}


def strength_sweep():
    return [dict(quality(CvTrain, seed, signal_strength=strength), figure="quality_sweep")
            for strength in (0.1, 0.2, 0.35, 0.5, 0.8) for seed in (0, 1, 2)]


def seed_spread():
    """Quality of both training workloads over ten seeds, and seed 0 once more."""
    rows = [dict(quality(cls, seed), figure="quality_seeds")
            for cls in (CvTrain, GridWide) for seed in list(range(10)) + [0]]
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-pipeline", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        print(json.dumps(run.environment()), flush=True)
        if not args.skip_pipeline:
            print(json.dumps(pipeline()), flush=True)
        for row in lstm_calls() + strength_sweep() + seed_spread():
            print(json.dumps(row), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
