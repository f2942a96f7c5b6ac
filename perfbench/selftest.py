"""Quick self-test of the benchmark: every workload at a tiny size, then one
planted wrong output per check, each of which the checks must reject.

    python3 perfbench/selftest.py        # from the checkout root; about ten seconds
"""

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

import re
import shutil
import sys
from pathlib import Path

import checks
import spans
from workloads import CvTrain, GridWide, Ingest

WORK = run.WORK_ROOT / "selftest"


class TinyIngest(Ingest):
    n_admissions = 12


class TinyCv(CvTrain):
    n_admissions, folds, signal_strength = 80, 2, 3.0
    train_flags = ["--hidden", "10", "--lr", "0.01", "--max-epochs", "2", "--patience", "2"]


class TinyGrid(GridWide):
    n_admissions, folds, signal_strength = 80, 2, 3.0
    train_flags = ["--grid", "--grid-hidden", "100", "--grid-lr", "0.1,0.01",
                   "--max-epochs", "1", "--patience", "1", "--jobs", "2"]


def one_round(workload, rd: Path):
    rd.mkdir(parents=True)
    summaries = {}
    for stage, argv in workload.stages(rd):
        code, out, _ = run.run_stage(argv)
        assert code == 0, f"{workload.name}: stage {stage} exited {code}"
        summaries[stage] = out
    return summaries


def rejected(label, check, rd: Path, mutate):
    """Copy the round, plant one wrong output, and require the check to fail."""
    bad = rd.parent / f"bad-{label}"
    shutil.copytree(rd, bad)
    try:
        mutate(bad)
        try:
            check(bad)
        except Exception as exc:  # a CheckFailed, or the program's reader rejecting the file
            print(f"  rejected {label}: {type(exc).__name__}: {exc}")
            return
    finally:
        shutil.rmtree(bad, ignore_errors=True)
    raise AssertionError(f"planted fault not caught: {label}")


def rewrite_tensors(path: Path, change):
    from hemocult.prep import read_tensors, write_tensors
    tensors = read_tensors(path)
    change(tensors)
    write_tensors(tensors, path)


def replace_in(path: Path, pattern, repl, count=1):
    text = path.read_text(encoding="utf-8")
    new = re.sub(pattern, repl, text, count=count)
    assert new != text, f"{path.name}: nothing to plant at {pattern!r}"
    path.write_text(new, encoding="utf-8")


def test_ingest():
    w = TinyIngest(seed=3, work=WORK / "ingest")
    w.setup()
    w.install()
    rd = WORK / "ingest" / "round"
    summaries = one_round(w, rd)
    read_back = w.read_back.pop()

    def check(d, read_back=read_back, summaries=summaries):
        checks.check_ingest(w.reference, read_back, summaries, d / "prep", w.seed,
                            w.test_fraction, sample_size=w.n_admissions)
    check(rd)
    print("ingest: clean round passes")

    def flip_label(ts):
        ts[0].label = 1 - ts[0].label
    rejected("tensor-label", check, rd, lambda d: rewrite_tensors(d / "prep/tensors.bin", flip_label))

    def nudge_value(ts):
        ts[-1].values[40, 2] += 1e-12
    rejected("tensor-value", check, rd, lambda d: rewrite_tensors(d / "prep/tensors.bin", nudge_value))
    rejected("tensor-missing", check, rd,
             lambda d: rewrite_tensors(d / "prep/tensors.bin", lambda ts: ts.pop()))
    rejected("stats", check, rd,
             lambda d: replace_in(d / "prep/stats.tsv", r"temperature\t(\d)", r"temperature\t9"))
    rejected("split", check, rd, lambda d: replace_in(d / "prep/split.tsv", r"\ttest", "\ttrain"))
    broken = [s for s in read_back]
    ts, vals = broken[0].channels["temperature"]
    broken[0] = type(broken[0])(broken[0].admission_id, broken[0].label,
                                broken[0].first_positive_time,
                                dict(broken[0].channels, temperature=(ts, vals + 1e-9)))
    rejected("read-back", lambda d: check(d, read_back=broken), rd, lambda d: None)
    wrong = dict(summaries, generate=re.sub(r"values=\d+", "values=1", summaries["generate"]))
    rejected("generate-summary", lambda d: check(d, summaries=wrong), rd, lambda d: None)


def test_training(cls, name):
    from hemocult.lstm import load_params, save_params
    w = cls(seed=5, work=WORK / name)
    w.setup()
    w.install()
    rd = WORK / name / "round"
    summaries = one_round(w, rd)
    assert w.round_items({"train": 1.0})[0] > 0, "no sequences counted"

    def check(d, summaries=summaries):
        return checks.check_training(w.prep, d / "run", d / "eval", summaries, w.folds, w.cells)
    print(f"{name}: clean round passes: {check(rd)}")

    def perturb_weight(d):
        path = d / "run/ensemble_fold0.ckpt"
        p = load_params(path)
        p.fwd.U[0, 0] += 1e-3
        save_params(p, path)
    rejected("checkpoint-weight", check, rd, perturb_weight)
    rejected("checkpoint-missing", check, rd,
             lambda d: (d / f"run/ensemble_fold{w.folds - 1}.ckpt").unlink())
    rejected("cv-table", check, rd,
             lambda d: replace_in(d / "run/cv_table.csv", r"(?m)^(\d.*),[^,\n]+$", r"\1,0.123",
                                  count=0))
    rejected("pr-curve-row", check, rd,
             lambda d: replace_in(d / "eval/pr_curve.csv", r"\n(0\.\d+),", "\n0.5,"))
    for key in ("test_pr_auc", "baseline1"):
        wrong = dict(summaries, evaluate=re.sub(key + r"=\S+", key + "=0.5", summaries["evaluate"]))
        rejected(f"summary-{key}", lambda d, s=wrong: check(d, summaries=s), rd, lambda d: None)
    wrong = dict(summaries, train=re.sub(r"lr=\S+", "lr=0.5", summaries["train"]))
    rejected("winner", lambda d: check(d, summaries=wrong), rd, lambda d: None)


def test_tracer():
    """A traced tiny grid round yields spans from the pool workers too."""
    w = TinyGrid(seed=7, work=WORK / "traced")
    w.setup()
    tracer = spans.Tracer("selftest", WORK / "spans")
    tracer.install(0)
    try:
        one_round(w, WORK / "traced" / "round")
    finally:
        tracer.uninstall()
    merged = tracer.merged()
    pids = {s["pid"] for s in merged if s["name"] == "training.train_one"}
    assert len(pids) >= 2, f"train_one spans from {len(pids)} processes"
    # a second identical round must not count as wasted work
    again = [dict(s, id=f"r1-{s['id']}", parent=s["parent"] and f"r1-{s['parent']}", round=1)
             for s in merged]
    metrics = spans.layer_metrics(merged + again, rounds=2)
    assert metrics["training.folds_trained"] == 3 * w.folds
    assert abs(metrics["training.useful_fold_ratio"] - 2 / 3) < 1e-12
    print(f"tracer: {len(merged)} spans from {len({s['pid'] for s in merged})} processes")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        test_ingest()
        test_training(TinyCv, "cv_train")
        test_training(TinyGrid, "grid_wide")
        test_tracer()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
