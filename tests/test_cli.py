import hashlib
import io
import math
import re
import shutil
import struct
from argparse import Namespace
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from helpers import run_cli
from helpers import run_inprocess as run
from hemocult import cli, training
from hemocult.cli import _grid_cells_from, entrypoint
from hemocult.cohort import CohortConfig, generate_cohort, read_cohort, write_cohort
from hemocult.prep import read_stats, read_tensors
from hemocult.training import GRID_HIDDEN, GRID_LR, HyperParams

SUMMARY_RE = re.compile(
    r"^test_pr_auc=([0-9.e-]+) baseline1=([0-9.e-]+) baseline2=([0-9.e-]+)$")

TINY_COHORT = ["--n", "40", "--positives", "16", "--horizon", "6:18"]
TINY_TRAIN = ["--hidden", "2", "--lr", "0.05", "--max-epochs", "2", "--folds", "4"]
PREP_NAMES = ["prep/split.tsv", "prep/stats.tsv", "prep/tensors.bin"]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate -> preprocess -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    code, gen_out, _ = run("generate", "--out", root / "cohort.bin", "--seed", 5,
                           *TINY_COHORT)
    assert code == 0
    code, pre_out, _ = run("preprocess", "--cohort", root / "cohort.bin",
                           "--out-dir", root / "prep", "--seed", 5)
    assert code == 0
    code, train_out, _ = run("train", "--tensors", root / "prep",
                             "--run-dir", root / "run", "--seed", 5, *TINY_TRAIN)
    assert code == 0
    return {"root": root, "gen_out": gen_out, "pre_out": pre_out,
            "train_out": train_out}


def test_version_flag():
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as info:
        entrypoint(["--version"])
    assert info.value.code == 0
    assert buf.getvalue().startswith("hemocult ")


def test_generate_summary_and_determinism(tmp_path):
    args = ["--seed", 2, "--n", 6, "--positives", 2, "--horizon", "2:4"]
    code, out, _ = run("generate", "--out", tmp_path / "a.bin", *args)
    assert code == 0
    assert re.fullmatch(r"admissions=6 positives=2 values=\d+\n", out)
    cohort = read_cohort(tmp_path / "a.bin")
    assert sum(s.label for s in cohort) == 2
    run("generate", "--out", tmp_path / "b.bin", *args)
    assert sha256(tmp_path / "a.bin") == sha256(tmp_path / "b.bin")
    run("generate", "--out", tmp_path / "c.bin", "--seed", 3, *args[2:])
    assert sha256(tmp_path / "a.bin") != sha256(tmp_path / "c.bin")


def test_generate_all_negative_cohort(tmp_path):
    code, out, _ = run("generate", "--out", tmp_path / "neg.bin", "--seed", 1,
                       "--n", 5, "--positives", 0, "--horizon", "2:4")
    assert code == 0 and out.startswith("admissions=5 positives=0")
    assert all(s.label == 0 for s in read_cohort(tmp_path / "neg.bin"))


def test_generate_creates_missing_parents(tmp_path):
    args = ["--seed", 5, "--n", 6, "--positives", 2, "--horizon", "2:4"]
    nested = tmp_path / "missing" / "deeper" / "cohort.bin"
    code, out, _ = run("generate", "--out", nested, *args)
    assert code == 0 and out.startswith("admissions=6 positives=2")
    run("generate", "--out", tmp_path / "flat.bin", *args)
    assert sha256(nested) == sha256(tmp_path / "flat.bin")


def test_generate_refuses_a_cohort_its_reader_would_refuse(tmp_path):
    # a drift of 1e308 overflows to non-finite values, which cohort.bin cannot hold
    out = tmp_path / "cohort.bin"
    args = ["generate", "--out", out, "--n", 8, "--positives", 2, "--seed", 1,
            "--signal-strength", "1e308"]
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: non-finite value for adm00000/temperature\n"  # no numpy warning
    assert not out.exists()
    out.write_bytes(b"kept")
    assert run(*args)[0] == 2
    assert out.read_bytes() == b"kept"


def test_preprocess_refuses_statistics_past_the_float_range(tmp_path):
    code, _, _ = run("generate", "--out", tmp_path / "cohort.bin", "--n", 20, "--positives", 5,
                     "--signal-strength", "1e300")
    assert code == 0
    code, out, err = run("preprocess", "--cohort", tmp_path / "cohort.bin",
                         "--out-dir", tmp_path / "prep", "--test-fraction", 0.2)
    assert (code, out) == (2, "")
    assert "variable 'thrombocytes' has values too large to normalize: avg " in err
    assert not (tmp_path / "prep").exists()


def test_preprocess_outputs(workspace):
    root = workspace["root"]
    assert workspace["pre_out"].startswith("tensors=40 train=36 test=4")
    split = (root / "prep" / "split.tsv").read_text().splitlines()
    assert split[0] == "#hemocult-split v1"
    parts = [line.split("\t")[1] for line in split[1:]]
    assert parts.count("train") == 36 and parts.count("test") == 4
    tensors = read_tensors(root / "prep" / "tensors.bin")
    assert len(tensors) == 40
    read_stats(root / "prep" / "stats.tsv")  # parses cleanly


def test_preprocess_is_repeatable(workspace, tmp_path):
    root = workspace["root"]
    code, _, _ = run("preprocess", "--cohort", root / "cohort.bin",
                     "--out-dir", tmp_path, "--seed", 5)
    assert code == 0
    for name in ("split.tsv", "stats.tsv", "tensors.bin"):
        assert sha256(tmp_path / name) == sha256(root / "prep" / name)


def test_preprocess_missing_cohort_exits_3(tmp_path):
    code, _, err = run("preprocess", "--cohort", tmp_path / "absent.bin",
                       "--out-dir", tmp_path / "out")
    assert code == 3 and err.startswith("error:")


def test_preprocess_corrupt_cohort_exits_3(workspace, tmp_path):
    good = (workspace["root"] / "cohort.bin").read_bytes()
    id_at = good.index(b"adm00000")
    cases = [
        (b"#something-else v1\n", "bad cohort header"),
        (b"#hemocult-cohort v1\nL\tadm00000\t0\t-\n", "bad cohort header"),  # text cohort
        (good[:-5], "truncated"),
        (good + b"\x00", "trailing bytes"),
        (good[:id_at] + b"\xff" + good[id_at + 1:], "admission 0 is not UTF-8"),
    ]
    for body, message in cases:
        bad = tmp_path / "bad.bin"
        bad.write_bytes(body)
        code, _, err = run("preprocess", "--cohort", bad, "--out-dir", tmp_path / "out")
        assert code == 3 and err.startswith("error:") and message in err, (message, err)


def test_failed_preprocess_leaves_no_prep_dir(tmp_path):
    # stays of well under a second: no temperature value survives to fit its statistics
    code, _, _ = run("generate", "--out", tmp_path / "cohort.bin", "--seed", 1, "--n", 40,
                     "--positives", 10, "--horizon", "0.0001:0.0002")
    assert code == 0
    code, out, err = run("preprocess", "--cohort", tmp_path / "cohort.bin",
                         "--out-dir", tmp_path / "prep")
    assert (code, out) == (2, "") and "no values to fit for variable 'temperature'" in err
    assert not (tmp_path / "prep").exists()
    code, _, err = run("pipeline", "--out-dir", tmp_path / "pipe", "--seed", 1, "--n", 40,
                       "--positives", 10, "--horizon", "0.0001:0.0002", *TINY_TRAIN)
    assert code == 2 and "no values to fit for variable 'temperature'" in err
    assert sorted(p.name for p in (tmp_path / "pipe").iterdir()) == ["cohort.bin"]


@pytest.mark.parametrize("bad_id", ["adm\t3", "adm\r5", "adm\n7"])
def test_preprocess_refuses_ids_split_tsv_cannot_hold(tmp_path, bad_id):
    cohort = generate_cohort(CohortConfig(n_admissions=12, n_positive=4, seed=2,
                                          horizon_hours=(2.0, 4.0)))
    cohort[3].admission_id = bad_id
    write_cohort(cohort, tmp_path / "cohort.bin")
    code, out, err = run("preprocess", "--cohort", tmp_path / "cohort.bin",
                         "--out-dir", tmp_path / "prep")
    assert (code, out) == (3, "")
    assert err == (f"error: admission id {bad_id!r} holds a tab or line break, "
                   "which split.tsv cannot hold\n")
    assert not (tmp_path / "prep").exists()


def test_non_utf8_split_file_exits_3(workspace, tmp_path):
    root = workspace["root"]
    prep_copy = tmp_path / "prep"
    shutil.copytree(root / "prep", prep_copy)
    split = prep_copy / "split.tsv"
    split.write_bytes(split.read_bytes().replace(b"adm00001", b"adm\xff0001"))
    for argv in (["train", "--tensors", prep_copy, "--run-dir", tmp_path / "run"],
                 ["evaluate", "--tensors", prep_copy, "--run-dir", root / "run"]):
        code, _, err = run(*argv)
        assert code == 3 and "split.tsv: not UTF-8 text" in err


def test_preprocess_single_class_exits_4(tmp_path):
    run("generate", "--out", tmp_path / "neg.bin", "--n", 8, "--positives", 0,
        "--horizon", "2:4")
    code, _, err = run("preprocess", "--cohort", tmp_path / "neg.bin",
                       "--out-dir", tmp_path / "out")
    assert code == 4 and "both classes" in err


def test_train_run_directory_contents(workspace):
    run_dir = workspace["root"] / "run"
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["config.txt", "cv_table.csv",
                     "ensemble_fold0.ckpt", "ensemble_fold1.ckpt",
                     "ensemble_fold2.ckpt", "ensemble_fold3.ckpt", "manifest.txt"]
    rows = (run_dir / "cv_table.csv").read_text().splitlines()
    assert rows[0] == "hidden,lr,fold,best_epoch,val_pr_auc"
    assert len(rows) == 5
    for fold, row in enumerate(rows[1:]):
        hidden, lr, fold_s, best_epoch, val = row.split(",")
        assert (hidden, lr, fold_s) == ("2", "0.05", str(fold))
        assert 1 <= int(best_epoch) <= 2
        assert 0.0 <= float(val) <= 1.0
    config = dict(line.split("=", 1)
                  for line in (run_dir / "config.txt").read_text().splitlines())
    assert list(config) == ["folds_seed", "cells", "folds", "hidden_size", "learning_rate",
                            "max_epochs", "w_pos", "batch_size", "seed", "patience"]
    assert config["seed"] == "5" and config["folds"] == "4"
    assert config["hidden_size"] == "2" and config["cells"] == "2x0.05"
    match = re.fullmatch(r"hidden=2 lr=0\.05 cv_pr_auc=([0-9.e-]+) folds=4\n",
                         workspace["train_out"])
    assert match and 0.0 <= float(match.group(1)) <= 1.0


def test_manifest_hashes_are_accurate(workspace):
    run_dir = workspace["root"] / "run"
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    listed = {}
    for line in manifest:
        digest, name = line.split("  ")
        listed[name] = digest
    run_files = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.txt")
    assert list(listed) == run_files + PREP_NAMES  # name order puts prep/ last
    for name, digest in listed.items():
        assert sha256(workspace["root"] / name if name in PREP_NAMES else run_dir / name) == digest


def test_train_custom_grid(workspace, tmp_path, monkeypatch):
    prep = workspace["root"] / "prep"
    calls = []
    train_folds = training.train_folds

    def counted(tensors, plan, hyper, jobs=1):
        calls.append((hyper.hidden_size, hyper.learning_rate))
        return train_folds(tensors, plan, hyper, jobs=jobs)

    monkeypatch.setattr(training, "train_folds", counted)
    grid_dir = tmp_path / "grid"
    code, out, _ = run("train", "--tensors", prep, "--run-dir", grid_dir,
                       "--seed", 5, "--grid", "--grid-hidden", "1,2",
                       "--grid-lr", "0.05", "--folds", 2, "--max-epochs", 1)
    assert code == 0
    assert calls == [(1, 0.05), (2, 0.05)]  # each cell once, no retrain of the winner
    rows = (grid_dir / "cv_table.csv").read_text().splitlines()[1:]
    assert len(rows) == 4  # 2 grid cells x 2 folds
    assert [int(r.split(",")[3]) for r in rows] == [1, 1, 1, 1]
    assert sorted({(r.split(",")[0], r.split(",")[1]) for r in rows}) == \
        [("1", "0.05"), ("2", "0.05")]
    assert len(list(grid_dir.glob("ensemble_fold*.ckpt"))) == 2
    winner = re.match(r"hidden=([12]) lr=0\.05 ", out)
    assert winner

    plain_dir = tmp_path / "plain"
    code, _, _ = run("train", "--tensors", prep, "--run-dir", plain_dir, "--seed", 5,
                     "--hidden", winner.group(1), "--lr", "0.05", "--folds", 2,
                     "--max-epochs", 1)
    assert code == 0
    for fold in range(2):
        name = f"ensemble_fold{fold}.ckpt"
        assert (grid_dir / name).read_bytes() == (plain_dir / name).read_bytes()


def test_default_grid_is_three_by_three():
    cells = _grid_cells_from(Namespace(grid=True, grid_hidden=None, grid_lr=None),
                             HyperParams())
    assert [(c.hidden_size, c.learning_rate) for c in cells] == list(product(GRID_HIDDEN, GRID_LR))
    assert len(cells) == 9


def test_retrain_manifest_lists_only_what_train_wrote(workspace, tmp_path):
    prep, run_dir = workspace["root"] / "prep", tmp_path / "run"
    train = ["train", "--tensors", prep, "--run-dir", run_dir, "--seed", 5, "--max-epochs", 1]
    assert run(*train, "--folds", 3, "--hidden", 3)[0] == 0
    assert run("evaluate", "--tensors", prep, "--run-dir", run_dir, "--seed", 5)[0] == 0
    assert run(*train, "--folds", 2, "--hidden", 4)[0] == 0
    listed = [line.split("  ")[1] for line in (run_dir / "manifest.txt").read_text().splitlines()]
    assert listed == ["config.txt", "cv_table.csv", "ensemble_fold0.ckpt", "ensemble_fold1.ckpt",
                      *PREP_NAMES]
    # the earlier evaluate's files stay in the run dir, unlisted
    assert {"report.txt", "pr_curve.csv", "pr_curve.svg"} <= {p.name for p in run_dir.iterdir()}
    assert run("evaluate", "--tensors", prep, "--run-dir", run_dir, "--seed", 5)[0] == 0


def test_grid_lists_require_grid_flag(workspace, tmp_path):
    for argv in (["train", "--tensors", workspace["root"] / "prep",
                  "--run-dir", tmp_path / "run", "--grid-hidden", "1,2"],
                 ["pipeline", "--out-dir", tmp_path / "pipe", *TINY_COHORT, *TINY_TRAIN,
                  "--grid-lr", "0.5"]):
        code, _, err = run(*argv)
        assert code == 2 and "--grid-hidden/--grid-lr require --grid" in err, argv
    assert not (tmp_path / "run").exists() and not (tmp_path / "pipe").exists()
    # every grid cell is validated before the first one trains
    for grid_list, message in ((["--grid-hidden", "2,0"], "hidden_size"),
                               (["--grid-lr", "0.05,-1"], "learning_rate")):
        code, _, err = run("train", "--tensors", workspace["root"] / "prep",
                           "--run-dir", tmp_path / "cells", *TINY_TRAIN, "--grid", *grid_list)
        assert code == 2 and message in err, (grid_list, err)
        assert not (tmp_path / "cells").exists()


@pytest.mark.parametrize("flag, value", [("--grid-lr", "a"), ("--grid-hidden", "x"),
                                         ("--grid-hidden", "1.5")])
def test_malformed_grid_list_exits_2(workspace, tmp_path, flag, value):
    code, _, err = run("train", "--tensors", workspace["root"] / "prep",
                       "--run-dir", tmp_path, "--grid", flag, value)
    assert code == 2 and err.startswith(f"error: {flag}")


def test_train_divergence_exits_5(workspace, tmp_path):
    code, _, err = run("train", "--tensors", workspace["root"] / "prep",
                       "--run-dir", tmp_path, "--w-pos", "inf", "--folds", 2,
                       "--max-epochs", 1)
    assert code == 5
    assert "training diverged" in err and "fold 0" in err


def test_train_weight_overflow_exits_5(workspace, tmp_path):
    # the batch loss stays finite; the update that follows overflows the weights
    code, _, err = run("train", "--tensors", workspace["root"] / "prep",
                       "--run-dir", tmp_path / "run", "--lr", "1e10", "--w-pos", "1e300",
                       "--batch-size", 8, "--folds", 2, "--max-epochs", 3)
    assert code == 5, err
    assert re.fullmatch(r"error: training diverged: an update left a non-finite weight in block "
                        r"'\w+' \(batch loss [0-9.e+]+\) at epoch 1 "
                        r"\(cell hidden=10 lr=10000000000\.0, fold 0\)\n", err), err
    assert not (tmp_path / "run").exists()


def test_train_loss_past_the_float_range_exits_5(workspace, tmp_path):
    # the exact sum of the batch's weighted squared errors overflows
    proc = run_cli("train", "--tensors", workspace["root"] / "prep", "--run-dir", tmp_path / "run",
                   "--w-pos", "1.7e308", "--folds", 2, "--max-epochs", 2)
    assert proc.returncode == 5 and proc.stdout == "", proc.stderr
    assert re.fullmatch(r"error: training diverged: [^\n]*\(cell hidden=10 lr=0\.01, fold 0\)\n",
                        proc.stderr), proc.stderr
    assert not (tmp_path / "run").exists()


def test_divergence_stderr_is_one_line(workspace, tmp_path):
    # a fresh interpreter, so numpy warnings would reach stderr as they do for a user
    errs = []
    for jobs in (1, 2):
        proc = run_cli("train", "--tensors", workspace["root"] / "prep",
                       "--run-dir", tmp_path / f"jobs{jobs}", "--w-pos", "inf",
                       "--folds", 2, "--max-epochs", 1, "--jobs", jobs)
        assert proc.returncode == 5 and proc.stdout == ""
        assert re.fullmatch(r"error: training diverged: [^\n]*"
                            r"\(cell hidden=10 lr=0\.01, fold 0\)\n", proc.stderr), proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]


def test_train_run_directory_does_not_depend_on_jobs(workspace, tmp_path):
    for jobs in (1, 2):
        code, _, err = run("train", "--tensors", workspace["root"] / "prep",
                           "--run-dir", tmp_path / f"jobs{jobs}", "--seed", 5,
                           *TINY_TRAIN, "--jobs", jobs)
        assert code == 0, err
    names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "jobs2").iterdir())
    for name in names:
        assert (tmp_path / "jobs1" / name).read_bytes() == \
            (tmp_path / "jobs2" / name).read_bytes(), name


def test_train_missing_tensors_exits_3(tmp_path):
    code, _, err = run("train", "--tensors", tmp_path / "nowhere",
                       "--run-dir", tmp_path / "run")
    assert code == 3 and err.startswith("error:")


def test_evaluate_report_and_curve(workspace, tmp_path):
    root = workspace["root"]
    code, out, _ = run("evaluate", "--tensors", root / "prep",
                       "--run-dir", root / "run", "--out-dir", tmp_path, "--seed", 5)
    assert code == 0
    match = SUMMARY_RE.fullmatch(out.strip())
    assert match
    report = dict(line.split("=", 1)
                  for line in (tmp_path / "report.txt").read_text().splitlines())
    assert report["test_pr_auc"] == match.group(1)
    assert report["baseline1_pr_auc"] == match.group(2)
    assert report["baseline2_pr_auc"] == match.group(3)
    assert report["n"] == "4" and report["n_pos"] == "2"
    assert float(report["prevalence"]) == 0.5
    assert report["baseline2_seed"] == str(5 + 2_000_003)

    csv_lines = (tmp_path / "pr_curve.csv").read_text().splitlines()
    assert csv_lines[0] == "threshold,recall,precision"
    assert csv_lines[-1].startswith("# auc=")
    points = [tuple(float(tok) for tok in line.split(","))
              for line in csv_lines[1:-1]]
    prev = 0.0
    terms = []
    for _, recall, precision in points:
        terms.append((recall - prev) * precision)
        prev = recall
    assert math.fsum(terms) == float(csv_lines[-1].split("=", 1)[1])
    assert float(csv_lines[-1].split("=", 1)[1]) == float(match.group(1))
    svg = (tmp_path / "pr_curve.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_each_record_holds_its_own_stage_seed(workspace, tmp_path):
    root = workspace["root"]
    for argv in (["preprocess", "--cohort", root / "cohort.bin", "--out-dir", tmp_path / "prep",
                  "--seed", 0],
                 ["train", "--tensors", tmp_path / "prep", "--run-dir", tmp_path / "run",
                  "--seed", 1, *TINY_TRAIN],
                 ["evaluate", "--tensors", tmp_path / "prep", "--run-dir", tmp_path / "run",
                  "--out-dir", tmp_path / "eval", "--seed", 2]):
        code, _, err = run(*argv)
        assert code == 0, (argv, err)
    config = dict(line.split("=", 1)
                  for line in (tmp_path / "run" / "config.txt").read_text().splitlines())
    assert "split_seed" not in config and "baseline2_seed" not in config
    assert config["seed"] == "1" and config["folds_seed"] == str(1 + 3_000_017)
    report = dict(line.split("=", 1)
                  for line in (tmp_path / "eval" / "report.txt").read_text().splitlines())
    assert report["baseline2_seed"] == str(2 + 2_000_003)


def _nan_into(tensors_bin, admission_id):
    """Overwrite the first value of one admission's record with NaN."""
    blob = bytearray(tensors_bin.read_bytes())
    raw = admission_id.encode()
    at = blob.index(struct.pack("<I", len(raw)) + raw) + 4 + len(raw) + 1  # past the label
    blob[at:at + 8] = struct.pack("<d", math.nan)
    tensors_bin.write_bytes(bytes(blob))


@pytest.mark.parametrize("side", ["train", "test"])
def test_non_finite_tensor_value_exits_6(workspace, tmp_path, side):
    root = workspace["root"]
    prep_copy = tmp_path / "prep"
    shutil.copytree(root / "prep", prep_copy)
    split = (prep_copy / "split.tsv").read_text().splitlines()[1:]
    aid = next(line.split("\t")[0] for line in split if line.endswith("\t" + side))
    _nan_into(prep_copy / "tensors.bin", aid)
    if side == "train":
        argv = ["train", "--tensors", prep_copy, "--run-dir", tmp_path / "run", *TINY_TRAIN]
    else:
        argv = ["evaluate", "--tensors", prep_copy, "--run-dir", root / "run",
                "--out-dir", tmp_path / "eval"]
    code, out, err = run(*argv)
    assert code == 6 and out == ""
    assert err == f"error: {prep_copy / 'tensors.bin'}: non-finite value in {aid}\n"
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_evaluate_defaults_to_run_dir(workspace, tmp_path):
    root = workspace["root"]
    run_copy = tmp_path / "run"
    shutil.copytree(root / "run", run_copy)
    code, _, _ = run("evaluate", "--tensors", root / "prep", "--run-dir", run_copy,
                     "--seed", 5)
    assert code == 0
    assert (run_copy / "report.txt").exists()
    assert (run_copy / "pr_curve.csv").exists()


def test_evaluate_corrupt_checkpoint_exits_6(workspace, tmp_path):
    root = workspace["root"]
    run_copy = tmp_path / "run"
    shutil.copytree(root / "run", run_copy)
    ckpt = run_copy / "ensemble_fold1.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-20])
    code, _, err = run("evaluate", "--tensors", root / "prep", "--run-dir", run_copy)
    assert code == 6 and err.startswith("error:")


def test_evaluate_corrupt_tensor_cache_exits_6(workspace, tmp_path):
    root = workspace["root"]
    prep_copy = tmp_path / "prep"
    shutil.copytree(root / "prep", prep_copy)
    blob = (prep_copy / "tensors.bin").read_bytes()
    (prep_copy / "tensors.bin").write_bytes(blob[:-33])
    code, _, err = run("evaluate", "--tensors", prep_copy, "--run-dir", root / "run")
    assert code == 6 and err.startswith("error:")


def test_evaluate_missing_split_entry_exits_3(workspace, tmp_path):
    root = workspace["root"]
    prep_copy = tmp_path / "prep"
    shutil.copytree(root / "prep", prep_copy)
    lines = (prep_copy / "split.tsv").read_text().splitlines()
    (prep_copy / "split.tsv").write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run("evaluate", "--tensors", prep_copy, "--run-dir", root / "run")
    assert code == 3 and "missing from split file" in err
    (prep_copy / "split.tsv").write_text("\n".join(lines + lines[1:2]) + "\n")
    code, _, err = run("evaluate", "--tensors", prep_copy, "--run-dir", root / "run")
    aid = lines[1].split("\t")[0]
    assert code == 3 and f"admission id {aid} listed twice" in err
    # tensors.bin loses its last 3 records, cut at a record boundary
    (prep_copy / "split.tsv").write_text("\n".join(lines) + "\n")
    lost = read_tensors(root / "prep" / "tensors.bin")[-3:]
    cut = sum(4 + len(t.admission_id.encode()) + 1 + t.values.nbytes for t in lost)
    (prep_copy / "tensors.bin").write_bytes((root / "prep" / "tensors.bin").read_bytes()[:-cut])
    assert len(read_tensors(prep_copy / "tensors.bin")) == len(lines) - 4
    first = min(t.admission_id for t in lost)
    for argv in (["evaluate", "--run-dir", root / "run"], ["train", "--run-dir", tmp_path / "run"]):
        code, _, err = run(*argv, "--tensors", prep_copy)
        assert code == 3 and f"{first} missing from tensor cache" in err, (argv, err)
    assert not (tmp_path / "run").exists()


def _drop_folds_1_and_2(run_dir):
    (run_dir / "ensemble_fold1.ckpt").unlink()
    (run_dir / "ensemble_fold2.ckpt").unlink()


def _add_stale_fold4(run_dir):
    shutil.copy(run_dir / "ensemble_fold0.ckpt", run_dir / "ensemble_fold4.ckpt")


def _flip_one_byte(run_dir):
    ckpt = run_dir / "ensemble_fold3.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[-3] ^= 0x01  # inside the last parameter value, so the file still parses
    ckpt.write_bytes(bytes(blob))


def _drop_manifest(run_dir):
    (run_dir / "manifest.txt").unlink()


def _edit_folds(run_dir):
    config = run_dir / "config.txt"
    config.write_text(config.read_text().replace("folds=4\n", "folds=1000000000000\n"))


def _drop_manifest_lines(run_dir, unwanted):
    manifest = run_dir / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not unwanted(line)))


def _unlist_fold3(run_dir):
    _drop_manifest_lines(run_dir, lambda line: line.endswith("  ensemble_fold3.ckpt\n"))


def _drop_prep_lines(run_dir):
    # the manifest of a run trained before manifest.txt listed the prep files
    _drop_manifest_lines(run_dir, lambda line: "  prep/" in line)


def _edit_cv_table(run_dir):
    table = run_dir / "cv_table.csv"
    table.write_text(table.read_text().replace(",0.05,0,", ",0.05,1,", 1))


def _checkpoints_refused(*folds):
    return f"checkpoints {[f'ensemble_fold{fold}.ckpt' for fold in folds]} do not match manifest.txt"


@pytest.mark.parametrize("damage, message", [
    (_drop_folds_1_and_2, _checkpoints_refused(0, 3)),
    (_add_stale_fold4, _checkpoints_refused(0, 1, 2, 3, 4)),
    (_flip_one_byte, "ensemble_fold3.ckpt does not match manifest.txt"),
    (_drop_manifest, "manifest.txt is missing"),
    (_edit_folds, "config.txt does not match manifest.txt"),
    (_unlist_fold3, _checkpoints_refused(0, 1, 2, 3)),
    (_edit_cv_table, "cv_table.csv does not match manifest.txt"),
    (_drop_prep_lines, "tensors.bin is not the file"),
], ids=["missing_folds", "stale_fold", "flipped_byte", "no_manifest", "edited_folds",
        "unlisted_fold", "edited_cv_table", "no_prep_lines"])
def test_evaluate_refuses_incomplete_or_altered_ensemble(workspace, tmp_path, damage, message):
    root = workspace["root"]
    run_copy = tmp_path / "run"
    shutil.copytree(root / "run", run_copy)
    damage(run_copy)
    code, out, err = run("evaluate", "--tensors", root / "prep", "--run-dir", run_copy)
    assert code == 6 and out == ""
    assert err.startswith("error:") and message in err


def test_evaluate_refuses_prep_rewritten_while_train_searched(workspace, tmp_path, monkeypatch):
    root, prep = workspace["root"], tmp_path / "prep"
    shutil.copytree(root / "prep", prep)
    grid_search = cli.grid_search

    def preprocess_again(*args, **kwargs):
        code, _, _ = run("preprocess", "--cohort", root / "cohort.bin", "--out-dir", prep,
                         "--seed", 9)
        assert code == 0
        return grid_search(*args, **kwargs)

    monkeypatch.setattr(cli, "grid_search", preprocess_again)
    code, _, err = run("train", "--tensors", prep, "--run-dir", tmp_path / "run", "--seed", 5,
                       *TINY_TRAIN)
    assert code == 0, err
    code, out, err = run("evaluate", "--tensors", prep, "--run-dir", tmp_path / "run",
                         "--out-dir", tmp_path / "eval", "--seed", 5)
    assert (code, out) == (6, "")
    assert err == (f"error: {prep / 'tensors.bin'} is not the file {tmp_path / 'run'} was "
                   "trained on (sha256 differs from manifest.txt)\n")
    assert not (tmp_path / "eval").exists()


def test_evaluate_with_another_prep_exits_6(workspace, tmp_path):
    root = workspace["root"]
    other = tmp_path / "prep_b"
    code, _, _ = run("preprocess", "--cohort", root / "cohort.bin", "--out-dir", other,
                     "--seed", 6)
    assert code == 0
    code, out, err = run("evaluate", "--tensors", other, "--run-dir", root / "run",
                         "--out-dir", tmp_path / "eval", "--seed", 5)
    assert code == 6 and out == ""
    assert "tensors.bin is not the file" in err
    assert not (tmp_path / "eval").exists()

    stats_only = tmp_path / "prep_c"
    shutil.copytree(root / "prep", stats_only)
    with open(stats_only / "stats.tsv", "a", encoding="utf-8") as fh:
        fh.write("crp\t1.0\t2.0\n")  # still parses; only its digest changes
    code, _, err = run("evaluate", "--tensors", stats_only, "--run-dir", root / "run",
                       "--out-dir", tmp_path / "eval_c", "--seed", 5)
    assert code == 6 and "stats.tsv is not the file" in err


def test_evaluate_without_checkpoints_exits_6(workspace, tmp_path):
    empty = tmp_path / "empty_run"
    empty.mkdir()
    code, _, err = run("evaluate", "--tensors", workspace["root"] / "prep",
                       "--run-dir", empty)
    assert code == 6 and "no ensemble checkpoints" in err


PIPELINE_FILES = [
    "cohort.bin",
    "eval/pr_curve.csv", "eval/pr_curve.svg", "eval/report.txt",
    "prep/split.tsv", "prep/stats.tsv", "prep/tensors.bin",
    "run/config.txt", "run/cv_table.csv",
    "run/ensemble_fold0.ckpt", "run/ensemble_fold1.ckpt",
    "run/ensemble_fold2.ckpt", "run/ensemble_fold3.ckpt",
    "run/manifest.txt",
]


def pipeline_listing(out_dir):
    return sorted(str(p.relative_to(out_dir)) for p in Path(out_dir).rglob("*")
                  if p.is_file())


def test_pipeline_end_to_end(tmp_path):
    code, out, _ = run("pipeline", "--out-dir", tmp_path / "a", "--seed", 3,
                       *TINY_COHORT, *TINY_TRAIN)
    assert code == 0
    assert SUMMARY_RE.fullmatch(out.strip())
    assert pipeline_listing(tmp_path / "a") == PIPELINE_FILES

    code, out_b, _ = run("pipeline", "--out-dir", tmp_path / "b", "--seed", 3,
                         *TINY_COHORT, *TINY_TRAIN)
    assert code == 0 and out_b == out
    for rel in PIPELINE_FILES:
        assert sha256(tmp_path / "a" / rel) == sha256(tmp_path / "b" / rel), rel

    code, _, _ = run("pipeline", "--out-dir", tmp_path / "c", "--seed", 4,
                     *TINY_COHORT, *TINY_TRAIN)
    assert code == 0
    assert sha256(tmp_path / "c" / "run" / "ensemble_fold0.ckpt") != \
        sha256(tmp_path / "a" / "run" / "ensemble_fold0.ckpt")


def test_pipeline_matches_stage_commands(tmp_path):
    pipe, staged = tmp_path / "pipe", tmp_path / "staged"
    code, pipe_out, pipe_err = run("pipeline", "--out-dir", pipe, "--seed", 3,
                                   *TINY_COHORT, *TINY_TRAIN)
    assert code == 0 and pipe_err == ""
    staged.mkdir()
    lines = []
    for argv in (["generate", "--out", staged / "cohort.bin", *TINY_COHORT],
                 ["preprocess", "--cohort", staged / "cohort.bin", "--out-dir", staged / "prep"],
                 ["train", "--tensors", staged / "prep", "--run-dir", staged / "run",
                  *TINY_TRAIN],
                 ["evaluate", "--tensors", staged / "prep", "--run-dir", staged / "run",
                  "--out-dir", staged / "eval"]):
        code, out, err = run(*argv, "--seed", 3)
        assert code == 0 and err == "", argv
        lines.append(out)
    assert pipe_out == lines[-1]
    assert pipeline_listing(pipe) == pipeline_listing(staged) == PIPELINE_FILES
    for rel in PIPELINE_FILES:
        assert (pipe / rel).read_bytes() == (staged / rel).read_bytes(), rel


def test_pipeline_with_empty_test_side_exits_4(tmp_path):
    # 5 admissions at a test fraction of 0.05 round to no test admission at all
    code, _, err = run("pipeline", "--out-dir", tmp_path, "--n", 5, "--positives", 2,
                       "--test-fraction", 0.05, "--folds", 2, "--max-epochs", 1,
                       "--hidden", 2, "--horizon", "12:13")
    assert code == 4
    assert err == ("error: test fraction 0.05 of 2 positives puts no positive "
                   "on the test side\n")
    assert not (tmp_path / "prep").exists() and not (tmp_path / "run").exists()


def test_test_side_without_positive_exits_4(tmp_path):
    cohort = ["--n", 100, "--positives", 4, "--horizon", "12:24", "--test-fraction", 0.1]
    message = "error: test fraction 0.1 of 4 positives puts no positive on the test side\n"
    code, _, _ = run("generate", "--out", tmp_path / "cohort.bin", *cohort[:6])
    assert code == 0
    code, out, err = run("preprocess", "--cohort", tmp_path / "cohort.bin",
                         "--out-dir", tmp_path / "prep", *cohort[6:])
    assert (code, out, err) == (4, "", message)
    assert not (tmp_path / "prep").exists()
    code, out, err = run("pipeline", "--out-dir", tmp_path / "pipe", *cohort, *TINY_TRAIN)
    assert (code, out, err) == (4, "", message)
    assert not (tmp_path / "pipe" / "prep").exists() and not (tmp_path / "pipe" / "run").exists()


def _evaluate_run(prep, run_dir, out_dir):
    code, _, err = run("evaluate", "--tensors", prep, "--run-dir", run_dir,
                       "--out-dir", out_dir)
    assert code == 0, err
    return sorted(p.name for p in Path(run_dir).glob("ensemble_fold*.ckpt"))


def test_rerun_with_fewer_folds_replaces_checkpoints(workspace, tmp_path):
    prep = workspace["root"] / "prep"
    train = ["train", "--tensors", prep, *TINY_TRAIN]
    assert run(*train, "--run-dir", tmp_path / "run")[0] == 0
    # a diverging rerun fails before it touches the earlier run
    code, _, _ = run(*train, "--run-dir", tmp_path / "run", "--folds", 2, "--w-pos", "inf")
    assert code == 5
    assert len(_evaluate_run(prep, tmp_path / "run", tmp_path / "eval0")) == 4
    assert run(*train, "--run-dir", tmp_path / "run", "--folds", 2)[0] == 0
    assert run(*train, "--run-dir", tmp_path / "fresh", "--folds", 2)[0] == 0
    for name in ("config.txt", "cv_table.csv", "manifest.txt"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert _evaluate_run(prep, tmp_path / "run", tmp_path / "eval1") == \
        ["ensemble_fold0.ckpt", "ensemble_fold1.ckpt"]

    pipeline = ["pipeline", "--out-dir", tmp_path / "pipe", *TINY_COHORT, *TINY_TRAIN]
    assert run(*pipeline)[0] == 0
    assert run(*pipeline, "--folds", 2)[0] == 0
    assert _evaluate_run(tmp_path / "pipe" / "prep", tmp_path / "pipe" / "run",
                         tmp_path / "eval2") == ["ensemble_fold0.ckpt", "ensemble_fold1.ckpt"]


def test_quick_profile_writes_same_file_set(tmp_path):
    code, out, _ = run("pipeline", "--out-dir", tmp_path, "--seed", 0, "--quick",
                       "--folds", 4)
    assert code == 0
    assert SUMMARY_RE.fullmatch(out.strip())
    assert pipeline_listing(tmp_path) == PIPELINE_FILES
    config = dict(line.split("=", 1)
                  for line in (tmp_path / "run" / "config.txt").read_text().splitlines())
    assert config["hidden_size"] == "10" and config["max_epochs"] == "20"


def test_pipeline_rejects_bad_flags(workspace, tmp_path):
    code, _, err = run("pipeline", "--out-dir", tmp_path / "x", "--n", 40,
                       "--positives", 50)
    assert code == 2 and "n_positive" in err
    code, _, err = run("pipeline", "--out-dir", tmp_path / "y", *TINY_COHORT,
                       "--test-fraction", 1.5)
    assert code == 2 and "test_fraction" in err
    assert not (tmp_path / "y").exists()
    generate = ["generate", "--out", tmp_path / "z.bin", *TINY_COHORT]
    pipeline = ["pipeline", "--out-dir", tmp_path / "z", *TINY_COHORT]
    preprocess = ["preprocess", "--cohort", workspace["root"] / "cohort.bin",
                  "--out-dir", tmp_path / "z"]
    train = ["train", "--tensors", workspace["root"] / "prep", "--run-dir", tmp_path / "z"]
    evaluate = ["evaluate", "--tensors", workspace["root"] / "prep",
                "--run-dir", workspace["root"] / "run", "--out-dir", tmp_path / "z"]
    past_the_floats = "1:" + "9" * 400  # float() makes the upper bound inf
    for argv, message in ((generate + ["--horizon", "1.2.3:4"], "horizon"),
                          (generate + ["--horizon", past_the_floats], "horizon_hours"),
                          (pipeline + ["--horizon", past_the_floats], "horizon_hours"),
                          (generate + ["--signal-strength", "nan"], "signal_strength"),
                          (pipeline + ["--signal-strength", "inf"], "signal_strength"),
                          (pipeline + ["--lr", "nan"], "learning_rate"),
                          (pipeline + ["--lr", "inf"], "learning_rate"),
                          (preprocess + ["--test-fraction", "1.5"], "test_fraction"),
                          (preprocess + ["--test-fraction", "0"], "test_fraction"),
                          (pipeline + ["--folds", "1"], "folds"),
                          (train + ["--folds", "1"], "folds"),
                          (pipeline + TINY_TRAIN + ["--jobs", "0"], "jobs"),
                          (train + TINY_TRAIN + ["--jobs", "-1"], "jobs"),
                          (train + ["--seed", "-1"], "seed"),
                          (train + ["--w-pos", "nan"], "w_pos must be > 0, got nan"),
                          (preprocess + ["--seed", "-2000000"], "seed"),
                          (evaluate + ["--seed", "-2000004"], "seed"),
                          (pipeline + TINY_TRAIN + ["--grid", "--grid-lr", ","], "--grid-lr"),
                          (train + TINY_TRAIN + ["--grid", "--grid-hidden", ""], "--grid-hidden"),
                          (train + TINY_TRAIN + ["--grid", "--grid-hidden", "2,2"],
                           "--grid-hidden lists 2 more than once"),
                          (pipeline + TINY_TRAIN + ["--grid", "--grid-lr", "0.1,0.1"],
                           "--grid-lr lists 0.1 more than once")):
        code, _, err = run(*argv)
        assert code == 2 and message in err, (argv, err)
        assert not (tmp_path / "z").exists() and not (tmp_path / "z.bin").exists(), argv


def test_pipeline_unwritable_out_dir_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run("pipeline", "--out-dir", blocker / "sub", *TINY_COHORT)
    assert code == 3 and err.startswith("error:")
