"""Command-line entry point: generate, preprocess, train, evaluate, pipeline.

stdout carries one machine-readable key=value summary line per command;
diagnostics go to stderr. Exit code 0 is success; errors.py declares one
class for each error exit code, 2 to 6.

Seed derivation from the master seed: cohort generation uses the seed
itself, the train/test split uses seed + 1000003, fold assignment uses
seed + 3000017, the stochastic baseline uses seed + 2000003, and fold f
trains with seed + f.
"""

import argparse
import hashlib
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cohort import (CohortConfig, cohort_summary, generate_cohort,
                     read_cohort, write_cohort)
from .errors import ConfigError, FormatError, HemocultError, IntegrityError
from .lstm import STACK_MAX_HIDDEN, load_params, save_params
from .metrics import (baseline_constant, baseline_proportional, export_curve,
                      export_curve_svg, pr_curve)
from .prep import (build_tensor, filter_outliers, fit_normalizer,
                   read_tensors, write_stats, write_tensors)
from .training import (GRID_HIDDEN, GRID_LR, HyperParams,
                       ensemble_scores, grid_search, make_folds, stratified_split)

SPLIT_SEED_OFFSET = 1_000_003
BASELINE2_SEED_OFFSET = 2_000_003
FOLDS_SEED_OFFSET = 3_000_017

SPLIT_MAGIC = "#hemocult-split v1"

# preprocess outputs; train lists their sha256 in manifest.txt and evaluate checks it
PREP_FILES = ("tensors.bin", "split.tsv", "stats.tsv")

# --quick settings, keyed by CohortConfig/HyperParams field
QUICK_PROFILE = {
    "n_admissions": 300, "n_positive": 40, "horizon_hours": (12.0, 48.0),
    "hidden_size": 10, "learning_rate": 0.01, "max_epochs": 20,
}

def _parse_horizon(text: str):
    match = re.fullmatch(r"([0-9.]+):([0-9.]+)", text)
    try:
        if match:
            return float(match.group(1)), float(match.group(2))
    except ValueError:  # more than one dot, as in 1.2.3
        pass
    raise ConfigError(f"horizon must look like LO:HI in hours, got {text!r}")


def _parse_list(text: str, kind, flag: str):
    """Distinct comma-separated values: a repeated value would train the same cells again."""
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok)
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"{flag} must be a comma list of {kind.__name__} values, got {text!r}")
    for n, value in enumerate(values):
        if value in values[:n]:
            raise ConfigError(f"{flag} lists {value!r} more than once, got {text!r}")
    return values


def write_split(path, ids, partitions):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPLIT_MAGIC + "\n")
        for admission_id, partition in zip(ids, partitions):
            fh.write(f"{admission_id}\t{partition}\n")


def read_split(path):
    partition_of = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != SPLIT_MAGIC:
                raise FormatError(f"{path}: bad split header")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2 or parts[1] not in ("train", "test"):
                    raise FormatError(f"{path}:{lineno}: malformed split record")
                if parts[0] in partition_of:
                    raise FormatError(f"{path}:{lineno}: admission id {parts[0]} listed twice")
                partition_of[parts[0]] = parts[1]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    return partition_of


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(run_dir: Path, names, prep_digests):
    """sha256 of the named run files, then of the prep/ files; other run files go unlisted."""
    digests = {name: _sha256(run_dir / name) for name in names} | prep_digests
    with open(run_dir / "manifest.txt", "w", encoding="utf-8") as fh:
        for name in sorted(digests):
            fh.write(f"{digests[name]}  {name}\n")


def _configured(cls, args):
    """cls defaults, then the --quick profile, then every flag whose dest is a field."""
    names = [f.name for f in fields(cls)]
    values = {}
    if getattr(args, "quick", False):
        values.update((k, v) for k, v in QUICK_PROFILE.items() if k in names)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            # parsed here, not by an argparse type=, so its ConfigError maps to exit 2
            values[name] = _parse_horizon(value) if name == "horizon_hours" else value
    config = cls(**values)
    config.validate()
    return config


def _check_flags(args):
    """The command's flags that no config class holds, checked before any file is touched."""
    flags = vars(args)
    if args.seed < 0:  # every command has --seed, and numpy refuses a negative derived seed
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if "test_fraction" in flags and not 0.0 < args.test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {args.test_fraction}")
    if "folds" in flags and args.folds < 2:
        raise ConfigError(f"folds must be >= 2, got {args.folds}")
    if "jobs" in flags and args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")


def _preprocess_cohort(cohort, out_dir: Path, master_seed: int, test_fraction: float) -> str:
    """Split first, fit stats on the training side only, tensorize everything."""
    ids = [series.admission_id for series in cohort]
    unsafe = next(filter(re.compile(r"[\t\r\n]").search, ids), None)  # split.tsv separators
    if unsafe is not None:
        raise FormatError(f"admission id {unsafe!r} holds a tab or line break, "
                          "which split.tsv cannot hold")
    labels = [series.label for series in cohort]
    train_ids, test_ids = stratified_split(ids, labels, test_fraction,
                                           seed=master_seed + SPLIT_SEED_OFFSET)
    train_set = set(train_ids)
    filtered = []
    removed_total = 0
    for series in cohort:
        clean, removed = filter_outliers(series)
        filtered.append(clean)
        removed_total += removed
    stats = fit_normalizer([s for s in filtered if s.admission_id in train_set])
    tensors = [build_tensor(series, stats) for series in filtered]
    partitions = ["train" if aid in train_set else "test" for aid in ids]
    out_dir.mkdir(parents=True, exist_ok=True)  # only now, so a refusal leaves no out_dir
    write_split(out_dir / "split.tsv", ids, partitions)
    write_stats(stats, out_dir / "stats.tsv")
    write_tensors(tensors, out_dir / "tensors.bin")
    n_train = partitions.count("train")
    return (f"tensors={len(tensors)} train={n_train} test={len(tensors) - n_train} "
            f"removed_outliers={removed_total}")


def _load_partitioned_tensors(tensors_dir: Path):
    tensors = read_tensors(tensors_dir / "tensors.bin")
    partition_of = read_split(tensors_dir / "split.tsv")
    by_partition = {"train": [], "test": []}
    for tensor in tensors:
        partition = partition_of.pop(tensor.admission_id, None)  # ids in the cache are unique
        if partition is None:
            raise FormatError(f"{tensor.admission_id} missing from split file")
        by_partition[partition].append(tensor)
    if partition_of:  # split ids left without a tensor: the cache lost records
        raise FormatError(f"{min(partition_of)} missing from tensor cache")
    return by_partition


def _write_record(path, mapping):
    """One key=value line per entry: floats as repr, everything else as str."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n")


def _write_run_config(run_dir: Path, args, cells, hyper: HyperParams):
    """What train decided; seed= is the master seed, and the other stages record their own."""
    _write_record(run_dir / "config.txt", {
        "folds_seed": args.seed + FOLDS_SEED_OFFSET,
        "cells": ";".join(f"{c.hidden_size}x{c.learning_rate!r}" for c in cells),
        "folds": args.folds,
        **asdict(hyper),
    })


def _write_cv_table(run_dir: Path, rows):
    with open(run_dir / "cv_table.csv", "w", encoding="utf-8") as fh:
        fh.write("hidden,lr,fold,best_epoch,val_pr_auc\n")
        for hidden, lr, fold, best_epoch, val in rows:
            fh.write(f"{hidden},{lr!r},{fold},{best_epoch},{val!r}\n")


def _train(prep_dir: Path, run_dir: Path, args, cells) -> str:
    """Train every cell's folds once; the winning cell's fold models are the ensemble."""
    # hashed just before they are read, so the manifest vouches for what training saw
    prep_digests = {f"prep/{name}": _sha256(prep_dir / name) for name in PREP_FILES}
    train_tensors = _load_partitioned_tensors(prep_dir)["train"]
    ids = [t.admission_id for t in train_tensors]
    labels = [t.label for t in train_tensors]
    plan = make_folds(ids, labels, k=args.folds, seed=args.seed + FOLDS_SEED_OFFSET)
    result = grid_search(train_tensors, plan, cells, jobs=args.jobs)
    best = result.best
    # only now, so a run that diverges makes no run dir and leaves an earlier run intact
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in run_dir.glob("ensemble_fold*.ckpt"):
        stale.unlink()
    _write_run_config(run_dir, args, cells, best)
    _write_cv_table(run_dir, result.rows)
    checkpoints = [f"ensemble_fold{fold}.ckpt" for fold in range(len(result.results))]
    for name, r in zip(checkpoints, result.results):
        save_params(r.params, run_dir / name)
    _write_manifest(run_dir, ["config.txt", "cv_table.csv", *checkpoints], prep_digests)
    return (f"hidden={best.hidden_size} lr={best.learning_rate!r} "
            f"cv_pr_auc={result.cv_mean!r} folds={args.folds}")


def _read_manifest(run_dir: Path):
    """name -> sha256 hex digest as listed in manifest.txt."""
    listed = {}
    # undecodable bytes become U+FFFD, so a damaged line fails the digest check
    with open(run_dir / "manifest.txt", "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            digest, _, name = line.rstrip("\n").partition("  ")
            listed[name] = digest
    return listed


def _load_ensemble(run_dir: Path, prep_dir: Path):
    """Folds 0..k-1 of the run, trained on the files in prep_dir.

    k is the number of checkpoints present, and manifest.txt must list exactly
    those. config.txt, cv_table.csv, each checkpoint and each prep file must
    match their manifest.txt digests. Only names built here are hashed, and
    config.txt is never parsed.
    """
    found = {p.name for p in run_dir.glob("ensemble_fold*.ckpt")}
    if not found:
        raise IntegrityError(f"{run_dir}: no ensemble checkpoints found")
    names = [f"ensemble_fold{fold}.ckpt" for fold in range(len(found))]
    try:
        listed = _read_manifest(run_dir)
        if found != set(names) or found != {n for n in listed if n.startswith("ensemble_fold")}:
            raise IntegrityError(f"{run_dir}: checkpoints {sorted(found)} do not match manifest.txt")
        for name in ["config.txt", "cv_table.csv", *names]:
            if listed.get(name) != _sha256(run_dir / name):
                raise IntegrityError(f"{run_dir}: {name} does not match manifest.txt")
    except FileNotFoundError as exc:
        raise IntegrityError(f"{run_dir}: {Path(exc.filename).name} is missing") from None
    for name in PREP_FILES:
        if listed.get(f"prep/{name}") != _sha256(prep_dir / name):
            raise IntegrityError(f"{prep_dir / name} is not the file {run_dir} was trained on "
                                 "(sha256 differs from manifest.txt)")
    members = [load_params(run_dir / name) for name in names]
    if len({m.hidden_size for m in members}) != 1:
        raise IntegrityError(f"{run_dir}: ensemble members disagree on hidden size")
    return members


def _evaluate(prep_dir: Path, run_dir: Path, out_dir: Path, master_seed: int) -> str:
    """Score the test side of prep_dir with the run's ensemble; write the report and curve."""
    test_tensors = _load_partitioned_tensors(prep_dir)["test"]
    if not test_tensors:
        raise ConfigError("no test tensors in the cache")
    members = _load_ensemble(run_dir, prep_dir)
    baseline2_seed = master_seed + BASELINE2_SEED_OFFSET
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = np.array([t.label for t in test_tensors], dtype=int)
    scores = ensemble_scores(members, test_tensors)
    curve = pr_curve(scores, labels)
    # Python floats and ints only: a numpy scalar's repr is not its value
    report = {
        "test_pr_auc": curve.auc,
        "baseline1_pr_auc": baseline_constant(labels),
        "baseline2_pr_auc": baseline_proportional(labels, seed=baseline2_seed),
        "prevalence": float(labels.sum() / labels.size),
        "n": int(labels.size),
        "n_pos": int(labels.sum()),
        "baseline2_seed": baseline2_seed,
    }
    export_curve(curve, out_dir / "pr_curve.csv")
    export_curve_svg(curve, out_dir / "pr_curve.svg")
    _write_record(out_dir / "report.txt", report)
    return (f"test_pr_auc={report['test_pr_auc']!r} "
            f"baseline1={report['baseline1_pr_auc']!r} "
            f"baseline2={report['baseline2_pr_auc']!r}")


def cmd_generate(args) -> int:
    config = _configured(CohortConfig, args)
    cohort = generate_cohort(config)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_cohort(cohort, args.out)
    print(cohort_summary(cohort))
    return 0


def cmd_preprocess(args) -> int:
    cohort = read_cohort(args.cohort)
    print(_preprocess_cohort(cohort, Path(args.out_dir), args.seed, args.test_fraction))
    return 0


def _grid_cells_from(args, hyper: HyperParams):
    """The cells to train: hyper with each --grid (hidden, lr) pair, else hyper alone."""
    if not args.grid:
        if args.grid_hidden is not None or args.grid_lr is not None:
            raise ConfigError("--grid-hidden/--grid-lr require --grid")
        return [hyper]
    hiddens = (GRID_HIDDEN if args.grid_hidden is None
               else _parse_list(args.grid_hidden, int, "--grid-hidden"))
    rates = GRID_LR if args.grid_lr is None else _parse_list(args.grid_lr, float, "--grid-lr")
    cells = [replace(hyper, hidden_size=h, learning_rate=lr) for h in hiddens for lr in rates]
    for cell in cells:
        cell.validate()
    return cells


def cmd_train(args) -> int:
    cells = _grid_cells_from(args, _configured(HyperParams, args))
    print(_train(Path(args.tensors), Path(args.run_dir), args, cells))
    return 0


def cmd_evaluate(args) -> int:
    print(_evaluate(Path(args.tensors), Path(args.run_dir),
                    Path(args.out_dir or args.run_dir), args.seed))
    return 0


def cmd_pipeline(args) -> int:
    config = _configured(CohortConfig, args)
    cells = _grid_cells_from(args, _configured(HyperParams, args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_cohort(generate_cohort(config), out / "cohort.bin")
    _preprocess_cohort(read_cohort(out / "cohort.bin"), out / "prep", args.seed,
                       args.test_fraction)
    _train(out / "prep", out / "run", args, cells)
    print(_evaluate(out / "prep", out / "run", out / "eval", args.seed))
    return 0


def _add_cohort_flags(sub):
    # each dest is a CohortConfig field; _configured copies the flags that are set
    sub.add_argument("--n", dest="n_admissions", type=int, default=None,
                     help="number of admissions")
    sub.add_argument("--positives", dest="n_positive", type=int, default=None,
                     help="number of positive admissions")
    sub.add_argument("--outlier-rate", type=float, default=None)
    sub.add_argument("--signal-strength", type=float, default=None)
    sub.add_argument("--horizon", dest="horizon_hours", type=str, default=None,
                     help="admission length range, hours, LO:HI")


def _add_train_flags(sub):
    sub.add_argument("--grid", action="store_true", help="search the declared hyperparameter grid")
    sub.add_argument("--grid-hidden", type=str, default=None, help="comma list overriding grid hidden sizes")
    sub.add_argument("--grid-lr", type=str, default=None, help="comma list overriding grid learning rates")
    # each dest below is a HyperParams field; _configured copies the flags that are set
    sub.add_argument("--hidden", dest="hidden_size", type=int, default=None)
    sub.add_argument("--lr", dest="learning_rate", type=float, default=None)
    sub.add_argument("--max-epochs", type=int, default=None)
    sub.add_argument("--batch-size", type=int, default=None)
    sub.add_argument("--patience", type=int, default=None)
    sub.add_argument("--w-pos", type=float, default=None)
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for a cell's folds, at most --folds; the folds of a "
                          f"cell with at most {STACK_MAX_HIDDEN} hidden units train in "
                          "lockstep within each process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemocult",
        description="Synthetic ICU cohorts and a from-scratch bidirectional "
                    "LSTM pipeline for predicting positive blood cultures.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic cohort file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    _add_cohort_flags(gen)
    gen.set_defaults(func=cmd_generate)

    pre = subs.add_parser("preprocess", help="split, normalize, and tensorize a cohort")
    pre.add_argument("--cohort", required=True)
    pre.add_argument("--out-dir", required=True)
    pre.add_argument("--seed", type=int, default=0)
    pre.add_argument("--test-fraction", type=float, default=0.10)
    pre.set_defaults(func=cmd_preprocess)

    tr = subs.add_parser("train", help="cross-validated training on cached tensors")
    tr.add_argument("--tensors", required=True, help="preprocess output directory")
    tr.add_argument("--run-dir", required=True)
    tr.add_argument("--seed", type=int, default=0)
    _add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="score the test partition with a trained ensemble")
    ev.add_argument("--tensors", required=True, help="preprocess output directory")
    ev.add_argument("--run-dir", required=True)
    ev.add_argument("--out-dir", default=None)
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(func=cmd_evaluate)

    pipe = subs.add_parser("pipeline", help="generate, preprocess, train, evaluate")
    pipe.add_argument("--out-dir", required=True)
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--quick", action="store_true",
                      help="reduced cohort and a single fast training cell")
    pipe.add_argument("--test-fraction", type=float, default=0.10)
    _add_cohort_flags(pipe)
    _add_train_flags(pipe)
    pipe.set_defaults(func=cmd_pipeline)

    return parser


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (HemocultError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, HemocultError) else 3


def main():
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
