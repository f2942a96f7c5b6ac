"""The three workloads: their inputs, the CLI stages they time, and their checks.

Every stage is a command line a user would type, run in-process through
``hemocult.cli.entrypoint``. Sizes are chosen so that one round takes 2-5 s
on two cores, so that a run's median is taken over several rounds, and so
that every fold trains for a fixed number of epochs (patience equals the
epoch cap, and at these signal strengths the validation PR AUC stays below
the 0.90 early-stop threshold), which keeps the work per round the same
across seeds.
"""

from pathlib import Path

import checks

# share of positives in the paper's cohort (229 of 2,177 admissions)
PREVALENCE = 229 / 2177


class Ingest:
    """generate writes the text cohort; preprocess reads it back and tensorizes it."""

    name = "ingest"
    n_admissions = 60
    # stays of 60-84 h (mean 72 h, the window) keep the raw value count, and so
    # the work per round, within about 1.5 % across seeds
    horizon = (60.0, 84.0)
    test_fraction = 0.1
    # one in-memory generation takes about 0.08 s; the median of many is steady
    setup_repeats = 15

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.n_positive = checks.round_half_up(PREVALENCE * self.n_admissions)
        self.read_back = []

    def setup(self):
        """The in-memory reference cohort that the read-back is compared with."""
        from hemocult import cohort
        config = cohort.CohortConfig(n_admissions=self.n_admissions, n_positive=self.n_positive,
                                     seed=self.seed, horizon_hours=self.horizon)
        self.reference = cohort.generate_cohort(config)
        self.items = sum(s.n_values() for s in self.reference)

    def install(self):
        """Keep what preprocess reads, for the round-trip check; reads no clock."""
        from hemocult import cli
        read_cohort = cli.read_cohort

        def kept(*args, **kwargs):
            result = read_cohort(*args, **kwargs)
            self.read_back.append(result)
            return result
        cli.read_cohort = kept

    def stages(self, rd: Path):
        cohort_file, seed = str(rd / "cohort.tsv"), str(self.seed)
        return [
            ("generate", ["generate", "--out", cohort_file, "--seed", seed,
                          "--n", str(self.n_admissions), "--positives", str(self.n_positive),
                          "--horizon", "{:g}:{:g}".format(*self.horizon)]),
            ("preprocess", ["preprocess", "--cohort", cohort_file, "--out-dir", str(rd / "prep"),
                            "--seed", seed, "--test-fraction", str(self.test_fraction)]),
        ]

    def round_items(self, stage_seconds):
        """Raw values carried from generation to tensors, and the seconds that took."""
        return self.items, sum(stage_seconds.values())

    def check(self, rd: Path, summaries):
        read_back = self.read_back.pop() if self.read_back else None
        self.read_back.clear()
        checks.check_ingest(self.reference, read_back, summaries, rd / "prep",
                            self.seed, self.test_fraction)
        return {}


class Training:
    """train then evaluate on a prep directory built during set-up."""

    horizon = (12.0, 48.0)
    test_fraction = 0.4
    setup_repeats = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.prep = work / "prep"
        self.n_positive = checks.round_half_up(PREVALENCE * self.n_admissions)
        self.sequences = [0]

    def setup(self):
        from hemocult import cli, cohort
        config = cohort.CohortConfig(n_admissions=self.n_admissions, n_positive=self.n_positive,
                                     seed=self.seed, signal_strength=self.signal_strength,
                                     horizon_hours=self.horizon)
        cli._preprocess_cohort(cohort.generate_cohort(config), self.prep, self.seed,
                               self.test_fraction)

    def install(self):
        """Count sequences through forward and backward from the returned histories.

        The wrapper sits on ``training.train_folds``, which returns the results
        of folds trained in pool workers too; it reads no clock.
        """
        from hemocult import training
        train_folds = training.train_folds

        def counted(tensors, plan, hyper, *args, **kwargs):
            results = train_folds(tensors, plan, hyper, *args, **kwargs)
            for fold, result in enumerate(results):
                self.sequences[0] += (len(tensors) - len(plan.folds[fold])) * len(result.history)
            return results
        training.train_folds = counted

    def stages(self, rd: Path):
        seed = str(self.seed)
        return [
            ("train", ["train", "--tensors", str(self.prep), "--run-dir", str(rd / "run"),
                       "--seed", seed, "--folds", str(self.folds)] + self.train_flags),
            ("evaluate", ["evaluate", "--tensors", str(self.prep), "--run-dir", str(rd / "run"),
                          "--out-dir", str(rd / "eval"), "--seed", seed]),
        ]

    def round_items(self, stage_seconds):
        """Sequences through forward and backward per second of the train stage."""
        items, self.sequences[0] = self.sequences[0], 0
        return items, stage_seconds["train"]

    def check(self, rd: Path, summaries):
        return checks.check_training(self.prep, rd / "run", rd / "eval", summaries,
                                     self.folds, self.cells)


class CvTrain(Training):
    """Default cell (H=10, lr 0.01), one process: per-step call overhead dominates.

    Batches of 4 rather than the default 32: plain gradient descent at lr 0.01
    needs the eight times more updates to learn within the three epochs that
    fit a round. With batch 32, a round either learns too little to beat the
    baselines on some seeds, or, at a signal strong enough to learn on every
    seed, a validation fold passes the 0.90 early-stop threshold on some seeds
    and the work per round depends on the seed.
    """

    name = "cv_train"
    n_admissions = 600
    signal_strength = 0.45
    folds = 3
    epochs = 3
    cells = [(10, 0.01)]
    train_flags = ["--hidden", "10", "--lr", "0.01", "--batch-size", "4",
                   "--max-epochs", str(epochs), "--patience", str(epochs), "--jobs", "1"]


class GridWide(Training):
    """H=100 grid of two rates on two pool workers: the recurrent GEMMs dominate."""

    name = "grid_wide"
    n_admissions = 400
    signal_strength = 0.35
    folds = 2
    epochs = 2
    cells = [(100, 0.1), (100, 0.01)]
    train_flags = ["--grid", "--grid-hidden", "100", "--grid-lr", "0.1,0.01",
                   "--max-epochs", str(epochs), "--patience", str(epochs), "--jobs", "2"]


WORKLOADS = {w.name: w for w in (Ingest, CvTrain, GridWide)}
