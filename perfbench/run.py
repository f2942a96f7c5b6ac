"""Benchmark for the hemocult pipeline.

    python3 perfbench/run.py --workload ingest|cv_train|grid_wide --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/``; nothing is installed. Each run sets up its inputs several times
(``setup_s`` is the median), then repeats whole rounds of the workload's CLI
stages until ``--seconds`` have passed, checks every round's outputs outside
the timed part and deletes them. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics, taken from
traced rounds that alternate with untraced ones.
"""

import os
import sys

# String hashing is salted per process unless fixed, and the salt alone moves
# ingest's wall time by about 5 %; run under one fixed salt.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

# One BLAS thread per process, set before numpy loads: grid_wide trains on two
# pool workers, so processes x threads stays within the two cores measured on.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"


class PeakMemory:
    """Largest sampled memory of this process and its live children, each page once.

    This process counts with its resident set. A child (a forked pool worker)
    counts with its high-water mark less the pages it shares at the time of
    the sample: the copy-on-write heap and the libraries it shares with this
    process are already in this process's resident set. The high-water mark
    keeps a worker's peak between two samples from being missed.
    """

    def __init__(self, interval=0.05):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()

    @staticmethod
    def _fields_kb(path, fields):
        try:
            with open(path, encoding="ascii") as fh:
                return sum(int(line.split()[1]) for line in fh
                           if line.split(":", 1)[0] in fields)
        except (FileNotFoundError, ProcessLookupError):
            return 0

    def _child_kb(self, pid):
        shared = self._fields_kb(f"/proc/{pid}/smaps_rollup", ("Shared_Clean", "Shared_Dirty"))
        return max(self._fields_kb(f"/proc/{pid}/status", ("VmHWM",)) - shared, 0)

    def sample(self):
        total = self._fields_kb("/proc/self/status", ("VmRSS",))
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                    total += sum(self._child_kb(pid) for pid in fh.read().split())
            except FileNotFoundError:
                continue
        self.peak = max(self.peak, 1024 * total)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def release_memory():
    """Return freed heap to the OS, so a round's peak does not carry the last one's."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
        malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
        malloc_trim(0)


def run_stage(argv):
    """One CLI command in-process: (exit code, captured stdout, seconds)."""
    from hemocult import cli
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.entrypoint(argv)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed stage, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, out.getvalue(), time.perf_counter() - t0


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().split()[:3]


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def source_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "hemocult").rglob("*.py"))


def measure(workload, seconds: float, trace: bool, span_dir: Path):
    """Set up, run whole rounds for `seconds`, check each; returns (counts, rounds, extras)."""
    import spans as tracing
    from checks import CheckFailed

    setups = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    workload.install()
    tracer = tracing.Tracer(run_id=f"{workload.name}-{os.getpid()}", span_dir=span_dir) \
        if trace else None

    attempted = failed = 0
    correct = True
    quality = {}
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        rd = workload.work / f"round{index}"
        rd.mkdir()
        release_memory()
        stage_seconds, summaries, broken = {}, {}, False
        if traced:
            tracer.install(index)
        with PeakMemory() as memory:
            for stage, argv in workload.stages(rd):
                attempted += 1
                if broken:
                    failed += 1
                    continue
                code, out, dt = run_stage(argv)
                stage_seconds[stage], summaries[stage] = dt, out
                if code != 0:
                    print(f"perfbench: stage {stage} exited {code}", file=sys.stderr)
                    failed += 1
                    broken = True
        if traced:
            tracer.uninstall()
        if not broken:
            try:
                quality = workload.check(rd, summaries)
            except CheckFailed as exc:
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
                failed += 1
                correct = False
            except Exception:  # an artifact the program's own reader rejects
                traceback.print_exc()
                failed += 1
                correct = False
        items, item_seconds = workload.round_items(stage_seconds)
        rounds.append({"traced": traced, "wall": sum(stage_seconds.values()),
                       "rate": items / item_seconds if item_seconds else 0.0,
                       "memory": memory.peak,
                       "bytes": sum(p.stat().st_size for p in rd.rglob("*") if p.is_file())})
        shutil.rmtree(rd, ignore_errors=True)
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    return {"correct": correct, "attempted": attempted, "failed": failed}, rounds, {
        "setups": setups, "quality": quality, "spans": tracer.merged() if trace else []}


def end_to_end(rounds, extras):
    plain = [r for r in rounds if not r["traced"]]
    return {
        "setup_s": statistics.median(extras["setups"]),
        "wall_s": statistics.median(r["wall"] for r in plain),
        "peak_rss_mb": statistics.median(r["memory"] for r in plain) / 1e6,
        "throughput_per_s": statistics.median(r["rate"] for r in plain),
        "output_mb": statistics.median(r["bytes"] for r in plain) / 1e6,
    }


def per_layer(rounds, extras):
    import spans as tracing
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = tracing.layer_metrics(extras["spans"], rounds=len(traced))
    metrics["metrics.test_pr_auc"] = extras["quality"].get("test_pr_auc", 0.0)
    metrics["metrics.cv_pr_auc"] = extras["quality"].get("cv_pr_auc", 0.0)
    metrics["src.lines"] = source_lines()
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
    return metrics


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "hemocult" / "__init__.py"
    if spec is None or not package.is_file():
        print(f"perfbench: run from a source checkout: need {package} and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hemocult
    if Path(hemocult.__file__).resolve() != package.resolve():
        print(f"perfbench: imported {hemocult.__file__}, not {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_before"] = loadavg()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        counts, rounds, extras = measure(workload, args.seconds, bool(args.trace),
                                         work / "spans")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    env["loadavg_after"] = loadavg()
    env["round_walls_s"] = [round(r["wall"], 4) for r in rounds]

    values = per_layer(rounds, extras) if args.trace else end_to_end(rounds, extras)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("# env " + json.dumps(env))
    print(json.dumps(dict(counts, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
