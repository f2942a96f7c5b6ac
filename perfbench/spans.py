"""Spans around the program's layers, recorded from the benchmark's own files.

Each function in PATCHES is patched under the name its caller looks it up by (``hemocult.cli.write_cohort`` for ``cmd_generate``,
``hemocult.lstm.forward_batch`` for ``training``), so nothing under ``src/``
changes. A span records name, layer, start, end, its parent span and the run
id. Spans are kept in memory; pool workers (forked from the traced process)
append theirs to one file per process when their top-level span ends, and
the parent merges those files with its own at the end of the run.
"""

import functools
import glob
import hashlib
import importlib
import json
import os
import statistics
import sys
import time

# (module, attribute, layer). The span is named "<module tail>.<attribute>".
# Patched are the functions whose spans a per-layer metric reads, and the
# other calls from ``cli`` into a layer whose self time is reported (cohort,
# prep, lstm, metrics), so that their time is not counted as ``cli``'s own.
# ``training.self_s`` is the self time of ``train_one`` alone; the training
# helpers that ``cli`` calls (splitting, folds, ensemble scoring) are left
# unpatched and count as ``cli.self_s``, as do ``cli``'s private helpers.
PATCHES = (
    ("hemocult.cli", "cmd_generate", "cli"),
    ("hemocult.cli", "cmd_preprocess", "cli"),
    ("hemocult.cli", "cmd_train", "cli"),
    ("hemocult.cli", "cmd_evaluate", "cli"),
    ("hemocult.cli", "_write_manifest", "cli"),
    ("hemocult.cli", "generate_cohort", "cohort"),
    ("hemocult.cli", "write_cohort", "cohort"),
    ("hemocult.cli", "read_cohort", "cohort"),
    ("hemocult.cli", "cohort_summary", "cohort"),
    ("hemocult.cli", "filter_outliers", "prep"),
    ("hemocult.cli", "fit_normalizer", "prep"),
    ("hemocult.cli", "build_tensor", "prep"),
    ("hemocult.cli", "write_stats", "prep"),
    ("hemocult.cli", "read_stats", "prep"),
    ("hemocult.cli", "write_tensors", "prep"),
    ("hemocult.cli", "read_tensors", "prep"),
    ("hemocult.cli", "grid_search", "training"),
    ("hemocult.cli", "train_cell", "training"),
    ("hemocult.training", "train_folds", "training"),
    ("hemocult.training", "train_one", "training"),
    ("hemocult.training", "_score_matrix", "training"),
    ("hemocult.training", "pr_auc", "metrics"),
    ("hemocult.lstm", "forward_batch", "lstm"),
    ("hemocult.lstm", "backward_batch", "lstm"),
    ("hemocult.lstm", "init_params", "lstm"),
    ("hemocult.cli", "save_params", "lstm"),
    ("hemocult.cli", "load_params", "lstm"),
    ("hemocult.cli", "pr_curve", "metrics"),
    ("hemocult.cli", "baseline_constant", "metrics"),
    ("hemocult.cli", "baseline_proportional", "metrics"),
    ("hemocult.cli", "export_curve", "metrics"),
    ("hemocult.cli", "export_curve_svg", "metrics"),
    ("hemocult.metrics", "pr_curve", "metrics"),
)

# layers whose self_s is the self time of all their spans
SELF_LAYERS = ("cohort", "prep", "lstm", "metrics", "cli")

EARLY_STOP_THRESHOLD = 0.90  # documented in hemocult.training


def _forward_attrs(args, kwargs, result):
    X, p = args[0], args[1] if len(args) > 1 else kwargs["p"]
    return {"B": X.shape[0], "T": X.shape[1], "n": X.shape[2], "H": p.hidden_size}


def _backward_attrs(args, kwargs, result):
    X, p = args[0], args[2] if len(args) > 2 else kwargs["p"]
    return {"B": X.shape[0], "T": X.shape[1], "n": X.shape[2], "H": p.hidden_size}


def _train_one_attrs(args, kwargs, result):
    named = dict(zip(("train_tensors", "val_tensors", "hyper"), args), **kwargs)
    train, val, hyper = named["train_tensors"], named["val_tensors"], named["hyper"]
    key = repr((hyper, [t.admission_id for t in train], [t.admission_id for t in val]))
    return {"n_train": len(train), "history": [float(v) for v in result.history],
            "max_epochs": hyper.max_epochs, "patience": hyper.patience,
            "key": hashlib.sha1(key.encode()).hexdigest()}


def _train_folds_attrs(args, kwargs, result):
    jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
    return {"jobs": int(jobs)}


def _write_cohort_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _generate_attrs(args, kwargs, result):
    return {"values": sum(s.n_values() for s in result)}


def _filter_attrs(args, kwargs, result):
    return {"removed": int(result[1])}


ATTRS = {
    "lstm.forward_batch": _forward_attrs,
    "lstm.backward_batch": _backward_attrs,
    "training.train_one": _train_one_attrs,
    "training.train_folds": _train_folds_attrs,
    "cli.write_cohort": _write_cohort_attrs,
    "cli.generate_cohort": _generate_attrs,
    "cli.filter_outliers": _filter_attrs,
}


class Tracer:
    """Installs span wrappers for the duration of one traced round."""

    def __init__(self, run_id: str, span_dir):
        self.run_id = run_id
        self.span_dir = str(span_dir)
        os.makedirs(self.span_dir, exist_ok=True)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.base_depth = 0
        self.round = None
        self._next = 0
        self._saved = []
        self.missing = set()

    def _enter(self):
        if os.getpid() != self.pid:  # first span in a forked pool worker
            self.pid = os.getpid()
            self.spans = []
            self.base_depth = len(self.stack)
        self._next += 1
        sid = f"{self.pid}:{self._next}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _wrap(self, name, layer, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            result = ok = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                span = {"name": name, "layer": layer, "start": t0, "end": t1, "id": sid,
                        "parent": parent, "run": self.run_id, "pid": self.pid,
                        "round": self.round}
                if attrs_fn is not None and ok:
                    span.update(attrs_fn(args, kwargs, result))
                self.spans.append(span)
                if self.base_depth and len(self.stack) == self.base_depth:
                    self.flush()  # a pool worker finished its task
        return traced

    def install(self, round_index: int):
        self.round = round_index
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                if (module_name, attr) not in self.missing:
                    self.missing.add((module_name, attr))
                    print(f"perfbench: {module_name}.{attr} not found; not traced",
                          file=sys.stderr)
                continue
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, layer, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self.round = None

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def merged(self):
        """Write this process's spans out, then read back every process's."""
        self.flush()
        spans = []
        for path in sorted(glob.glob(os.path.join(self.span_dir, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def _self_times(spans):
    """Span duration minus the time its children in the same process cover."""
    child_time = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def _stop_reason(history, max_epochs, patience):
    if history[-1] > EARLY_STOP_THRESHOLD:
        return "threshold"
    drops = 0
    for prev, cur in zip(history, history[1:]):
        drops = drops + 1 if cur < prev else 0
    if drops >= patience:
        return "patience"
    return "max_epochs"


def _gemm_flop(s, backward):
    B, T, n, H = s["B"], s["T"], s["n"], s["H"]
    # per direction: forward x@W and h@U; backward dz@U, dW and dU
    per_dir = 2 * B * T * 4 * H * ((n + 2 * H) if backward else (n + H))
    return 2 * per_dir


def layer_metrics(spans, rounds: int):
    """Per-layer metrics per traced round; ratios and medians are not divided."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def p50_ms(name):
        durs = [s["end"] - s["start"] for s in by_name.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    self_time = _self_times(spans)
    by_id = {s["id"]: s for s in spans}
    layer_self = dict.fromkeys(SELF_LAYERS, 0.0)
    for s in spans:
        if s["layer"] in layer_self:
            layer_self[s["layer"]] += self_time[s["id"]]

    fwd, bwd = by_name.get("lstm.forward_batch", []), by_name.get("lstm.backward_batch", [])
    gflop = (sum(_gemm_flop(s, False) for s in fwd) + sum(_gemm_flop(s, True) for s in bwd)) / 1e9
    lstm_s = total("lstm.forward_batch", "lstm.backward_batch")

    train_one = by_name.get("training.train_one", [])
    stops = {"threshold": 0, "patience": 0, "max_epochs": 0}
    for s in train_one:
        stops[_stop_reason(s["history"], s["max_epochs"], s["patience"])] += 1
    val_score = sum(s["end"] - s["start"] for s in spans
                    if s["name"] in ("training._score_matrix", "training.pr_auc")
                    and by_id.get(s["parent"], {}).get("name") == "training.train_one")

    pool_wait = 0.0
    for s in by_name.get("training.train_folds", ()):
        if s.get("jobs", 1) > 1:
            busy = sum(c["end"] - c["start"] for c in train_one if c["parent"] == s["id"])
            pool_wait += (s["end"] - s["start"]) - busy / s["jobs"]

    retrain = sum(s["end"] - s["start"] for s in by_name.get("cli.train_cell", ())
                  if any(g["round"] == s["round"] for g in by_name.get("cli.grid_search", ())))

    per_round = {
        "cohort.generate_s": total("cli.generate_cohort"),
        "cohort.write_s": total("cli.write_cohort"),
        "cohort.read_s": total("cli.read_cohort"),
        "cohort.values": sum(s["values"] for s in by_name.get("cli.generate_cohort", ())),
        "cohort.bytes_written": sum(s["bytes"] for s in by_name.get("cli.write_cohort", ())),
        "prep.filter_s": total("cli.filter_outliers"),
        "prep.fit_s": total("cli.fit_normalizer"),
        "prep.build_tensor_s": total("cli.build_tensor"),
        "prep.build_tensor_calls": calls("cli.build_tensor"),
        "prep.outliers_removed": sum(s["removed"] for s in by_name.get("cli.filter_outliers", ())),
        "prep.write_tensors_s": total("cli.write_tensors"),
        "prep.read_tensors_s": total("cli.read_tensors"),
        "lstm.forward_s": total("lstm.forward_batch"),
        "lstm.forward_calls": len(fwd),
        "lstm.backward_s": total("lstm.backward_batch"),
        "lstm.backward_calls": len(bwd),
        "lstm.gflop": gflop,
        "lstm.ckpt_save_s": total("cli.save_params"),
        "lstm.ckpt_load_s": total("cli.load_params"),
        "training.train_one_s": total("training.train_one"),
        "training.self_s": sum(self_time[s["id"]] for s in train_one),
        "training.val_score_s": val_score,
        "training.folds_trained": len(train_one),
        "training.epochs": sum(len(s["history"]) for s in train_one),
        "training.stops_threshold": stops["threshold"],
        "training.stops_patience": stops["patience"],
        "training.stops_max_epochs": stops["max_epochs"],
        "training.pool_wait_s": pool_wait,
        "metrics.pr_curve_s": total("cli.pr_curve", "metrics.pr_curve"),
        "metrics.pr_curve_calls": calls("cli.pr_curve") + calls("metrics.pr_curve"),
        "metrics.export_s": total("cli.export_curve", "cli.export_curve_svg"),
        "cli.manifest_s": total("cli._write_manifest"),
        "cli.retrain_s": retrain,
    }
    for layer in SELF_LAYERS:
        per_round[f"{layer}.self_s"] = layer_self[layer]
    out = {name: value / max(rounds, 1) for name, value in per_round.items()}
    out["lstm.fwd_ms_p50"] = p50_ms("lstm.forward_batch")
    out["lstm.bwd_ms_p50"] = p50_ms("lstm.backward_batch")
    out["prep.build_tensor_ms_p50"] = p50_ms("cli.build_tensor")
    out["lstm.gflop_per_s"] = gflop / lstm_s if lstm_s > 0 else 0.0
    # distinct trainings within each round; rounds repeat the same folds on purpose
    keys = {(s["round"], s["key"]) for s in train_one}
    out["training.useful_fold_ratio"] = len(keys) / len(train_one) if train_one else 0.0
    return out
