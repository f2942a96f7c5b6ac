"""Preprocessing: outlier filtering, normalization, resampling to 72x9.

The pipeline per admission: drop values outside the bio-limits, pick the
window end (first positive culture time for positives, last recorded
timestamp for negatives), split the final 72 hours into one-hour bins,
aggregate each occupied bin per the variable's policy, normalize with
training-set statistics via n = (x - avg) / (3 * std), forward-fill empty
bins after the first occupied one, and zero-fill before it.

Bin k covers [end - (72-k) h, end - (71-k) h), half-open on the right,
except bin 71 which is closed at the window end.

Tensor cache layout (tensors.bin), all fields little-endian:

    magic  b"#hemocult-tensors v1\\n"
    per record, until the end of the file:
        u32 id length, id bytes (UTF-8)
        u8 label (0/1)
        72 x 9 finite f64 values, row-major (bin, then variable column)
"""

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .blocks import F64, BlockReader, pack_string
from .cohort import PatientSeries
from .errors import ConfigError, FormatError, IntegrityError
from .variables import (BIN_SECONDS, BY_NAME, N_BINS, N_VARIABLES,
                        VARIABLES, VariableSpec, WINDOW_SECONDS)

TENSOR_MAGIC = b"#hemocult-tensors v1\n"
_LABEL = struct.Struct("<B")


@dataclass
class NormStats:
    """Per-variable (avg, std) in column order; std is the population form."""

    avg: np.ndarray  # (9,)
    std: np.ndarray  # (9,)

    def for_name(self, name: str) -> Tuple[float, float]:
        col = BY_NAME[name].column_index
        return float(self.avg[col]), float(self.std[col])


@dataclass
class SampleTensor:
    """One admission as a (72, 9) normalized matrix plus its label."""

    values: np.ndarray
    label: int
    admission_id: str

    def validate(self):
        if self.values.shape != (N_BINS, N_VARIABLES):
            raise IntegrityError(
                f"tensor shape {self.values.shape}, want ({N_BINS}, {N_VARIABLES})")
        if not np.all(np.isfinite(self.values)):
            raise IntegrityError("non-finite tensor entry")
        if self.label not in (0, 1):
            raise IntegrityError(f"label must be 0 or 1, got {self.label}")


def filter_outliers(series: PatientSeries) -> Tuple[PatientSeries, int]:
    """Drop values outside closed bio-limit intervals; order preserved."""
    channels = {}
    removed = 0
    for name, (ts, vals) in series.channels.items():
        if name not in BY_NAME:
            raise ConfigError(f"unknown variable {name!r} in {series.admission_id}")
        limits = BY_NAME[name].bio_limits
        if limits is None:
            channels[name] = (ts, vals)
            continue
        lo, hi = limits
        keep = (vals >= lo) & (vals <= hi)
        removed += int(ts.size - keep.sum())
        channels[name] = (ts[keep], vals[keep])
    filtered = PatientSeries(series.admission_id, series.label,
                             series.first_positive_time, channels)
    return filtered, removed


def fit_normalizer(training_series: List[PatientSeries]) -> NormStats:
    """Mean and population std of all surviving raw values, per variable; both must be finite."""
    avg = np.zeros(N_VARIABLES)
    std = np.zeros(N_VARIABLES)
    for spec in VARIABLES:
        pieces = [series.channels[spec.name][1]
                  for series in training_series if spec.name in series.channels]
        if sum(arr.size for arr in pieces) == 0:
            raise ConfigError(f"no values to fit for variable {spec.name!r}")
        values = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            fit = values.mean(), values.std()
        if not np.isfinite(fit).all():
            raise ConfigError(f"variable {spec.name!r} has values too large to normalize: "
                              f"avg {float(fit[0])!r}, std {float(fit[1])!r}")
        avg[spec.column_index], std[spec.column_index] = fit
    return NormStats(avg=avg, std=std)


def normalize(x, avg: float, std: float) -> np.ndarray:
    """Scales an array to (x - avg) / (3 * std); a constant variable maps to 0."""
    x = np.asarray(x, dtype=float)
    if std == 0.0:
        return np.zeros_like(x)
    return (x - avg) / (3.0 * std)


def select_end_time(series: PatientSeries) -> int:
    """Positives end at the first positive culture; negatives at the last value."""
    if series.label == 1:
        if series.first_positive_time is None:
            raise ConfigError(f"{series.admission_id}: positive admission lacks a culture time")
        return int(series.first_positive_time)
    last = series.last_timestamp()
    if last is None:
        raise ConfigError(f"{series.admission_id}: no measurements to anchor the window")
    return last


def resample_channel(ts: np.ndarray, vals: np.ndarray, spec: VariableSpec,
                     end_time: float, stats: NormStats) -> np.ndarray:
    """72 hourly values, oldest first: aggregate, normalize, fill.

    ts must be increasing, as in a PatientSeries, so that the members of a
    bin are one contiguous run.
    """
    avg, std = stats.for_name(spec.name)
    out = np.zeros(N_BINS)
    ts = np.asarray(ts, dtype=float)
    start = end_time - WINDOW_SECONDS
    edges = start + BIN_SECONDS * np.arange(N_BINS + 1, dtype=float)
    inside = (ts >= start) & (ts <= end_time)
    ts_in = ts[inside]
    if not ts_in.size:
        return out
    vals_in = np.asarray(vals, dtype=float)[inside]
    bins = np.searchsorted(edges, ts_in, side="right") - 1
    # the final bin is closed at end_time (covers any rounding of edges[72])
    bins = np.minimum(bins, N_BINS - 1)
    occupied, first = np.unique(bins, return_index=True)
    if spec.aggregation == "mean":
        # a slice mean per bin sums in the same order as np.mean over the members
        stops = np.append(first[1:], bins.size)
        agg = np.array([vals_in[a:b].mean() for a, b in zip(first, stops)])
    else:
        agg = (np.minimum if spec.aggregation == "min" else np.maximum).reduceat(vals_in, first)
    # index of the latest occupied bin at or before each bin; -1 before the first
    latest = np.full(N_BINS, -1)
    latest[occupied] = np.arange(occupied.size)
    latest = np.maximum.accumulate(latest)
    seen = latest >= 0
    out[seen] = normalize(agg, avg, std)[latest[seen]]  # zero padding stays before
    return out


def build_tensor(series: PatientSeries, stats: NormStats) -> SampleTensor:
    """Column j is the resampled channel of the variable with column_index j."""
    end_time = select_end_time(series)
    values = np.zeros((N_BINS, N_VARIABLES))
    for spec in VARIABLES:
        ts, vals = series.channels.get(spec.name, (np.empty(0, dtype=np.int64), np.empty(0)))
        values[:, spec.column_index] = resample_channel(ts, vals, spec, end_time, stats)
    tensor = SampleTensor(values=values, label=int(series.label),
                          admission_id=series.admission_id)
    tensor.validate()
    return tensor


def write_stats(stats: NormStats, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variable\tavg\tstd\n")
        for spec in VARIABLES:
            fh.write(f"{spec.name}\t{float(stats.avg[spec.column_index])!r}"
                     f"\t{float(stats.std[spec.column_index])!r}\n")


def read_stats(path) -> NormStats:
    avg = np.zeros(N_VARIABLES)
    std = np.zeros(N_VARIABLES)
    seen = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != "variable\tavg\tstd":
                raise FormatError(f"{path}: bad stats header")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise FormatError(f"{path}:{lineno}: want variable, avg and std")
                name, avg_s, std_s = parts
                if name not in BY_NAME:
                    raise FormatError(f"{path}: unknown variable {name!r}")
                if name in seen:
                    raise FormatError(f"{path}:{lineno}: variable {name} listed twice")
                col = BY_NAME[name].column_index
                try:
                    avg[col] = float(avg_s)
                    std[col] = float(std_s)
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: avg and std must be numbers") from None
                seen.add(name)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    if len(seen) != N_VARIABLES:
        raise FormatError(f"{path}: stats cover {len(seen)} of {N_VARIABLES} variables")
    return NormStats(avg=avg, std=std)


def write_tensors(tensors: List[SampleTensor], path):
    """Binary cache; see the module docstring for the layout."""
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        for tensor in tensors:
            tensor.validate()
            fh.write(pack_string(tensor.admission_id))
            fh.write(_LABEL.pack(tensor.label))
            fh.write(np.ascontiguousarray(tensor.values, dtype=F64).tobytes())


def read_tensors(path) -> List[SampleTensor]:
    """Inverse of write_tensors; a malformed file raises IntegrityError."""
    tensors, ids = [], set()
    with open(path, "rb") as fh:
        reader = BlockReader(fh, path, IntegrityError)
        reader.magic(TENSOR_MAGIC, "tensor cache magic")
        while reader.left:
            admission_id = reader.unpack_string("record header", "admission id")
            if admission_id in ids:
                raise reader.error(f"admission id {admission_id} appears twice")
            ids.add(admission_id)
            (label,) = reader.unpack(_LABEL, "label byte")
            if label not in (0, 1):
                raise reader.error(f"label byte {label} for {admission_id}")
            values = reader.array(N_BINS * N_VARIABLES, F64, f"values of {admission_id}")
            if not np.isfinite(values).all():
                raise reader.error(f"non-finite value in {admission_id}")
            tensors.append(SampleTensor(values.reshape(N_BINS, N_VARIABLES), label, admission_id))
    return tensors


__all__ = [
    "NormStats", "SampleTensor", "filter_outliers", "fit_normalizer",
    "normalize", "select_end_time", "resample_channel", "build_tensor",
    "write_stats", "read_stats", "write_tensors", "read_tensors", "TENSOR_MAGIC",
]
