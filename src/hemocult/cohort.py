"""Synthetic ICU cohort generation and the binary columnar cohort file.

Each admission gets nine measurement channels sampled at fixed
per-variable cadences (the DEFAULT_FREQUENCIES constants) over a random
horizon. Values are a per-variable physiological mean plus a
per-admission offset, a circadian sinusoid, and Gaussian noise, clipped
to the bio-limits where they exist and rounded to 4 decimals. Positive
admissions additionally ramp four variables over the final 24 h before
the first positive culture; a small fraction of values of limited
variables is replaced by out-of-range outliers.

The first positive culture time is set to the last recorded timestamp of
the admission, which is also the window end used for negatives, so with
signal_strength 0 the two classes are draws from one process and carry no
structural signal.

Cohort file layout, all integers and floats little-endian:

    magic  b"#hemocult-cohort v2\\n"
    u64    admission count
    per admission:
        u32 id length, id bytes (UTF-8)
        u8 label (0/1), u8 has culture time (0/1), i64 culture time (0 if none)
        per variable in VARIABLE_NAMES order:
            u64 n, n x i64 timestamps, n x f64 values

Every channel is stored, empty ones included, so a read gives back exactly
the series that were written. A channel keeps one contract (_channel_fault):
strictly increasing timestamps and finite values. write_cohort refuses a
cohort that breaks it with ConfigError, read_cohort a file with FormatError.
"""

import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .blocks import F64, I64, U32, U64, BlockReader, pack_string
from .errors import ConfigError, FormatError
from .variables import BY_NAME, VARIABLE_NAMES

COHORT_MAGIC = b"#hemocult-cohort v2\n"
_ADMISSION = struct.Struct("<BBq")  # label, has culture time, culture time (0 if none)
_MIN_ADMISSION_BYTES = U32.size + _ADMISSION.size + len(VARIABLE_NAMES) * U64.size
_EMPTY_CHANNEL = (np.empty(0, dtype=np.int64), np.empty(0))

# samples per hour; vitals at monitor cadence, labs twice a day, SOFA daily
DEFAULT_FREQUENCIES: Dict[str, float] = {
    "temperature": 60.0,
    "thrombocytes": 1.0 / 12.0,
    "leukocytes": 1.0 / 12.0,
    "crp": 1.0 / 12.0,
    "sofa": 1.0 / 24.0,
    "heart_rate": 60.0,
    "resp_rate": 60.0,
    "inr": 1.0 / 12.0,
    "mean_sap": 60.0,
}

# per variable: (mean, circadian amplitude, noise sd, between-admission sd)
_BASELINE: Dict[str, Tuple[float, float, float, float]] = {
    "temperature": (37.0, 0.3, 0.25, 0.4),
    "thrombocytes": (250.0, 5.0, 20.0, 40.0),
    "leukocytes": (10.0, 0.5, 1.2, 2.0),
    "crp": (60.0, 3.0, 12.0, 25.0),
    "sofa": (5.0, 0.0, 1.0, 1.5),
    "heart_rate": (85.0, 5.0, 7.0, 10.0),
    "resp_rate": (18.0, 1.5, 2.5, 3.0),
    "inr": (1.2, 0.02, 0.12, 0.15),
    "mean_sap": (80.0, 4.0, 8.0, 9.0),
}

# additive change at full ramp, scaled by signal_strength
_DRIFT: Dict[str, float] = {
    "temperature": 2.5,
    "heart_rate": 35.0,
    "crp": 150.0,
    "thrombocytes": -140.0,
}

_RAMP_SECONDS = 24 * 3600.0
_DAY_SECONDS = 86400.0
# one year: bounds a cohort file per admission (about 3.8 kB per hour) and np.arange's timestamps
MAX_HORIZON_HOURS = 8760.0


@dataclass
class CohortConfig:
    n_admissions: int = 2177
    n_positive: int = 229
    seed: int = 0
    outlier_rate: float = 0.00276
    signal_strength: float = 1.0
    horizon_hours: Tuple[float, float] = (12.0, 120.0)

    def validate(self):
        if self.n_admissions < 0:
            raise ConfigError(f"n_admissions must be >= 0, got {self.n_admissions}")
        if not 0 <= self.n_positive <= self.n_admissions:
            raise ConfigError(
                f"n_positive must be in [0, {self.n_admissions}], got {self.n_positive}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned value, got {self.seed}")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ConfigError(f"outlier_rate must be in [0, 1), got {self.outlier_rate}")
        if not 0 <= self.signal_strength < math.inf:
            raise ConfigError(f"signal_strength must be finite and >= 0, got {self.signal_strength}")
        lo, hi = self.horizon_hours
        if not 0 < lo <= hi <= MAX_HORIZON_HOURS:
            raise ConfigError(f"horizon_hours must satisfy 0 < lo <= hi <= {MAX_HORIZON_HOURS:g} "
                              f"(one year), got {self.horizon_hours}")


@dataclass
class PatientSeries:
    """Raw irregular measurements for one admission.

    channels maps a variable name to (timestamps, values) arrays with
    strictly increasing integer-second timestamps.
    """

    admission_id: str
    label: int
    first_positive_time: Optional[int]
    channels: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def last_timestamp(self) -> Optional[int]:
        last = None
        for ts, _ in self.channels.values():
            if ts.size and (last is None or int(ts[-1]) > last):
                last = int(ts[-1])
        return last

    def n_values(self) -> int:
        return sum(int(ts.size) for ts, _ in self.channels.values())


def _generate_one(idx: int, label: int, config: CohortConfig, rng: np.random.Generator) -> PatientSeries:
    lo_h, hi_h = config.horizon_hours
    duration = int(round(rng.uniform(lo_h, hi_h) * 3600.0))
    phase = rng.uniform(0.0, 2.0 * np.pi)

    stamps: Dict[str, np.ndarray] = {}
    for name in VARIABLE_NAMES:
        interval = max(1, int(round(3600.0 / DEFAULT_FREQUENCIES[name])))
        t0 = int(rng.integers(0, interval))
        stamps[name] = np.arange(t0, duration + 1, interval, dtype=np.int64)

    fpt = None
    if label == 1:
        fpt = max((int(ts[-1]) for ts in stamps.values() if ts.size), default=duration)

    channels: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name in VARIABLE_NAMES:
        ts = stamps[name]
        mean, circ, noise_sd, between_sd = _BASELINE[name]
        shift = rng.normal(0.0, between_sd)
        vals = mean + shift + circ * np.sin(2.0 * np.pi * ts / _DAY_SECONDS + phase)
        if ts.size:
            vals = vals + rng.normal(0.0, noise_sd, size=ts.size)
        if label == 1 and name in _DRIFT and ts.size:
            ramp = np.clip(1.0 - (fpt - ts) / _RAMP_SECONDS, 0.0, 1.0)
            vals = vals + config.signal_strength * _DRIFT[name] * ramp
        limits = BY_NAME[name].bio_limits
        if limits is not None:
            vals = np.clip(vals, limits[0], limits[1])
        vals = np.round(vals, 4)
        if limits is not None and config.outlier_rate > 0 and ts.size:
            mask = rng.random(ts.size) < config.outlier_rate
            n_out = int(mask.sum())
            if n_out:
                lo, hi = limits
                half_range = (hi - lo) / 2.0
                high_side = rng.integers(0, 2, size=n_out).astype(bool)
                # offset floor keeps rounded outliers strictly out of range
                offs = rng.uniform(1e-4, half_range, size=n_out)
                out_vals = np.where(high_side, hi + offs, lo - offs)
                vals[mask] = np.round(out_vals, 4)
        channels[name] = (ts, vals)

    return PatientSeries(
        admission_id=f"adm{idx:05d}",
        label=label,
        first_positive_time=fpt,
        channels=channels,
    )


def generate_cohort(config: CohortConfig) -> List[PatientSeries]:
    """Deterministic cohort: identical config gives bit-identical output."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    cohort = []
    with np.errstate(over="ignore", invalid="ignore"):  # write_cohort refuses what overflows
        for idx in range(config.n_admissions):
            label = 1 if idx < config.n_positive else 0
            cohort.append(_generate_one(idx, label, config, rng))
    return cohort


def _channel_fault(ts: np.ndarray, vals: np.ndarray) -> Optional[str]:
    """The channel contract: strictly increasing timestamps and finite values; what breaks it."""
    if ts.size > 1 and not np.all(ts[1:] > ts[:-1]):
        return "timestamps not strictly increasing"
    if not np.all(np.isfinite(vals)):
        return "non-finite value"
    return None


def _stored_channel(series: PatientSeries, name):
    """The channel as the int64 timestamps and f64 values the file stores."""
    ts, vals = series.channels.get(name, _EMPTY_CHANNEL)
    ts, vals = np.asarray(ts), np.asarray(vals)
    if ts.dtype.kind not in "iu" or ts.ndim != 1 or ts.shape != vals.shape:
        # the file stores one count for both arrays and integer seconds
        raise ConfigError(f"{series.admission_id}/{name}: want 1-d integer "
                          f"timestamps and as many values")
    if ts.dtype.kind == "u" and ts.size and ts.max() > np.iinfo(I64).max:
        raise ConfigError(f"{series.admission_id}/{name}: timestamp {ts.max()} is past the "
                          f"int64 range")
    return np.ascontiguousarray(ts, dtype=I64), np.ascontiguousarray(vals, dtype=F64)


def write_cohort(cohort: List[PatientSeries], path):
    """Binary columnar file; see the module docstring for the layout.

    Every channel is checked against the channel contract before the file
    is opened, so a refusal leaves no file. Streams one channel at a time,
    so the writer never holds a second copy of the cohort.
    """
    for series in cohort:
        for name in VARIABLE_NAMES:
            fault = _channel_fault(*_stored_channel(series, name))
            if fault:
                raise ConfigError(f"{fault} for {series.admission_id}/{name}")
    with open(path, "wb") as fh:
        fh.write(COHORT_MAGIC)
        fh.write(U64.pack(len(cohort)))
        for series in cohort:
            fpt = series.first_positive_time
            fh.write(pack_string(series.admission_id))
            fh.write(_ADMISSION.pack(series.label, fpt is not None, 0 if fpt is None else fpt))
            for name in VARIABLE_NAMES:
                ts, vals = _stored_channel(series, name)
                fh.write(U64.pack(ts.size))
                fh.write(ts)
                fh.write(vals)


def _read_channel(reader: BlockReader, where):
    (count,) = reader.unpack(U64, f"channel header of {where}")
    ts = reader.array(count, I64, f"channel {where}")
    vals = reader.array(count, F64, f"channel {where}")
    fault = _channel_fault(ts, vals)
    if fault:
        raise reader.error(f"{fault} for {where}")
    return ts, vals


def _read_admission(reader: BlockReader, index) -> PatientSeries:
    aid = reader.unpack_string(f"header of admission {index}", f"id of admission {index}")
    label, has_fpt, fpt = reader.unpack(_ADMISSION, f"header of {aid}")
    if label not in (0, 1):
        raise reader.error(f"label of {aid} must be 0 or 1, got {label}")
    if has_fpt not in (0, 1):
        raise reader.error(f"culture-time flag of {aid} must be 0 or 1, got {has_fpt}")
    if label == 1 and not has_fpt:
        raise reader.error(f"positive admission {aid} lacks a culture time")
    if label == 0 and has_fpt:
        raise reader.error(f"negative admission {aid} carries a culture time")
    channels = {name: _read_channel(reader, f"{aid}/{name}") for name in VARIABLE_NAMES}
    return PatientSeries(aid, label, fpt if has_fpt else None, channels)


def read_cohort(path) -> List[PatientSeries]:
    """Inverse of write_cohort; a malformed file raises FormatError."""
    cohort, ids = [], set()
    with open(path, "rb") as fh:
        reader = BlockReader(fh, path, FormatError)
        reader.magic(COHORT_MAGIC, "cohort header")
        for index in range(reader.count(_MIN_ADMISSION_BYTES, "admission count")):
            series = _read_admission(reader, index)
            if series.admission_id in ids:
                raise reader.error(f"admission id {series.admission_id} appears twice")
            ids.add(series.admission_id)
            cohort.append(series)
        reader.finish("the last admission")
    return cohort


def cohort_summary(cohort: List[PatientSeries]) -> str:
    n_pos = sum(series.label for series in cohort)
    n_values = sum(series.n_values() for series in cohort)
    return f"admissions={len(cohort)} positives={n_pos} values={n_values}"


__all__ = [
    "CohortConfig", "PatientSeries", "generate_cohort", "write_cohort",
    "read_cohort", "cohort_summary", "DEFAULT_FREQUENCIES", "COHORT_MAGIC",
]
