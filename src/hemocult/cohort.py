"""Synthetic ICU cohort generation and the line-based cohort file format.

Each admission gets nine measurement channels sampled at per-variable
cadences over a random horizon. Values are a per-variable physiological
mean plus a per-admission offset, a circadian sinusoid, and Gaussian
noise, clipped to the bio-limits where they exist and rounded to 4
decimals. Positive admissions additionally ramp four variables over the
final 24 h before the first positive culture; a small fraction of values
of limited variables is replaced by out-of-range outliers.

The first positive culture time is set to the last recorded timestamp of
the admission, which is also the window end used for negatives, so with
signal_strength 0 the two classes are draws from one process and carry no
structural signal.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, FormatError
from .variables import BY_NAME, VARIABLE_NAMES

COHORT_MAGIC = "#hemocult-cohort v1"

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


@dataclass
class CohortConfig:
    n_admissions: int = 2177
    n_positive: int = 229
    seed: int = 0
    frequencies: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FREQUENCIES))
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
        if self.signal_strength < 0:
            raise ConfigError(f"signal_strength must be >= 0, got {self.signal_strength}")
        if set(self.frequencies) != set(VARIABLE_NAMES):
            raise ConfigError("frequencies must cover exactly the nine variables")
        for name, freq in self.frequencies.items():
            if not 0 < freq <= 3600:
                raise ConfigError(f"frequency for {name} must be in (0, 3600] samples/hour")
        lo, hi = self.horizon_hours
        if not 0 < lo <= hi:
            raise ConfigError(f"horizon_hours must satisfy 0 < lo <= hi, got {self.horizon_hours}")


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
        interval = max(1, int(round(3600.0 / config.frequencies[name])))
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
    for idx in range(config.n_admissions):
        label = 1 if idx < config.n_positive else 0
        cohort.append(_generate_one(idx, label, config, rng))
    return cohort


def write_cohort(cohort: List[PatientSeries], path):
    """Line format: header, then per admission one L record and its M records."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(COHORT_MAGIC + "\n")
        for series in cohort:
            fpt = "-" if series.first_positive_time is None else str(series.first_positive_time)
            fh.write(f"L\t{series.admission_id}\t{series.label}\t{fpt}\n")
            for name in VARIABLE_NAMES:
                if name not in series.channels:
                    continue
                ts, vals = series.channels[name]
                aid = series.admission_id
                lines = [
                    f"M\t{aid}\t{name}\t{t}\t{v!r}"
                    for t, v in zip(ts.tolist(), vals.tolist())
                ]
                if lines:
                    fh.write("\n".join(lines) + "\n")


def read_cohort(path) -> List[PatientSeries]:
    cohort: List[PatientSeries] = []
    pending: Dict[str, Tuple[List[int], List[float]]] = {}
    current: Optional[PatientSeries] = None

    def finalize():
        if current is None:
            return
        for name, (ts, vals) in pending.items():
            where = f"{current.admission_id}/{name}"
            try:
                arr_t = np.asarray(ts, dtype=np.int64)
            except OverflowError:
                raise FormatError(f"{path}: timestamp outside int64 for {where}") from None
            if arr_t.size > 1 and not np.all(np.diff(arr_t) > 0):
                raise FormatError(f"{path}: timestamps not strictly increasing for {where}")
            arr_v = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(arr_v)):
                raise FormatError(f"{path}: non-finite value for {where}")
            current.channels[name] = (arr_t, arr_v)
        cohort.append(current)

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != COHORT_MAGIC:
            raise FormatError(f"{path}: bad cohort header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if parts[0] == "L":
                if len(parts) != 4:
                    raise FormatError(f"{path}:{lineno}: malformed label record")
                finalize()
                aid, label_s, fpt_s = parts[1], parts[2], parts[3]
                if label_s not in ("0", "1"):
                    raise FormatError(f"{path}:{lineno}: label must be 0 or 1")
                label = int(label_s)
                if label == 1:
                    if fpt_s == "-":
                        raise FormatError(f"{path}:{lineno}: positive record lacks a culture time")
                    try:
                        fpt = int(fpt_s)
                    except ValueError:
                        raise FormatError(
                            f"{path}:{lineno}: culture time must be an integer") from None
                else:
                    if fpt_s != "-":
                        raise FormatError(f"{path}:{lineno}: negative record carries a culture time")
                    fpt = None
                current = PatientSeries(aid, label, fpt, {})
                pending = {}
            elif parts[0] == "M":
                if len(parts) != 5:
                    raise FormatError(f"{path}:{lineno}: malformed measurement record")
                if current is None or parts[1] != current.admission_id:
                    raise FormatError(f"{path}:{lineno}: measurement outside its admission block")
                name = parts[2]
                if name not in BY_NAME:
                    raise FormatError(f"{path}:{lineno}: unknown variable {name!r}")
                bucket = pending.setdefault(name, ([], []))
                try:
                    bucket[0].append(int(parts[3]))
                    bucket[1].append(float(parts[4]))
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: timestamp must be an integer "
                                      f"and value a number") from None
            else:
                raise FormatError(f"{path}:{lineno}: unknown record type {parts[0]!r}")
    finalize()
    return cohort


def cohort_summary(cohort: List[PatientSeries]) -> str:
    n_pos = sum(series.label for series in cohort)
    n_values = sum(series.n_values() for series in cohort)
    return f"admissions={len(cohort)} positives={n_pos} values={n_values}"


__all__ = [
    "CohortConfig", "PatientSeries", "generate_cohort", "write_cohort",
    "read_cohort", "cohort_summary", "DEFAULT_FREQUENCIES", "COHORT_MAGIC",
]
