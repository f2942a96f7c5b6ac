import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemocult.cohort import (COHORT_MAGIC, CohortConfig, PatientSeries,
                             cohort_summary, generate_cohort, read_cohort,
                             write_cohort)
from hemocult.errors import ConfigError, FormatError
from hemocult.variables import VARIABLE_NAMES, VARIABLES


def limited_variables():
    return [v for v in VARIABLES if v.bio_limits is not None]


def test_default_sized_cohort_counts():
    cohort = generate_cohort(CohortConfig(seed=7))
    assert len(cohort) == 2177
    assert sum(s.label for s in cohort) == 229
    assert all(len(s.channels) == 9 for s in cohort)
    assert cohort_summary(cohort).startswith("admissions=2177 positives=229 values=")


def test_clean_series_respects_bio_limits():
    config = CohortConfig(n_admissions=1, n_positive=0, seed=4, outlier_rate=0.0)
    series = generate_cohort(config)[0]
    for spec in limited_variables():
        lo, hi = spec.bio_limits
        vals = series.channels[spec.name][1]
        assert vals.size and np.all(vals >= lo) and np.all(vals <= hi)


def test_observed_outlier_rate_tracks_config():
    config = CohortConfig(n_admissions=1000, n_positive=100, seed=3,
                          outlier_rate=0.00276)
    cohort = generate_cohort(config)
    outside = total = 0
    for series in cohort:
        for spec in limited_variables():
            lo, hi = spec.bio_limits
            vals = series.channels[spec.name][1]
            outside += int(np.sum((vals < lo) | (vals > hi)))
            total += vals.size
    observed = outside / total
    assert 0.8 * config.outlier_rate <= observed <= 1.2 * config.outlier_rate


def test_generation_is_deterministic():
    config = CohortConfig(n_admissions=50, n_positive=10, seed=21)
    a = generate_cohort(config)
    b = generate_cohort(config)
    for sa, sb in zip(a, b):
        assert sa.admission_id == sb.admission_id
        assert sa.label == sb.label and sa.first_positive_time == sb.first_positive_time
        for name in sa.channels:
            assert sa.channels[name][0].tobytes() == sb.channels[name][0].tobytes()
            assert sa.channels[name][1].tobytes() == sb.channels[name][1].tobytes()


def test_timestamps_strictly_increase():
    for series in generate_cohort(CohortConfig(n_admissions=5, n_positive=2, seed=8)):
        for ts, _ in series.channels.values():
            assert np.all(np.diff(ts) > 0)


def test_positive_culture_time_is_last_timestamp():
    cohort = generate_cohort(CohortConfig(n_admissions=12, n_positive=6, seed=13))
    for series in cohort:
        if series.label:
            assert series.first_positive_time == series.last_timestamp()
        else:
            assert series.first_positive_time is None


def test_cohort_file_roundtrip(tmp_path):
    cohort = generate_cohort(CohortConfig(n_admissions=12, n_positive=3, seed=17,
                                          horizon_hours=(2.0, 6.0)))
    # the daily SOFA channel is empty in some of these short stays
    assert any(not ts.size for s in cohort for ts, _ in s.channels.values())
    path = tmp_path / "cohort.bin"
    write_cohort(cohort, path)
    back = read_cohort(path)
    assert len(back) == len(cohort)
    for orig, loaded in zip(cohort, back):
        assert loaded.admission_id == orig.admission_id
        assert loaded.label == orig.label
        assert loaded.first_positive_time == orig.first_positive_time
        assert list(loaded.channels) == list(orig.channels) == list(VARIABLE_NAMES)
        for name, (ts, vals) in orig.channels.items():
            got_ts, got_vals = loaded.channels[name]
            assert got_ts.dtype == ts.dtype and np.array_equal(got_ts, ts)
            assert got_vals.dtype == vals.dtype and got_vals.tobytes() == vals.tobytes()


def test_empty_cohort_writes_header_only(tmp_path):
    path = tmp_path / "empty.bin"
    write_cohort([], path)
    assert path.read_bytes() == COHORT_MAGIC + struct.pack("<Q", 0)
    assert read_cohort(path) == []


def test_single_value_writes_single_measurement(tmp_path):
    series = PatientSeries("adm00000", 0, None,
                           {"sofa": (np.array([3600], dtype=np.int64), np.array([4.0]))})
    path = tmp_path / "one.bin"
    write_cohort([series], path)
    expected = (COHORT_MAGIC + struct.pack("<Q", 1)
                + struct.pack("<I", 8) + b"adm00000" + struct.pack("<BBq", 0, 0, 0))
    for name in VARIABLE_NAMES:
        expected += struct.pack("<Qqd", 1, 3600, 4.0) if name == "sofa" else struct.pack("<Q", 0)
    assert path.read_bytes() == expected
    (back,) = read_cohort(path)
    assert back.channels["sofa"][0].tolist() == [3600]
    assert back.channels["sofa"][1].tolist() == [4.0]


def test_write_cohort_rejects_misshapen_channels(tmp_path):
    # four break the channel contract that read_cohort checks too; the last would wrap to -1
    for ts, vals in (([10, 20], [1.0]), ([10.5], [1.0]), ([[10]], [[1.0]]),
                     ([10, 10], [1.0, 2.0]), ([20, 10], [1.0, 2.0]),
                     ([10, 20], [1.0, np.inf]), ([10], [np.nan]),
                     (np.array([2 ** 64 - 1], dtype=np.uint64), [1.0])):
        series = PatientSeries("a", 0, None, {"crp": (np.array(ts), np.array(vals))})
        with pytest.raises(ConfigError, match="a/crp"):
            write_cohort([series], tmp_path / "bad.bin")
        assert not (tmp_path / "bad.bin").exists()
    small = np.array([0, 2 ** 63 - 1], dtype=np.uint64)
    write_cohort([PatientSeries("a", 0, None, {"crp": (small, np.array([1.0, 2.0]))})],
                 tmp_path / "ok.bin")
    (back,) = read_cohort(tmp_path / "ok.bin")
    assert back.channels["crp"][0].tolist() == [0, 2 ** 63 - 1]


@st.composite
def any_channels(draw):
    """Up to three channels of any int64 timestamps, sorted or not, and any floats."""
    channels = {}
    for name in draw(st.lists(st.sampled_from(VARIABLE_NAMES), unique=True, max_size=3)):
        ts = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=5))
        if draw(st.booleans()):
            ts = sorted(set(ts))
        vals = draw(st.lists(st.floats(), min_size=len(ts), max_size=len(ts)))
        channels[name] = (np.array(ts, dtype=np.int64), np.array(vals, dtype=float))
    return channels


@settings(max_examples=200, deadline=None)
@given(channels=any_channels())
def test_written_cohort_reads_back_or_is_refused_unwritten(channels):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.bin"
        try:
            write_cohort([PatientSeries("a", 0, None, channels)], path)
        except ConfigError:
            assert not path.exists()
            return
        (back,) = read_cohort(path)
    for name in VARIABLE_NAMES:
        ts, vals = channels.get(name, (np.empty(0, dtype=np.int64), np.empty(0)))
        assert np.array_equal(back.channels[name][0], ts), name
        assert back.channels[name][1].tobytes() == vals.tobytes(), name


def encoded(tmp_path, *series):
    path = tmp_path / "good.bin"
    write_cohort(list(series), path)
    return path.read_bytes()


def one(aid="a", label=0, fpt=None, **channels):
    return PatientSeries(aid, label, fpt, {
        name: (np.array(ts, dtype=np.int64), np.array(vals, dtype=float))
        for name, (ts, vals) in channels.items()})


def patched(blob, offset, raw):
    return blob[:offset] + raw + blob[offset + len(raw):]


def reject(tmp_path, body, match=None):
    path = tmp_path / "bad.bin"
    path.write_bytes(body)
    with pytest.raises(FormatError, match=match):
        read_cohort(path)


def past_the_writer(tmp_path, name, ts, vals):
    """A file whose channel `name` of admission a holds ts and vals, which write_cohort
    refuses: a valid file of the same size with that channel's bytes swapped in."""
    stand_in = (list(range(7_000_001, 7_000_001 + len(ts))), [0.5 + k for k in range(len(ts))])
    good = encoded(tmp_path, one(**{name: stand_in}))
    raw = [np.array(stand_in[0], dtype="<i8").tobytes() + np.array(stand_in[1], dtype="<f8").tobytes(),
           np.array(ts, dtype="<i8").tobytes() + np.array(vals, dtype="<f8").tobytes()]
    assert good.count(raw[0]) == 1
    return good.replace(*raw)


def test_read_cohort_rejects_corrupt_files(tmp_path):
    good = encoded(tmp_path, one("a", 1, 7200, crp=([10, 20], [1.0, 2.0]),
                                 sofa=([3600], [4.0])), one("b"))
    assert len(read_cohort(tmp_path / "good.bin")) == 2
    head = len(COHORT_MAGIC)
    first = head + 8  # the first admission record
    a_channels = first + 4 + 1 + 10  # u32 id length, the id "a", label/flag/culture time

    reject(tmp_path, b"#hemocult-cohort v0\n" + good[head:], match="bad cohort header")
    reject(tmp_path, b"#hemocult-cohort v1\nL\ta\t0\t-\n", match="bad cohort header")
    for cut in range(len(good)):  # truncation anywhere
        reject(tmp_path, good[:cut], match="bad cohort header|truncated|cannot fit")
    reject(tmp_path, good + b"\x00", match="1 trailing bytes")

    # length fields larger than the file
    reject(tmp_path, patched(good, head, struct.pack("<Q", 2 ** 40)), match="cannot fit")
    reject(tmp_path, patched(good, first, struct.pack("<I", 2 ** 31)), match="truncated id")
    reject(tmp_path, patched(good, a_channels, struct.pack("<Q", 2 ** 60)),
           match="truncated channel a/temperature")
    reject(tmp_path, patched(good, a_channels, struct.pack("<Q", 4)),
           match="a/temperature|a/thrombocytes")

    reject(tmp_path, patched(good, first + 4, b"\xff"), match="admission 0 is not UTF-8")
    reject(tmp_path, encoded(tmp_path, one(label=2)), match="label of a must be 0 or 1")
    reject(tmp_path, patched(good, first + 6, b"\x02"), match="flag of a must be 0 or 1")
    reject(tmp_path, encoded(tmp_path, one(label=1)), match="positive admission a lacks")
    reject(tmp_path, encoded(tmp_path, one(fpt=500)), match="negative admission a carries")
    reject(tmp_path, past_the_writer(tmp_path, "sofa", [10, 10], [1.0, 2.0]),
           match="not strictly increasing for a/sofa")
    reject(tmp_path, past_the_writer(tmp_path, "sofa", [20, 10], [1.0, 2.0]),
           match="not strictly increasing for a/sofa")
    reject(tmp_path, past_the_writer(tmp_path, "crp", [10, 20], [1.0, np.inf]),
           match="non-finite value for a/crp")
    reject(tmp_path, past_the_writer(tmp_path, "temperature", [10], [np.nan]),
           match="non-finite value for a/temperature")
    reject(tmp_path, encoded(tmp_path, one("b"), one("a"), one("b")),
           match="admission id b appears twice")


def test_config_validation():
    CohortConfig().validate()
    cases = [
        dict(n_admissions=-1),
        dict(n_admissions=5, n_positive=6),
        dict(n_positive=-1),
        dict(outlier_rate=1.0),
        dict(outlier_rate=-0.1),
        dict(signal_strength=-0.5),
        dict(signal_strength=float("nan")),
        dict(signal_strength=float("inf")),
        dict(horizon_hours=(0.0, 10.0)),
        dict(horizon_hours=(20.0, 10.0)),
        dict(seed=-1),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            CohortConfig(**overrides).validate()


def test_summary_counts_values_exactly():
    cohort = generate_cohort(CohortConfig(n_admissions=4, n_positive=1, seed=30,
                                          horizon_hours=(2.0, 3.0)))
    n_values = sum(ts.size for s in cohort for ts, _ in s.channels.values())
    assert cohort_summary(cohort) == f"admissions=4 positives=1 values={n_values}"
