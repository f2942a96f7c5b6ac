import numpy as np
import pytest

from hemocult.cohort import (COHORT_MAGIC, CohortConfig, PatientSeries,
                             cohort_summary, generate_cohort, read_cohort,
                             write_cohort)
from hemocult.errors import ConfigError, FormatError
from hemocult.variables import BY_NAME, VARIABLES


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
    path = tmp_path / "cohort.tsv"
    write_cohort(cohort, path)
    back = read_cohort(path)
    assert len(back) == len(cohort)
    for orig, loaded in zip(cohort, back):
        assert loaded.admission_id == orig.admission_id
        assert loaded.label == orig.label
        assert loaded.first_positive_time == orig.first_positive_time
        # channels without measurements produce no records and vanish on read
        assert set(loaded.channels) == {n for n, (ts, _) in orig.channels.items() if ts.size}
        for name, (ts, vals) in orig.channels.items():
            if not ts.size:
                continue
            assert np.array_equal(loaded.channels[name][0], ts)
            assert np.array_equal(loaded.channels[name][1], vals)  # repr round-trips


def test_empty_cohort_writes_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    write_cohort([], path)
    assert path.read_text() == COHORT_MAGIC + "\n"
    assert read_cohort(path) == []


def test_single_value_writes_single_measurement(tmp_path):
    series = PatientSeries("adm00000", 0, None,
                           {"sofa": (np.array([3600], dtype=np.int64), np.array([4.0]))})
    path = tmp_path / "one.tsv"
    write_cohort([series], path)
    lines = path.read_text().splitlines()
    assert lines[0] == COHORT_MAGIC
    assert lines[1] == "L\tadm00000\t0\t-"
    assert lines[2] == "M\tadm00000\tsofa\t3600\t4.0"
    assert len(lines) == 3


def reject(tmp_path, body, match=None):
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(FormatError, match=match):
        read_cohort(path)


def test_read_cohort_rejects_corrupt_files(tmp_path):
    head = COHORT_MAGIC + "\n"
    reject(tmp_path, "#hemocult-cohort v0\n")
    reject(tmp_path, head + "L\ta\t0\n")
    reject(tmp_path, head + "L\ta\t2\t-\n")
    reject(tmp_path, head + "L\ta\t1\t-\n")  # positive needs a culture time
    reject(tmp_path, head + "L\ta\t0\t500\n")  # negative must not carry one
    reject(tmp_path, head + "M\ta\tsofa\t10\t1.0\n")  # measurement before any L
    reject(tmp_path, head + "L\ta\t0\t-\nM\tb\tsofa\t10\t1.0\n")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tlactate\t10\t1.0\n")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tsofa\t10\t1.0\nM\ta\tsofa\t10\t2.0\n")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tsofa\t10\n")
    reject(tmp_path, head + "Z\ta\n")
    reject(tmp_path, head + "L\ta\t1\t5h\n", match="bad.tsv:2:")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tsofa\t10.5\t1.0\n", match="bad.tsv:3:")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tsofa\t10\tone\n", match="bad.tsv:3:")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tsofa\t1" + "0" * 20 + "\t1.0\n",
           match="a/sofa")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\tcrp\t10\t1.0\nM\ta\tcrp\t20\tinf\n",
           match="non-finite value for a/crp")
    reject(tmp_path, head + "L\ta\t0\t-\nM\ta\ttemperature\t10\tnan\n",
           match="non-finite value for a/temperature")


def test_config_validation():
    CohortConfig().validate()
    cases = [
        dict(n_admissions=-1),
        dict(n_admissions=5, n_positive=6),
        dict(n_positive=-1),
        dict(outlier_rate=1.0),
        dict(outlier_rate=-0.1),
        dict(signal_strength=-0.5),
        dict(horizon_hours=(0.0, 10.0)),
        dict(horizon_hours=(20.0, 10.0)),
        dict(seed=-1),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            CohortConfig(**overrides).validate()
    missing = dict(CohortConfig().frequencies)
    del missing["sofa"]
    with pytest.raises(ConfigError):
        CohortConfig(frequencies=missing).validate()
    zero = dict(CohortConfig().frequencies)
    zero["crp"] = 0.0
    with pytest.raises(ConfigError):
        CohortConfig(frequencies=zero).validate()


def test_summary_counts_values_exactly():
    cohort = generate_cohort(CohortConfig(n_admissions=4, n_positive=1, seed=30,
                                          horizon_hours=(2.0, 3.0)))
    n_values = sum(ts.size for s in cohort for ts, _ in s.channels.values())
    assert cohort_summary(cohort) == f"admissions=4 positives=1 values={n_values}"
