import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hemocult.cli import _preprocess_cohort
from hemocult.cohort import CohortConfig, PatientSeries, generate_cohort
from hemocult.errors import ConfigError, FormatError, IntegrityError
from hemocult.prep import (NormStats, SampleTensor, build_tensor,
                           filter_outliers, fit_normalizer, normalize,
                           read_stats, read_tensors, resample_channel,
                           select_end_time, write_stats, write_tensors)
from hemocult.training import stratified_split
from hemocult.variables import (BY_NAME, N_BINS, N_VARIABLES, VARIABLES,
                                WINDOW_SECONDS)


def series_of(channel_map, label=0, fpt=None, aid="a1"):
    channels = {name: (np.asarray(ts, dtype=np.int64), np.asarray(vals, float))
                for name, (ts, vals) in channel_map.items()}
    return PatientSeries(aid, label, fpt, channels)


def stats_for(name, avg, std):
    a = np.zeros(N_VARIABLES)
    s = np.ones(N_VARIABLES)
    col = BY_NAME[name].column_index
    a[col] = avg
    s[col] = std
    return NormStats(avg=a, std=s)


def small_cohort(n=40, n_pos=8, seed=11):
    return generate_cohort(CohortConfig(n_admissions=n, n_positive=n_pos,
                                        seed=seed, horizon_hours=(12.0, 36.0)))


def test_variable_table():
    assert [v.name for v in VARIABLES] == [
        "temperature", "thrombocytes", "leukocytes", "crp", "sofa",
        "heart_rate", "resp_rate", "inr", "mean_sap"]
    assert BY_NAME["temperature"].bio_limits == (29.0, 43.0)
    assert BY_NAME["heart_rate"].bio_limits == (30.0, 250.0)
    assert BY_NAME["resp_rate"].bio_limits == (0.0, 100.0)
    assert BY_NAME["mean_sap"].bio_limits == (30.0, 170.0)
    unlimited = {"thrombocytes", "leukocytes", "crp", "sofa", "inr"}
    assert {v.name for v in VARIABLES if v.bio_limits is None} == unlimited
    assert BY_NAME["thrombocytes"].aggregation == "min"
    assert BY_NAME["leukocytes"].aggregation == "mean"
    assert all(v.aggregation == "max" for v in VARIABLES
               if v.name not in ("thrombocytes", "leukocytes"))
    assert sorted(v.column_index for v in VARIABLES) == list(range(9))


def test_filter_outliers_examples():
    series = series_of({
        "temperature": ([10, 20, 30], [44.0, 29.0, 36.5]),
        "crp": ([15], [9999.0]),
    })
    clean, removed = filter_outliers(series)
    assert removed == 1
    ts, vals = clean.channels["temperature"]
    assert vals.tolist() == [29.0, 36.5]  # 44.0 dropped, boundary 29.0 kept
    assert ts.tolist() == [20, 30]
    assert clean.channels["crp"][1].tolist() == [9999.0]  # no limits for CRP


def test_filter_outliers_is_idempotent():
    series = series_of({"heart_rate": ([5, 9, 12], [20.0, 80.0, 300.0])})
    once, removed1 = filter_outliers(series)
    twice, removed2 = filter_outliers(once)
    assert removed1 == 2 and removed2 == 0
    assert np.array_equal(once.channels["heart_rate"][1],
                          twice.channels["heart_rate"][1])


def test_filter_outliers_unknown_variable():
    with pytest.raises(ConfigError, match="unknown variable 'lactate' in a1"):
        filter_outliers(series_of({"lactate": ([1], [2.0])}))


def with_crp(crp, aid="a1"):
    """A series with the given crp channel and one value of every other variable."""
    others = {spec.name: ([0], [1.0]) for spec in VARIABLES if spec.name != "crp"}
    return series_of({**others, "crp": crp}, aid=aid)


def test_fit_normalizer_examples():
    col = BY_NAME["crp"].column_index
    stats = fit_normalizer([with_crp(([1, 2, 3], [1.0, 2.0, 3.0]))])
    assert stats.avg[col] == 2.0
    assert stats.std[col] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    single = fit_normalizer([with_crp(([4], [5.0]))])
    assert single.avg[col] == 5.0 and single.std[col] == 0.0
    flat = fit_normalizer([with_crp(([1, 2, 3], [7.0, 7.0, 7.0]))])
    assert flat.std[col] == 0.0
    # values pool across admissions before fitting
    split = fit_normalizer([with_crp(([1, 2], [1.0, 2.0])), with_crp(([3], [3.0]), aid="a2")])
    assert split.avg[col] == 2.0


def test_fit_normalizer_requires_values():
    with pytest.raises(ConfigError, match="no values to fit for variable 'crp'"):
        fit_normalizer([with_crp(([], []))])


def test_normalize_examples():
    assert normalize(36.8, 36.8, 0.5) == 0.0
    assert normalize(2.75, 2.0, 0.25) == 1.0  # avg + 3 std
    assert normalize(37.0, 36.8, 0.5) == float((37.0 - 36.8) / 1.5)
    assert normalize(37.0, 36.8, 0.5) == pytest.approx(0.13333, abs=1e-4)
    assert normalize(123.4, 5.0, 0.0) == 0.0
    arr = normalize(np.array([1.0, 2.0, 3.0]), 2.0, 0.5)
    assert np.array_equal(arr, np.array([-2.0, 0.0, 2.0]) / 3.0)
    assert np.array_equal(normalize(np.array([4.0, 5.0]), 1.0, 0.0), np.zeros(2))


def test_select_end_time_rules():
    pos = series_of({"crp": ([100], [1.0])}, label=1, fpt=200_000)
    assert select_end_time(pos) == 200_000
    neg = series_of({"crp": ([90_000], [1.0]), "sofa": ([100_000], [2.0])})
    assert select_end_time(neg) == 100_000
    lone = series_of({"crp": ([0], [1.0])})
    assert select_end_time(lone) == 0
    with pytest.raises(ConfigError, match="a1: no measurements to anchor the window"):
        select_end_time(series_of({"crp": ([], [])}))
    with pytest.raises(ConfigError, match="a1: positive admission lacks a culture time"):
        select_end_time(series_of({"crp": ([5], [1.0])}, label=1, fpt=None))


def test_resample_takes_bin_maximum():
    end = 500_000
    spec = BY_NAME["temperature"]
    ts = [end - 7000, end - 6500]  # both inside one bin
    out = resample_channel(np.array(ts), np.array([38.1, 39.0]), spec, end,
                           stats_for("temperature", 0.0, 13.0))
    assert out[70] == 1.0  # max 39.0 normalized by 3 * 13
    assert out[71] == 1.0  # forward filled
    assert np.array_equal(out[:70], np.zeros(70))


def test_resample_empty_channel_is_all_zero():
    out = resample_channel(np.array([], dtype=np.int64), np.array([]),
                           BY_NAME["crp"], 400_000, stats_for("crp", 10.0, 5.0))
    assert np.array_equal(out, np.zeros(N_BINS))


def test_resample_final_hour_mean_cases():
    end = 900_000
    spec = BY_NAME["leukocytes"]
    ts = np.array([end - 100, end - 50])
    vals = np.array([10.0, 20.0])
    centered = resample_channel(ts, vals, spec, end, stats_for("leukocytes", 15.0, 5.0))
    assert np.array_equal(centered, np.zeros(N_BINS))  # mean 15 equals avg
    shifted = resample_channel(ts, vals, spec, end, stats_for("leukocytes", 10.0, 5.0))
    assert np.array_equal(shifted[:71], np.zeros(71))
    assert shifted[71] == 5.0 / 15.0


def test_resample_forward_fill_after_first_observation():
    end = 600_000
    start = end - WINDOW_SECONDS
    ts = np.array([start + 3 * 3600 + 10])
    out = resample_channel(ts, np.array([50.0]), BY_NAME["crp"], end,
                           stats_for("crp", 20.0, 10.0))
    expected = normalize(50.0, 20.0, 10.0)
    assert np.array_equal(out[:3], np.zeros(3))
    assert np.array_equal(out[3:], np.full(69, expected))


def test_resample_window_boundaries():
    end = 700_000
    start = end - WINDOW_SECONDS
    spec = BY_NAME["crp"]
    stats = stats_for("crp", 0.0, 1.0 / 3.0)
    out = resample_channel(np.array([start]), np.array([9.0]), spec, end, stats)
    assert out[0] != 0.0  # exactly at the window start lands in bin 0
    out = resample_channel(np.array([end]), np.array([9.0]), spec, end, stats)
    assert out[71] != 0.0 and not out[:71].any()  # window end lands in bin 71
    outside = resample_channel(np.array([start - 1, end + 1]),
                               np.array([9.0, 9.0]), spec, end, stats)
    assert np.array_equal(outside, np.zeros(N_BINS))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_resample_always_yields_72_finite_bins(seed):
    rng = np.random.default_rng(seed)
    end = int(rng.integers(WINDOW_SECONDS, 10 * WINDOW_SECONDS))
    n = int(rng.integers(0, 120))
    ts = np.sort(rng.choice(np.arange(0, end + 2000, 7), size=n, replace=False)) \
        if n else np.array([], dtype=np.int64)
    vals = rng.normal(40.0, 15.0, size=n)
    spec = VARIABLES[int(rng.integers(0, 9))]
    out = resample_channel(ts, vals, spec, end, stats_for(spec.name, 40.0, 15.0))
    assert out.shape == (N_BINS,)
    assert np.all(np.isfinite(out))


def test_resample_matches_enumeration_reference():
    rng = np.random.default_rng(0)
    for trial in range(60):
        spec = VARIABLES[trial % 9]
        end = int(rng.integers(WINDOW_SECONDS // 2, 6 * WINDOW_SECONDS))
        n = int(rng.integers(0, 400))
        ts = np.sort(rng.choice(np.arange(0, end + 7200), size=n, replace=False))
        vals = np.round(rng.normal(60.0, 30.0, size=n), 4)
        avg = float(rng.normal(60.0, 10.0))
        std = float(rng.uniform(0.0, 25.0)) if trial % 7 else 0.0
        ours = resample_channel(ts, vals, spec, end, stats_for(spec.name, avg, std))
        ref = oracles.resample_reference(ts, vals, spec, end, avg, std)
        assert np.array_equal(ours, ref)


def test_build_tensor_shape_and_determinism():
    series = small_cohort(n=3, n_pos=1, seed=2)[0]
    clean, _ = filter_outliers(series)
    stats = fit_normalizer([clean])
    t1 = build_tensor(clean, stats=stats)
    t2 = build_tensor(clean, stats=stats)
    assert t1.values.shape == (N_BINS, N_VARIABLES)
    assert np.array_equal(t1.values, t2.values)
    assert t1.label == series.label and t1.admission_id == series.admission_id


def test_build_tensor_missing_channel_is_zero_column():
    series = small_cohort(n=2, n_pos=0, seed=5)[0]
    clean, _ = filter_outliers(series)
    stats = fit_normalizer([clean])
    del clean.channels["inr"]
    tensor = build_tensor(clean, stats=stats)
    assert not tensor.values[:, BY_NAME["inr"].column_index].any()


def test_build_tensor_single_mean_value_is_all_zero():
    series = series_of({"crp": ([1000], [33.0])})
    stats = stats_for("crp", 33.0, 4.0)
    tensor = build_tensor(series, stats=stats)
    assert np.array_equal(tensor.values, np.zeros((N_BINS, N_VARIABLES)))


def test_normalized_training_values_have_unit_thirds_spread():
    cohort = [filter_outliers(s)[0] for s in small_cohort(n=30, n_pos=6)]
    stats = fit_normalizer(cohort)
    for spec in VARIABLES:
        pooled = np.concatenate([s.channels[spec.name][1] for s in cohort
                                 if spec.name in s.channels])
        z = normalize(pooled, *stats.for_name(spec.name))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0 / 3.0) < 1e-9


def test_stats_fit_on_train_only(tmp_path):
    cohort = small_cohort(n=36, n_pos=9)
    ids = [s.admission_id for s in cohort]
    labels = [s.label for s in cohort]
    train_ids, _ = stratified_split(ids, labels, 0.25, seed=3)
    filtered = [filter_outliers(s)[0] for s in cohort]
    train_only = fit_normalizer([s for s in filtered if s.admission_id in set(train_ids)])
    everything = fit_normalizer(filtered)
    assert not np.array_equal(train_only.avg, everything.avg)  # leakage would hide this
    _preprocess_cohort(cohort, tmp_path, master_seed=0, test_fraction=0.25)
    split_train = {aid for aid, part in
                   ((line.split("\t")) for line in
                    (tmp_path / "split.tsv").read_text().splitlines()[1:])
                   if part == "train"}
    expected = fit_normalizer([s for s in filtered if s.admission_id in split_train])
    loaded = read_stats(tmp_path / "stats.tsv")
    assert np.array_equal(loaded.avg, expected.avg)
    assert np.array_equal(loaded.std, expected.std)


def test_stats_file_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    stats = NormStats(avg=rng.normal(50, 20, 9), std=rng.uniform(0, 30, 9))
    path = tmp_path / "stats.tsv"
    write_stats(stats, path)
    back = read_stats(path)
    assert np.array_equal(back.avg, stats.avg)
    assert np.array_equal(back.std, stats.std)


def test_stats_file_validation(tmp_path):
    bad_header = tmp_path / "h.tsv"
    bad_header.write_text("var\tavg\tstd\n")
    with pytest.raises(FormatError):
        read_stats(bad_header)
    unknown = tmp_path / "u.tsv"
    unknown.write_text("variable\tavg\tstd\nlactate\t1.0\t1.0\n")
    with pytest.raises(FormatError):
        read_stats(unknown)
    partial = tmp_path / "p.tsv"
    partial.write_text("variable\tavg\tstd\ncrp\t1.0\t1.0\n")
    with pytest.raises(FormatError):
        read_stats(partial)
    twice = tmp_path / "d.tsv"
    write_stats(NormStats(avg=np.zeros(N_VARIABLES), std=np.ones(N_VARIABLES)), twice)
    with open(twice, "a", encoding="utf-8") as fh:
        fh.write("temperature\t123.0\t1.0\n")
    with pytest.raises(FormatError, match="d.tsv:11: variable temperature listed twice"):
        read_stats(twice)
    for row in ("crp\t1.0", "crp\t1.0\t1.0\t2.0", "crp\tx\t1.0", "crp\t1.0\t"):
        bad_row = tmp_path / "r.tsv"
        bad_row.write_text(f"variable\tavg\tstd\n{row}\n")
        with pytest.raises(FormatError, match="r.tsv:2:"):
            read_stats(bad_row)
    non_utf8 = tmp_path / "n.tsv"
    non_utf8.write_bytes(b"variable\tavg\tstd\ncrp\t1.0\t\xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        read_stats(non_utf8)


def test_tensor_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    tensors = [SampleTensor(values=rng.normal(size=(72, 9)),
                            label=int(i % 2), admission_id=f"adm{i:05d}")
               for i in range(5)]
    path = tmp_path / "tensors.bin"
    write_tensors(tensors, path)
    back = read_tensors(path)
    assert [t.admission_id for t in back] == [t.admission_id for t in tensors]
    assert [t.label for t in back] == [t.label for t in tensors]
    for a, b in zip(tensors, back):
        assert a.values.tobytes() == b.values.tobytes()


def test_tensor_cache_validation(tmp_path):
    tensors = [SampleTensor(values=np.zeros((72, 9)), label=1, admission_id="x")]
    path = tmp_path / "tensors.bin"
    write_tensors(tensors, path)
    blob = path.read_bytes()

    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"#other v9\n" + blob)
    with pytest.raises(IntegrityError, match="bad tensor cache magic"):
        read_tensors(wrong)

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-11])
    with pytest.raises(IntegrityError, match="truncated values of x"):
        read_tensors(short)

    flipped = bytearray(blob)
    flipped[len(b"#hemocult-tensors v1\n") + 4 + 1] = 7  # label byte after the 1-char id
    bad_label = tmp_path / "label.bin"
    bad_label.write_bytes(bytes(flipped))
    with pytest.raises(IntegrityError, match="label byte 7 for x"):
        read_tensors(bad_label)

    flipped = bytearray(blob)
    flipped[len(b"#hemocult-tensors v1\n") + 4] = 0xFF  # the 1-char id
    bad_id = tmp_path / "id.bin"
    bad_id.write_bytes(bytes(flipped))
    with pytest.raises(IntegrityError, match="not UTF-8"):
        read_tensors(bad_id)

    twice = tmp_path / "twice.bin"
    write_tensors(tensors * 2, twice)
    with pytest.raises(IntegrityError, match="admission id x appears twice"):
        read_tensors(twice)
