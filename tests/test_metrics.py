import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hemocult.errors import ConfigError, FormatError, IntegrityError
from hemocult.metrics import (baseline_constant, baseline_proportional, export_curve,
                              export_curve_svg, import_curve, pr_auc, pr_curve)


def random_instance(seed, max_n=12, force_ties=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    if force_ties and rng.random() < 0.5:
        scores = rng.integers(0, 5, size=n) / 4.0  # heavy tie structure
    else:
        scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    labels[rng.integers(0, n)] = 1  # recall needs at least one positive
    return scores, labels


def test_two_point_curve_by_hand():
    curve = pr_curve([0.9, 0.1], [1, 0])
    assert curve.points == [(1.0, 1.0, 0.9), (1.0, 0.5, 0.1)]
    assert curve.auc == 1.0


def test_inverted_ranking_single_positive():
    curve = pr_curve([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1])
    assert curve.points[-1] == (1.0, 0.25, 0.1)
    assert curve.auc == 0.25


def test_all_tied_scores_collapse_to_prevalence():
    labels = [1, 0, 0, 1, 0, 0, 0, 0]
    curve = pr_curve([0.3] * 8, labels)
    assert len(curve.points) == 1
    assert curve.points[0] == (1.0, 2 / 8, 0.3)
    assert curve.auc == 2 / 8


def test_perfect_separation_is_exactly_one():
    for n_pos, n_neg in ((1, 5), (3, 9), (7, 2)):
        rng = np.random.default_rng(n_pos * 100 + n_neg)
        scores = np.concatenate([rng.uniform(0.6, 1.0, n_pos),
                                 rng.uniform(0.0, 0.4, n_neg)])
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        assert pr_auc(scores, labels) == 1.0


def test_monotone_transform_leaves_curve_bit_identical():
    rng = np.random.default_rng(8)
    scores = rng.integers(0, 64, size=40) / 64.0
    labels = rng.integers(0, 2, size=40)
    labels[0] = 1
    base = pr_curve(scores, labels)
    moved = pr_curve(scores / 4.0 - 3.0, labels)  # strictly increasing map
    assert [(r, p) for r, p, _ in base.points] == [(r, p) for r, p, _ in moved.points]
    assert base.auc == moved.auc


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_curve_structure_properties(seed):
    scores, labels = random_instance(seed, max_n=30)
    curve = pr_curve(scores, labels)
    assert len(curve.points) == len(set(scores.tolist()))
    recalls = [r for r, _, _ in curve.points]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0
    assert 0.0 <= curve.auc <= 1.0
    for _, precision, _ in curve.points:
        assert 0.0 <= precision <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_auc_is_one_iff_ranking_is_perfect(seed):
    scores, labels = random_instance(seed, max_n=16)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    perfect = neg.size == 0 or pos.min() > neg.max()
    assert (pr_auc(scores, labels) == 1.0) == perfect


def test_matches_enumeration_reference():
    for seed in range(300):
        scores, labels = random_instance(seed)
        curve = pr_curve(scores, labels)
        assert curve.points == oracles.pr_points_reference(scores, labels)
        assert curve.auc == oracles.pr_auc_reference(scores, labels)


def test_input_validation():
    with pytest.raises(ConfigError, match="recall is undefined without positive labels"):
        pr_auc([0.2, 0.7], [0, 0])
    with pytest.raises(IntegrityError, match="empty score vector"):
        pr_auc([], [])
    with pytest.raises(IntegrityError, match=r"scores \(2,\) vs labels \(1,\)"):
        pr_auc([0.5, 0.4], [1])
    with pytest.raises(IntegrityError, match="non-finite score"):
        pr_auc([0.5, np.nan], [1, 0])
    with pytest.raises(IntegrityError, match="labels must be 0 or 1"):
        pr_auc([0.5, 0.4], [1, 2])


def test_baseline_constant_yields_prevalence():
    labels = np.zeros(2177, int)
    labels[:229] = 1
    assert baseline_constant(labels) == 229 / 2177
    assert baseline_constant(labels) == pytest.approx(0.1052, abs=5e-5)
    assert baseline_constant(np.ones(6, int)) == 1.0


def test_baseline_proportional_mean_near_prevalence():
    labels = np.zeros(2177, int)
    labels[:229] = 1
    prevalence = 229 / 2177
    values = [baseline_proportional(labels, seed) for seed in range(1000)]
    assert abs(np.mean(values) - prevalence) < 0.02


def test_baseline_proportional_edge_cases():
    assert baseline_proportional(np.ones(9, int), seed=5) == 1.0
    labels = np.array([1, 0, 0, 1, 0])
    assert baseline_proportional(labels, 7) == baseline_proportional(labels, 7)
    with pytest.raises(ConfigError, match="recall is undefined without positive labels"):
        baseline_proportional(np.zeros(4, int), seed=1)


def test_export_import_roundtrip(tmp_path):
    scores, labels = random_instance(77, max_n=12)
    curve = pr_curve(scores, labels)
    path = tmp_path / "curve.csv"
    export_curve(curve, path)
    back = import_curve(path)
    assert back.points == curve.points
    assert back.auc == curve.auc


@pytest.mark.parametrize("body, where", [
    (b"threshold,recall,precision\n0.9,1.0\n# auc=1.0\n", ":2: malformed row"),
    (b"threshold,recall,precision\n0.9,x,1.0\n# auc=1.0\n", ":2: malformed row"),
    (b"threshold,recall,precision\n0.9,1.0,1.0\n", ":3: missing `# auc=` footer"),
    (b"threshold,recall,precision\n0.9,1.0,1.0\n# auc=1.0\xff\n", ":3: malformed row"),
], ids=["short_row", "non_numeric", "no_footer", "non_utf8"])
def test_import_curve_rejects_malformed_files(tmp_path, body, where):
    path = tmp_path / "curve.csv"
    path.write_bytes(body)
    with pytest.raises(FormatError, match=f"curve.csv{where}"):
        import_curve(path)


def test_export_file_shape(tmp_path):
    curve = pr_curve([0.9, 0.1], [1, 0])
    path = tmp_path / "curve.csv"
    export_curve(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,recall,precision"
    assert len(lines) == 4  # header, two rows, auc footer
    assert lines[-1].startswith("# auc=")
    with pytest.raises(OSError):
        export_curve(curve, "")


def test_export_svg_structure(tmp_path):
    curve = pr_curve([0.9, 0.5, 0.1], [1, 0, 1])
    path = tmp_path / "curve.svg"
    export_curve_svg(curve, path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text and text.rstrip().endswith("</svg>")


def test_auc_recomputable_from_points():
    scores, labels = random_instance(123, max_n=12)
    curve = pr_curve(scores, labels)
    areas = []
    prev = 0.0
    for recall, precision, _ in curve.points:
        areas.append((recall - prev) * precision)
        prev = recall
    assert math.fsum(areas) == curve.auc
