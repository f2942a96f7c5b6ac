"""Precision-recall evaluation: curve construction, AUC, and baselines.

The curve sweeps every distinct score value as a threshold (score >= t is
classified positive); tied scores collapse into a single point. The AUC is
the average-precision step rule sum (R_i - R_{i-1}) * P_i with R_0 = 0,
accumulated with exactly-rounded summation so small instances can be
checked against a brute-force oracle for equality, not closeness.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, FormatError, IntegrityError


@dataclass
class PRCurve:
    points: List[Tuple[float, float, float]]  # (recall, precision, threshold)
    auc: float


def _check_inputs(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise IntegrityError(f"scores {scores.shape} vs labels {labels.shape}")
    if scores.size == 0:
        raise IntegrityError("empty score vector")
    if not np.all(np.isfinite(scores)):
        raise IntegrityError("non-finite score")
    labels = labels.astype(int)
    if not np.all((labels == 0) | (labels == 1)):
        raise IntegrityError("labels must be 0 or 1")
    if int(labels.sum()) == 0:
        raise ConfigError("recall is undefined without positive labels")
    return scores, labels


def pr_curve(scores, labels) -> PRCurve:
    """One (recall, precision, threshold) point per distinct score value."""
    scores, labels = _check_inputs(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    # a tie run ends where the next sorted score differs; its point counts every
    # member and shows the first member's score (0.0 and -0.0 tie)
    ends = np.flatnonzero(s_sorted[1:] != s_sorted[:-1])
    last = np.append(ends, s_sorted.size - 1)
    first = np.append(0, ends + 1)
    tp = np.cumsum(labels[order])[last]
    recall = tp / int(labels.sum())
    precision = tp / (last + 1)
    points = list(zip(recall.tolist(), precision.tolist(), s_sorted[first].tolist()))
    return PRCurve(points=points, auc=math.fsum(np.diff(recall, prepend=0.0) * precision))


def pr_auc(scores, labels) -> float:
    return pr_curve(scores, labels).auc


def baseline_constant(labels) -> float:
    """Every example scored 1.0; the single all-tied point yields prevalence."""
    labels = np.asarray(labels)
    return pr_auc(np.ones(labels.shape[0]), labels)


def baseline_proportional(labels, seed) -> float:
    """Scores drawn 1 with probability prevalence, else 0 (seeded)."""
    labels = np.asarray(labels).astype(int)
    if labels.size == 0 or int(labels.sum()) == 0:
        raise ConfigError("recall is undefined without positive labels")
    prevalence = labels.sum() / labels.size
    rng = np.random.default_rng(seed)
    scores = (rng.random(labels.size) < prevalence).astype(float)
    return pr_auc(scores, labels)


def export_curve(curve: PRCurve, path):
    """CSV rows threshold,recall,precision plus a `# auc=` footer."""
    lines = ["threshold,recall,precision"]
    for recall, precision, threshold in curve.points:
        lines.append(f"{threshold!r},{recall!r},{precision!r}")
    lines.append(f"# auc={curve.auc!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def import_curve(path) -> PRCurve:
    """Inverse of export_curve; a malformed file raises FormatError naming the line."""
    points, auc, lineno = [], None, 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line.startswith("# auc="):
                    auc = float(line.split("=", 1)[1])
                elif line and line != "threshold,recall,precision":
                    threshold, recall, precision = (float(tok) for tok in line.split(","))
                    points.append((recall, precision, threshold))
            except ValueError as exc:  # UnicodeDecodeError included
                raise FormatError(f"{path}:{lineno}: malformed row: {exc}") from None
    if auc is None:
        raise FormatError(f"{path}:{lineno + 1}: missing `# auc=` footer")
    return PRCurve(points=points, auc=auc)


def export_curve_svg(curve: PRCurve, path):
    """Minimal standalone SVG rendering of the step curve."""
    width, height = 640, 480
    margin = 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(recall):
        return margin + recall * plot_w

    def sy(precision):
        return height - margin - precision * plot_h

    # step curve: horizontal to the new recall, then vertical to its precision
    verts = [(0.0, curve.points[0][1])] if curve.points else [(0.0, 0.0)]
    for recall, precision, _ in curve.points:
        verts.append((recall, verts[-1][1]))
        verts.append((recall, precision))
    pts = " ".join(f"{sx(r):.2f},{sy(p):.2f}" for r, p in verts)
    grid = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        grid.append(
            f'<line x1="{sx(frac):.1f}" y1="{sy(0):.1f}" x2="{sx(frac):.1f}" y2="{sy(1):.1f}" '
            'stroke="#ddd" stroke-width="1"/>'
        )
        grid.append(
            f'<line x1="{sx(0):.1f}" y1="{sy(frac):.1f}" x2="{sx(1):.1f}" y2="{sy(frac):.1f}" '
            'stroke="#ddd" stroke-width="1"/>'
        )
        grid.append(f'<text x="{sx(frac) - 8:.1f}" y="{height - margin + 18:.1f}" font-size="11">{frac:g}</text>')
        grid.append(f'<text x="{margin - 30:.1f}" y="{sy(frac) + 4:.1f}" font-size="11">{frac:g}</text>')
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        + "\n".join(grid)
        + f'\n<polyline points="{pts}" fill="none" stroke="#c0392b" stroke-width="2"/>\n'
        f'<text x="{width / 2 - 20:.1f}" y="{height - 12:.1f}" font-size="13">recall</text>\n'
        f'<text x="14" y="{height / 2:.1f}" font-size="13" transform="rotate(-90 14 {height / 2:.1f})">precision</text>\n'
        f'<text x="{margin:.1f}" y="{margin - 14:.1f}" font-size="13">PR AUC = {curve.auc:.4f}</text>\n'
        "</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
