"""Independent reference implementations used to check the package.

Everything here is written against the math, not the package internals:
a per-step extended-precision BiLSTM for finite-difference gradients, a
threshold-enumeration precision-recall reference, and an explicit
bin-enumeration resampler. Agreement requirements: gradients to a stated
relative tolerance, PR AUC and resampling bit-exactly.
"""

import math

import numpy as np

LD = np.longdouble


def _sigmoid_ld(z):
    return 1.0 / (1.0 + np.exp(-z))


def _run_direction_ld(Xd, W, U, b):
    """Final hidden state of one direction.

    W, U and b may each carry a leading batch axis of perturbed copies;
    the recurrence then runs once for all copies, with the same per-step
    arithmetic as for a single parameter set.
    """
    H = U.shape[-1]
    batch = np.broadcast_shapes(W.shape[:-2], U.shape[:-2], b.shape[:-1])
    Zxb = W @ Xd.T + b[..., None]  # (..., 4H, T)
    h = np.zeros(batch + (H,), dtype=LD)
    c = np.zeros(batch + (H,), dtype=LD)
    for t in range(Xd.shape[0]):
        z = Zxb[..., t] + (U @ h[..., None])[..., 0]
        gates = _sigmoid_ld(z[..., :3 * H])
        i = gates[..., :H]
        f = gates[..., H:2 * H]
        o = gates[..., 2 * H:]
        g = np.tanh(z[..., 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def _dir_h(cell, Xd):
    return _run_direction_ld(Xd, cell.W.astype(LD), cell.U.astype(LD),
                             cell.b.astype(LD))


def forward_ld(X, params):
    """Extended-precision per-step reimplementation of the model score."""
    Xd = np.asarray(X, dtype=LD)
    H = params.hidden_size
    hf = _dir_h(params.fwd, Xd)
    hb = _dir_h(params.bwd, Xd[::-1])
    u = (hf @ params.head_w[:H].astype(LD) + hb @ params.head_w[H:].astype(LD)
         + LD(params.head_b[0]))
    return _sigmoid_ld(u)


def loss_ld(X, label, params, w_pos, w_neg):
    s = forward_ld(X, params)
    w = LD(w_pos if label == 1 else w_neg)
    return w * (s - LD(label)) ** 2


def _central_copies(arr, eps):
    """2n copies of a float64 parameter array: copy i has entry i raised by
    eps, copy n + i has it lowered, both rounded to float64 as an in-place
    perturbation would be; also the achieved steps, in extended precision."""
    flat = arr.reshape(-1)
    n = flat.size
    hi, lo = flat + eps, flat - eps
    copies = np.tile(flat, (2 * n, 1))
    idx = np.arange(n)
    copies[idx, idx] = hi
    copies[n + idx, idx] = lo
    return copies.reshape((2 * n,) + arr.shape).astype(LD), hi.astype(LD) - lo.astype(LD)


def fd_gradient_worst_error(params, X, label, analytic, w_pos=8.0, w_neg=1.0,
                            eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Every entry of a parameter array is perturbed by +-eps on its float64
    value, and all 2n perturbed copies of the array are evaluated as one
    batch; each side of the difference is evaluated in extended precision
    so the quotient is not drowned by float64 rounding. The denominator
    uses the perturbation actually achieved after rounding. A perturbed
    forward-direction parameter cannot change the backward hidden state
    (and vice versa), so the untouched direction is computed once and
    reused; head parameters need no recurrence at all.
    """
    H = params.hidden_size
    w = LD(w_pos if label == 1 else w_neg)
    y = LD(label)
    Xf = np.asarray(X, dtype=LD)
    Xb = Xf[::-1]

    def loss_from(hf, hb, head_w=params.head_w.astype(LD),
                  head_b=params.head_b.astype(LD)):
        u = ((hf * head_w[..., :H]).sum(axis=-1) + (hb * head_w[..., H:]).sum(axis=-1)
             + head_b[..., 0])
        return w * (_sigmoid_ld(u) - y) ** 2

    hf_base = _dir_h(params.fwd, Xf)
    hb_base = _dir_h(params.bwd, Xb)
    worst = 0.0

    def check(losses, step, grad):
        nonlocal worst
        n = step.size
        numeric = ((losses[:n] - losses[n:]) / step).astype(float)
        flat_grad = grad.reshape(-1)
        rel = np.abs(flat_grad - numeric) / (np.abs(flat_grad) + np.abs(numeric) + 1e-12)
        # a NaN entry compares false against any tolerance, so it counts as infinite
        worst = max(worst, float(np.where(np.isfinite(rel), rel, np.inf).max()))

    for cell, gcell, Xd in ((params.fwd, analytic.fwd, Xf), (params.bwd, analytic.bwd, Xb)):
        base = {"W": cell.W.astype(LD), "U": cell.U.astype(LD), "b": cell.b.astype(LD)}
        for name in ("W", "U", "b"):
            copies, step = _central_copies(getattr(cell, name), eps)
            h = _run_direction_ld(Xd, **{**base, name: copies})
            losses = loss_from(h, hb_base) if Xd is Xf else loss_from(hf_base, h)
            check(losses, step, getattr(gcell, name))
    copies, step = _central_copies(params.head_w, eps)
    check(loss_from(hf_base, hb_base, head_w=copies), step, analytic.head_w)
    copies, step = _central_copies(params.head_b, eps)
    check(loss_from(hf_base, hb_base, head_b=copies), step, analytic.head_b)
    return worst


def pr_points_reference(scores, labels):
    """One point per distinct score, classifying score >= threshold."""
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    n_pos = sum(labels)
    points = []
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
        points.append((tp / n_pos, tp / (tp + fp), threshold))
    return points


def pr_auc_reference(scores, labels):
    """Step-rule area: sum of (R_i - R_{i-1}) * P_i with R_0 = 0."""
    areas = []
    prev_recall = 0.0
    for recall, precision, _ in pr_points_reference(scores, labels):
        areas.append((recall - prev_recall) * precision)
        prev_recall = recall
    return math.fsum(areas)


def resample_reference(ts, vals, spec, end_time, avg, std):
    """Explicit enumeration of the 72 bins with fill semantics spelled out."""
    ts = [float(t) for t in ts]
    vals = [float(v) for v in vals]
    start = end_time - 72 * 3600
    out = []
    last = None
    for k in range(72):
        lo = start + 3600.0 * k
        hi = start + 3600.0 * (k + 1)
        if k < 71:
            members = [v for t, v in zip(ts, vals) if t >= lo and t < hi]
        else:
            members = [v for t, v in zip(ts, vals) if t >= lo and t <= end_time]
        if members:
            if spec.aggregation == "min":
                agg = np.min(members)
            elif spec.aggregation == "max":
                agg = np.max(members)
            else:
                agg = np.mean(members)
            value = 0.0 if std == 0.0 else float((agg - avg) / (3.0 * std))
            out.append(value)
            last = value
        elif last is not None:
            out.append(last)  # forward fill
        else:
            out.append(0.0)  # zero padding before any observation
    return np.array(out)
