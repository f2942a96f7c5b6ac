import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import oracles
from hemocult import lstm
from hemocult.errors import IntegrityError
from hemocult.lstm import (CellParams, ModelParams, _layout, _run_direction, init_params,
                           load_params, loss_and_grads, save_params, score, weighted_mse)


def zero_cell(H, n_in=9):
    return CellParams(np.zeros((4 * H, n_in)), np.zeros((4 * H, H)), np.zeros(4 * H))


def zero_model(H):
    return ModelParams(zero_cell(H), zero_cell(H), np.zeros(2 * H), np.zeros(1))


def noisy_params(H, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    p = init_params(H, rng)
    for _, arr in p.named_arrays():
        arr += rng.normal(0.0, scale, size=arr.shape)
    return p, rng


def flat_grad_norm(grads):
    return math.sqrt(sum(float((arr * arr).sum()) for _, arr in grads.named_arrays()))


def one_model(X, y, p, w_pos=8.0):
    """(loss, grads) of p on the (B, T, 9) batch X: loss_and_grads with one model."""
    (loss,), (grads,) = loss_and_grads(X[None], np.asarray(y, dtype=float)[None], [p], w_pos)
    return loss, grads


def first_step(cell):
    """(h, c) after one step of a direction from the zero state."""
    _, C, _, Hs = _run_direction(np.zeros((1, 1, 1, 9)), cell.W[None], cell.U[None],
                                 cell.b[None])
    return Hs[0, 1, 0], C[0, 0, 0]  # model 0, its step, row 0


def test_first_step_zero_fixed_point():
    h, c = first_step(zero_cell(2))
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(c, np.zeros(2))


def test_first_step_saturated_gates():
    p = zero_cell(1)
    p.b[0] = 20.0   # input gate open
    p.b[1] = -20.0  # forget gate shut
    p.b[2] = 20.0   # output gate open
    h, c = first_step(p)
    assert h[0] == 0.0 and c[0] == 0.0  # candidate tanh(0) kills the update
    p.b[3] = 20.0  # candidate saturated at 1
    h, c = first_step(p)
    assert c[0] == pytest.approx(1.0, abs=1e-3)
    assert h[0] == pytest.approx(np.tanh(1.0), abs=1e-3)


def test_forward_zero_params_scores_half():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1, 72, 9))
    assert score(X, zero_model(3))[0] == 0.5


def test_forward_head_bias_only():
    p = zero_model(2)
    p.head_b[0] = 10.0
    s = float(score(np.zeros((1, 72, 9)), p)[0])
    assert s == float(expit(10.0))
    assert s == pytest.approx(0.99995, abs=1e-4)


def test_forward_direction_swap_is_bit_exact():
    for seed in range(5):
        p, rng = noisy_params(4, seed)
        X = rng.normal(size=(1, 72, 9))
        swapped = ModelParams(
            fwd=p.bwd.copy(), bwd=p.fwd.copy(),
            head_w=np.concatenate([p.head_w[4:], p.head_w[:4]]),
            head_b=p.head_b.copy(),
        )
        assert score(X, p)[0] == score(X[:, ::-1].copy(), swapped)[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bias=st.floats(-1e6, 1e6))
def test_forward_score_strictly_inside_unit_interval(seed, bias):
    rng = np.random.default_rng(seed)
    p = init_params(2, rng)
    p.head_b[0] = bias
    assert 0.0 < score(rng.normal(size=(1, 72, 9)), p)[0] < 1.0


def test_forward_batch_matches_per_example():
    p, rng = noisy_params(3, 11)
    X = rng.normal(size=(6, 72, 9))
    singles = np.array([score(X[i:i + 1], p)[0] for i in range(6)])
    np.testing.assert_allclose(score(X, p), singles, rtol=0.0, atol=1e-10)


def test_forward_batch_shape_error():
    p = zero_model(2)
    with pytest.raises(IntegrityError, match=r"batch has shape \(3, 72, 8\)"):
        score(np.zeros((3, 72, 8)), p)
    with pytest.raises(IntegrityError, match=r"batch has shape \(72, 9\)"):
        score(np.zeros((72, 9)), p)


def test_weighted_mse_spot_values():
    assert weighted_mse([0.0, 1.0], [0, 1], 8.0, 1.0) == 0.0
    assert weighted_mse([0.5], [1], 8.0, 1.0) == 2.0
    rng = np.random.default_rng(1)
    s = rng.random(17)
    y = rng.integers(0, 2, size=17)
    plain = math.fsum((s - y) * (s - y))
    assert weighted_mse(s, y, 1.0, 1.0) == plain


def test_weighted_mse_validation():
    with pytest.raises(IntegrityError, match=r"scores \(2,\) vs labels \(1,\)"):
        weighted_mse([0.5, 0.5], [1], 8.0, 1.0)
    with pytest.raises(IntegrityError, match="class weights must be positive"):
        weighted_mse([0.5], [1], 0.0, 1.0)
    with pytest.raises(IntegrityError, match="class weights must be positive"):
        weighted_mse([0.5], [1], 8.0, -2.0)


def test_weighted_mse_past_the_float_range_is_inf():
    assert weighted_mse([0.0, 0.0], [1, 1], 1.7e308, 1.0) == math.inf


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_weighted_mse_batch_equals_sum_of_examples(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 24))
    s = rng.random(n)
    y = rng.integers(0, 2, size=n)
    whole = weighted_mse(s, y, 8.0, 1.0)
    parts = [weighted_mse(s[i:i + 1], y[i:i + 1], 8.0, 1.0) for i in range(n)]
    assert whole == math.fsum(parts)


@pytest.mark.parametrize("H, B", [(3, 8), (100, 160)])
def test_backward_loss_equals_weighted_mse(H, B):
    # exact equality: scoring and training run the same recurrence step
    p, rng = noisy_params(H, 5)
    X = rng.normal(size=(B, 72, 9))
    y = rng.integers(0, 2, size=B).astype(float)
    loss, _ = one_model(X, y, p)
    assert loss == weighted_mse(score(X, p), y, 8.0, 1.0)


def score_peak_over_zx(B, H, T=72):
    """score's tracemalloc peak over the bytes of one direction's input pre-activations."""
    p, rng = noisy_params(H, 6)
    X = rng.normal(size=(B, T, 9))
    tracemalloc.start()
    try:
        score(X, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * B * T * 4 * H)


def test_score_keeps_one_step_of_state():
    assert score_peak_over_zx(160, 100) < 1.5


def test_score_takes_views_of_the_weights():
    # at H=1000 a copy of U is 32 MB, next to a Zx of 18 MB
    assert score_peak_over_zx(8, 1000) < 1.5


def test_backward_saturated_target_gradients_vanish():
    p = zero_model(2)
    p.head_b[0] = 50.0  # score pinned against 1 from below
    X = np.random.default_rng(3).normal(size=(1, 72, 9))
    assert 0.0 < score(X, p)[0] < 1.0
    _, grads = one_model(X, [1.0], p)
    worst = max(float(np.abs(arr).max()) for _, arr in grads.named_arrays())
    assert worst <= 1e-8


def test_backward_head_bias_gradient_by_hand():
    # zero params, y=1, w_pos=8: d loss / d head bias = 2*8*(0.5-1)*0.25
    p = zero_model(2)
    X = np.random.default_rng(4).normal(size=(1, 72, 9))
    _, grads = one_model(X, [1.0], p)
    assert grads.head_b[0] == -2.0


def test_backward_batch_gradient_is_sum_over_examples():
    p, rng = noisy_params(2, 21)
    X = rng.normal(size=(4, 72, 9))
    y = np.array([1.0, 0.0, 0.0, 1.0])
    _, grads = one_model(X, y, p)
    total = [np.zeros_like(arr) for _, arr in p.named_arrays()]
    for i in range(4):
        _, gi = one_model(X[i:i + 1], y[i:i + 1], p)
        for acc, (_, piece) in zip(total, gi.named_arrays()):
            acc += piece
    for (_, a), b in zip(grads.named_arrays(), total):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("H", [3, 10, 17])
def test_stacked_models_equal_single_model_calls(H):
    members = [noisy_params(H, 40 + m)[0] for m in range(3)]
    rng = np.random.default_rng(H)
    Xs = rng.normal(size=(3, 5, 72, 9))
    labels = (rng.random((3, 5)) < 0.4).astype(float)
    losses, grads = loss_and_grads(Xs, labels, members, 8.0)
    for m, p in enumerate(members):
        loss, alone_grads = one_model(Xs[m].copy(), labels[m], p)
        assert losses[m] == loss
        for (name, a), (_, b) in zip(grads[m].named_arrays(), alone_grads.named_arrays()):
            assert np.array_equal(a, b), (m, name)
    with pytest.raises(IntegrityError, match="stacked models differ in hidden size"):
        loss_and_grads(Xs, labels, members[:2] + [noisy_params(H + 1, 0)[0]], 8.0)
    with pytest.raises(IntegrityError, match=r"labels have shape \(2, 5\), want \(3, 5\)"):
        loss_and_grads(Xs, labels[:2], members, 8.0)


@pytest.mark.parametrize("H", [1, 10, 16])
def test_direction_stack_equals_one_stack_per_direction(H, monkeypatch):
    # B = 1 and 2 are the tails of lockstep batches of 4
    rng = np.random.default_rng(H)
    for M in (1, 3):
        members = [noisy_params(H, 60 + m)[0] for m in range(M)]
        for B in (1, 2, 4, 17):
            Xs = rng.normal(size=(M, B, 72, 9))
            labels = (rng.random((M, B)) < 0.4).astype(float)
            with monkeypatch.context() as patched:
                patched.setattr(lstm, "STACK_MAX_HIDDEN", 0)
                per_direction = loss_and_grads(Xs, labels, members, 8.0)
            stacked = loss_and_grads(Xs, labels, members, 8.0)
            assert stacked[0] == per_direction[0], (M, B)
            for a, b in zip(stacked[1], per_direction[1], strict=True):
                for (name, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
                    assert np.array_equal(x, y), (M, B, name)


def test_empty_model_stack_is_refused():
    with pytest.raises(IntegrityError, match="no models to stack"):
        loss_and_grads(np.empty((0, 4, 72, 9)), np.empty((0, 4)), [], 8.0)


def test_gradients_match_finite_differences_spot():
    for H, seed in ((1, 101), (2, 202)):
        p, rng = noisy_params(H, seed)
        X = rng.normal(size=(72, 9))
        label = int(rng.integers(0, 2))
        Xb = X[None, :, :]
        _, grads = one_model(Xb, [float(label)], p)
        assert abs(float(oracles.forward_ld(X, p)) - float(score(Xb, p)[0])) < 1e-12
        assert oracles.fd_gradient_worst_error(p, X, label, grads) < 1e-6


def test_fd_oracle_rejects_nan_gradient():
    p, rng = noisy_params(1, 101)
    X = rng.normal(size=(72, 9))
    _, grads = one_model(X[None, :, :], [1.0], p)
    assert oracles.fd_gradient_worst_error(p, X, 1, grads) < 1e-6
    grads.fwd.U[0, 0] = np.nan
    assert not oracles.fd_gradient_worst_error(p, X, 1, grads) < 1e-6


def test_init_params_layout():
    H = 7
    p = init_params(H, 42)
    assert p.fwd.W.shape == (4 * H, 9)
    assert p.fwd.U.shape == (4 * H, H)
    assert p.head_w.shape == (2 * H,)
    assert p.head_b.shape == (1,)
    bound = 1.0 / np.sqrt(H)
    for cell in (p.fwd, p.bwd):
        assert np.abs(cell.W).max() <= bound
        assert np.abs(cell.U).max() <= bound
        assert np.array_equal(cell.b[H:2 * H], np.ones(H))  # forget bias
        assert not cell.b[:H].any() and not cell.b[2 * H:].any()
    q = init_params(H, 42)
    for (_, a), (_, b) in zip(p.named_arrays(), q.named_arrays()):
        assert np.array_equal(a, b)
    with pytest.raises(IntegrityError, match="hidden_size must be >= 1, got 0"):
        init_params(0, 1)


def test_model_params_validation():
    p = zero_model(2)
    bad = ModelParams(p.fwd, p.bwd, np.zeros(3), p.head_b)
    with pytest.raises(IntegrityError, match="block 'head_w' has shape"):
        bad.validate()
    nan = zero_model(2)
    nan.bwd.U[0, 0] = np.nan
    with pytest.raises(IntegrityError, match="block 'bwd_U' has a non-finite value"):
        nan.validate()


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    p, _ = noisy_params(3, 77)
    path = tmp_path / "model.ckpt"
    save_params(p, path)
    q = load_params(path)
    for (name, a), (_, b) in zip(p.named_arrays(), q.named_arrays()):
        assert a.tobytes() == b.tobytes(), name
    # saving the loaded copy reproduces the file bytes
    again = tmp_path / "again.ckpt"
    save_params(q, again)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    import struct

    p, _ = noisy_params(2, 13)
    path = tmp_path / "model.ckpt"
    save_params(p, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"#something else\n" + blob)
    with pytest.raises(IntegrityError, match="bad checkpoint magic"):
        load_params(bad_magic)

    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:-9])
    with pytest.raises(IntegrityError, match="bad header of block 'head_b'"):
        load_params(short)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(IntegrityError, match="1 trailing bytes after the last block"):
        load_params(trailing)

    magic_len = blob.index(b"\n") + 1
    lied = tmp_path / "lied.ckpt"
    lied.write_bytes(blob[:magic_len] + struct.pack("<I", 3) + blob[magic_len + 4:])
    with pytest.raises(IntegrityError, match="bad header of block 'fwd_W' for hidden=3"):
        load_params(lied)
    # hidden size 0, with blocks of the shapes it implies: all empty but head_b
    hollow = tmp_path / "hollow.ckpt"
    blocks = [struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", len(shape))
              + struct.pack(f"<{len(shape)}I", *shape) for name, shape in _layout(0)]
    hollow.write_bytes(blob[:magic_len] + struct.pack("<II", 0, len(blocks)) + b"".join(blocks)
                       + struct.pack("<d", 0.0))
    with pytest.raises(IntegrityError, match="hidden size 0 in the header, want >= 1"):
        load_params(hollow)

    # 4H would not fit the u32 shape field of a block header
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(blob[:magic_len] + struct.pack("<I", 2 ** 30) + blob[magic_len + 4:])
    with pytest.raises(IntegrityError, match="hidden size 1073741824 in the header, want >= 1"):
        load_params(huge)

    name_at = blob.index(b"fwd_U")
    non_utf8 = tmp_path / "name.ckpt"
    non_utf8.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1:])
    with pytest.raises(IntegrityError, match="block"):
        load_params(non_utf8)

    ndim_at = blob.index(b"fwd_b") + len(b"fwd_b")
    too_many_dims = tmp_path / "ndim.ckpt"
    too_many_dims.write_bytes(blob[:ndim_at] + struct.pack("<I", 70) + blob[ndim_at + 4:])
    with pytest.raises(IntegrityError, match="bad header of block 'fwd_b'"):
        load_params(too_many_dims)

    at = blob.index(p.bwd.U.tobytes())
    p.bwd.U[3, 1] = np.nan
    nan_block = p.bwd.U.tobytes()
    non_finite = tmp_path / "nan.ckpt"
    non_finite.write_bytes(blob[:at] + nan_block + blob[at + len(nan_block):])
    with pytest.raises(IntegrityError) as excinfo:
        load_params(non_finite)
    assert str(excinfo.value) == f"{non_finite}: block 'bwd_U' has a non-finite value"
