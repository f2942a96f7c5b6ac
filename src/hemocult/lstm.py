"""From-scratch bidirectional LSTM with exact backpropagation through time.

The model reads a (72, 9) matrix in both time directions, combines the two
terminal hidden states through an affine head, and squashes with the
logistic function into a score in (0, 1). All arithmetic is float64 numpy;
no autodiff anywhere, gradients are derived by hand and checked against
finite differences in the test suite.

Gate layout: the four gates are stacked along a 4H axis in the order
[input, forget, output, candidate]. The first 3H rows get the logistic
function, the last H rows get tanh. Cell recurrences:

    i = sigma(W_i x + U_i h + b_i)      f = sigma(W_f x + U_f h + b_f)
    o = sigma(W_o x + U_o h + b_o)      g = tanh (W_g x + U_g h + b_g)
    c = f * c_prev + i * g              h = o * tanh(c)

Two entry points run the same recurrence step over the (input, W, U, b)
stacks of one builder, _direction_stacks, the only code that reverses a
batch in time or picks a direction's weights. score(X, p) scores one model
on a (B, T, n) batch, SCORE_CHUNK rows and one direction at a time, and
keeps only the current step's state. loss_and_grads runs M models with the
same hidden size through the forward pass and BPTT in one call, model m on
its own batch: its 2M direction-models share one np.matmul stack per GEMM
up to STACK_MAX_HIDDEN hidden units, one stack per direction above, and a
stack of one model views its weights. The per-model reductions (weight
gradients, head, loss) keep the shapes of a single model, so each model's
results are bit-identical to a call on it alone. Only that call builds the
BPTT arrays, and they never leave it. Initial hidden and cell states are zero.

Checkpoint layout, all fields little-endian:

    magic  b"#hemocult-model v1\\n"
    u32 hidden size H, u32 block count (8)
    per block, in the order fwd_W, fwd_U, fwd_b, bwd_W, bwd_U, bwd_b, head_w, head_b:
        u32 name length, name bytes (UTF-8)
        u32 ndim (1 or 2), ndim x u32 shape
        f64 values, row-major

H fixes every block header (name, ndim, shape), so load_params checks each stored
header against the bytes _block_headers derives from H in one comparison.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .blocks import F64, U32, BlockReader, pack_string
from .errors import IntegrityError
from .variables import N_VARIABLES

# scores stay strictly inside (0, 1) even when the logistic saturates
_SCORE_LO = float(np.nextafter(0.0, 1.0))
_SCORE_HI = float(np.nextafter(1.0, 0.0))

# Up to this hidden size loss_and_grads stacks both directions of its models and
# training.train_folds trains a cell's folds in lockstep. Stacking spreads numpy's
# fixed cost per call, which dominates only at small H: at batch 32 stacked folds
# were neutral at H=20 and slower at H=32 and 100, stacked directions cost 5-10 %
# at H=100, and each stacked model holds its own BPTT arrays.
STACK_MAX_HIDDEN = 16
# Rows per score pass. The chunk bounds score's largest array, its input pre-activations:
# rows * T * 4H * 8 bytes. It is part of the scores' bits: chunks of 1, 3 or 7 rows gave
# scores 1 ulp off one 300-row pass at H = 10, 16 and 100, while chunks of 64 and 256 matched.
SCORE_CHUNK = 256

CHECKPOINT_MAGIC = b"#hemocult-model v1\n"
_HEADER = struct.Struct("<II")  # hidden size, block count
_MAX_HIDDEN = 2 ** 30 - 1  # 4H must fit a u32 shape field
_BLOCK_NAMES = ("fwd_W", "fwd_U", "fwd_b", "bwd_W", "bwd_U", "bwd_b", "head_w", "head_b")


def _layout(H: int):
    """(name, shape) of the eight blocks in checkpoint order, for hidden size H."""
    cell = ((4 * H, N_VARIABLES), (4 * H, H), (4 * H,))
    return tuple(zip(_BLOCK_NAMES, cell + cell + ((2 * H,), (1,))))


def _block_headers(H: int):
    """(name, shape, stored name + ndim + shape bytes) of the eight blocks for hidden size H."""
    return [(name, shape, pack_string(name) + U32.pack(len(shape))
             + struct.pack(f"<{len(shape)}I", *shape)) for name, shape in _layout(H)]


@dataclass
class CellParams:
    """One direction's weights: gates stacked along the leading 4H axis."""

    W: np.ndarray  # (4H, N_VARIABLES)
    U: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.U.shape[1]

    def copy(self) -> "CellParams":
        return CellParams(self.W.copy(), self.U.copy(), self.b.copy())


@dataclass
class ModelParams:
    """All weights of the bidirectional model plus the scalar output head."""

    fwd: CellParams
    bwd: CellParams
    head_w: np.ndarray  # (2H,) applied to [h_fwd_last; h_bwd_last]
    head_b: np.ndarray  # (1,)

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden

    def validate(self):
        """Every block has its _layout shape for the hidden size of fwd_U, and finite values."""
        H = self.fwd.U.shape[-1] if self.fwd.U.ndim == 2 else 0
        if H < 1:
            raise IntegrityError(
                f"block 'fwd_U' has shape {self.fwd.U.shape}, so no hidden size >= 1")
        for (name, arr), (_, shape) in zip(self.named_arrays(), _layout(H)):
            if arr.shape != shape:
                raise IntegrityError(f"block {name!r} has shape {arr.shape}, want {shape}")
            if not np.isfinite(arr).all():
                raise IntegrityError(f"block {name!r} has a non-finite value")

    def copy(self) -> "ModelParams":
        return ModelParams(self.fwd.copy(), self.bwd.copy(), self.head_w.copy(), self.head_b.copy())

    def named_arrays(self):
        """(name, array) in checkpoint order, shared by checkpoints and flatteners."""
        arrays = (self.fwd.W, self.fwd.U, self.fwd.b, self.bwd.W, self.bwd.U, self.bwd.b,
                  self.head_w, self.head_b)
        return tuple(zip(_BLOCK_NAMES, arrays))


def init_params(hidden_size: int, seed) -> ModelParams:
    """Uniform [-1/sqrt(H), 1/sqrt(H)] weights, zero biases, forget bias +1."""
    if hidden_size < 1:
        raise IntegrityError(f"hidden_size must be >= 1, got {hidden_size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    H = hidden_size
    scale = 1.0 / np.sqrt(H)

    def cell():
        W = rng.uniform(-scale, scale, size=(4 * H, N_VARIABLES))
        U = rng.uniform(-scale, scale, size=(4 * H, H))
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0
        return CellParams(W, U, b)

    fwd = cell()
    bwd = cell()
    head_w = rng.uniform(-scale, scale, size=2 * H)
    head_b = np.zeros(1)
    return ModelParams(fwd, bwd, head_w, head_b)


def _recurrence(X: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray, slots=None):
    """Unroll M stacked direction-models over X of shape (M, B, T, n_in).

    W, U and b stack their weights on a leading axis. slots(t) gives
    the (M, B, .) arrays that step t writes its gates, cell state, its tanh
    and hidden state into. Without slots every step overwrites the same
    arrays, as a step reads the previous state before it writes. Returns the
    last hidden state."""
    M, B, T, n_in = X.shape
    H = U.shape[2]
    Zx = np.matmul(X.reshape(M, B * T, n_in), W.transpose(0, 2, 1))
    Zx += b[:, None, :]
    Zx = Zx.reshape(M, B, T, 4 * H)
    UT = U.transpose(0, 2, 1)
    c = h = np.zeros((M, B, H))
    state = None if slots else [np.empty((M, B, k * H)) for k in (4, 1, 1, 1)]
    for t in range(T):
        z = Zx[:, :, t, :] + np.matmul(h, UT)
        a, c_next, tc, h = slots(t) if slots else state
        a[..., :3 * H] = expit(z[..., :3 * H])
        a[..., 3 * H:] = np.tanh(z[..., 3 * H:])
        i, f, o, g = a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H], a[..., 3 * H:]
        np.add(f * c, i * g, out=c_next)
        c = c_next
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
    return h


def _run_direction(X: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray):
    """_recurrence keeping each step's gates A, cells C, their tanh TC and hidden
    states Hs (zero state first) for BPTT, each (M, T, B, .) so a model's slice is contiguous."""
    M, B, T, _ = X.shape
    H = U.shape[2]
    A, C, TC = (np.empty((M, T, B, k * H)) for k in (4, 1, 1))
    Hs = np.zeros((M, T + 1, B, H))
    _recurrence(X, W, U, b, lambda t: (A[:, t], C[:, t], TC[:, t], Hs[:, t + 1]))
    return A, C, TC, Hs


def _direction_backward(X: np.ndarray, U: np.ndarray, arrays, dh_last: np.ndarray):
    """Exact BPTT through M stacked direction-models; returns (dW, dU, db) per model."""
    M, B, T, n_in = X.shape
    H = U.shape[2]
    A, C, TC, Hs = arrays
    dZ = np.empty((M, T, B, 4 * H))
    dh = dh_last.copy()
    dc = np.zeros((M, B, H))
    for t in range(T - 1, -1, -1):
        a = A[:, t]
        i = a[..., :H]
        f = a[..., H:2 * H]
        o = a[..., 2 * H:3 * H]
        g = a[..., 3 * H:]
        tc = TC[:, t]
        do = dh * tc
        dc += dh * o * (1.0 - tc * tc)
        dz = dZ[:, t]
        np.multiply(dc * g, i * (1.0 - i), out=dz[..., :H])
        if t > 0:
            np.multiply(dc * C[:, t - 1], f * (1.0 - f), out=dz[..., H:2 * H])
        else:
            dz[..., H:2 * H] = 0.0  # c_prev is the zero initial state
        np.multiply(do, o * (1.0 - o), out=dz[..., 2 * H:3 * H])
        np.multiply(dc * i, 1.0 - g * g, out=dz[..., 3 * H:])
        dh = np.matmul(dz, U)
        dc *= f
    grads = []
    for m in range(M):  # the reductions run per model, in the shapes of a single model
        flatZ = dZ[m].transpose(1, 0, 2).reshape(B * T, 4 * H)
        dW = flatZ.T @ X[m].reshape(B * T, n_in)
        dU = dZ[m].reshape(T * B, 4 * H).T @ Hs[m, :-1].reshape(T * B, H)
        db = dZ[m].sum(axis=(0, 1))
        grads.append((dW, dU, db))
    return grads


def _checked(Xs, members):
    """Xs as a float (M, B, T, n_in) stack, once the members and the shapes pass."""
    if not members:
        raise IntegrityError("no models to stack")
    for p in members:
        p.validate()
    Xs = np.asarray(Xs, dtype=float)
    if Xs.ndim != 4 or len(Xs) != len(members) or Xs.shape[3] != N_VARIABLES:
        raise IntegrityError(f"batch has shape {Xs.shape[1:]} in a stack of shape {Xs.shape}, "
                             f"want ({len(members)}, B, T, {N_VARIABLES})")
    H = members[0].hidden_size
    if any(p.hidden_size != H for p in members):
        raise IntegrityError("stacked models differ in hidden size")
    return Xs


def _direction_stacks(Xs, members, both: bool):
    """The members' 2M direction-models, forward cells over Xs then backward cells over Xs
    reversed in time, as (input, W, U, b) stacks: all 2M in one if both, else one per
    direction, the backward one built once the forward one ran. A stack of one model
    views its weights."""
    M = len(members)
    cells = [p.fwd for p in members] + [p.bwd for p in members]
    size = 2 * M if both else M
    for lo in range(0, 2 * M, size):
        inputs = (Xs, Xs[:, :, ::-1, :])[lo // M:(lo + size) // M]
        X = np.concatenate(inputs) if len(inputs) > 1 else np.ascontiguousarray(inputs[0])
        group = cells[lo:lo + size]
        yield (X, *(np.stack([getattr(cell, name) for cell in group]) if size > 1
                    else getattr(group[0], name)[None] for name in "WUb"))


def _head(hf: np.ndarray, hb: np.ndarray, p: ModelParams) -> np.ndarray:
    """p's scores from the (B, H) last hidden states of its two directions."""
    H = p.hidden_size
    # two separate dot products so direction swap commutes bit-exactly
    u = hf @ p.head_w[:H] + hb @ p.head_w[H:] + p.head_b[0]
    return np.clip(expit(u), _SCORE_LO, _SCORE_HI)


def score(X: np.ndarray, p: ModelParams) -> np.ndarray:
    """The scores of p on a batch X of shape (B, T, n_in), SCORE_CHUNK rows per pass.

    Each step overwrites the last one's state, so the largest array a pass
    makes is one direction's input pre-activations, (SCORE_CHUNK, T, 4H).
    The weights go in as views, not copies.
    """
    Xs = _checked(np.asarray(X)[None], [p])
    scores = np.empty(Xs.shape[1])
    for lo in range(0, len(scores), SCORE_CHUNK):
        hf, hb = (_recurrence(*stack)[0]
                  for stack in _direction_stacks(Xs[:, lo:lo + SCORE_CHUNK], [p], both=False))
        scores[lo:lo + SCORE_CHUNK] = _head(hf, hb, p)
    return scores


def loss_and_grads(Xs: np.ndarray, labels: np.ndarray, members, w_pos: float):
    """Per-model sum-over-batch weighted MSE and its exact gradients, M models in one pass.

    Batch m of Xs (M, B, T, n_in) goes through members[m] against row m of
    labels (M, B); a negative weighs 1. Returns (losses, grads): one
    weighted_mse and one ModelParams of d loss / d parameter per model, in
    member order, each bit-identical to a call with that model alone.
    """
    Xs = _checked(Xs, members)
    M, H = len(members), members[0].hidden_size
    stacks = [(X, U, _run_direction(X, W, U, b))
              for X, W, U, b in _direction_stacks(Xs, members, both=H <= STACK_MAX_HIDDEN)]
    # per direction-model, forward cells first: its last hidden state, (B, H)
    h_last = [h for _, _, arrays in stacks for h in arrays[-1][:, -1]]
    scores = np.stack([_head(h_last[m], h_last[M + m], p) for m, p in enumerate(members)])
    labels = np.asarray(labels, dtype=float)
    if labels.shape != scores.shape:
        raise IntegrityError(f"labels have shape {labels.shape}, want {scores.shape}")
    losses, heads = [], []
    dh_stacks = [np.empty(arrays[-1][:, -1].shape) for _, _, arrays in stacks]
    dh_last = [dh for stack in dh_stacks for dh in stack]
    for m, p in enumerate(members):
        s = scores[m]
        losses.append(weighted_mse(s, labels[m], w_pos, 1.0))
        w = np.where(labels[m] == 1.0, float(w_pos), 1.0)
        r = s - labels[m]
        du = 2.0 * w * r * s * (1.0 - s)  # d loss / d pre-squash head activation
        heads.append((np.concatenate([h_last[m].T @ du, h_last[M + m].T @ du]),
                      np.array([du.sum()])))
        np.multiply(du[:, None], p.head_w[None, :H], out=dh_last[m])
        np.multiply(du[:, None], p.head_w[None, H:], out=dh_last[M + m])
    cell_grads = [g for stack, dh in zip(stacks, dh_stacks) for g in _direction_backward(*stack, dh)]
    grads = zip(cell_grads[:M], cell_grads[M:], heads)
    return losses, [ModelParams(CellParams(*f), CellParams(*b), *head) for f, b, head in grads]


def weighted_mse(scores, labels, w_pos: float, w_neg: float) -> float:
    """Class-weighted sum of squared errors: sum_i w_{y_i} (s_i - y_i)^2.

    Computed with exactly-rounded summation so batch loss equals the sum of
    per-example losses bit for bit; a sum past the float range is inf.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise IntegrityError(f"scores {scores.shape} vs labels {labels.shape}")
    if not (w_pos > 0 and w_neg > 0):
        raise IntegrityError("class weights must be positive")
    w = np.where(labels == 1.0, float(w_pos), float(w_neg))
    r = scores - labels
    try:
        return math.fsum(w * r * r)
    except OverflowError:  # the exact sum of these non-negative terms is past the float range
        return math.inf


def save_params(p: ModelParams, path):
    """Write a checkpoint; read-back is bit-identical."""
    p.validate()
    chunks = [CHECKPOINT_MAGIC, _HEADER.pack(p.hidden_size, len(_BLOCK_NAMES))]
    for (_, arr), (_, _, header) in zip(p.named_arrays(), _block_headers(p.hidden_size)):
        chunks += [header, np.ascontiguousarray(arr, dtype=F64).tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_params(path) -> ModelParams:
    """Inverse of save_params; a malformed or inconsistent file raises IntegrityError."""
    arrays = []
    with open(path, "rb") as fh:
        reader = BlockReader(fh, path, IntegrityError)
        reader.magic(CHECKPOINT_MAGIC, "checkpoint magic")
        hidden, nblocks = reader.unpack(_HEADER, "checkpoint header")
        if not 1 <= hidden <= _MAX_HIDDEN:  # _layout(0) would accept eight empty blocks
            raise reader.error(f"hidden size {hidden} in the header, want >= 1, <= {_MAX_HIDDEN}")
        if nblocks != len(_BLOCK_NAMES):
            raise reader.error(f"expected {len(_BLOCK_NAMES)} blocks, found {nblocks}")
        for name, shape, header in _block_headers(hidden):
            reader.magic(header, f"header of block {name!r} for hidden={hidden}")
            values = reader.array(math.prod(shape), F64, f"block {name}")
            if not np.isfinite(values).all():
                raise reader.error(f"block {name!r} has a non-finite value")
            arrays.append(values.reshape(shape))
        reader.finish("the last block")
    return ModelParams(CellParams(*arrays[:3]), CellParams(*arrays[3:6]), *arrays[6:])


__all__ = ["CHECKPOINT_MAGIC", "CellParams", "ModelParams", "init_params", "score",
           "loss_and_grads", "weighted_mse", "save_params", "load_params"]
