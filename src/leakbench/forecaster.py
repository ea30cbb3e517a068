"""Trainable forecasters: a from-scratch single-layer LSTM regressor plus
deterministic baselines.

The LSTM uses the standard gate recurrence over the concatenated input
[x_t, h_{t-1}] with zero-initialized h_0, c_0:

    i = sigmoid(W_i z + b_i)        input gate
    f = sigmoid(W_f z + b_f)        forget gate
    g = tanh(W_g z + b_g)           cell candidate
    o = sigmoid(W_o z + b_o)        output gate
    c = f * c_prev + i * g
    h = o * tanh(c)

and a dense head y = w_out . h_W + b_out. Training is mini-batch Adam on
MSE with per-epoch shuffling, optional early stopping with best-weight
restore, and scaling fitted on the training partition only.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import TrainingError
from .records import Record
from .rng import default_rng
from .windowing import SequenceSet, windows

SCALING_KINDS = ("none", "minmax", "zscore")

@dataclass(frozen=True)
class Scaler:
    """Affine value scaler fitted on training data only.

    transform(x) = (x - shift) / scale. Frozen after fitting, so the test
    partition can never update its parameters. Degenerate fits (constant
    data) fall back to scale 1 and stay invertible.
    """

    kind: str
    shift: float
    scale: float

    @classmethod
    def fit(cls, kind: str, inputs: np.ndarray, targets: np.ndarray) -> "Scaler":
        """Fit on the training partition's (N, W) inputs and (N,) targets."""
        if kind not in SCALING_KINDS:
            raise TrainingError(f"unknown scaling kind {kind!r}")
        if kind == "none":
            return cls(kind=kind, shift=0.0, scale=1.0)
        pool = np.concatenate([inputs.ravel(), targets])
        if kind == "minmax":
            lo, hi = float(pool.min()), float(pool.max())
            return cls(kind=kind, shift=lo, scale=(hi - lo) or 1.0)
        mean, std = float(pool.mean()), float(pool.std())
        return cls(kind=kind, shift=mean, scale=std or 1.0)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale + self.shift


class LstmModel:
    """Single-layer LSTM with H hidden units and a scalar dense head.

    All parameters live in one float64 vector `theta`: the stacked gate
    matrix (4H, 1+H) with row blocks (i, f, o, g), then the stacked gate
    bias (4H,), the head weights (H,) and the head bias (1,). `unpack`
    gives named views into it.
    """

    def __init__(self, hidden_size: int, theta: np.ndarray | None = None):
        if hidden_size < 1:
            raise TrainingError(f"hidden_size must be >= 1, got {hidden_size}")
        self.hidden_size = hidden_size
        size = 4 * hidden_size * (1 + hidden_size) + 5 * hidden_size + 1
        self.theta = np.zeros(size) if theta is None else np.asarray(theta, dtype=float)
        if self.theta.shape != (size,):
            raise TrainingError(
                f"theta has shape {self.theta.shape}, expected ({size},) for "
                f"hidden_size {hidden_size}"
            )

    @classmethod
    def initialize(cls, hidden_size: int, rng: np.random.Generator) -> "LstmModel":
        """Uniform(-k, k) weights with k = 1/sqrt(H); zero biases except the
        forget-gate bias, which starts at 1 for gradient stability. Weights
        are drawn gate by gate in the order (i, f, g, o), not the row order,
        then the head; seeded results depend on this draw order."""
        h = hidden_size
        model = cls(h)  # validates h before k divides by it
        k = 1.0 / np.sqrt(h)
        views = unpack(model.theta, h)
        for gate in "ifgo":
            views[f"w_{gate}"][:] = rng.uniform(-k, k, size=(h, 1 + h))
        views["b_f"][:] = 1.0
        views["w_out"][:] = rng.uniform(-k, k, size=h)
        return model

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Predict a scalar per row of a (batch, W) input matrix."""
        x = np.atleast_2d(np.asarray(inputs, float))
        y, _ = _forward(self.theta[None], x[None], self.hidden_size, False)
        if not np.all(np.isfinite(y)):
            raise TrainingError("non-finite value in forward pass")
        return y[0]


def _blocks(vec: np.ndarray, hidden_size: int):
    """(gate matrix, gate bias, head weights, head bias) views of a vector in
    the parameter layout, or of each row of a stack of such vectors (any
    leading axes). The gate rows are stacked (i, f, o, g) so the hot loop
    does one matmul and one tanh call per step for all four gates."""
    h = hidden_size
    nw = 4 * h * (1 + h)
    return (
        vec[..., :nw].reshape(*vec.shape[:-1], 4 * h, 1 + h),
        vec[..., nw : nw + 4 * h],
        vec[..., nw + 4 * h : nw + 5 * h],
        vec[..., nw + 5 * h :],
    )


def unpack(vec: np.ndarray, hidden_size: int) -> dict[str, np.ndarray]:
    """Named views (w_i, w_f, w_o, w_g, b_i, b_f, b_o, b_g, w_out, b_out) into
    a parameter or gradient vector, or into each row of a stack of them;
    writing to a view writes to `vec`."""
    h = hidden_size
    w, b, w_out, b_out = _blocks(vec, h)
    views = {}
    for k, gate in enumerate("ifog"):
        views[f"w_{gate}"] = w[..., k * h : (k + 1) * h, :]
        views[f"b_{gate}"] = b[..., k * h : (k + 1) * h]
    views["w_out"] = w_out
    views["b_out"] = b_out
    return views


_scratch = threading.local()

# Most pairs a forward-only pass puts through the kernel at once.
FORWARD_CHUNK = 512


def _scratch_arrays(name: str, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Contiguous float64 arrays of the given shapes, carved one after the
    other from a flat buffer `name` that this thread keeps from call to
    call (grown when too small). Fresh buffers of a few MB on every kernel
    call are handed back to the OS when freed and page-faulted in again on
    the next call, which costs as much as the arithmetic. The arrays hold
    whatever the last call left there."""
    sizes = [math.prod(shape) for shape in shapes]
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = {}
    buf = _scratch.buffers.get(name)
    if buf is None or buf.size < sum(sizes):
        buf = _scratch.buffers[name] = None  # free the old buffer before allocating
        buf = _scratch.buffers[name] = np.empty(sum(sizes))
    out, pos = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(buf[pos : pos + size].reshape(shape))
        pos += size
    return out


@functools.cache
def _per_gate_exact(batch: int, hidden_size: int) -> bool:
    """Whether the four per-gate products (B, 2+H) @ (2+H, H) give what the
    joint product (B, 2+H) @ (2+H, 4H) gives, bit for bit, on this BLAS.
    The BLAS picks its kernel by shape, and kernels may sum the 2+H terms
    in different orders (numpy itself hands a product with an axis of
    length 1 to gemv or dot, not gemm), so this is tried once per shape, on
    normal draws in as many stacked products as it takes to compare 4,096
    entries, enough that a change of order shows."""
    k, n = 2 + hidden_size, 4 * hidden_size
    reps = -(-4096 // (batch * n))
    rng = default_rng(0)
    z = rng.normal(size=(reps, batch, k))
    w = rng.normal(size=(reps, k, n))
    w_gates = np.ascontiguousarray(w.reshape(reps, k, 4, hidden_size).transpose(2, 0, 1, 3))
    per_gate = np.matmul(z[None], w_gates).transpose(1, 2, 0, 3).reshape(reps, batch, n)
    return bool(np.array_equal(np.matmul(z, w), per_gate))


def _forward(theta: np.ndarray, x: np.ndarray, hidden_size: int, bptt: bool):
    """Forward pass of M models at once: `theta` (M, P) and `x` (M, B, W)
    give predictions (M, B). Every product is a stacked matmul, which makes
    the same GEMM calls per model as a 2-D `@` on that model alone, so a
    model's numbers do not depend on which others share the call.

    Step t keeps its activations in one block of five (M, B, H) slots
    (i, f, o, g, c_{t-1}). z_t = [1, x_t, h_{t-1}] (M, B, 2+H) is multiplied
    by the gate matrix with the bias as its first row, so the bias add is in
    the GEMM, and one tanh covers the four gate slots: sigmoid(a) = 0.5 +
    0.5 tanh(a/2), with the halving folded into the i/f/o columns (exact, a
    power of two). Where `_per_gate_exact` allows, one broadcast matmul with
    the per-gate matrices (4, M, 2+H, H) writes the gates straight into
    their slots and tanh runs in place; elsewhere the joint (M, B, 4H)
    product goes into the next block's spent gate slots and tanh reads it
    gate-major from there. One multiply of the (i, f) slots by the
    (g, c_{t-1}) slots writes i g and f c_{t-1} into the next block's
    (g, c) slots, and one add leaves c_t in its c slot.

    With `bptt` each step keeps its own z and block for the backward pass,
    W+1 of each, and tanh(c_t) in W cache slots: z (M, W+1, B, 2+H), blocks
    (W+1, 5, M, B, H), tanh(c) (W, M, B, H); x goes into z once, before the
    loop. These come back with h_W, as scratch arrays that a later call may
    overwrite. The last block's four gate slots hold nothing the backward
    pass reads, so it lays out its gate derivatives there.

    Without `bptt` (None comes back in place of the caches) two z slots and
    two blocks are used in turn, x_t goes into z at its step and tanh(c_t)
    into the next block's spent g slot, and the batch axis runs in chunks
    of at most FORWARD_CHUNK pairs, so the scratch grows with neither W nor
    the size of a validation or test set. A pair's prediction does not
    depend on the other pairs, but its last bits may depend on the batch
    size the GEMMs see, so a batch of more than FORWARD_CHUNK pairs matches
    the unchunked pass to rtol 1e-12 (with an absolute floor of 1e-12 times
    the largest prediction), not bit for bit."""
    models, batch, steps = x.shape
    hs = hidden_size
    if not bptt and batch > FORWARD_CHUNK:
        y = np.empty((models, batch))
        for lo in range(0, batch, FORWARD_CHUNK):
            part = slice(lo, lo + FORWARD_CHUNK)
            y[:, part] = _forward(theta, x[:, part], hs, False)[0]
        return y, None
    slots = steps + 1 if bptt else 2
    w, b, w_out, b_out = _blocks(theta, hs)
    z, blocks, tanh_c = _scratch_arrays(
        "forward",
        (models, slots, batch, 2 + hs),
        (slots, 5, models, batch, hs),
        (steps if bptt else 0, models, batch, hs),
    )
    w_gates = np.empty((4, models, 2 + hs, hs))
    w_gates[:, :, 0] = b.reshape(models, 4, hs).transpose(1, 0, 2)
    w_gates[:, :, 1:] = w.reshape(models, 4, hs, 1 + hs).transpose(1, 0, 3, 2)
    w_gates[:3] *= 0.5
    w_joint = None
    if not _per_gate_exact(batch, hs):
        w_joint = np.ascontiguousarray(w_gates.transpose(1, 2, 0, 3)).reshape(
            models, 2 + hs, 4 * hs)
    z[..., 0] = 1.0
    z[:, 0, :, 2:] = 0.0
    blocks[0, 4] = 0.0
    z_x, x_t = z[..., 1], x.transpose(2, 0, 1)
    if bptt:
        z_x[:, :steps] = x.transpose(0, 2, 1)
    for t in range(steps):
        now, later = t % slots, (t + 1) % slots
        block, nxt = blocks[now], blocks[later]
        if not bptt:
            z_x[:, now] = x_t[t]
        gates, sig = block[:4], block[:3]
        if w_joint is None:
            np.matmul(z[None, :, now], w_gates, out=gates)
            np.tanh(gates, out=gates)
        else:
            pre = nxt[:4].reshape(models, batch, 4 * hs)
            np.matmul(z[:, now], w_joint, out=pre)
            np.tanh(pre.reshape(models, batch, 4, hs).transpose(2, 0, 1, 3), out=gates)
        sig *= 0.5
        sig += 0.5
        np.multiply(block[0:2], block[3:5], out=nxt[3:5])
        np.add(nxt[3], nxt[4], out=nxt[4])
        tc = tanh_c[t] if bptt else nxt[3]
        np.tanh(nxt[4], out=tc)
        np.multiply(block[2], tc, out=z[:, later, :, 2:])
    h = z[:, steps % slots, :, 2:]
    y = (h @ w_out[:, :, None])[..., 0] + b_out
    return y, (((z, blocks, tanh_c), h) if bptt else None)


def loss_and_gradients(
    theta: np.ndarray, x: np.ndarray, targets: np.ndarray, hidden_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-mean MSE of each of M models and its analytic gradient:
    `theta` (M, P), `x` (M, B, W) and `targets` (M, B) give losses (M,) and
    gradients (M, P), each row in the parameter layout.

    Each step forms its gate derivatives gate-major in a per-step scratch
    buffer, reading the forward pass's block and tanh(c_t) cache, then lays
    them out once as rows (M, B, 4H) for two GEMMs: with z_t it adds the
    step's gate matrix and bias gradients (the bias is z's first column),
    and with the recurrent weights it gives dh_{t-1} (skipped at t = 0)."""
    models, batch, steps = x.shape
    hs = hidden_size
    y, ((z, blocks, tanh_c), h_last) = _forward(theta, x, hs, True)
    resid = y - targets
    loss = np.mean(resid**2, axis=1)

    w, _, w_out, _ = _blocks(theta, hs)
    w_h = w[..., 1:]
    grad = np.zeros_like(theta)
    dw, db, dw_out, db_out = _blocks(grad, hs)
    dy = 2.0 * resid / batch
    dw_out[:] = (h_last.transpose(0, 2, 1) @ dy[:, :, None])[..., 0]
    db_out[:, 0] = dy.sum(axis=1)
    dw_aug, dw_step, da, dh, dc = _scratch_arrays(
        "backward",
        (models, 4 * hs, 2 + hs),
        (models, 4 * hs, 2 + hs),
        (4, models, batch, hs),
        *[(models, batch, hs)] * 2,
    )
    # `rows`, the (M, B, 4H) layout of a step's gate derivatives, is the
    # last block's gate slots, which the forward pass leaves unused.
    rows = blocks[steps, :4].reshape(models, batch, 4 * hs)
    np.multiply(dy[:, :, None], w_out[:, None, :], out=dh)
    dc[...] = 0.0
    dw_aug[...] = 0.0
    rows_gm = rows.reshape(models, batch, 4, hs).transpose(2, 0, 1, 3)
    for t in range(steps - 1, -1, -1):
        block, tc = blocks[t], tanh_c[t]
        sig = block[:3]
        i, f, o, g, _ = block
        # da[:3] = s - s^2 for i, f, o and da[3] = (1 - tanh(c_t)^2) o; then
        # o's times dh tanh(c_t), and dc += da[3] dh
        np.multiply(sig, sig, out=da[:3])
        np.subtract(sig, da[:3], out=da[:3])
        np.multiply(tc, tc, out=da[3])
        np.subtract(1.0, da[3], out=da[3])
        da[3] *= o
        da[2:4] *= dh
        da[2] *= tc
        dc += da[3]
        # i, f: times dc, then g and c_{t-1}
        da[0:2] *= dc
        da[0:2] *= block[3:5]
        # g: (1 - g^2) dc i
        np.multiply(g, g, out=da[3])
        np.subtract(1.0, da[3], out=da[3])
        da[3] *= dc
        da[3] *= i
        np.copyto(rows_gm, da)
        np.matmul(rows.transpose(0, 2, 1), z[:, t], out=dw_step)
        dw_aug += dw_step
        if t:
            np.matmul(rows, w_h, out=dh)
            dc *= f
    db[:] = dw_aug[..., 0]
    dw[:] = dw_aug[..., 1:]
    return loss, grad


class _Adam:
    """Adam with the usual bias-corrected first/second moments, for a stack
    of M models that may step at different times: each row of the (M, P)
    moments belongs to one model, and each model counts its own steps."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shape: tuple[int, int], lr: float):
        self.lr = lr
        self.t = np.zeros(shape[0], dtype=np.int64)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, theta: np.ndarray, grad: np.ndarray, rows) -> None:
        """Update the models `rows` (an index into the first axis) of the
        (M, P) stack `theta` in place with their gradients `grad`."""
        self.t[rows] += 1
        # Python floats, not np.power: the two differ in the last bit for
        # some t, and a model's numbers must not depend on the stacking.
        steps = self.t[rows].tolist()
        c1 = np.array([1.0 - self.beta1**t for t in steps])[:, None]
        c2 = np.array([1.0 - self.beta2**t for t in steps])[:, None]
        # m = beta1 m + (1 - beta1) grad, v = beta2 v + (1 - beta2) grad^2
        # and theta -= lr (m / c1) / (sqrt(v / c2) + eps), op for op, but in
        # place: fresh (M, P) temporaries on every step were trimmed off the
        # heap when freed and page-faulted in again on the next step. The
        # two work arrays borrow the backward pass's scratch, which holds
        # nothing between kernel calls.
        m, v = self.m[rows], self.v[rows]  # views for a slice, copies for an index
        a, b = _scratch_arrays("backward", grad.shape, grad.shape)
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        if not isinstance(rows, slice):
            self.m[rows] = m
            self.v[rows] = v
        np.divide(m, c1, out=a)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        theta[rows] -= a


@dataclass(frozen=True)
class TrainConfig(Record):
    """Hyperparameters for one training run."""

    epochs: int
    learning_rate: float = 0.001
    batch_size: int = 32
    early_stopping: bool = False
    patience: int = 10
    scaling: str = "zscore"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        # `nan <= 0` is False, so a NaN would pass a bare sign test.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.scaling not in SCALING_KINDS:
            raise TrainingError(f"unknown scaling kind {self.scaling!r}")
        if self.early_stopping:
            if self.patience < 1:
                raise TrainingError("patience must be >= 1")
            if self.patience >= self.epochs:
                raise TrainingError(
                    f"patience ({self.patience}) must be < epochs ({self.epochs}) "
                    "when early stopping is on"
                )


@dataclass(frozen=True, eq=False)
class TrainOutcome:
    """Trained model + scaler and the per-epoch loss record.

    optimal_epoch is the epoch (1-based) of the best monitored loss:
    validation MSE when a validation set exists, training MSE when early
    stopping runs without one, and simply the last epoch when nothing is
    monitored.
    """

    model: LstmModel
    scaler: Scaler
    train_loss_history: tuple[float, ...]
    val_loss_history: Optional[tuple[float, ...]]
    optimal_epoch: int
    last_epoch: int


Job = tuple[SequenceSet, Optional[SequenceSet], Optional[int]]


class _JobState:
    """What one model of `train_many` keeps for itself: its sets (starts
    over a shared buffer, no window matrices), its scaler, its RNG, its loss
    histories and its early-stopping state. `base` and `val_base` are where
    its scaled training and validation buffers begin in `train_many`'s flat
    array."""

    def __init__(
        self,
        index: int,
        train_set: SequenceSet,
        val_set: Optional[SequenceSet],
        seed: Optional[int],
        cfg: TrainConfig,
        hidden_size: int,
    ):
        if len(train_set) == 0:
            raise TrainingError("empty training set")
        if cfg.early_stopping and val_set is not None and len(val_set) == 0:
            raise TrainingError("early stopping requires a non-empty monitor set")
        self.index = index
        self.train_set, self.val_set = train_set, val_set
        self.n = len(train_set)
        self.scaler = Scaler.fit(cfg.scaling, train_set.inputs(), train_set.targets())
        self.base = self.val_base = 0  # set by _flat_buffers
        self.rng = default_rng(seed)
        self.initial_theta = LstmModel.initialize(hidden_size, self.rng).theta
        self.train_hist: list[float] = []
        self.val_hist: list[float] = []
        self.best_monitor = np.inf
        self.best_epoch = 0
        self.best_theta: np.ndarray | None = None
        self.wait = 0
        self.last_epoch = 0

    def end_epoch(self, epoch: int, monitor: float, theta: np.ndarray, cfg: TrainConfig) -> bool:
        """Record the epoch's monitored loss; True when early stopping halts
        this model."""
        self.last_epoch = epoch
        if monitor < self.best_monitor:
            self.best_monitor = monitor
            self.best_epoch = epoch
            self.wait = 0
            if cfg.early_stopping:
                self.best_theta = theta.copy()
            return False
        self.wait += 1
        return cfg.early_stopping and self.wait >= cfg.patience

    def outcome(self, theta: np.ndarray, cfg: TrainConfig, hidden_size: int) -> TrainOutcome:
        restore = cfg.early_stopping and self.best_theta is not None
        monitored = self.val_set is not None or cfg.early_stopping
        return TrainOutcome(
            model=LstmModel(hidden_size, self.best_theta if restore else theta.copy()),
            scaler=self.scaler,
            train_loss_history=tuple(self.train_hist),
            val_loss_history=tuple(self.val_hist) if self.val_set is not None else None,
            optimal_epoch=self.best_epoch if monitored else self.last_epoch,
            last_epoch=self.last_epoch,
        )


def _groups(sizes: dict[int, int]) -> list[tuple[np.ndarray, int]]:
    """Rows grouped by size: (row indices, size) per distinct size."""
    by_size: dict[int, list[int]] = {}
    for row, size in sizes.items():
        by_size.setdefault(size, []).append(row)
    return [(np.array(rows), size) for size, rows in by_size.items()]


def _flat_buffers(live: list[_JobState]) -> np.ndarray:
    """Every job's scaler-transformed series buffer, end to end in one
    array, with each job's `base` and `val_base` set to where its own begin.
    A validation set over the training set's buffer (the same memory, as
    the folds of one split are) reads the training copy."""
    pieces, pos = [], 0
    for job in live:
        job.base = job.val_base = pos
        pieces.append(job.scaler.transform(job.train_set.values))
        pos += pieces[-1].size
        val = job.val_set
        if val is not None and (val.values.__array_interface__
                                != job.train_set.values.__array_interface__):
            job.val_base = pos
            pieces.append(job.scaler.transform(val.values))
            pos += pieces[-1].size
    return np.concatenate(pieces) if pieces else np.zeros(0)


def train_many(
    jobs: Sequence[Job], cfg: TrainConfig, hidden_size: int
) -> list[TrainOutcome | TrainingError]:
    """Train one model per job (train_set, val_set, seed) in lockstep, as one
    stacked batch with a leading model axis, and return each job's outcome,
    or the TrainingError that failed it, in job order.

    A job's scaler is fitted on its training partition only and applied to
    all its partitions. With early stopping on, the monitor is the
    validation MSE when `val_set` is given and the epoch training MSE
    otherwise; training halts after `patience` epochs without improvement
    and the best-epoch weights are restored. Fully deterministic for a
    fixed seed; None draws fresh entropy.

    Each model gets bit for bit what its job trained alone (M = 1) gets: its
    own scaler, RNG (the init draw, then one permutation per epoch), loss
    histories and early stopping. At each step the running models are
    grouped by batch size (training sets of different sizes end an epoch
    with ragged batches) and each group is one stacked call; zero-padding
    them instead would change the order of the sums. A model that stops
    early or diverges leaves the stack, so one failing job leaves the
    others' outcomes as they would be without it.

    No job's windows are materialised: each job's series buffer is scaled
    once into one flat array, an epoch's shuffled starts become positions
    in it, and each stacked step (and each validation pass) gathers its
    batch from it by raw index. A scaled value is the same float either
    way, so the outcomes are those of scaling the window matrices.
    """
    failed: dict[int, TrainingError] = {}
    live: list[_JobState] = []
    for index, (train_set, val_set, seed) in enumerate(jobs):
        try:
            live.append(_JobState(index, train_set, val_set, seed, cfg, hidden_size))
        except TrainingError as exc:
            failed[index] = exc
    widths = {
        seqs.config.window_size
        for job in live for seqs in (job.train_set, job.val_set) if seqs is not None
    }
    if len(widths) > 1:
        raise TrainingError("train_many jobs must share one window size")

    count = len(live)
    theta = np.array([job.initial_theta for job in live])
    adam = _Adam(theta.shape, cfg.learning_rate)
    running = list(range(count))
    flat = _flat_buffers(live)
    window = widths.pop() if widths else 0
    offsets = np.array([[job.train_set.config.target_offset] for job in live], dtype=np.int64)
    # Each epoch's shuffled window starts of every running model, one row
    # each, as positions in `flat`.
    order_pos = np.empty((count, max((job.n for job in live), default=0)), dtype=np.int64)
    for epoch in range(1, cfg.epochs + 1):
        if not running:
            break
        longest = max(live[r].n for r in running)
        for r in running:
            job = live[r]
            order = job.rng.permutation(job.n)
            order_pos[r, : job.n] = job.base + job.train_set.starts[order]
        sq_sums = [0.0] * count
        for start in range(0, longest, cfg.batch_size):
            sizes = {
                r: min(cfg.batch_size, live[r].n - start) for r in running if live[r].n > start
            }
            for rows, size in _groups(sizes):
                sel = slice(None) if rows.size == count else rows
                pos = order_pos[sel, start : start + size]
                loss, grad = loss_and_gradients(
                    theta[sel], windows(flat, pos, window), flat[pos + offsets[sel]],
                    hidden_size,
                )
                finite = np.isfinite(loss)
                if not finite.all():
                    for r, value in zip(rows[~finite].tolist(), loss[~finite].tolist()):
                        failed[live[r].index] = TrainingError(
                            f"training diverged at epoch {epoch} (loss={value})"
                        )
                        running.remove(r)
                    rows, grad, loss = rows[finite], grad[finite], loss[finite]
                    sel = rows
                adam.step(theta, grad, sel)
                for r, value in zip(rows.tolist(), loss.tolist()):
                    sq_sums[r] += value * size

        monitors = {}
        for r in running:
            live[r].train_hist.append(sq_sums[r] / live[r].n)
            monitors[r] = live[r].train_hist[-1]
        val_sizes = {r: len(live[r].val_set) for r in running if live[r].val_set is not None}
        for rows, _ in _groups(val_sizes):
            vals = [live[r].val_set for r in rows]
            pos = np.stack([live[r].val_base + v.starts for r, v in zip(rows, vals)])
            target_pos = pos + np.array([[v.config.target_offset] for v in vals])
            preds, _ = _forward(theta[rows], windows(flat, pos, window), hidden_size, False)
            val_mses = np.mean((preds - flat[target_pos]) ** 2, axis=1)
            for r, val_mse in zip(rows.tolist(), val_mses.tolist()):
                if not np.isfinite(val_mse):
                    failed[live[r].index] = TrainingError(
                        f"validation loss diverged at epoch {epoch}"
                    )
                    running.remove(r)
                    del monitors[r]
                    continue
                live[r].val_hist.append(val_mse)
                monitors[r] = val_mse
        for r, monitor in monitors.items():
            if live[r].end_epoch(epoch, monitor, theta[r], cfg):
                running.remove(r)

    done = {
        job.index: job.outcome(theta[r], cfg, hidden_size)
        for r, job in enumerate(live)
        if job.index not in failed
    }
    return [failed[i] if i in failed else done[i] for i in range(len(jobs))]


def predict(model: LstmModel, scaler: Scaler, seqs: SequenceSet) -> np.ndarray:
    """One prediction per pair, inverse-scaled back to original units."""
    if len(seqs) == 0:
        return np.zeros(0)
    x = windows(scaler.transform(seqs.values), seqs.starts, seqs.config.window_size)
    return scaler.inverse_transform(model.forward(x))


GradFn = Callable[[np.ndarray, np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def gradient_check(model: LstmModel, batch: SequenceSet, grad_fn: GradFn | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter of the batch-MSE gradient with a step of 1e-5;
    the relative error denominator is max(|analytic|, |numeric|, 1e-8).
    Restricted to small models (H <= 8, W <= 6) to keep the finite
    differences well conditioned. `grad_fn` substitutes the analytic gradient (same
    signature and stacked shapes as `loss_and_gradients`; called with one
    model), which lets tests verify that a broken gradient is detected.
    """
    if model.hidden_size > 8:
        raise TrainingError("gradient_check requires hidden_size <= 8")
    if batch.config.window_size > 6:
        raise TrainingError("gradient_check requires window_size <= 6")
    if len(batch) == 0:
        raise TrainingError("gradient_check requires a non-empty batch")
    x = batch.inputs()[None]
    y = batch.targets()[None]
    h = model.hidden_size
    fn = grad_fn if grad_fn is not None else loss_and_gradients
    _, grad = fn(model.theta[None], x, y, h)

    theta = model.theta
    epsilon = 1e-5
    max_rel = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + epsilon
        up, _ = _forward(theta[None], x, h, False)
        theta[idx] = orig - epsilon
        down, _ = _forward(theta[None], x, h, False)
        theta[idx] = orig
        numeric = (np.mean((up - y) ** 2) - np.mean((down - y) ** 2)) / (2 * epsilon)
        analytic = grad[0, idx]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel


def baseline_persistence(seqs: SequenceSet) -> np.ndarray:
    """Predict each target as the last observation of its input window."""
    if len(seqs) == 0:
        raise TrainingError("persistence baseline requires a non-empty set")
    return seqs.inputs()[:, -1].copy()


def baseline_linear_ar(train_set: SequenceSet, eval_set: SequenceSet) -> np.ndarray:
    """Least-squares linear autoregression of order W with intercept.

    Solves the normal equations directly; on a singular or numerically
    degenerate system, retries with an L2 penalty of 1e-8 on the
    non-intercept coefficients.
    """
    w = train_set.config.window_size
    if len(train_set) < w + 1:
        raise TrainingError(
            f"insufficient training pairs: need >= {w + 1}, have {len(train_set)}"
        )
    x = np.hstack([np.ones((len(train_set), 1)), train_set.inputs()])
    y = train_set.targets()
    xtx = x.T @ x
    xty = x.T @ y
    beta = None
    try:
        if np.linalg.cond(xtx) < 1e12:
            beta = np.linalg.solve(xtx, xty)
    except np.linalg.LinAlgError:
        beta = None
    if beta is None or not np.all(np.isfinite(beta)):
        penalty = np.eye(w + 1) * 1e-8
        penalty[0, 0] = 0.0
        try:
            beta = np.linalg.solve(xtx + penalty, xty)
        except np.linalg.LinAlgError as exc:
            raise TrainingError(f"linear AR fit rank failure: {exc}") from exc
        if not np.all(np.isfinite(beta)):
            raise TrainingError("linear AR fit rank failure: non-finite solution")
    if len(eval_set) == 0:
        return np.zeros(0)
    x_eval = np.hstack([np.ones((len(eval_set), 1)), eval_set.inputs()])
    return x_eval @ beta
