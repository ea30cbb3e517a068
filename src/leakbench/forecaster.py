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

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.special import expit as sigmoid

from .errors import TrainingError
from .records import Record
from .windowing import SequenceSet

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
    def fit(cls, kind: str, train: SequenceSet) -> "Scaler":
        if kind not in SCALING_KINDS:
            raise TrainingError(f"unknown scaling kind {kind!r}")
        if kind == "none":
            return cls(kind=kind, shift=0.0, scale=1.0)
        pool = np.concatenate([train.inputs().ravel(), train.targets()])
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
        k = 1.0 / np.sqrt(h)
        model = cls(h)
        views = unpack(model.theta, h)
        for gate in "ifgo":
            views[f"w_{gate}"][:] = rng.uniform(-k, k, size=(h, 1 + h))
        views["b_f"][:] = 1.0
        views["w_out"][:] = rng.uniform(-k, k, size=h)
        return model

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Predict a scalar per row of a (batch, W) input matrix."""
        y, _ = _forward_cached(self, np.atleast_2d(np.asarray(inputs, float)))
        if not np.all(np.isfinite(y)):
            raise TrainingError("non-finite value in forward pass")
        return y


def _blocks(vec: np.ndarray, hidden_size: int):
    """(gate matrix, gate bias, head weights, head bias) views of a vector in
    the parameter layout. The gate rows are stacked (i, f, o, g) so the hot
    loop does one matmul per step, one sigmoid over the first three blocks
    and one tanh over the last."""
    h = hidden_size
    nw = 4 * h * (1 + h)
    return (
        vec[:nw].reshape(4 * h, 1 + h),
        vec[nw : nw + 4 * h],
        vec[nw + 4 * h : nw + 5 * h],
        vec[nw + 5 * h :],
    )


def unpack(vec: np.ndarray, hidden_size: int) -> dict[str, np.ndarray]:
    """Named views (w_i, w_f, w_o, w_g, b_i, b_f, b_o, b_g, w_out, b_out) into
    a parameter or gradient vector; writing to a view writes to `vec`."""
    h = hidden_size
    w, b, w_out, b_out = _blocks(vec, h)
    views = {}
    for k, gate in enumerate("ifog"):
        views[f"w_{gate}"] = w[k * h : (k + 1) * h]
        views[f"b_{gate}"] = b[k * h : (k + 1) * h]
    views["w_out"] = w_out
    views["b_out"] = b_out
    return views


def _forward_cached(model: LstmModel, x: np.ndarray):
    """Batched forward pass keeping per-step activations for BPTT."""
    batch, steps = x.shape
    h_size = model.hidden_size
    w, b, w_out, b_out = _blocks(model.theta, h_size)
    w_t = w.T
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    caches = []
    for t in range(steps):
        z = np.concatenate([x[:, t : t + 1], h], axis=1)
        pre = z @ w_t + b
        act = np.empty_like(pre)
        act[:, : 3 * h_size] = sigmoid(pre[:, : 3 * h_size])
        act[:, 3 * h_size :] = np.tanh(pre[:, 3 * h_size :])
        i = act[:, :h_size]
        f = act[:, h_size : 2 * h_size]
        o = act[:, 2 * h_size : 3 * h_size]
        g = act[:, 3 * h_size :]
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        caches.append((z, act, c_prev, tc))
    y = h @ w_out + b_out[0]
    return y, (caches, h)


def loss_and_gradients(
    model: LstmModel, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch-mean MSE and its analytic gradient, one vector in the layout
    of `model.theta`."""
    batch = x.shape[0]
    h_size = model.hidden_size
    y, (caches, h_last) = _forward_cached(model, x)
    resid = y - targets
    loss = float(np.mean(resid**2))

    w, _, w_out, _ = _blocks(model.theta, h_size)
    grad = np.zeros_like(model.theta)
    dw, db, dw_out, db_out = _blocks(grad, h_size)
    dy = 2.0 * resid / batch
    dw_out[:] = h_last.T @ dy
    db_out[0] = dy.sum()
    dh = np.outer(dy, w_out)
    dc = np.zeros_like(dh)
    da = np.empty((batch, 4 * h_size))
    for t in range(len(caches) - 1, -1, -1):
        z, act, c_prev, tc = caches[t]
        i = act[:, :h_size]
        f = act[:, h_size : 2 * h_size]
        o = act[:, 2 * h_size : 3 * h_size]
        g = act[:, 3 * h_size :]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc**2)
        da[:, :h_size] = (dc * g) * i * (1.0 - i)
        da[:, h_size : 2 * h_size] = (dc * c_prev) * f * (1.0 - f)
        da[:, 2 * h_size : 3 * h_size] = do * o * (1.0 - o)
        da[:, 3 * h_size :] = (dc * i) * (1.0 - g**2)
        dw += da.T @ z
        db += da.sum(axis=0)
        dz = da @ w
        dh = dz[:, 1:]
        dc = dc * f
    return loss, grad


class _Adam:
    """Adam with the usual bias-corrected first/second moments."""

    def __init__(
        self,
        size: int,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        theta -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


@dataclass(frozen=True)
class TrainConfig(Record):
    """Hyperparameters for one training run."""

    epochs: int
    learning_rate: float = 0.001
    batch_size: int = 32
    early_stopping: bool = False
    patience: int = 10
    seed: int | None = None
    scaling: str = "zscore"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
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


def train(
    train_set: SequenceSet,
    val_set: Optional[SequenceSet],
    cfg: TrainConfig,
    hidden_size: int = 64,
) -> TrainOutcome:
    """Mini-batch Adam on MSE over the (scaled) training pairs.

    The scaler is fitted on the training partition only and applied to all
    partitions. With early stopping on, the monitor is the validation MSE
    when `val_set` is given and the epoch training MSE otherwise; training
    halts after `patience` epochs without improvement and the best-epoch
    weights are restored. Fully deterministic for a fixed seed.
    """
    if len(train_set) == 0:
        raise TrainingError("empty training set")
    if cfg.early_stopping and val_set is not None and len(val_set) == 0:
        raise TrainingError("early stopping requires a non-empty monitor set")

    scaler = Scaler.fit(cfg.scaling, train_set)
    x_train = scaler.transform(train_set.inputs())
    y_train = scaler.transform(train_set.targets())
    x_val = y_val = None
    if val_set is not None:
        x_val = scaler.transform(val_set.inputs())
        y_val = scaler.transform(val_set.targets())

    rng = np.random.default_rng(cfg.seed)
    model = LstmModel.initialize(hidden_size, rng)
    adam = _Adam(model.theta.size, cfg.learning_rate)

    n = x_train.shape[0]
    train_hist: list[float] = []
    val_hist: list[float] = []
    monitor_hist: list[float] = []
    best_monitor = np.inf
    best_epoch = 0
    best_theta: np.ndarray | None = None
    wait = 0
    last_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = loss_and_gradients(model, x_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch} (loss={loss})")
            adam.step(model.theta, grad)
            sq_sum += loss * idx.shape[0]
        epoch_train_mse = sq_sum / n
        train_hist.append(epoch_train_mse)

        if x_val is not None:
            preds, _ = _forward_cached(model, x_val)
            val_mse = float(np.mean((preds - y_val) ** 2))
            if not np.isfinite(val_mse):
                raise TrainingError(f"validation loss diverged at epoch {epoch}")
            val_hist.append(val_mse)
            monitor = val_mse
        else:
            monitor = epoch_train_mse
        monitor_hist.append(monitor)
        last_epoch = epoch

        if monitor < best_monitor:
            best_monitor = monitor
            best_epoch = epoch
            wait = 0
            if cfg.early_stopping:
                best_theta = model.theta.copy()
        else:
            wait += 1
            if cfg.early_stopping and wait >= cfg.patience:
                break

    if cfg.early_stopping and best_theta is not None:
        model = LstmModel(hidden_size, best_theta)

    if val_set is not None or cfg.early_stopping:
        optimal_epoch = best_epoch
    else:
        optimal_epoch = last_epoch

    return TrainOutcome(
        model=model,
        scaler=scaler,
        train_loss_history=tuple(train_hist),
        val_loss_history=tuple(val_hist) if x_val is not None else None,
        optimal_epoch=optimal_epoch,
        last_epoch=last_epoch,
    )


def predict(model: LstmModel, scaler: Scaler, seqs: SequenceSet) -> np.ndarray:
    """One prediction per pair, inverse-scaled back to original units."""
    if len(seqs) == 0:
        return np.zeros(0)
    outputs = model.forward(scaler.transform(seqs.inputs()))
    return scaler.inverse_transform(outputs)


def write_loss_history(outcome: TrainOutcome, path) -> None:
    """Per-epoch loss record as CSV: epoch,train_mse[,val_mse]."""
    has_val = outcome.val_loss_history is not None
    lines = ["epoch,train_mse,val_mse" if has_val else "epoch,train_mse"]
    for i, train_mse in enumerate(outcome.train_loss_history, start=1):
        if has_val:
            lines.append(f"{i},{train_mse!r},{outcome.val_loss_history[i - 1]!r}")
        else:
            lines.append(f"{i},{train_mse!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


GradFn = Callable[[LstmModel, np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def gradient_check(
    model: LstmModel,
    batch: SequenceSet,
    epsilon: float = 1e-5,
    grad_fn: GradFn | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter of the batch-MSE gradient; the relative error
    denominator is max(|analytic|, |numeric|, 1e-8). Restricted to small
    models (H <= 8, W <= 6) to keep the finite differences well
    conditioned. `grad_fn` substitutes the analytic gradient, which lets
    tests verify that a broken gradient is detected.
    """
    if model.hidden_size > 8:
        raise TrainingError("gradient_check requires hidden_size <= 8")
    if batch.config.window_size > 6:
        raise TrainingError("gradient_check requires window_size <= 6")
    if len(batch) == 0:
        raise TrainingError("gradient_check requires a non-empty batch")
    x = batch.inputs()
    y = batch.targets()
    fn = grad_fn if grad_fn is not None else loss_and_gradients
    _, grad = fn(model, x, y)

    theta = model.theta
    max_rel = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + epsilon
        up, _ = _forward_cached(model, x)
        theta[idx] = orig - epsilon
        down, _ = _forward_cached(model, x)
        theta[idx] = orig
        numeric = (np.mean((up - y) ** 2) - np.mean((down - y) ** 2)) / (2 * epsilon)
        analytic = grad[idx]
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
