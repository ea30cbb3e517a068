from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench import forecaster
from leakbench.errors import TrainingError
from leakbench.forecaster import (
    LstmModel,
    _Adam,
    _blocks,
    _forward,
    Scaler,
    TrainConfig,
    baseline_linear_ar,
    baseline_persistence,
    gradient_check,
    loss_and_gradients,
    predict,
    train_many,
    unpack,
)
from leakbench.splitting import SplitPlan, SplitSpec, split
from leakbench.windowing import SequenceSet, WindowConfig, make_sequences

from conftest import make_series

# Persistence RMSE on the reference clean 2-way test split (W=10, L=1);
# deterministic, so recorded once as a regression fixture.
PERSISTENCE_FIXTURE = 1.4390452156219489


HAND_WEIGHTS = {
    "w_i": [[0.5, -0.25]],
    "w_f": [[0.3, 0.2]],
    "w_g": [[-0.4, 0.6]],
    "w_o": [[0.7, -0.1]],
    "b_i": [0.1],
    "b_f": [0.0],
    "b_g": [-0.2],
    "b_o": [0.05],
    "w_out": [1.5],
    "b_out": [-0.3],
}


def hand_weights_model() -> LstmModel:
    model = LstmModel(1)
    views = unpack(model.theta, 1)
    for key, value in HAND_WEIGHTS.items():
        views[key][...] = value
    return model


def hand_unrolled_reference(x: list[float]) -> float:
    """Scalar re-implementation of the two-step recurrence, kept independent
    of the vectorized code under test."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = c = 0.0
    for xt in x:
        i = sig(0.5 * xt + -0.25 * h + 0.1)
        f = sig(0.3 * xt + 0.2 * h + 0.0)
        g = math.tanh(-0.4 * xt + 0.6 * h + -0.2)
        o = sig(0.7 * xt + -0.1 * h + 0.05)
        c = f * c + i * g
        h = o * math.tanh(c)
    return 1.5 * h + -0.3


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = LstmModel(3)
        assert model.forward([[1.0, -2.0, 0.5]])[0] == 0.0

    def test_hand_unrolled_two_step(self):
        model = hand_weights_model()
        x = [1.0, -1.0]
        assert model.forward([x])[0] == pytest.approx(
            hand_unrolled_reference(x), abs=1e-12
        )

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(7)
        model = LstmModel.initialize(6, rng)
        x = rng.normal(size=4)
        assert model.forward([x])[0] == model.forward([x])[0]

    def test_non_finite_intermediate_detected(self):
        model = hand_weights_model()
        broken = hand_weights_model()
        unpack(broken.theta, 1)["w_out"][0] = np.inf
        with pytest.raises(TrainingError, match="non-finite"):
            broken.forward(np.array([[1.0, -1.0]]))
        # saturating gates keep extreme but finite inputs finite
        assert math.isfinite(model.forward([[1e6, -1e6]])[0])

    def test_initialize_shapes_and_forget_bias(self):
        model = LstmModel.initialize(5, np.random.default_rng(0))
        params = unpack(model.theta, 5)
        assert params["w_i"].shape == (5, 6)
        np.testing.assert_array_equal(params["b_f"], np.ones(5))
        np.testing.assert_array_equal(params["b_i"], np.zeros(5))
        k = 1.0 / math.sqrt(5)
        for gate in ("w_i", "w_f", "w_g", "w_o"):
            assert np.all(np.abs(params[gate]) <= k)

    def test_initialize_draws_gates_in_order_i_f_g_o(self):
        h, k = 3, 1.0 / math.sqrt(3)
        params = unpack(LstmModel.initialize(h, np.random.default_rng(4)).theta, h)
        ref = np.random.default_rng(4)
        for gate in ("w_i", "w_f", "w_g", "w_o"):
            np.testing.assert_array_equal(params[gate], ref.uniform(-k, k, size=(h, 1 + h)))
        np.testing.assert_array_equal(params["w_out"], ref.uniform(-k, k, size=h))


class TestParameterLayout:
    def test_views_alias_theta_and_tile_it(self):
        model = LstmModel(3)
        views = unpack(model.theta, 3)
        for n, view in enumerate(views.values(), start=1):
            view[...] = n
        # every entry of theta was written through exactly one view
        counts = np.bincount(model.theta.astype(int), minlength=len(views) + 1)
        assert counts.tolist() == [0] + [v.size for v in views.values()]

    @pytest.mark.filterwarnings("error")
    def test_initialize_rejects_hidden_size_below_one_before_dividing(self):
        # Before, 1/sqrt(0) warned of a division by zero first.
        with pytest.raises(TrainingError, match="hidden_size must be >= 1, got 0"):
            LstmModel.initialize(0, np.random.default_rng(0))

    def test_block_order(self):
        # H=2: each gate block is 2 rows of 1+H=3 entries, stacked (i, f, o, g)
        views = unpack(np.arange(float(LstmModel(2).theta.size)), 2)
        assert {key: view.flat[0] for key, view in views.items()} == {
            "w_i": 0, "w_f": 6, "w_o": 12, "w_g": 18,
            "b_i": 24, "b_f": 26, "b_o": 28, "b_g": 30,
            "w_out": 32, "b_out": 34,
        }

    def test_views_of_a_stack_alias_each_row(self):
        stack = np.zeros((3, LstmModel(2).theta.size))
        views = unpack(stack, 2)
        assert views["w_i"].shape == (3, 2, 3) and views["b_out"].shape == (3, 1)
        views["w_f"][1] = 1.0
        np.testing.assert_array_equal(unpack(stack[1], 2)["w_f"], np.ones((2, 3)))
        assert not stack[0].any() and not stack[2].any()

    def test_wrong_length_rejected(self):
        with pytest.raises(TrainingError, match="theta has shape"):
            LstmModel(2, np.zeros(5))


def _sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def oracle_loss_and_gradient(theta, x, targets, h):
    """Batch-mean MSE of one model and its gradient, one sample and one
    scalar at a time with math.exp and math.tanh. It reads the parameter
    layout by index arithmetic, (4H, 1+H) gate rows (i, f, o, g), the gate
    bias, w_out, b_out, and shares no code with the vectorized kernel."""
    theta = [float(v) for v in theta]
    rows = 4 * h
    nw = rows * (1 + h)
    wm = [theta[r * (1 + h) : (r + 1) * (1 + h)] for r in range(rows)]
    bias = theta[nw : nw + rows]
    w_out = theta[nw + rows : nw + rows + h]
    b_out = theta[nw + rows + h]
    grad = [0.0] * len(theta)
    batch = len(x)
    loss = 0.0
    preds = []
    for seq, target in zip(x, targets):
        hs, cs, steps = [[0.0] * h], [[0.0] * h], []
        for xt in seq:
            z = [float(xt)] + hs[-1]
            a = [bias[r] + sum(wm[r][k] * z[k] for k in range(1 + h)) for r in range(rows)]
            i = [_sigmoid(v) for v in a[:h]]
            f = [_sigmoid(v) for v in a[h : 2 * h]]
            o = [_sigmoid(v) for v in a[2 * h : 3 * h]]
            g = [math.tanh(v) for v in a[3 * h :]]
            c = [f[j] * cs[-1][j] + i[j] * g[j] for j in range(h)]
            tc = [math.tanh(v) for v in c]
            steps.append((z, i, f, o, g, tc))
            cs.append(c)
            hs.append([o[j] * tc[j] for j in range(h)])
        y = sum(w_out[j] * hs[-1][j] for j in range(h)) + b_out
        preds.append(y)
        loss += (y - target) ** 2 / batch
        dy = 2.0 * (y - target) / batch
        for j in range(h):
            grad[nw + rows + j] += dy * hs[-1][j]
        grad[nw + rows + h] += dy
        dh = [dy * w_out[j] for j in range(h)]
        dc = [0.0] * h
        for t in range(len(seq) - 1, -1, -1):
            z, i, f, o, g, tc = steps[t]
            da = [0.0] * rows
            for j in range(h):
                dc[j] += dh[j] * o[j] * (1.0 - tc[j] ** 2)
                da[j] = dc[j] * g[j] * i[j] * (1.0 - i[j])
                da[h + j] = dc[j] * cs[t][j] * f[j] * (1.0 - f[j])
                da[2 * h + j] = dh[j] * tc[j] * o[j] * (1.0 - o[j])
                da[3 * h + j] = dc[j] * i[j] * (1.0 - g[j] ** 2)
            for r in range(rows):
                for k in range(1 + h):
                    grad[r * (1 + h) + k] += da[r] * z[k]
                grad[nw + r] += da[r]
            dh = [sum(da[r] * wm[r][1 + j] for r in range(rows)) for j in range(h)]
            dc = [dc[j] * f[j] for j in range(h)]
    return loss, np.array(grad), np.array(preds)


ORACLE_RTOL = 1e-12


def random_stack(seed, models, batch, steps, h):
    """Initialized models with perturbed biases, inputs and targets."""
    rng = np.random.default_rng(seed)
    theta = np.stack([LstmModel.initialize(h, rng).theta for _ in range(models)])
    theta += rng.normal(scale=0.3, size=theta.shape)
    return theta, rng.normal(size=(models, batch, steps)), rng.normal(size=(models, batch))


def assert_matches_oracle(theta, x, targets, h):
    loss, grad = loss_and_gradients(theta, x, targets, h)
    for m in range(theta.shape[0]):
        want_loss, want_grad, want_preds = oracle_loss_and_gradient(theta[m], x[m], targets[m], h)
        assert loss[m] == pytest.approx(want_loss, rel=ORACLE_RTOL)
        # An entry that sums terms of both signs may cancel to far below the
        # others, so the absolute floor is the tolerance times the largest.
        np.testing.assert_allclose(
            grad[m], want_grad, rtol=ORACLE_RTOL,
            atol=ORACLE_RTOL * np.abs(want_grad).max(),
        )
        np.testing.assert_allclose(
            LstmModel(h, theta[m]).forward(x[m]), want_preds, rtol=ORACLE_RTOL,
            atol=ORACLE_RTOL * np.abs(want_preds).max(),
        )


class TestKernelOracle:
    """The stacked kernel against a per-sample scalar LSTM, and each row of
    a stacked call against the same model alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        models=st.integers(1, 3),
        batch=st.integers(1, 9),
        steps=st.integers(1, 6),
        h=st.integers(1, 6),
    )
    def test_matches_scalar_oracle(self, seed, models, batch, steps, h):
        assert_matches_oracle(*random_stack(seed, models, batch, steps, h), h)

    def test_matches_scalar_oracle_at_benchmark_shape(self):
        # kfold-lstm: 10 folds, batch 32, W = 10, H = 16
        assert_matches_oracle(*random_stack(2024, 10, 32, 10, 16), 16)

    @pytest.mark.parametrize("h", [1, 3, 5, 16])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_each_row_of_a_stack_equals_the_model_alone(self, h, batch):
        theta, x, targets = random_stack(h * 100 + batch, 5, batch, 6, h)
        loss, grad = loss_and_gradients(theta, x, targets, h)
        for m in range(5):
            alone_loss, alone_grad = loss_and_gradients(
                theta[m : m + 1], x[m : m + 1], targets[m : m + 1], h
            )
            assert np.array_equal(loss[m], alone_loss[0])
            assert np.array_equal(grad[m], alone_grad[0])
            assert np.array_equal(
                LstmModel(h, theta[m]).forward(x[m]), _forward(theta, x, h, False)[0][m]
            )

    @pytest.mark.parametrize("models", [1, 5])
    @pytest.mark.parametrize("steps", [1, 2, 10])
    def test_forward_only_equals_the_bptt_forward(self, models, steps):
        theta, x, _ = random_stack(models * 10 + steps, models, 7, steps, 4)
        bptt, _ = _forward(theta, x, 4, True)
        bptt = bptt.copy()  # both calls may share one scratch buffer
        assert np.array_equal(_forward(theta, x, 4, False)[0], bptt)


# The tolerance of a forward-only pass of more than FORWARD_CHUNK pairs
# against the same pass unchunked, with the absolute floor of the oracle
# test for predictions near zero.
FORWARD_CHUNK_RTOL = 1e-12


def reference_forward(theta, x, hidden_size, bptt):
    """The forward pass as it was before the per-gate block layout, frozen
    here as the reference the kernel must match bit for bit: one joint
    (M, B, 4H) GEMM a step, tanh of its gate-major view into (4, M, B, H),
    cell states in slots of their own. Returns predictions and the caches
    `reference_loss_and_gradients` reads."""
    models, batch, steps = x.shape
    hs = hidden_size
    slots = steps + 1 if bptt else 2
    w, b, w_out, b_out = _blocks(theta, hs)
    z = np.empty((models, slots, batch, 2 + hs))
    act = np.empty((slots - 1, 4, models, batch, hs))
    c = np.empty((slots, models, batch, hs))
    tc = np.empty((models, batch, hs))
    pre = np.empty((models, batch, 4 * hs))
    half = np.repeat([0.5, 0.5, 0.5, 1.0], hs)
    w_aug = np.empty((models, 2 + hs, 4 * hs))
    w_aug[:, 0] = b * half
    np.multiply(w.transpose(0, 2, 1), half, out=w_aug[:, 1:])
    z[..., 0] = 1.0
    z[:, 0, :, 2:] = 0.0
    c[0] = 0.0
    pre_gm = pre.reshape(models, batch, 4, hs).transpose(2, 0, 1, 3)
    z_x, x_t = z[..., 1], x.transpose(2, 0, 1)
    for t in range(steps):
        now, later, gates = t % slots, (t + 1) % slots, act[t % (slots - 1)]
        z_x[:, now] = x_t[t]
        np.matmul(z[:, now], w_aug, out=pre)
        np.tanh(pre_gm, out=gates)
        sig = gates[:3]
        sig *= 0.5
        sig += 0.5
        i, f, o, g = gates
        np.multiply(f, c[now], out=c[later])
        np.multiply(i, g, out=tc)
        c[later] += tc
        np.tanh(c[later], out=tc)
        np.multiply(o, tc, out=z[:, later, :, 2:])
    h = z[:, steps % slots, :, 2:]
    y = (h @ w_out[:, :, None])[..., 0] + b_out
    return y, ((z, act, c, pre), h)


def reference_loss_and_gradients(theta, x, targets, hidden_size):
    """`loss_and_gradients` as it was before the per-gate block layout,
    frozen with `reference_forward`: tanh(c_t) recomputed in the backward
    pass, each derivative factor multiplied in by an op of its own."""
    models, batch, steps = x.shape
    hs = hidden_size
    y, ((z, act, c, rows), h_last) = reference_forward(theta, x, hs, True)
    resid = y - targets
    loss = np.mean(resid**2, axis=1)
    w, _, w_out, _ = _blocks(theta, hs)
    w_h = w[..., 1:]
    grad = np.zeros_like(theta)
    dw, db, dw_out, db_out = _blocks(grad, hs)
    dy = 2.0 * resid / batch
    dw_out[:] = (h_last.transpose(0, 2, 1) @ dy[:, :, None])[..., 0]
    db_out[:, 0] = dy.sum(axis=1)
    dw_aug = np.zeros((models, 4 * hs, 2 + hs))
    dw_step = np.empty((models, 4 * hs, 2 + hs))
    da = np.empty((4, models, batch, hs))
    dh, dc, tc = (np.empty((models, batch, hs)) for _ in range(3))
    np.multiply(dy[:, :, None], w_out[:, None, :], out=dh)
    dc[...] = 0.0
    rows_gm = rows.reshape(models, batch, 4, hs).transpose(2, 0, 1, 3)
    for t in range(steps - 1, -1, -1):
        sig = act[t, :3]
        i, f, o, g = act[t]
        np.tanh(c[t + 1], out=tc)
        np.multiply(tc, tc, out=da[3])
        np.subtract(1.0, da[3], out=da[3])
        da[3] *= o
        da[3] *= dh
        dc += da[3]
        np.multiply(sig, sig, out=da[:3])
        np.subtract(sig, da[:3], out=da[:3])
        da[0] *= dc
        da[0] *= g
        da[1] *= dc
        da[1] *= c[t]
        da[2] *= dh
        da[2] *= tc
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


def assert_matches_reference(theta, x, targets, h):
    """Losses, gradients and predictions (BPTT and forward-only) equal the
    frozen reference's bit for bit."""
    want_loss, want_grad = reference_loss_and_gradients(theta, x, targets, h)
    want_y = reference_forward(theta, x, h, False)[0]
    loss, grad = loss_and_gradients(theta, x, targets, h)
    assert np.array_equal(loss, want_loss)
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(_forward(theta, x, h, True)[0], want_y)
    assert np.array_equal(_forward(theta, x, h, False)[0], want_y)


class TestKernelReference:
    """The block-layout kernel against the frozen joint-GEMM kernel it
    replaced, bit for bit, and the mechanisms that make it cheaper."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        models=st.integers(1, 4),
        batch=st.integers(1, 40),
        steps=st.integers(1, 12),
        h=st.integers(1, 16),
    )
    def test_bit_identical_to_reference(self, seed, models, batch, steps, h):
        assert_matches_reference(*random_stack(seed, models, batch, steps, h), h)

    @pytest.mark.parametrize("batch", [1, 2, 32])
    @pytest.mark.parametrize("h", range(1, 17))
    def test_bit_identical_at_every_hidden_size(self, batch, h):
        # B = 1 and H = 1 make numpy use gemv or dot, not gemm, and the
        # BLAS picks its gemm kernel by shape.
        for steps in (1, 3):
            assert_matches_reference(*random_stack(batch * 100 + h, 3, batch, steps, h), h)

    def test_joint_product_path_bit_identical(self, monkeypatch):
        # Where the per-gate products would not match the joint one, the
        # forward pass takes the joint product; here it is taken at every
        # shape, H = 16 included.
        monkeypatch.setattr(forecaster, "_per_gate_exact", lambda batch, h: False)
        for batch, h in ((1, 16), (7, 5), (32, 16)):
            assert_matches_reference(*random_stack(batch * 100 + h, 3, batch, 4, h), h)

    def test_bit_identical_at_benchmark_shape(self):
        # kfold-lstm: 10 folds, batch 32, W = 10, H = 16
        assert_matches_reference(*random_stack(2025, 10, 32, 10, 16), 16)

    def test_forward_only_bit_identical_on_the_largest_test_set(self):
        # The desk grid's 2-way test set, 291 pairs, is the largest forward-
        # only batch of the desk, benchmark and acceptance runs.
        assert 291 <= forecaster.FORWARD_CHUNK
        theta, x, _ = random_stack(291, 10, 291, 10, 16)
        assert np.array_equal(_forward(theta, x, 16, False)[0],
                              reference_forward(theta, x, 16, False)[0])

    def test_backward_reads_the_cached_tanh_of_the_cell_state(self, monkeypatch):
        # Two tanh calls a step, both in the forward pass: the gates and c_t.
        calls = []
        real_tanh = np.tanh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_tanh(*args, **kwargs)

        theta, x, targets = random_stack(7, 3, 8, 5, 4)
        monkeypatch.setattr(forecaster.np, "tanh", counted)
        loss_and_gradients(theta, x, targets, 4)
        assert len(calls) == 2 * 5

    @pytest.mark.parametrize("h", [15, 16])
    def test_chunked_forward_only_pass_within_tolerance(self, h):
        # 1,100 pairs: two whole chunks and one of 76. A chunk is the same
        # call as that chunk alone; against the unchunked pass the batch
        # size the GEMMs see can move the last bits.
        chunk = forecaster.FORWARD_CHUNK
        theta, x, _ = random_stack(1100 + h, 3, 2 * chunk + 76, 10, h)
        y = _forward(theta, x, h, False)[0]
        for lo in range(0, x.shape[1], chunk):
            part = slice(lo, lo + chunk)
            assert np.array_equal(y[:, part], _forward(theta, x[:, part], h, False)[0])
        whole = reference_forward(theta, x, h, False)[0]
        np.testing.assert_allclose(y, whole, rtol=FORWARD_CHUNK_RTOL,
                                   atol=FORWARD_CHUNK_RTOL * np.abs(whole).max())


class TestScaler:
    @pytest.mark.parametrize("kind", ["none", "minmax", "zscore"])
    def test_round_trip(self, kind):
        seqs = make_sequences(np.linspace(-3.0, 9.0, 20), WindowConfig(4, 1))
        scaler = Scaler.fit(kind, seqs.inputs(), seqs.targets())
        x = np.array([-7.0, 0.0, 3.3, 12.0])
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9)

    def test_constant_data_stays_invertible(self):
        seqs = make_sequences(np.full(10, 2.5), WindowConfig(3, 1))
        for kind in ("minmax", "zscore"):
            scaler = Scaler.fit(kind, seqs.inputs(), seqs.targets())
            np.testing.assert_allclose(
                scaler.inverse_transform(scaler.transform(np.array([2.5]))), [2.5]
            )

    def test_parameters_immutable(self):
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        scaler = Scaler.fit("zscore", seqs.inputs(), seqs.targets())
        with pytest.raises(Exception):
            scaler.shift = 0.0

    def test_fit_uses_training_pool_only(self):
        train_seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        scaler = Scaler.fit("minmax", train_seqs.inputs(), train_seqs.targets())
        before = (scaler.shift, scaler.scale)
        scaler.transform(np.array([1e9, -1e9]))  # far outside the train range
        assert (scaler.shift, scaler.scale) == before

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=30))
    def test_round_trip_property(self, raw):
        seqs = make_sequences(np.asarray(raw), WindowConfig(2, 1))
        scaler = Scaler.fit("zscore", seqs.inputs(), seqs.targets())
        x = np.asarray(raw)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-6, rtol=1e-9
        )


class TestTrainConfig:
    def test_patience_must_be_below_epochs(self):
        with pytest.raises(TrainingError, match="patience"):
            TrainConfig(epochs=5, early_stopping=True, patience=5)

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=20, early_stopping=True, patience=3, scaling="minmax")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("0.0", "0.0"),
    ])
    def test_learning_rate_must_be_finite_and_positive(self, literal, shown):
        # json.loads reads the bare NaN/Infinity literals, and `nan <= 0` is False.
        record = json.loads(f'{{"epochs": 3, "learning_rate": {literal}}}')
        with pytest.raises(TrainingError,
                           match=f"^learning_rate must be finite and positive, got {shown}$"):
            TrainConfig.from_dict(record)


class TestTrain:
    def test_learns_constant_target(self):
        c = 5.0
        series = make_series(np.full(50, c))
        seqs = make_sequences(series.values, WindowConfig(4, 1))
        cfg = TrainConfig(epochs=50)
        (outcome,) = train_many([(seqs, None, 3)], cfg, 8)
        preds = predict(outcome.model, outcome.scaler, seqs)
        final_rmse = float(np.sqrt(np.mean((preds - seqs.targets()) ** 2)))
        assert final_rmse < 0.05 * abs(c) + 0.01

    def test_early_stopping_on_adversarial_monitor(self):
        # Zero-input training pairs with target 1 drive the prediction
        # upward; the val target sits at -5, so the monitor strictly rises
        # from epoch 1 and stopping must land exactly at 1 + patience.
        train_seqs = make_sequences([0.0, 0.0, 0.0, 1.0], WindowConfig(3, 1))
        val_seqs = make_sequences([0.0, 0.0, 0.0, -5.0], WindowConfig(3, 1))
        cfg = TrainConfig(epochs=50, early_stopping=True, patience=4, scaling="none")
        (outcome,) = train_many([(train_seqs, val_seqs, 0)], cfg, 4)
        assert outcome.last_epoch == 1 + 4
        assert outcome.optimal_epoch == 1
        monitor = outcome.val_loss_history
        assert all(b > a for a, b in zip(monitor, monitor[1:]))

    def test_seeded_training_is_bit_reproducible(self):
        series = make_series(np.sin(np.arange(60.0) / 5.0))
        seqs = make_sequences(series.values, WindowConfig(5, 1))
        cfg = TrainConfig(epochs=4)
        (a,) = train_many([(seqs, None, 11)], cfg, 6)
        (b,) = train_many([(seqs, None, 11)], cfg, 6)
        assert a.train_loss_history == b.train_loss_history
        np.testing.assert_array_equal(a.model.theta, b.model.theta)

    def test_loss_decreases_across_seeds(self, climate):
        (res,) = split(
            climate,
            SplitSpec(plan=SplitPlan.two_way(), mode="clean", window=WindowConfig(10, 1)),
        )
        sub = replace(res.train, starts=res.train.starts[:300])
        firsts, lasts = [], []
        for seed in range(5):
            (out,) = train_many([(sub, None, seed)], TrainConfig(epochs=5), 8)
            firsts.append(out.train_loss_history[0])
            lasts.append(out.train_loss_history[-1])
        assert np.median(lasts) < np.median(firsts)

    def test_empty_training_set_rejected(self):
        empty = make_sequences(np.arange(3.0), WindowConfig(3, 1))
        (out,) = train_many([(empty, None, None)], TrainConfig(epochs=1), 4)
        assert isinstance(out, TrainingError)
        assert str(out) == "empty training set"

    def test_empty_monitor_set_rejected(self):
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        empty = make_sequences(np.arange(3.0), WindowConfig(3, 1))
        cfg = TrainConfig(epochs=5, early_stopping=True, patience=2)
        (out,) = train_many([(seqs, empty, None)], cfg, 4)
        assert isinstance(out, TrainingError)
        assert str(out) == "early stopping requires a non-empty monitor set"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts(self):
        # Residuals of order 1e200 overflow the squared loss on the first
        # batch when no scaling shrinks them.
        seqs = make_sequences(np.full(12, 1e200), WindowConfig(3, 1))
        cfg = TrainConfig(epochs=5, scaling="none")
        (out,) = train_many([(seqs, None, 0)], cfg, 4)
        assert isinstance(out, TrainingError)
        assert str(out) == "training diverged at epoch 1 (loss=inf)"

    def test_restores_best_weights(self):
        # With the adversarial monitor above, restored weights must predict
        # what the epoch-1 model predicted, not the last epoch's.
        train_seqs = make_sequences([0.0, 0.0, 0.0, 1.0], WindowConfig(3, 1))
        val_seqs = make_sequences([0.0, 0.0, 0.0, -5.0], WindowConfig(3, 1))
        cfg = TrainConfig(epochs=50, early_stopping=True, patience=4, scaling="none")
        (outcome,) = train_many([(train_seqs, val_seqs, 0)], cfg, 4)
        restored_val_mse = float(
            np.mean((outcome.model.forward(val_seqs.inputs()) - val_seqs.targets()) ** 2)
        )
        assert restored_val_mse == pytest.approx(outcome.val_loss_history[0], abs=1e-12)


def lone_adam(theta, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on one parameter vector, written out with Python-float bias
    corrections, independent of the stacked optimizer under test."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, grad in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        theta = theta - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return theta


class TestAdam:
    def test_each_row_steps_like_a_lone_adam(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(3, 7))
        start = theta.copy()
        # lr 1 keeps the updates as large as theta, so a last-bit change in
        # a bias correction reaches theta instead of rounding away.
        adam = _Adam(theta.shape, lr=1.0)
        taken = [[], [], []]
        # Row 0 steps every round, row 1 every other round and row 2 only
        # in the first 10, so their step counts drift apart; by t = 7 and
        # t = 12 np.power and Python's ** already differ in the last bit.
        for k in range(40):
            rows = [r for r, on in enumerate((True, k % 2 == 0, k < 10)) if on]
            grad = rng.normal(size=(len(rows), 7))
            adam.step(theta, grad, np.array(rows))
            for r, g in zip(rows, grad):
                taken[r].append(g)
        for r in range(3):
            assert np.array_equal(theta[r], lone_adam(start[r], taken[r], lr=1.0))

    def test_a_step_of_the_whole_stack_allocates_no_stack_sized_array(self):
        # (M, P) temporaries freed on every step get trimmed off the heap
        # and page-faulted in again on the next.
        rng = np.random.default_rng(6)
        theta = rng.normal(size=(10, 1169))
        adam = _Adam(theta.shape, lr=1e-3)
        adam.step(theta, rng.normal(size=theta.shape), slice(None))  # sizes the scratch
        grad = rng.normal(size=theta.shape)
        tracemalloc.start()
        try:
            adam.step(theta, grad, slice(None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes


def assert_same_fit(many, alone):
    """One job of train_many gave exactly what it gives trained alone (M = 1)."""
    assert np.array_equal(many.model.theta, alone.model.theta)
    assert np.array_equal(many.train_loss_history, alone.train_loss_history)
    assert (many.val_loss_history is None) == (alone.val_loss_history is None)
    if alone.val_loss_history is not None:
        assert np.array_equal(many.val_loss_history, alone.val_loss_history)
    assert many.optimal_epoch == alone.optimal_epoch
    assert many.last_epoch == alone.last_epoch
    assert many.scaler == alone.scaler


def train_each_both_ways(jobs, cfg, hidden_size):
    """Train the jobs in lockstep and each as a stack of one; assert bit
    identity."""
    many = train_many(jobs, cfg, hidden_size)
    assert len(many) == len(jobs)
    for out, (train_set, val_set, seed) in zip(many, jobs):
        (alone,) = train_many([(train_set, val_set, seed)], cfg, hidden_size)
        assert_same_fit(out, alone)
    return many


def forget_scratch():
    """Drop the kernel buffers this thread keeps."""
    forecaster._scratch.__dict__.clear()


class TestTrainMany:
    def test_clean_k_fold_with_ragged_train_sizes(self, climate):
        results = split(
            climate,
            SplitSpec(plan=SplitPlan.k_fold(10), mode="clean", window=WindowConfig(10, 3)),
        )
        sizes = [len(r.train) for r in results]
        # Sizes differ, so the folds' last batches of an epoch differ in size.
        assert (min(sizes), max(sizes)) == (1291, 1304)
        jobs = [(r.train, r.val, 100 + r.fold_index) for r in results]
        train_each_both_ways(jobs, TrainConfig(epochs=2), hidden_size=4)

    def test_each_training_set_is_gathered_once(self, climate, monkeypatch):
        results = split(
            climate,
            SplitSpec(plan=SplitPlan.k_fold(10), mode="clean", window=WindowConfig(10, 3)),
        )
        calls = []
        real_inputs = SequenceSet.inputs

        def counted(self):
            calls.append(self)
            return real_inputs(self)

        monkeypatch.setattr(SequenceSet, "inputs", counted)
        train_many([(r.train, r.val, 0) for r in results], TrainConfig(epochs=1), 2)
        assert len(calls) == 10

    def test_training_keeps_no_window_matrices(self, climate):
        # The clean 10-fold stack of the reference series (W=10, L=3): one
        # stack of its materialised training windows is sum(n) * W floats.
        results = split(
            climate,
            SplitSpec(plan=SplitPlan.k_fold(10), mode="clean", window=WindowConfig(10, 3)),
        )
        jobs = [(r.train, r.val, r.fold_index) for r in results]
        cfg = TrainConfig(epochs=1)
        train_many(jobs, cfg, 2)  # sizes the kernel scratch
        tracemalloc.start()
        try:
            train_many(jobs, cfg, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window_stack = sum(len(r.train) for r in results) * 10 * 8
        assert peak < window_stack

    @pytest.mark.parametrize("with_val", [False, True])
    def test_jobs_over_different_buffers_and_lag_steps(self, with_val):
        # Same W, lag steps 1-3 and buffers of 60-140 points, so each job's
        # windows start at its own place in the flat array and its targets
        # lie at its own offset. The last job's validation set has a buffer
        # of its own; the others' share their training buffer.
        noise = np.random.default_rng(4).normal(size=400)
        jobs = []
        for i, (length, lag) in enumerate([(60, 1), (95, 3), (140, 2), (95, 1)]):
            w = WindowConfig(4, lag)
            values = noise[i * 80 : i * 80 + length]
            cut = length * 3 // 4
            train = SequenceSet(values, np.arange(cut - w.target_offset), ((0, cut),), w)
            val = SequenceSet(values, np.arange(cut, length - w.target_offset),
                              ((cut, length),), w)
            if i == 3:
                val = make_sequences(noise[350:372], w)
            jobs.append((train, val if with_val else None, i))
        many = train_each_both_ways(jobs, TrainConfig(epochs=3, learning_rate=0.05), 3)
        if with_val:
            # Each validation loss is its own set's: the last one is the
            # final model's MSE on that set's windows, gathered anew here.
            for out, (_, val, _) in zip(many, jobs):
                x, y = out.scaler.transform(val.inputs()), out.scaler.transform(val.targets())
                mse = np.mean((out.model.forward(x) - y) ** 2)
                assert out.val_loss_history[-1] == pytest.approx(mse, rel=1e-12)

    def test_early_stopping_at_different_epochs(self):
        # 37, 52, 67 and 82 training pairs: 2, 2, 3 and 3 batches an epoch,
        # so the models' Adam step counts drift apart.
        noise = np.random.default_rng(1).normal(size=400)
        w = WindowConfig(3, 1)
        jobs = []
        for i in range(4):
            end = i * 100 + 40 + 15 * i
            jobs.append((make_sequences(noise[i * 100 : end], w),
                         make_sequences(noise[end : end + 10], w), i))
        cfg = TrainConfig(epochs=20, early_stopping=True, patience=3, learning_rate=0.1)
        many = train_each_both_ways(jobs, cfg, hidden_size=4)
        # Models leave the stack at different epochs, all before the last.
        last = [out.last_epoch for out in many]
        assert len(set(last)) > 1 and max(last) < cfg.epochs

    def test_three_way_jobs_with_validation_sets(self, climate):
        window = WindowConfig(10, 1)
        clean, leaky = (
            split(climate, SplitSpec(plan=SplitPlan.three_way(), mode=mode, window=window))[0]
            for mode in ("clean", "leaky")
        )
        assert len(clean.val) != len(leaky.val)
        jobs = [(clean.train, clean.val, 1), (clean.train, clean.val, 2),
                (leaky.train, leaky.val, 3)]
        cfg = TrainConfig(epochs=3, early_stopping=True, patience=2)
        many = train_each_both_ways(jobs, cfg, hidden_size=4)
        assert all(len(out.val_loss_history) == out.last_epoch for out in many)

    def test_validation_keeps_no_more_forward_scratch_than_training(self, climate):
        # desk 3-way clean cell (W=10, L=1): 1013 training, 136 validation pairs
        (res,) = split(climate, SplitSpec(
            plan=SplitPlan.three_way(), mode="clean", window=WindowConfig(10, 1)
        ))
        assert (len(res.train), len(res.val)) == (1013, 136)
        cfg = TrainConfig(epochs=1)
        forget_scratch()
        theta = LstmModel.initialize(16, np.random.default_rng(0)).theta[None]
        loss_and_gradients(theta, np.zeros((1, cfg.batch_size, 10)),
                           np.zeros((1, cfg.batch_size)), 16)
        training = forecaster._scratch.buffers["forward"].size
        forget_scratch()
        train_many([(res.train, res.val, 0)], cfg, 16)
        kept = forecaster._scratch.buffers["forward"].size
        assert kept <= training

    def test_forward_only_scratch_is_bounded_by_the_chunk(self):
        # Ten 3-way jobs on a 30,000-point series, 2,990 validation pairs
        # each: unchunked, validation kept 6,338,800 floats (48.4 MiB).
        n, w, h, models = 30_000, 10, 16, 10
        values = np.random.default_rng(0).normal(size=n)
        (res,) = split(make_series(values), SplitSpec(
            plan=SplitPlan.three_way(), mode="clean", window=WindowConfig(w, 1)
        ))
        assert len(res.val) == 2990
        cfg = TrainConfig(epochs=1)
        forget_scratch()
        train_many([(res.train, res.val, seed) for seed in range(models)], cfg, h)
        # A training batch: z, blocks and tanh(c); a forward-only chunk: two
        # z slots and two blocks.
        training = models * cfg.batch_size * ((w + 1) * (2 + h + 5 * h) + w * h)
        chunk = models * forecaster.FORWARD_CHUNK * 2 * (2 + h + 5 * h)
        assert forecaster._scratch.buffers["forward"].size <= max(training, chunk)

    def test_single_job(self):
        seqs = make_sequences(np.sin(np.arange(60.0) / 5.0), WindowConfig(5, 1))
        train_each_both_ways([(seqs, None, 11)], TrainConfig(epochs=3), hidden_size=6)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_failing_job_fails_alone(self):
        w = WindowConfig(3, 1)
        good = make_sequences(np.sin(np.arange(40.0) / 4.0), w)
        other = make_sequences(np.cos(np.arange(50.0) / 3.0), w)
        # As many pairs as `good`, so both are in the first stacked call.
        diverging = make_sequences(np.full(40, 1e200), w)
        empty = make_sequences(np.arange(3.0), w)
        cfg = TrainConfig(epochs=3, scaling="none")
        jobs = [(good, None, 0), (diverging, None, 1), (empty, None, 2), (other, None, 3)]
        many = train_many(jobs, cfg, 4)
        (alone,) = train_many([(diverging, None, 1)], cfg, 4)
        assert isinstance(alone, TrainingError)
        assert isinstance(many[1], TrainingError)
        assert str(many[1]) == str(alone)
        assert "diverged at epoch 1" in str(many[1])
        assert isinstance(many[2], TrainingError)
        assert "empty training set" in str(many[2])
        # The diverging job left the stack after its first step; the others
        # train on bit for bit as they would alone.
        for index in (0, 3):
            train_set, val_set, seed = jobs[index]
            (alone,) = train_many([(train_set, val_set, seed)], cfg, 4)
            assert_same_fit(many[index], alone)

    def test_mixed_window_sizes_rejected(self):
        values = np.arange(20.0)
        jobs = [(make_sequences(values, WindowConfig(3, 1)), None, 0),
                (make_sequences(values, WindowConfig(4, 1)), None, 1)]
        with pytest.raises(TrainingError, match="one window size"):
            train_many(jobs, TrainConfig(epochs=1), hidden_size=2)


class TestPredict:
    def test_empty_set(self):
        model = LstmModel(4)
        seqs = make_sequences(np.arange(3.0), WindowConfig(3, 1))
        scaler = Scaler(kind="none", shift=0.0, scale=1.0)
        assert predict(model, scaler, seqs).shape == (0,)

    def test_zero_network_unscaled_predicts_zero(self):
        model = LstmModel(4)
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        scaler = Scaler(kind="none", shift=0.0, scale=1.0)
        np.testing.assert_array_equal(predict(model, scaler, seqs), np.zeros(len(seqs)))

    def test_one_prediction_per_pair(self):
        seqs = make_sequences(np.arange(20.0), WindowConfig(4, 2))
        (out,) = train_many([(seqs, None, 0)], TrainConfig(epochs=2), 4)
        assert predict(out.model, out.scaler, seqs).shape == (len(seqs),)

    def test_calls_outside_training_reuse_the_threads_forward_buffer(self):
        seqs = make_sequences(np.sin(np.arange(60.0) / 5.0), WindowConfig(5, 1))
        forget_scratch()
        (out,) = train_many([(seqs, None, 0)], TrainConfig(epochs=1), 4)
        first = predict(out.model, out.scaler, seqs)
        kept = forecaster._scratch.buffers["forward"]
        out.model.forward(seqs.inputs()[:3])
        np.testing.assert_array_equal(predict(out.model, out.scaler, seqs), first)
        assert forecaster._scratch.buffers["forward"] is kept


class TestGradientCheck:
    def test_correct_implementation_passes(self):
        rng = np.random.default_rng(12)
        model = LstmModel.initialize(4, rng)
        seqs = make_sequences(rng.normal(size=12), WindowConfig(5, 1))
        batch = replace(seqs, starts=seqs.starts[:3])
        assert gradient_check(model, batch) < 1e-4

    def test_zeroed_forget_gate_gradient_detected(self):
        rng = np.random.default_rng(12)
        model = LstmModel.initialize(4, rng)
        seqs = make_sequences(rng.normal(size=12), WindowConfig(5, 1))
        batch = replace(seqs, starts=seqs.starts[:3])

        def mutated(theta, x, y, hidden_size):
            loss, grad = loss_and_gradients(theta, x, y, hidden_size)
            views = unpack(grad, hidden_size)
            views["w_f"][...] = 0.0
            views["b_f"][...] = 0.0
            return loss, grad

        assert gradient_check(model, batch, grad_fn=mutated) > 1e-2

    def test_zero_parameter_model_is_finite(self):
        model = LstmModel(3)
        seqs = make_sequences(np.arange(8.0), WindowConfig(3, 1))
        batch = replace(seqs, starts=seqs.starts[:2])
        assert math.isfinite(gradient_check(model, batch))

    def test_size_preconditions(self):
        rng = np.random.default_rng(0)
        seqs = make_sequences(np.arange(20.0), WindowConfig(5, 1))
        with pytest.raises(TrainingError, match="hidden_size"):
            gradient_check(LstmModel.initialize(16, rng), seqs)
        wide = make_sequences(np.arange(20.0), WindowConfig(8, 1))
        with pytest.raises(TrainingError, match="window_size"):
            gradient_check(LstmModel.initialize(4, rng), wide)


class TestPersistenceBaseline:
    def test_predicts_last_window_element(self):
        seqs = make_sequences([1.0, 2.0, 3.0, 4.0], WindowConfig(3, 1))
        assert list(baseline_persistence(seqs)) == [3.0]

    def test_constant_series_rmse_zero(self):
        seqs = make_sequences(np.full(20, 7.0), WindowConfig(4, 1))
        preds = baseline_persistence(seqs)
        assert float(np.sqrt(np.mean((preds - seqs.targets()) ** 2))) == 0.0

    def test_reference_split_regression_fixture(self, climate):
        (res,) = split(
            climate,
            SplitSpec(plan=SplitPlan.two_way(), mode="clean", window=WindowConfig(10, 1)),
        )
        preds = baseline_persistence(res.test)
        value = float(np.sqrt(np.mean((preds - res.test.targets()) ** 2)))
        assert value == pytest.approx(PERSISTENCE_FIXTURE, abs=1e-12)


class TestLinearArBaseline:
    def test_recovers_exact_ar1(self):
        # x_t = 0.5 x_{t-1}, noiseless; W=1 keeps the design full rank.
        values = [1.0 * 0.5**i for i in range(12)]
        seqs = make_sequences(values, WindowConfig(1, 1))
        train_set = replace(seqs, starts=seqs.starts[:8])
        eval_set = replace(seqs, starts=seqs.starts[8:])
        preds = baseline_linear_ar(train_set, eval_set)
        np.testing.assert_allclose(preds, eval_set.targets(), atol=1e-6)

    def test_constant_series_ridge_fallback(self):
        seqs = make_sequences(np.full(24, 5.0), WindowConfig(3, 1))
        preds = baseline_linear_ar(seqs, seqs)
        np.testing.assert_allclose(preds, 5.0, atol=1e-4)

    def test_underdetermined_rejected(self):
        seqs = make_sequences(np.arange(8.0), WindowConfig(4, 1))
        train_set = replace(seqs, starts=seqs.starts[:4])  # |train| = W
        with pytest.raises(TrainingError, match="insufficient training pairs"):
            baseline_linear_ar(train_set, seqs)
