from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench.errors import TrainingError
from leakbench.forecaster import (
    LstmModel,
    Scaler,
    TrainConfig,
    baseline_linear_ar,
    baseline_persistence,
    gradient_check,
    loss_and_gradients,
    predict,
    train,
    unpack,
)
from leakbench.splitting import SplitPlan, SplitSpec, split
from leakbench.windowing import WindowConfig, make_sequences

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

    def test_block_order(self):
        # H=2: each gate block is 2 rows of 1+H=3 entries, stacked (i, f, o, g)
        views = unpack(np.arange(float(LstmModel(2).theta.size)), 2)
        assert {key: view.flat[0] for key, view in views.items()} == {
            "w_i": 0, "w_f": 6, "w_o": 12, "w_g": 18,
            "b_i": 24, "b_f": 26, "b_o": 28, "b_g": 30,
            "w_out": 32, "b_out": 34,
        }

    def test_wrong_length_rejected(self):
        with pytest.raises(TrainingError, match="theta has shape"):
            LstmModel(2, np.zeros(5))


class TestScaler:
    @pytest.mark.parametrize("kind", ["none", "minmax", "zscore"])
    def test_round_trip(self, kind):
        seqs = make_sequences(np.linspace(-3.0, 9.0, 20), WindowConfig(4, 1))
        scaler = Scaler.fit(kind, seqs)
        x = np.array([-7.0, 0.0, 3.3, 12.0])
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9)

    def test_constant_data_stays_invertible(self):
        seqs = make_sequences(np.full(10, 2.5), WindowConfig(3, 1))
        for kind in ("minmax", "zscore"):
            scaler = Scaler.fit(kind, seqs)
            np.testing.assert_allclose(
                scaler.inverse_transform(scaler.transform(np.array([2.5]))), [2.5]
            )

    def test_parameters_immutable(self):
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        scaler = Scaler.fit("zscore", seqs)
        with pytest.raises(Exception):
            scaler.shift = 0.0

    def test_fit_uses_training_pool_only(self):
        train_seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        scaler = Scaler.fit("minmax", train_seqs)
        before = (scaler.shift, scaler.scale)
        scaler.transform(np.array([1e9, -1e9]))  # far outside the train range
        assert (scaler.shift, scaler.scale) == before

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=30))
    def test_round_trip_property(self, raw):
        seqs = make_sequences(np.asarray(raw), WindowConfig(2, 1))
        scaler = Scaler.fit("zscore", seqs)
        x = np.asarray(raw)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-6, rtol=1e-9
        )


class TestTrainConfig:
    def test_patience_must_be_below_epochs(self):
        with pytest.raises(TrainingError, match="patience"):
            TrainConfig(epochs=5, early_stopping=True, patience=5)

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=20, early_stopping=True, patience=3, seed=1, scaling="minmax")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestTrain:
    def test_learns_constant_target(self):
        c = 5.0
        series = make_series(np.full(50, c))
        seqs = make_sequences(series.values, WindowConfig(4, 1))
        cfg = TrainConfig(epochs=50, seed=3)
        outcome = train(seqs, None, cfg, hidden_size=8)
        preds = predict(outcome.model, outcome.scaler, seqs)
        final_rmse = float(np.sqrt(np.mean((preds - seqs.targets()) ** 2)))
        assert final_rmse < 0.05 * abs(c) + 0.01

    def test_early_stopping_on_adversarial_monitor(self):
        # Zero-input training pairs with target 1 drive the prediction
        # upward; the val target sits at -5, so the monitor strictly rises
        # from epoch 1 and stopping must land exactly at 1 + patience.
        train_seqs = make_sequences([0.0, 0.0, 0.0, 1.0], WindowConfig(3, 1))
        val_seqs = make_sequences([0.0, 0.0, 0.0, -5.0], WindowConfig(3, 1))
        cfg = TrainConfig(
            epochs=50, early_stopping=True, patience=4, seed=0, scaling="none"
        )
        outcome = train(train_seqs, val_seqs, cfg, hidden_size=4)
        assert outcome.last_epoch == 1 + 4
        assert outcome.optimal_epoch == 1
        monitor = outcome.val_loss_history
        assert all(b > a for a, b in zip(monitor, monitor[1:]))

    def test_seeded_training_is_bit_reproducible(self):
        series = make_series(np.sin(np.arange(60.0) / 5.0))
        seqs = make_sequences(series.values, WindowConfig(5, 1))
        cfg = TrainConfig(epochs=4, seed=11)
        a = train(seqs, None, cfg, hidden_size=6)
        b = train(seqs, None, cfg, hidden_size=6)
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
            out = train(sub, None, TrainConfig(epochs=5, seed=seed), hidden_size=8)
            firsts.append(out.train_loss_history[0])
            lasts.append(out.train_loss_history[-1])
        assert np.median(lasts) < np.median(firsts)

    def test_empty_training_set_rejected(self):
        empty = make_sequences(np.arange(3.0), WindowConfig(3, 1))
        with pytest.raises(TrainingError, match="empty training set"):
            train(empty, None, TrainConfig(epochs=1))

    def test_empty_monitor_set_rejected(self):
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        empty = make_sequences(np.arange(3.0), WindowConfig(3, 1))
        with pytest.raises(TrainingError, match="monitor"):
            train(seqs, empty, TrainConfig(epochs=5, early_stopping=True, patience=2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts(self):
        # Residuals of order 1e200 overflow the squared loss on the first
        # batch when no scaling shrinks them.
        seqs = make_sequences(np.full(12, 1e200), WindowConfig(3, 1))
        cfg = TrainConfig(epochs=5, seed=0, scaling="none")
        with pytest.raises(TrainingError, match="diverged"):
            train(seqs, None, cfg, hidden_size=4)

    def test_restores_best_weights(self):
        # With the adversarial monitor above, restored weights must predict
        # what the epoch-1 model predicted, not the last epoch's.
        train_seqs = make_sequences([0.0, 0.0, 0.0, 1.0], WindowConfig(3, 1))
        val_seqs = make_sequences([0.0, 0.0, 0.0, -5.0], WindowConfig(3, 1))
        cfg = TrainConfig(epochs=50, early_stopping=True, patience=4, seed=0, scaling="none")
        outcome = train(train_seqs, val_seqs, cfg, hidden_size=4)
        restored_val_mse = float(
            np.mean((outcome.model.forward(val_seqs.inputs()) - val_seqs.targets()) ** 2)
        )
        assert restored_val_mse == pytest.approx(outcome.val_loss_history[0], abs=1e-12)


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
        out = train(seqs, None, TrainConfig(epochs=2, seed=0), hidden_size=4)
        assert predict(out.model, out.scaler, seqs).shape == (len(seqs),)


class TestGradientCheck:
    def test_correct_implementation_passes(self):
        rng = np.random.default_rng(12)
        model = LstmModel.initialize(4, rng)
        seqs = make_sequences(rng.normal(size=12), WindowConfig(5, 1))
        batch = replace(seqs, starts=seqs.starts[:3])
        assert gradient_check(model, batch, epsilon=1e-5) < 1e-4

    def test_zeroed_forget_gate_gradient_detected(self):
        rng = np.random.default_rng(12)
        model = LstmModel.initialize(4, rng)
        seqs = make_sequences(rng.normal(size=12), WindowConfig(5, 1))
        batch = replace(seqs, starts=seqs.starts[:3])

        def mutated(model, x, y):
            loss, grad = loss_and_gradients(model, x, y)
            views = unpack(grad, model.hidden_size)
            views["w_f"][...] = 0.0
            views["b_f"][...] = 0.0
            return loss, grad

        assert gradient_check(model, batch, epsilon=1e-5, grad_fn=mutated) > 1e-2

    def test_zero_parameter_model_is_finite(self):
        model = LstmModel(3)
        seqs = make_sequences(np.arange(8.0), WindowConfig(3, 1))
        batch = replace(seqs, starts=seqs.starts[:2])
        assert math.isfinite(gradient_check(model, batch, epsilon=1e-5))

    def test_size_preconditions(self):
        rng = np.random.default_rng(0)
        seqs = make_sequences(np.arange(20.0), WindowConfig(5, 1))
        with pytest.raises(TrainingError, match="hidden_size"):
            gradient_check(LstmModel.initialize(16, rng), seqs)
        wide = make_sequences(np.arange(20.0), WindowConfig(8, 1))
        with pytest.raises(TrainingError, match="window_size"):
            gradient_check(LstmModel.initialize(4, rng), wide)


class TestCheckpoint:
    def test_loss_history_csv(self, tmp_path):
        from leakbench.forecaster import write_loss_history

        train_seqs = make_sequences(np.arange(20.0), WindowConfig(3, 1))
        val_seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        outcome = train(train_seqs, val_seqs, TrainConfig(epochs=4, seed=0), hidden_size=4)
        path = tmp_path / "loss.csv"
        write_loss_history(outcome, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert len(lines) == 1 + 4
        epoch, train_mse, val_mse = lines[1].split(",")
        assert epoch == "1"
        assert float(train_mse) == outcome.train_loss_history[0]
        assert float(val_mse) == outcome.val_loss_history[0]


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
