"""Tests for repro.nn layers, losses, module plumbing."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    LeakyReLU,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    bce_with_logits,
    cross_entropy_logits,
    gaussian_kl,
    mse_loss,
)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, seed=0)
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_init(self):
        a = Linear(4, 3, seed=7).weight.data
        b = Linear(4, 3, seed=7).weight.data
        np.testing.assert_array_equal(a, b)

    def test_gradients_flow_to_weight_and_bias(self):
        layer = Linear(3, 2, seed=1)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        loss = (layer(x) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestActivationsAndDropout:
    def test_relu_non_negative(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0]))).numpy()
        assert (out >= 0).all()

    def test_leaky_relu_slope(self):
        out = LeakyReLU(0.1)(Tensor(np.array([-10.0]))).numpy()
        np.testing.assert_allclose(out, [-1.0])

    def test_tanh_bounded(self):
        out = Tanh()(Tensor(np.array([100.0, -100.0]))).numpy()
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-9)

    def test_sigmoid_range(self):
        out = Sigmoid()(Tensor(np.linspace(-5, 5, 11))).numpy()
        assert (out > 0).all() and (out < 1).all()

    def test_dropout_train_vs_eval(self):
        layer = Dropout(0.5, seed=0)
        x = Tensor(np.ones((100, 10)))
        train_out = layer(x).numpy()
        layer.eval()
        eval_out = layer(x).numpy()
        assert (train_out == 0).any()
        np.testing.assert_array_equal(eval_out, x.numpy())

    def test_dropout_preserves_expectation(self):
        layer = Dropout(0.3, seed=1)
        x = Tensor(np.ones((2000, 5)))
        out = layer(x).numpy()
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestCompositeModules:
    def test_sequential_chains(self):
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 2, seed=1))
        out = net(Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 2)
        assert len(net) == 3

    def test_mlp_structure(self):
        mlp = MLP(5, [16, 8], 3, activation="relu", dropout=0.1, seed=0)
        out = mlp(Tensor(np.zeros((4, 5))))
        assert out.shape == (4, 3)
        assert mlp.n_parameters() > 0

    def test_mlp_invalid_activation(self):
        with pytest.raises(ValueError):
            MLP(3, [4], 2, activation="swish")

    def test_named_parameters_unique(self):
        mlp = MLP(3, [4, 4], 2, seed=0)
        names = [n for n, _ in mlp.named_parameters()]
        assert len(names) == len(set(names))

    def test_train_eval_propagates(self):
        mlp = MLP(3, [4], 2, dropout=0.5, seed=0)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_state_dict_roundtrip(self):
        a = MLP(3, [4], 2, seed=0)
        b = MLP(3, [4], 2, seed=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_state_dict_mismatch_rejected(self):
        a = MLP(3, [4], 2, seed=0)
        b = MLP(3, [8], 2, seed=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_zero_grad_clears(self):
        mlp = MLP(3, [4], 1, seed=0)
        (mlp(Tensor(np.ones((2, 3)))) ** 2).sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestLosses:
    def test_mse_zero_for_identical(self):
        pred = Tensor(np.array([[1.0, 2.0]]))
        assert mse_loss(pred, np.array([[1.0, 2.0]])).item() == 0.0

    def test_mse_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert mse_loss(Tensor(a), b).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_mse_sum_reduction(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 2))
        assert mse_loss(Tensor(a), b, reduction="sum").item() == pytest.approx(4.0)

    def test_bce_matches_reference(self):
        logits = np.array([[0.0], [2.0], [-2.0]])
        targets = np.array([[1.0], [1.0], [0.0]])
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        got = bce_with_logits(Tensor(logits), targets).item()
        assert got == pytest.approx(expected, rel=1e-6)

    def test_bce_extreme_logits_finite(self):
        logits = Tensor(np.array([[100.0], [-100.0]]))
        loss = bce_with_logits(logits, np.array([[0.0], [1.0]]))
        assert np.isfinite(loss.item())

    def test_cross_entropy_with_index_targets(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]))
        loss = cross_entropy_logits(logits, np.array([0, 1]))
        assert loss.item() < 1e-3

    def test_cross_entropy_with_onehot_targets(self):
        logits = Tensor(np.zeros((2, 4)))
        onehot = np.eye(4)[:2]
        assert cross_entropy_logits(logits, onehot).item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_wrong_prediction_is_costly(self):
        logits = Tensor(np.array([[10.0, 0.0]]))
        wrong = cross_entropy_logits(logits, np.array([1])).item()
        right = cross_entropy_logits(logits, np.array([0])).item()
        assert wrong > right

    def test_gaussian_kl_zero_at_prior(self):
        mu = Tensor(np.zeros((3, 2)))
        logvar = Tensor(np.zeros((3, 2)))
        assert gaussian_kl(mu, logvar).item() == pytest.approx(0.0)

    def test_gaussian_kl_positive(self):
        mu = Tensor(np.ones((3, 2)))
        logvar = Tensor(np.full((3, 2), -1.0))
        assert gaussian_kl(mu, logvar).item() > 0.0

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.ones(2)), np.ones(2), reduction="median")
