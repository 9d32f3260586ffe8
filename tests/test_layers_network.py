"""Unit tests for repro.nn.layers and repro.nn.network."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.nn import DenseLayer, LeakyReLU, Network, Topology, Trainer, parse_topology


class TestDenseLayer:
    def test_forward_shape(self):
        layer = DenseLayer(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_forward_accepts_single_sample(self):
        layer = DenseLayer(4, 2, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros(4))
        assert out.shape == (1, 2)

    def test_forward_rejects_wrong_width(self):
        layer = DenseLayer(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5)))

    def test_identity_activation_is_affine(self):
        layer = DenseLayer(3, 2, activation="identity", rng=np.random.default_rng(0))
        x = np.array([[1.0, -2.0, 0.5]])
        expected = x @ layer.weights + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            DenseLayer(0, 3)

    def test_backward_requires_forward(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_gradient_shapes(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        layer.forward(np.ones((4, 3)), training=True)
        grad_in = layer.backward(np.ones((4, 2)))
        assert grad_in.shape == (4, 3)
        assert layer.grad_weights.shape == (3, 2)
        assert layer.grad_bias.shape == (2,)

    def test_weight_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(5, 4, activation="sigmoid", rng=rng)
        x = rng.normal(size=(6, 5))
        target = rng.random((6, 4))

        def loss_for(weights):
            saved = layer.weights
            layer.weights = weights
            out = layer.forward(x, training=True)
            layer.weights = saved
            return float(np.sum((out - target) ** 2))

        out = layer.forward(x, training=True)
        layer.backward(2.0 * (out - target))
        analytic = layer.grad_weights.copy()
        eps = 1e-6
        for i, j in [(0, 0), (2, 3), (4, 1)]:
            perturbed = layer.weights.copy()
            perturbed[i, j] += eps
            numeric = (loss_for(perturbed) - loss_for(layer.weights)) / eps
            assert analytic[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_effective_weights_used_for_compute(self):
        layer = DenseLayer(2, 1, activation="identity", rng=np.random.default_rng(0))
        layer.weights = np.array([[1.0], [1.0]])
        layer.bias = np.array([0.0])
        x = np.array([[1.0, 1.0]])
        assert layer.forward(x)[0, 0] == pytest.approx(2.0)
        layer.set_effective(np.array([[0.0], [0.0]]), np.array([5.0]))
        assert layer.forward(x)[0, 0] == pytest.approx(5.0)
        layer.clear_effective()
        assert layer.forward(x)[0, 0] == pytest.approx(2.0)

    def test_set_effective_shape_check(self):
        layer = DenseLayer(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.set_effective(np.zeros((3, 2)), None)

    def test_num_parameters(self):
        layer = DenseLayer(10, 4, rng=np.random.default_rng(0))
        assert layer.num_parameters == 10 * 4 + 4


class TestTopologyParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("100-32-10", (100, 32, 10)),
            ("2-16-2", (2, 16, 2)),
            ([6, 16, 1], (6, 16, 1)),
            ((400, 8, 1), (400, 8, 1)),
        ],
    )
    def test_valid(self, spec, expected):
        assert parse_topology(spec) == expected

    @pytest.mark.parametrize("spec", ["", "100", "a-b", "10-0-5", [5]])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_topology(spec)

    def test_topology_counts(self):
        topology = Topology("100-32-10")
        assert topology.num_weights == 100 * 32 + 32 * 10
        assert topology.num_parameters == topology.num_weights + 32 + 10
        assert topology.name == "100-32-10"


class TestNetwork:
    def test_layer_construction(self):
        net = Network("4-8-3", seed=0)
        assert len(net.layers) == 2
        assert net.layers[0].in_features == 4
        assert net.layers[1].out_features == 3

    def test_output_activation_applied_to_last_layer_only(self):
        net = Network("4-8-3", hidden_activation="sigmoid", output_activation="identity", seed=0)
        assert net.layers[0].activation.name == "sigmoid"
        assert net.layers[1].activation.name == "identity"

    def test_forward_shape(self):
        net = Network("4-8-3", seed=0)
        assert net.predict(np.zeros((10, 4))).shape == (10, 3)

    def test_seed_reproducibility(self):
        a = Network("5-7-2", seed=99)
        b = Network("5-7-2", seed=99)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_get_set_weights_roundtrip(self):
        a = Network("5-7-2", seed=1)
        b = Network("5-7-2", seed=2)
        b.set_weights(a.get_weights())
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_set_weights_shape_mismatch(self):
        net = Network("5-7-2", seed=1)
        other = Network("5-6-2", seed=1)
        with pytest.raises(ValueError):
            net.set_weights(other.get_weights())

    def test_copy_is_independent(self):
        net = Network("3-4-2", seed=1)
        clone = net.copy()
        clone.layers[0].weights += 1.0
        assert not np.allclose(net.layers[0].weights, clone.layers[0].weights)

    def test_copy_keeps_activation_parameters(self):
        net = Network("3-4-2", hidden_activation=LeakyReLU(0.3),
                      output_activation=LeakyReLU(0.2), seed=1)
        clone = net.copy()
        assert [layer.activation.negative_slope for layer in clone.layers] == [0.3, 0.2]
        x = np.full((2, 3), -5.0)
        assert np.array_equal(net.predict(x), clone.predict(x))

    def test_num_parameters_matches_topology(self):
        net = Network("100-32-10", seed=0)
        assert net.num_parameters == Topology("100-32-10").num_parameters
        assert net.num_weights == Topology("100-32-10").num_weights

    def test_backward_computes_loss_and_gradients(self):
        net = Network("4-6-2", loss="mse", seed=3)
        x = np.random.default_rng(0).normal(size=(8, 4))
        t = np.random.default_rng(1).random((8, 2))
        predictions = net.forward(x, training=True)
        loss = net.backward(predictions, t)
        assert loss > 0
        for layer in net.layers:
            assert np.any(layer.grad_weights != 0.0)

    def test_full_network_gradient_finite_difference(self):
        net = Network("3-5-2", loss="mse", output_activation="sigmoid", seed=7)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        t = rng.random((4, 2))
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        layer = net.layers[0]
        analytic = layer.grad_weights[1, 2]
        eps = 1e-6
        layer.weights[1, 2] += eps
        loss_plus = net.loss.value(net.predict(x), t)
        layer.weights[1, 2] -= 2 * eps
        loss_minus = net.loss.value(net.predict(x), t)
        layer.weights[1, 2] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_softmax_cross_entropy_fusion_gradient(self):
        net = Network("3-4-3", loss="cross_entropy", output_activation="softmax", seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        t = np.eye(3)[labels]
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        layer = net.layers[1]
        analytic = layer.grad_weights[0, 1]
        eps = 1e-6
        layer.weights[0, 1] += eps
        loss_plus = net.loss.value(net.predict(x), t)
        layer.weights[0, 1] -= 2 * eps
        loss_minus = net.loss.value(net.predict(x), t)
        layer.weights[0, 1] += eps
        assert analytic == pytest.approx((loss_plus - loss_minus) / (2 * eps), rel=1e-3)

    def test_clear_effective_propagates(self):
        net = Network("3-4-2", seed=0)
        for layer in net.layers:
            layer.set_effective(np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        net.clear_effective()
        assert all(layer.effective_weights is None for layer in net.layers)


def _batches(seed=0, count=6):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(8, 4)), rng.random((8, 2))) for _ in range(count)]


def _train(net, batches):
    trainer = Trainer(net, optimizer="momentum", learning_rate=0.2, weight_decay=1e-3)
    for x, t in batches:
        trainer.train_step(x, t)
    return net


def _assert_same_parameters(a, b):
    for left, right in zip(a.layers, b.layers):
        assert np.array_equal(left.weights, right.weights)
        assert np.array_equal(left.bias, right.bias)


class TestFlatBuffers:
    def test_layout_is_weights_then_biases_as_views(self):
        net = Network("4-5-3-2", seed=1)
        params, grads = net.flat_buffers()
        expected = [layer.weights.ravel() for layer in net.layers]
        expected += [layer.bias.ravel() for layer in net.layers]
        assert np.array_equal(params, np.concatenate(expected))
        assert params.shape == grads.shape == (net.num_parameters,)
        for layer in net.layers:
            for tensor, base in ((layer.weights, params), (layer.bias, params),
                                 (layer.grad_weights, grads), (layer.grad_bias, grads)):
                assert np.shares_memory(tensor, base)
        assert net.flat_buffers()[0] is params

    def test_assigned_weights_are_trained(self):
        batches = _batches()
        net = _train(Network("4-6-2", seed=1), batches[:2])
        replacement = np.full((4, 6), 0.25)
        net.layers[0].weights = replacement
        expected = net.copy()
        x, t = batches[2]
        Trainer(net, optimizer="sgd", learning_rate=0.5).train_step(x, t)
        Trainer(expected, optimizer="sgd", learning_rate=0.5).train_step(x, t)
        _assert_same_parameters(net, expected)
        assert not np.array_equal(net.layers[0].weights, replacement)
        params, _ = net.flat_buffers()
        assert np.array_equal(params[:24], net.layers[0].weights.ravel())

    def test_pickle_round_trip_trains_identically(self):
        batches = _batches(1)
        net = _train(Network("4-6-3-2", seed=2), batches[:3])
        restored = pickle.loads(pickle.dumps(net))
        _assert_same_parameters(_train(net, batches[3:]), _train(restored, batches[3:]))

    def test_state_without_buffers_trains_identically(self):
        """A network pickled before the flat layout existed has no buffers."""
        batches = _batches(2)
        net = _train(Network("4-6-3-2", seed=3), batches[:3])
        state = copy.deepcopy({k: v for k, v in vars(net).items() if k != "_flat"})
        legacy = Network.__new__(Network)
        legacy.__setstate__(state)
        _assert_same_parameters(_train(net, batches[3:]), _train(legacy, batches[3:]))

    def test_pickled_state_holds_no_flat_buffer(self):
        net = Network("4-6-2", seed=4)
        unpacked = pickle.dumps(net)
        net.flat_buffers()
        assert "_flat" not in net.__getstate__()
        assert pickle.dumps(net) == unpacked

    def test_copy_buffers_are_independent(self):
        batches = _batches(3)
        net = _train(Network("4-6-2", seed=5), batches[:2])
        clone = net.copy()
        assert not np.shares_memory(net.flat_buffers()[0], clone.flat_buffers()[0])
        before = net.get_weights()
        _train(clone, batches[2:])
        for (w, b), layer in zip(before, net.layers):
            assert np.array_equal(w, layer.weights) and np.array_equal(b, layer.bias)
