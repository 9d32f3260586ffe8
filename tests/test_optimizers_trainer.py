"""Unit tests for repro.nn.optimizers and repro.nn.trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Dataset,
    MomentumSGD,
    Network,
    Trainer,
    classification_error,
    get_optimizer,
    iterate_minibatches,
    one_hot,
)


def quadratic_network():
    """A 1-parameter linear model we can reason about analytically."""
    net = Network("1-1", hidden_activation="identity", output_activation="identity", loss="mse", seed=0)
    net.layers[0].weights = np.array([[0.0]])
    net.layers[0].bias = np.array([0.0])
    return net


class TestOptimizers:
    def test_sgd_step_direction(self):
        net = quadratic_network()
        x, t = np.array([[1.0]]), np.array([[1.0]])
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        SGD(learning_rate=0.5).step(net)
        # gradient of (w*1 - 1)^2 at w=0 is -2, so w moves to +1.0 with lr 0.5
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0)

    def test_sgd_parameter_delta(self):
        delta = SGD(learning_rate=0.1).parameter_delta("w", np.array([2.0]))
        np.testing.assert_allclose(delta, [0.2])

    def test_momentum_accumulates(self):
        opt = MomentumSGD(learning_rate=0.1, momentum=0.9)
        g = np.array([1.0])
        first = opt.parameter_delta("w", g).copy()
        second = opt.parameter_delta("w", g).copy()
        assert second[0] == pytest.approx(first[0] * 1.9)

    def test_momentum_reset_clears_state(self):
        opt = MomentumSGD(learning_rate=0.1, momentum=0.9)
        opt.parameter_delta("w", np.array([1.0]))
        opt.reset()
        fresh = opt.parameter_delta("w", np.array([1.0]))
        assert fresh[0] == pytest.approx(0.1)

    def test_momentum_validates_coefficient(self):
        with pytest.raises(ValueError):
            MomentumSGD(momentum=1.0)

    def test_adam_bias_correction_first_step(self):
        opt = Adam(learning_rate=0.01)
        delta = opt.parameter_delta("w", np.array([0.5]))
        # first Adam step magnitude is ~learning_rate regardless of gradient scale
        assert abs(delta[0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_per_parameter_state(self):
        opt = Adam(learning_rate=0.01)
        opt.parameter_delta("a", np.array([1.0]))
        delta_b = opt.parameter_delta("b", np.array([1.0]))
        assert abs(delta_b[0]) == pytest.approx(0.01, rel=1e-3)

    def test_learning_rate_validation(self):
        for cls in (SGD, MomentumSGD, Adam):
            with pytest.raises(ValueError):
                cls(learning_rate=0.0)

    @pytest.mark.parametrize("name,cls", [("sgd", SGD), ("momentum", MomentumSGD), ("adam", Adam)])
    def test_registry(self, name, cls):
        assert isinstance(get_optimizer(name), cls)

    def test_registry_unknown(self):
        with pytest.raises(ValueError):
            get_optimizer("rmsprop")

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
    def test_all_optimizers_reduce_loss(self, optimizer, toy_dataset):
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        lr = 0.02 if optimizer == "adam" else 0.3
        trainer = Trainer(net, optimizer=optimizer, learning_rate=lr, epochs=10, seed=2)
        history = trainer.fit(toy_dataset)
        assert history.train_loss[-1] < history.train_loss[0]


class TestTrainer:
    def test_validation_history_recorded(self, toy_dataset):
        train = toy_dataset.subset(np.arange(0, 300))
        validation = toy_dataset.subset(np.arange(300, 400))
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        history = Trainer(net, epochs=5, learning_rate=0.3, seed=2).fit(train, validation)
        assert len(history.validation_loss) == history.epochs_run == 5

    def test_early_stopping_restores_best_weights(self, toy_dataset):
        train = toy_dataset.subset(np.arange(0, 300))
        validation = toy_dataset.subset(np.arange(300, 400))
        net = Network("8-16-2", loss="binary_cross_entropy", seed=1)
        trainer = Trainer(net, epochs=60, learning_rate=1.0, patience=3, seed=2)
        history = trainer.fit(train, validation)
        assert history.epochs_run <= 60
        # the network's validation loss equals the best recorded value
        best = min(history.validation_loss)
        current = net.evaluate_loss(validation.inputs, validation.targets)
        assert current == pytest.approx(best, rel=1e-6)

    def test_lr_decay_applied_per_epoch(self, toy_dataset):
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        trainer = Trainer(net, epochs=5, learning_rate=1.0, lr_decay=0.5, seed=2)
        trainer.fit(toy_dataset)
        assert trainer.optimizer.learning_rate == pytest.approx(1.0 * 0.5**5)

    def test_invalid_hyperparameters(self):
        net = Network("2-2", seed=0)
        with pytest.raises(ValueError):
            Trainer(net, batch_size=0)
        with pytest.raises(ValueError):
            Trainer(net, epochs=0)
        with pytest.raises(ValueError):
            Trainer(net, lr_decay=0.0)

    def test_training_learns_separable_problem(self, toy_dataset):
        net = Network("8-16-2", loss="binary_cross_entropy", seed=3)
        Trainer(net, learning_rate=0.3, epochs=40, seed=4).fit(toy_dataset)
        error = classification_error(net.predict(toy_dataset.inputs), toy_dataset.labels)
        assert error < 0.08

    def test_deterministic_given_seeds(self, toy_dataset):
        def run():
            net = Network("8-8-2", loss="binary_cross_entropy", seed=5)
            Trainer(net, learning_rate=0.3, epochs=5, seed=6).fit(toy_dataset)
            return net.predict(toy_dataset.inputs[:10])

        np.testing.assert_allclose(run(), run())

    def test_regression_training(self, toy_regression_dataset):
        net = Network(
            "4-8-1", output_activation="sigmoid", loss="mse", seed=2
        )
        history = Trainer(net, learning_rate=0.5, epochs=30, seed=3).fit(toy_regression_dataset)
        assert history.final_train_loss < 0.01


class _PerTensorReference:
    """The per-tensor update rule: one optimizer update per weight tensor and
    per bias tensor, each with its own state, as ``Optimizer.step`` used to
    apply it."""

    def __init__(self, kind, learning_rate, momentum=0.9, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind, self.learning_rate = kind, learning_rate
        self.momentum, self.beta1, self.beta2, self.eps = momentum, beta1, beta2, eps
        self.state = {}

    def delta(self, key, gradient):
        lr = self.learning_rate
        if self.kind == "sgd":
            return lr * gradient
        if self.kind == "momentum":
            velocity = self.state.get(key, np.zeros_like(gradient))
            velocity = self.momentum * velocity + lr * gradient
            self.state[key] = velocity
            return velocity
        m, v, t = self.state.get(key, (np.zeros_like(gradient), np.zeros_like(gradient), 0))
        t += 1
        m = self.beta1 * m + (1.0 - self.beta1) * gradient
        v = self.beta2 * v + (1.0 - self.beta2) * gradient * gradient
        self.state[key] = (m, v, t)
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def train_epoch(self, network, dataset, batch_size, rng, weight_decay):
        for x, y in iterate_minibatches(dataset.inputs, dataset.targets, batch_size, rng=rng):
            network.backward(network.forward(x, training=True), y)
            for layer in network.layers:
                layer.grad_weights = layer.grad_weights + weight_decay * layer.weights
            for index, layer in enumerate(network.layers):
                layer.weights -= self.delta(f"layer{index}.weights", layer.grad_weights)
                layer.bias -= self.delta(f"layer{index}.bias", layer.grad_bias)


class TestFlatStepRegression:
    """One flat optimizer pass per step must equal per-tensor updates bit for bit."""

    @pytest.mark.parametrize(
        "name,learning_rate", [("sgd", 0.3), ("momentum", 0.3), ("adam", 0.02)]
    )
    def test_fit_matches_per_tensor_reference_every_epoch(
        self, toy_dataset, name, learning_rate
    ):
        optimizer = get_optimizer(name, learning_rate=learning_rate)
        network = Network("8-12-6-2", loss="binary_cross_entropy", seed=3)
        reference_net = network.copy()
        weight_decay, lr_decay, batch_size = 1e-3, 0.9, 16
        trainer = Trainer(network, optimizer=optimizer, batch_size=batch_size, epochs=1,
                          lr_decay=lr_decay, weight_decay=weight_decay, seed=4)
        reference = _PerTensorReference(name, learning_rate)
        reference_rng = np.random.default_rng(4)
        for _ in range(4):
            trainer.fit(toy_dataset)
            reference.train_epoch(
                reference_net, toy_dataset, batch_size, reference_rng, weight_decay
            )
            reference.learning_rate *= lr_decay
            for layer, expected in zip(network.layers, reference_net.layers):
                assert np.array_equal(layer.weights, expected.weights)
                assert np.array_equal(layer.bias, expected.bias)
