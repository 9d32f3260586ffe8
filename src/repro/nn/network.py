"""Feed-forward fully-connected network.

A :class:`Network` is an ordered list of :class:`~repro.nn.layers.DenseLayer`
objects built from a *topology* — the paper describes its benchmark models by
topology strings such as ``100-32-10`` (mnist), ``400-8-1`` (facedet),
``2-16-2`` (inversek2j) and ``6-16-1`` (bscholes).

The network packs every layer's parameters into one contiguous float64
vector, all weights first and then all biases, and the gradients into a
second vector of the same layout (:meth:`Network.flat_buffers`).  Each
layer's ``weights``, ``bias``, ``grad_weights`` and ``grad_bias`` are
reshaped views into those vectors, so an optimizer step or a
memory-adaptive update is one numpy pass over the whole network instead of
one per tensor.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .activations import Activation
from .layers import DenseLayer
from .losses import Loss, get_loss

__all__ = ["Network", "Topology", "parse_topology"]


def parse_topology(topology: str | Sequence[int]) -> tuple[int, ...]:
    """Parse a topology description into a tuple of layer widths.

    Accepts either a dash-separated string (``"100-32-10"``) or a sequence of
    integers.  At least two entries (input and output widths) are required.
    """
    if isinstance(topology, str):
        try:
            widths = tuple(int(part) for part in topology.split("-"))
        except ValueError as exc:
            raise ValueError(f"invalid topology string {topology!r}") from exc
    else:
        widths = tuple(int(w) for w in topology)
    if len(widths) < 2:
        raise ValueError("topology needs at least input and output widths")
    if any(w <= 0 for w in widths):
        raise ValueError(f"topology widths must be positive, got {widths}")
    return widths


class Topology:
    """A named DNN topology (layer widths plus activation choices)."""

    def __init__(
        self,
        widths: str | Sequence[int],
        hidden_activation: str | Activation = "sigmoid",
        output_activation: str | Activation = "sigmoid",
        name: str = "",
    ) -> None:
        self.widths = parse_topology(widths)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.name = name or "-".join(str(w) for w in self.widths)

    @property
    def num_weights(self) -> int:
        """Number of weight parameters (excluding biases)."""
        return sum(a * b for a, b in zip(self.widths[:-1], self.widths[1:]))

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters including biases."""
        return self.num_weights + sum(self.widths[1:])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Topology({self.name!r})"


class Network:
    """A feed-forward stack of dense layers.

    Parameters
    ----------
    topology:
        Layer widths, e.g. ``"100-32-10"`` or ``[100, 32, 10]``, or a
        :class:`Topology` instance.
    hidden_activation / output_activation:
        Activations for hidden layers and the output layer.  Classification
        benchmarks in the paper use sigmoid hidden units with softmax or
        sigmoid outputs; regression benchmarks use a linear output.
    loss:
        Loss name or instance used by :meth:`backward` and :meth:`evaluate`.
    seed:
        Seed for weight initialization (reproducibility of the baseline vs.
        memory-adaptive comparison requires identical initial weights).
    """

    def __init__(
        self,
        topology: str | Sequence[int] | Topology,
        hidden_activation: str | Activation = "sigmoid",
        output_activation: str | Activation = "sigmoid",
        loss: str | Loss = "mse",
        weight_initializer: str | None = None,
        seed: int | None = None,
    ) -> None:
        if isinstance(topology, Topology):
            widths = topology.widths
            hidden_activation = topology.hidden_activation
            output_activation = topology.output_activation
            self.name = topology.name
        else:
            widths = parse_topology(topology)
            self.name = "-".join(str(w) for w in widths)
        self.widths = widths
        self.loss = get_loss(loss)
        rng = np.random.default_rng(seed)

        self.layers: list[DenseLayer] = []
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            is_output = index == len(widths) - 2
            activation = output_activation if is_output else hidden_activation
            self.layers.append(
                DenseLayer(
                    fan_in,
                    fan_out,
                    activation=activation,
                    weight_initializer=weight_initializer,
                    rng=rng,
                )
            )
        #: ``(params, grads, views)`` once packed; see :meth:`flat_buffers`
        self._flat: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None

    # ------------------------------------------------------------ compute

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network on a batch (or single sample) of inputs."""
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Compute the loss and backpropagate its gradient.

        Returns the scalar loss value.  Layer gradients are written into
        each layer's ``grad_weights`` / ``grad_bias`` (in place, so into the
        flat gradient vector when the buffers are packed).
        """
        loss_value = self.loss.value(predictions, targets)
        grad = self.loss.gradient(predictions, targets)
        output_layer = self.layers[-1]
        output_layer.skip_activation_gradient = (
            self.loss.fuses_with_softmax
            and output_layer.activation.name == "softmax"
        )
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        output_layer.skip_activation_gradient = False
        return loss_value

    def evaluate_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Loss on a dataset without touching gradients."""
        return self.loss.value(self.predict(x), targets)

    # --------------------------------------------------------- parameters

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def num_weights(self) -> int:
        """Number of weight parameters (the values stored in weight SRAM)."""
        return sum(layer.weights.size for layer in self.layers)

    def flat_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat ``(params, grads)`` float64 vectors behind every layer.

        Both hold all weight matrices first (layer order, row-major), then
        all bias vectors, so ``params[:num_weights]`` is every weight.  The
        vectors are packed on first use and re-packed whenever a layer
        tensor is no longer the view bound to them (after ``layer.weights =
        arr``, after unpickling, or for a network pickled before the flat
        layout existed).  Re-packing copies the current values in and
        rebinds the layers' attributes to views of the new vectors.
        """
        flat = self._flat
        if flat is None or any(
            tensor is not view for tensor, view in zip(self._tensors(), flat[2])
        ):
            flat = self._flat = self._pack()
        return flat[0], flat[1]

    def _tensors(self) -> list[np.ndarray]:
        """Every layer's weights, bias, grad_weights and grad_bias, in order."""
        return [
            tensor
            for layer in self.layers
            for tensor in (layer.weights, layer.bias, layer.grad_weights, layer.grad_bias)
        ]

    def _pack(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Copy every layer tensor into fresh flat vectors and rebind views."""
        params = np.empty(self.num_parameters)
        grads = np.empty_like(params)
        for layer, (weights, bias), (grad_weights, grad_bias) in zip(
            self.layers, self.unflatten(params), self.unflatten(grads)
        ):
            weights[...], bias[...] = layer.weights, layer.bias
            grad_weights[...], grad_bias[...] = layer.grad_weights, layer.grad_bias
            layer.weights, layer.bias = weights, bias
            layer.grad_weights, layer.grad_bias = grad_weights, grad_bias
        return params, grads, self._tensors()

    def unflatten(self, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weights, bias)`` views of a vector in the flat layout.

        ``vector`` has :attr:`num_parameters` elements ordered as
        :meth:`flat_buffers` orders them; writing a view writes ``vector``.
        """
        shapes = [layer.weights.shape for layer in self.layers]
        shapes += [layer.bias.shape for layer in self.layers]
        views = []
        start = 0
        for shape in shapes:
            stop = start + int(np.prod(shape))
            views.append(vector[start:stop].reshape(shape))
            start = stop
        depth = len(self.layers)
        return list(zip(views[:depth], views[depth:]))

    def __getstate__(self) -> dict:
        # the flat vectors are rebuilt on demand; pickles hold per-layer
        # arrays only
        state = self.__dict__.copy()
        state.pop("_flat", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat = None

    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return copies of ``(weights, bias)`` per layer."""
        return [(layer.weights.copy(), layer.bias.copy()) for layer in self.layers]

    def set_weights(self, weights: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        """Install per-layer ``(weights, bias)`` pairs (copied in)."""
        weights = list(weights)
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer parameter pairs, got {len(weights)}"
            )
        for layer, (w, b) in zip(self.layers, weights):
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ValueError("weight shapes do not match network topology")
            layer.weights = np.array(w, dtype=float, copy=True)
            layer.bias = np.array(b, dtype=float, copy=True)

    def clear_effective(self) -> None:
        """Remove fault-masked parameter views from every layer."""
        for layer in self.layers:
            layer.clear_effective()

    def copy(self) -> "Network":
        """Deep copy of the network (weights and topology, not caches).

        Activations are passed as instances, so parameterized ones (e.g.
        ``LeakyReLU(0.3)``) keep their parameters.
        """
        clone = Network(
            self.widths,
            hidden_activation=self.layers[0].activation,
            output_activation=self.layers[-1].activation,
            loss=self.loss,
        )
        clone.name = self.name
        clone.set_weights(self.get_weights())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Network({self.name!r}, loss={self.loss.name})"
