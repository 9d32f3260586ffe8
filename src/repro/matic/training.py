"""Memory-adaptive training (MAT).

MAT augments vanilla backprop with the injection-masking process of Fig. 4:

1. master float weights ``w`` are quantized to the SRAM word format,
2. the profiled AND/OR fault masks are applied to the quantized codes,
   producing the *fixed* weights ``m`` the accelerator would actually read,
3. the forward and backward passes run on ``m``, so the propagated error
   reflects the bit errors, and
4. the weight update keeps float-domain state:

   ``w[n+1] = m[n] − α · ∂J/∂m[n] + ε_q``,  with  ``ε_q = w[n] − Q(w[n])``

   i.e. the fractional quantization error is preserved so that small
   gradient updates accumulate across iterations instead of being rounded
   away (the convergence fix the paper adopts from Gupta et al.).

Each step is one numpy pass over the network's flat parameter vector
(:meth:`repro.nn.network.Network.flat_buffers`: all weights, then all
biases).  At construction the trainer lays out per-element vectors in the
same order — LSB, code and value bounds, sign bit and the ``int64`` AND/OR
code masks of each element's own tensor — so one quantize
(:func:`repro.quant.fixed_point.round_to_code`) yields the codes of every
tensor.  The codes feed both the masked view (``(codes & and) | or``,
sign-extended; see :mod:`repro.matic.masking`) and
``ε_q = clip(w) − codes·lsb``.  Reusing the codes for ``ε_q`` is exact
because quantization saturates: ``codes(clip(w)) == codes(w)``.  Every LSB is
a power of two, so dividing by the per-element LSB vector is exact and each
element rounds exactly as its tensor's own format would.
"""

from __future__ import annotations

import numpy as np

from ..nn.data import Dataset
from ..nn.network import Network
from ..nn.optimizers import Optimizer
from ..nn.trainer import Trainer, TrainingHistory
from ..quant.fixed_point import round_to_code
from ..quant.quantizer import WeightQuantizer
from .masking import FaultMaskSet, code_masks, mask_codes, sign_bit

__all__ = ["MemoryAdaptiveTrainer"]


class MemoryAdaptiveTrainer(Trainer):
    """Trainer implementing the paper's memory-adaptive weight update rule.

    Parameters
    ----------
    network:
        The model to train; its master weights stay in float, its effective
        weights are replaced by the quantized/fault-masked view every step.
    mask_set:
        Injection masks (profiled or synthetic) plus per-layer fixed-point
        formats.  Use :meth:`repro.matic.masking.FaultMaskSet.identity` to
        run quantized-but-fault-free training.  The masks and formats are
        laid out as per-element vectors over the flat parameter vector once,
        at construction.
    optimizer, learning_rate, batch_size, epochs, patience, seed:
        As in :class:`repro.nn.trainer.Trainer`.
    """

    def __init__(
        self,
        network: Network,
        mask_set: FaultMaskSet,
        optimizer: str | Optimizer = "momentum",
        learning_rate: float = 0.1,
        batch_size: int = 32,
        epochs: int = 50,
        patience: int | None = None,
        lr_decay: float = 0.93,
        weight_decay: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(
            network,
            optimizer=optimizer,
            learning_rate=learning_rate,
            batch_size=batch_size,
            epochs=epochs,
            patience=patience,
            lr_decay=lr_decay,
            weight_decay=weight_decay,
            seed=seed,
        )
        if len(mask_set) != len(network.layers):
            raise ValueError("mask set depth does not match the network")
        self.mask_set = mask_set
        # per-element vectors in the network's flat layout (all weights,
        # then all biases), each element carrying its own tensor's format
        formats = [(fmt.weight_format, fmt.bias_format) for fmt in mask_set.layer_formats]

        def per_element(value_of, dtype=float) -> np.ndarray:
            vector = np.empty(network.num_parameters, dtype=dtype)
            for (weights, bias), (weight_format, bias_format) in zip(
                network.unflatten(vector), formats
            ):
                weights[...] = value_of(weight_format)
                bias[...] = value_of(bias_format)
            return vector

        # one tensor wider than 53 bits sends the whole vector down the
        # exact integer path, with integer code bounds
        self._wide = any(fmt.total_bits > 53 for pair in formats for fmt in pair)
        code_dtype = np.int64 if self._wide else float
        self._lsb = per_element(lambda fmt: fmt.scale)
        self._min_code = per_element(lambda fmt: fmt.min_code, code_dtype)
        self._max_code = per_element(lambda fmt: fmt.max_code, code_dtype)
        self._min_value = per_element(lambda fmt: fmt.min_value)
        self._max_value = per_element(lambda fmt: fmt.max_value)
        self._sign = per_element(sign_bit, np.int64)
        self._and_code = np.empty(network.num_parameters, dtype=np.int64)
        self._or_code = np.empty_like(self._and_code)
        and_views = network.unflatten(self._and_code)
        or_views = network.unflatten(self._or_code)
        for index, masks in enumerate(mask_set.layer_masks):
            weight_format, bias_format = formats[index]
            (and_weights, and_bias), (or_weights, or_bias) = and_views[index], or_views[index]
            if (masks.weight_and.shape, masks.bias_and.shape) != (and_weights.shape, and_bias.shape):
                raise ValueError("mask shapes do not match the network's parameters")
            and_weights[...], or_weights[...] = code_masks(
                masks.weight_and, masks.weight_or, weight_format
            )
            and_bias[...], or_bias[...] = code_masks(masks.bias_and, masks.bias_or, bias_format)
        self._num_weights = network.num_weights
        # the masked view m, which the layers read through their views of it
        self._effective = np.empty(network.num_parameters)
        self._effective_views = network.unflatten(self._effective)

    @classmethod
    def from_config(cls, network: Network, mask_set: FaultMaskSet, config) -> "MemoryAdaptiveTrainer":
        """Build a trainer from a :class:`repro.matic.flow.TrainingConfig`.

        The single construction point the MATIC flow uses for both cold
        (full-budget) and warm-started (reduced ``epochs``/``patience``)
        fine-tuning runs — every hyper-parameter comes from ``config``, so a
        sweep that swaps configs between operating points can never leak a
        stale setting from the flow's defaults.  ``config`` is duck-typed to
        avoid a circular import; any object with the ``TrainingConfig``
        fields works.
        """
        return cls(
            network,
            mask_set,
            optimizer=config.optimizer,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            epochs=config.epochs,
            patience=config.patience,
            lr_decay=config.lr_decay,
            weight_decay=config.weight_decay,
            seed=config.seed,
        )

    # ------------------------------------------------------------------

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One MAT iteration: quantize, mask, forward, backward, adapted update."""
        params, grads = self.network.flat_buffers()
        codes = round_to_code(params, self._lsb, self._min_code, self._max_code, wide=self._wide)
        # m = sign_extend((codes & and) | or) · lsb
        masked = mask_codes(codes, self._and_code, self._or_code, self._sign)
        effective = np.multiply(masked, self._lsb, out=self._effective)
        for layer, (weights, bias) in zip(self.network.layers, self._effective_views):
            layer.set_effective(weights, bias)

        predictions = self.network.forward(inputs, training=True)
        loss_value = self.network.backward(predictions, targets)
        if self.weight_decay:
            weights = slice(self._num_weights)
            grads[weights] += self.weight_decay * effective[weights]

        # optimizer delta corresponds to α · ∂J/∂m (with momentum/Adam
        # generalizations handled by the optimizer itself)
        delta = self.optimizer.parameter_delta("parameters", grads)
        # w = clip(m − delta + ε_q) with ε_q = clip(w) − codes·lsb, the
        # *fractional* (sub-LSB) quantization error of the master.  The
        # master is clamped first; otherwise a master pushed outside the
        # range by a fault would make ε_q the full clipping error and the
        # float weights would drift without bound.  np.clip is spelled as
        # two ufuncs (same values, a fraction of the call overhead).
        eps = np.minimum(np.maximum(params, self._min_value), self._max_value)
        eps -= codes * self._lsb
        np.subtract(effective, delta, out=params)
        params += eps
        np.maximum(params, self._min_value, out=params)
        np.minimum(params, self._max_value, out=params)
        return loss_value

    def fit(
        self,
        train: Dataset,
        validation: Dataset | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train and leave the network carrying the masked deployment view.

        After training, the network's *effective* parameters hold the
        quantized, fault-masked weights (what the accelerator will compute
        with), while the master parameters hold the float training state.
        Evaluation of the deployed behaviour should therefore use the network
        as-is; call :meth:`repro.nn.network.Network.clear_effective` to get
        back the pure float model.
        """
        history = super().fit(train, validation=validation, verbose=verbose)
        self.mask_set.install(self.network)
        return history

    # ------------------------------------------------------------------

    def deployed_accuracy_view(self) -> Network:
        """Return a copy of the network whose *master* weights are the masked view.

        Useful for handing the trained-around model to tooling that ignores
        effective weights (e.g. the weight quantizer during deployment).
        """
        clone = self.network.copy()
        for index, layer in enumerate(clone.layers):
            layer.weights, layer.bias = self.mask_set.masked_layer_parameters(clone, index)
        return clone


def quantizer_for(mask_set: FaultMaskSet) -> WeightQuantizer:
    """Convenience: a quantizer matching the mask set's word length."""
    return WeightQuantizer(total_bits=mask_set.word_bits)
