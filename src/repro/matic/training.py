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

Each step quantizes every master tensor once.  The ``int64`` codes feed both
the masked view (``(codes & and) | or``, sign-extended; see
:mod:`repro.matic.masking`) and ``ε_q = clip(w) − codes·lsb``.  Reusing the
codes for ``ε_q`` is exact because quantization saturates:
``codes(clip(w)) == codes(w)``.
"""

from __future__ import annotations

import numpy as np

from ..nn.data import Dataset
from ..nn.network import Network
from ..nn.optimizers import Optimizer
from ..nn.trainer import Trainer, TrainingHistory
from ..quant.quantizer import WeightQuantizer
from .masking import FaultMaskSet, code_masks, masked_values

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
        run quantized-but-fault-free training.  The masks are converted to
        ``int64`` code masks once, at construction.
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
        # per layer: weight/bias formats and their int64 code masks, read
        # from the mask set once here
        self._layer_kernels = [
            (
                fmt.weight_format,
                fmt.bias_format,
                code_masks(masks.weight_and, masks.weight_or, fmt.weight_format),
                code_masks(masks.bias_and, masks.bias_or, fmt.bias_format),
            )
            for masks, fmt in zip(mask_set.layer_masks, mask_set.layer_formats)
        ]

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
        layer_codes = []
        for layer, (weight_format, bias_format, weight_masks, bias_masks) in zip(
            self.network.layers, self._layer_kernels
        ):
            weight_codes = weight_format.quantize_to_code(layer.weights)
            bias_codes = bias_format.quantize_to_code(layer.bias)
            layer.set_effective(
                masked_values(weight_codes, *weight_masks, weight_format),
                masked_values(bias_codes, *bias_masks, bias_format),
            )
            layer_codes.append((weight_codes, bias_codes))

        predictions = self.network.forward(inputs, training=True)
        loss_value = self.network.backward(predictions, targets)
        if self.weight_decay:
            for layer in self.network.layers:
                layer.grad_weights = (
                    layer.grad_weights + self.weight_decay * layer.effective_weights
                )

        for index, layer in enumerate(self.network.layers):
            weight_format, bias_format, _, _ = self._layer_kernels[index]
            weight_codes, bias_codes = layer_codes[index]
            # optimizer delta corresponds to α · ∂J/∂m (with momentum/Adam
            # generalizations handled by the optimizer itself)
            delta_weights = self.optimizer.parameter_delta(
                f"layer{index}.weights", layer.grad_weights
            )
            delta_bias = self.optimizer.parameter_delta(
                f"layer{index}.bias", layer.grad_bias
            )
            # m[n] (the masked parameters the passes just used) − delta + ε_q
            layer.weights = _adapted_update(
                layer.effective_weights, delta_weights, layer.weights, weight_codes, weight_format
            )
            layer.bias = _adapted_update(
                layer.effective_bias, delta_bias, layer.bias, bias_codes, bias_format
            )

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


def _adapted_update(
    masked: np.ndarray, delta: np.ndarray, master: np.ndarray, codes: np.ndarray, fmt
) -> np.ndarray:
    """``clip(m − delta + ε_q)`` with ``ε_q = clip(w) − codes·lsb``.

    ``ε_q`` is the *fractional* (sub-LSB) quantization error of the master.
    The master is clamped to the representable range first; otherwise a
    master pushed outside the range by a fault would make ``ε_q`` the full
    clipping error and the float weights would drift without bound.
    """
    low, high = fmt.min_value, fmt.max_value
    # np.clip spelled as two ufuncs (same values, a fraction of the
    # call overhead on these small tensors)
    eps = np.minimum(np.maximum(master, low), high)
    eps -= fmt.dequantize_code(codes)
    updated = masked - delta
    updated += eps
    np.maximum(updated, low, out=updated)
    return np.minimum(updated, high, out=updated)


def quantizer_for(mask_set: FaultMaskSet) -> WeightQuantizer:
    """Convenience: a quantizer matching the mask set's word length."""
    return WeightQuantizer(total_bits=mask_set.word_bits)
