"""Injection masking: applying SRAM fault maps to DNN weights.

This is the mechanism of Fig. 4 in the paper: profiled bit-cell failures are
expressed as per-word AND masks (cells stuck at 0) and OR masks (cells stuck
at 1).  During memory-adaptive training, the masks are applied to the
quantized weights before every forward pass so backprop sees — and
compensates for — exactly the corruption the deployed SRAM will inflict.

The masks act on the signed integer codes directly, never on unsigned
words.  With the masks restricted to the ``total_bits`` of the word and
``s = 1 << (total_bits - 1)``, the value the accelerator reads is::

    x = (code & and_mask) | or_mask      # low total_bits of the word
    code' = (x ^ s) - s                  # sign-extend to int64

which equals ``word_to_code((code_to_word(code) & and_mask) | or_mask)``
without the uint64 round trip (64-bit words need no extension).

Two construction paths are provided:

* :meth:`FaultMaskSet.from_fault_maps` — derive masks from per-bank fault
  maps through the compiled weight placement (the post-silicon flow), and
* :meth:`FaultMaskSet.random` — statically flip a random proportion of
  weight bits (the paper's pre-silicon feasibility study, Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accelerator.microcode import WeightPlacement
from ..nn.network import Network
from ..quant.quantizer import LayerQuantization, WeightQuantizer
from ..sram.bitops import pack_bits, popcount
from ..sram.fault_map import FaultMap

__all__ = [
    "LayerMasks",
    "FaultMaskSet",
    "apply_masks_to_values",
    "code_masks",
    "mask_codes",
    "masked_values",
    "sign_bit",
]


def code_masks(
    and_mask: np.ndarray, or_mask: np.ndarray, fmt
) -> tuple[np.ndarray, np.ndarray]:
    """AND/OR word masks as ``int64`` masks over ``fmt``'s signed codes.

    Bits above ``fmt.total_bits`` are dropped, so they stay ignored exactly
    as the word path ignores them.
    """
    word = np.uint64(fmt.word_mask)
    return (
        (np.asarray(and_mask, dtype=np.uint64) & word).view(np.int64),
        (np.asarray(or_mask, dtype=np.uint64) & word).view(np.int64),
    )


def sign_bit(fmt) -> int:
    """``fmt``'s sign bit, for sign extension; 0 for 64-bit words (none needed)."""
    return 1 << (fmt.total_bits - 1) if fmt.total_bits < 64 else 0


def mask_codes(
    codes: np.ndarray, and_code: np.ndarray, or_code: np.ndarray, sign: int | np.ndarray
) -> np.ndarray:
    """Fault-masked codes ``sign_extend((codes & and) | or)``.

    ``sign`` is :func:`sign_bit` of the format, a scalar or one per element;
    ``codes`` is left untouched.
    """
    masked = np.bitwise_and(codes, and_code)
    masked |= or_code
    masked ^= sign
    masked -= sign
    return masked


def masked_values(
    codes: np.ndarray, and_code: np.ndarray, or_code: np.ndarray, fmt
) -> np.ndarray:
    """Float value of the fault-masked codes, ``sign_extend((c & and) | or)``.

    ``codes`` come from ``fmt.quantize_to_code`` and the masks from
    :func:`code_masks`; ``codes`` is left untouched.
    """
    return fmt.dequantize_code(mask_codes(codes, and_code, or_code, sign_bit(fmt)))


def apply_masks_to_values(
    values: np.ndarray,
    and_mask: np.ndarray,
    or_mask: np.ndarray,
    fmt,
) -> np.ndarray:
    """Quantize float values, corrupt their SRAM words, and decode back.

    Implements ``dequant((Q(values) & and_mask) | or_mask)`` with the given
    fixed-point format — the value the accelerator would actually read.
    """
    and_code, or_code = code_masks(and_mask, or_mask, fmt)
    return masked_values(fmt.quantize_to_code(values), and_code, or_code, fmt)


@dataclass
class LayerMasks:
    """Per-layer injection masks, aligned with the layer's parameter shapes."""

    weight_and: np.ndarray
    weight_or: np.ndarray
    bias_and: np.ndarray
    bias_or: np.ndarray
    #: SRAM word length the masks describe (bits above it are ignored)
    word_bits: int = 16

    def __post_init__(self) -> None:
        for name in ("weight_and", "weight_or", "bias_and", "bias_or"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.uint64))
        if self.weight_and.shape != self.weight_or.shape:
            raise ValueError("weight mask shapes must match")
        if self.bias_and.shape != self.bias_or.shape:
            raise ValueError("bias mask shapes must match")
        if not 1 <= int(self.word_bits) <= 64:
            raise ValueError("word_bits must be in [1, 64]")

    @property
    def num_faulty_weight_bits(self) -> int:
        """Number of weight bits pinned by the masks."""
        full = np.uint64((1 << int(self.word_bits)) - 1)
        cleared = popcount(~self.weight_and & full)
        setbits = popcount(self.weight_or & full)
        return int(cleared + setbits)

    @classmethod
    def identity(cls, weight_shape: tuple[int, ...], bias_shape: tuple[int, ...], word_bits: int) -> "LayerMasks":
        """Masks that leave every bit untouched."""
        full = np.uint64((1 << word_bits) - 1)
        return cls(
            weight_and=np.full(weight_shape, full, dtype=np.uint64),
            weight_or=np.zeros(weight_shape, dtype=np.uint64),
            bias_and=np.full(bias_shape, full, dtype=np.uint64),
            bias_or=np.zeros(bias_shape, dtype=np.uint64),
            word_bits=word_bits,
        )


class FaultMaskSet:
    """Injection masks for every layer of a network, plus the formats used.

    The mask set is the contract between the SRAM profiling step and the
    memory-adaptive trainer: it fully determines how the deployed weights
    will be corrupted at the profiled operating point.
    """

    def __init__(
        self,
        layer_masks: list[LayerMasks],
        layer_formats: list[LayerQuantization],
        word_bits: int,
        description: str = "",
    ) -> None:
        if len(layer_masks) != len(layer_formats):
            raise ValueError("one LayerMasks per LayerQuantization is required")
        self.layer_masks = list(layer_masks)
        self.layer_formats = list(layer_formats)
        self.word_bits = int(word_bits)
        self.description = description

    def __len__(self) -> int:
        return len(self.layer_masks)

    @property
    def total_faulty_bits(self) -> int:
        return sum(masks.num_faulty_weight_bits for masks in self.layer_masks)

    def fault_rate(self) -> float:
        """Fraction of weight bits pinned across the whole network."""
        total_bits = sum(m.weight_and.size * self.word_bits for m in self.layer_masks)
        if total_bits == 0:
            return 0.0
        return self.total_faulty_bits / total_bits

    # ----------------------------------------------------------- apply

    def masked_layer_parameters(
        self, network: Network, layer_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantized, fault-masked view of one layer's master parameters."""
        layer = network.layers[layer_index]
        masks = self.layer_masks[layer_index]
        fmt = self.layer_formats[layer_index]
        weights = apply_masks_to_values(
            layer.weights, masks.weight_and, masks.weight_or, fmt.weight_format
        )
        bias = apply_masks_to_values(
            layer.bias, masks.bias_and, masks.bias_or, fmt.bias_format
        )
        return weights, bias

    def install(self, network: Network) -> None:
        """Set every layer's effective parameters to the masked view."""
        if len(network.layers) != len(self.layer_masks):
            raise ValueError("mask set does not match network depth")
        for index, layer in enumerate(network.layers):
            weights, bias = self.masked_layer_parameters(network, index)
            layer.set_effective(weights, bias)

    # ----------------------------------------------------- constructors

    @classmethod
    def identity(cls, network: Network, quantizer: WeightQuantizer) -> "FaultMaskSet":
        """A no-fault mask set (pure quantization, no bit errors)."""
        formats = quantizer.layer_formats(network)
        masks = [
            LayerMasks.identity(layer.weights.shape, layer.bias.shape, quantizer.total_bits)
            for layer in network.layers
        ]
        return cls(masks, formats, quantizer.total_bits, description="identity")

    @classmethod
    def from_fault_maps(
        cls,
        network: Network,
        quantizer: WeightQuantizer,
        placement: WeightPlacement,
        fault_maps: list[FaultMap],
        description: str = "",
    ) -> "FaultMaskSet":
        """Build masks from profiled per-bank fault maps via the placement."""
        formats = quantizer.layer_formats(network)
        masks: list[LayerMasks] = []
        for layer_index in range(len(network.layers)):
            weight_and, weight_or, bias_and, bias_or = placement.layer_fault_masks(
                fault_maps, layer_index, quantizer.total_bits
            )
            masks.append(
                LayerMasks(
                    weight_and, weight_or, bias_and, bias_or, word_bits=quantizer.total_bits
                )
            )
        return cls(masks, formats, quantizer.total_bits, description=description)

    @classmethod
    def random(
        cls,
        network: Network,
        quantizer: WeightQuantizer,
        fault_rate: float,
        rng: np.random.Generator | int | None = None,
        include_bias: bool = True,
        stuck_one_probability: float = 0.5,
        description: str = "",
    ) -> "FaultMaskSet":
        """Statically flip a random proportion of weight bits (Fig. 5 study)."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        formats = quantizer.layer_formats(network)
        word_bits = quantizer.total_bits
        full = np.uint64((1 << word_bits) - 1)
        masks: list[LayerMasks] = []
        for layer in network.layers:
            layer_masks = LayerMasks.identity(layer.weights.shape, layer.bias.shape, word_bits)
            layer_masks.weight_and, layer_masks.weight_or = _random_masks(
                layer.weights.shape, word_bits, fault_rate, stuck_one_probability, rng, full
            )
            if include_bias:
                layer_masks.bias_and, layer_masks.bias_or = _random_masks(
                    layer.bias.shape, word_bits, fault_rate, stuck_one_probability, rng, full
                )
            masks.append(layer_masks)
        return cls(
            masks,
            formats,
            word_bits,
            description=description or f"random fault rate {fault_rate:.3f}",
        )


def _random_masks(
    shape: tuple[int, ...],
    word_bits: int,
    fault_rate: float,
    stuck_one_probability: float,
    rng: np.random.Generator,
    full: np.uint64,
) -> tuple[np.ndarray, np.ndarray]:
    """Random per-word AND/OR masks with the given bit-level fault rate.

    The RNG draws (two uniform matrices over ``shape + (word_bits,)``) match
    the pre-vectorized implementation exactly, so masks for a given generator
    state are bit-identical to the historical ones.
    """
    stuck = rng.random(shape + (word_bits,)) < fault_rate
    stuck_one = rng.random(shape + (word_bits,)) < stuck_one_probability
    cleared = pack_bits(stuck & ~stuck_one)
    and_mask = np.full(shape, full, dtype=np.uint64) ^ cleared
    or_mask = pack_bits(stuck & stuck_one)
    return and_mask, or_mask
