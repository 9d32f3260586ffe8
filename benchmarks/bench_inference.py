"""Inference read-path microbenchmark.

Microbenchmark for the inference engine itself: measures the
operating-point-resident SRAM read path + compiled gather plans + decode
memoization against a faithful reconstruction of the pre-PR path —
bit-matrix SRAM storage with a per-read unpack → V_min compare → repack
round-trip, a per-segment Python scatter loop in ``compute_layer``, a
per-neuron/per-segment weight store, and a full ``word_to_float`` re-decode
per layer per call.

Four measurements on a fig10-style workload (100-32-10 MLP, 8 PEs,
512x16-bit banks, the paper's voltage grid):

* ``single_point`` — one inference batch at the 0.50 V MEP, cold (fresh
  chip, masks and plans not yet compiled) and warm (best of repeats).
* ``sweep`` — the full multi-voltage grid, one refreshed measurement per
  point (exactly what the fig10/table1 naive column runs), old vs new, cold
  and warm.

Every grid point is asserted bit-identical between the two paths: float
outputs, execution statistics (cycles/macs/sram_reads), and the
post-measurement bank contents (persisted corruption).  The session fails
if the warm sweep speedup falls below the 5x floor.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_inference.py

Prints the session as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accelerator.npu import Npu  # noqa: E402
from repro.accelerator.systolic import evaluate_layer_words  # noqa: E402
from repro.nn import Network  # noqa: E402
from repro.quant import WeightQuantizer  # noqa: E402
from repro.sram.array import SramBank, WeightMemorySystem  # noqa: E402
from repro.sram.bitops import pack_bits, unpack_words  # noqa: E402

TOPOLOGY = "100-32-10"
NUM_PES = 8
WORDS_PER_BANK = 512
WORD_BITS = 16
BATCH = 64
SEED = 3
CHIP_SEED = 11
#: the fig10 grid: nominal reference plus the paper's overscaled points
VOLTAGES = (0.90, 0.53, 0.52, 0.51, 0.50, 0.48, 0.46)
SINGLE_POINT = 0.50
TEMPERATURE = 25.0
SPEEDUP_FLOOR = 5.0
#: best-of repeats; generous because the floor gates CI on a shared runner
REPEATS = 5


# --------------------------------------------------------------------------
# Pre-PR reference: bit-matrix storage + per-read unpack/compare/repack,
# per-segment scatter loop, per-neuron store, full decode per layer per call.


class OldReadBank(SramBank):
    """The pre-PR SramBank access path on the same sampled cell population."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._bits = np.zeros((self.num_words, self.word_bits), dtype=np.uint8)

    def write(self, addresses, words) -> None:
        addresses = self._check_addresses(addresses)
        words = np.atleast_1d(np.asarray(words, dtype=np.uint64)) & np.uint64(
            self.word_mask
        )
        if words.shape != addresses.shape:
            if words.size == 1:
                words = np.full(addresses.shape, words[0], dtype=np.uint64)
            else:
                raise ValueError("addresses and words must have matching lengths")
        self._bits[addresses] = unpack_words(words, self.word_bits)
        self.write_count += int(addresses.size)

    def read(self, addresses, voltage=0.9, temperature=25.0) -> np.ndarray:
        addresses = self._check_addresses(addresses)
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        vmin = self.effective_vmin(temperature)[addresses]
        disturbed = vmin > float(voltage)
        bits = self._bits[addresses]
        preferred = self.cells.preferred_state[addresses]
        new_bits = np.where(disturbed, preferred, bits)
        self._bits[addresses] = new_bits
        self.read_count += int(addresses.size)
        return pack_bits(new_bits)

    def stored_words(self) -> np.ndarray:
        return pack_bits(self._bits)


def build_memory(bank_cls) -> WeightMemorySystem:
    """Identically seeded memory system over either bank implementation."""
    root = np.random.SeedSequence(CHIP_SEED)
    banks = [
        bank_cls(
            WORDS_PER_BANK,
            WORD_BITS,
            seed=np.random.default_rng(child),
            name=f"pe{index}.weights",
        )
        for index, child in enumerate(root.spawn(NUM_PES))
    ]
    return WeightMemorySystem(banks)


def old_store(placement, memory, quantized) -> None:
    """The pre-PR per-neuron, per-segment weight store."""
    for layer, weight_words, bias_words in zip(
        placement.layers, quantized.weight_words, quantized.bias_words
    ):
        for neuron_placement in layer.neurons:
            words = np.concatenate(
                [[bias_words[neuron_placement.neuron]], weight_words[:, neuron_placement.neuron]]
            ).astype(np.uint64)
            for segment in neuron_placement.segments:
                addresses = np.arange(segment.base_address, segment.end_address)
                memory[segment.pe].write(
                    addresses,
                    words[segment.word_offset : segment.word_offset + segment.length],
                )


def old_compute_layer(ring, inputs, program, placement, voltage, temperature):
    """The pre-PR compute_layer: per-segment Python scatter + full decode."""
    from repro.accelerator.systolic import LayerExecutionStats

    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(1, -1)
    layer_placement = placement.layers[program.layer_index]
    batch = inputs.shape[0]
    reads_before = sum(bank.read_count for bank in ring.memory)
    word_matrix = np.zeros(
        (program.out_features, program.in_features + 1), dtype=np.uint64
    )
    for pe_index, pe in enumerate(ring.pes):
        assigned = layer_placement.segments_on(pe_index)
        if not assigned:
            continue
        addresses = np.concatenate(
            [np.arange(s.base_address, s.end_address) for _, s in assigned]
        )
        words = pe.weight_bank.read(addresses, voltage=voltage, temperature=temperature)
        cursor = 0
        hosted_weight_words = 0
        for placement_entry, segment in assigned:
            word_matrix[
                placement_entry.neuron,
                segment.word_offset : segment.word_offset + segment.length,
            ] = words[cursor : cursor + segment.length]
            cursor += segment.length
            hosted_weight_words += segment.length - (1 if segment.word_offset == 0 else 0)
        pe.mac_count += batch * hosted_weight_words
    outputs = evaluate_layer_words(inputs, word_matrix, program, ring.data_format)
    passes = layer_placement.passes_required(ring.num_pes)
    stats = LayerExecutionStats(
        layer_index=program.layer_index,
        batch_size=batch,
        passes=passes,
        cycles=passes * (program.in_features + 1 + ring.pipeline_overhead),
        macs=program.in_features * program.out_features * batch,
        sram_reads=sum(bank.read_count for bank in ring.memory) - reads_before,
    )
    return outputs, stats


def old_run(npu, inputs, voltage, temperature=TEMPERATURE):
    """The pre-PR Npu.run loop over old_compute_layer."""
    from repro.accelerator.npu import InferenceStats

    activations = npu.data_format.quantize(np.asarray(inputs, dtype=float))
    if activations.ndim == 1:
        activations = activations.reshape(1, -1)
    stats = InferenceStats(batch_size=activations.shape[0])
    for layer_program in npu.program.layers:
        pre, layer_stats = old_compute_layer(
            npu.ring, activations, layer_program, npu.program.placement, voltage, temperature
        )
        activations = npu.afu.apply(layer_program.activation, pre)
        activations = npu.data_format.quantize(activations)
        stats.layer_stats.append(layer_stats)
        stats.cycles += layer_stats.cycles
        stats.macs += layer_stats.macs
        stats.sram_reads += layer_stats.sram_reads
    return activations, stats


def old_sweep(npu, quantized, inputs, voltages):
    """The pre-PR fig10 naive measurement: per point, refresh then run."""
    results = []
    for voltage in voltages:
        old_store(npu.program.placement, npu.memory, quantized)
        results.append(old_run(npu, inputs, voltage))
    return results


# --------------------------------------------------------------------------


def deploy(bank_cls):
    memory = build_memory(bank_cls)
    npu = Npu(memory)
    network = Network(TOPOLOGY, seed=SEED)
    quantizer = WeightQuantizer(total_bits=WORD_BITS)
    npu.deploy(network, quantizer)
    if bank_cls is OldReadBank:
        # deploy() stored through the new plan path into the shadowed word
        # array; restore through the old store so the bit-matrix storage is
        # the source of truth for the reference chip
        old_store(npu.program.placement, npu.memory, quantizer.quantize_network(network))
    return npu, quantizer.quantize_network(network)


def assert_point_identical(label, old, new, old_npu, new_npu):
    (old_out, old_stats), (new_out, new_stats) = old, new
    if not np.array_equal(old_out, new_out):
        raise AssertionError(f"{label}: outputs diverged from the reference path")
    old_tuple = (old_stats.cycles, old_stats.macs, old_stats.sram_reads)
    new_tuple = (new_stats.cycles, new_stats.macs, new_stats.sram_reads)
    if old_tuple != new_tuple:
        raise AssertionError(f"{label}: stats diverged {old_tuple} != {new_tuple}")
    for old_bank, new_bank in zip(old_npu.memory, new_npu.memory):
        if not np.array_equal(old_bank.stored_words(), new_bank.stored_words()):
            raise AssertionError(
                f"{label}: persisted corruption diverged in {new_bank.name}"
            )


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    rng = np.random.default_rng(1)
    inputs = rng.random((BATCH, int(TOPOLOGY.split("-")[0])))

    # ---- correctness oracle: every grid point bit-identical ----------------
    old_npu, old_words = deploy(OldReadBank)
    new_npu, _ = deploy(SramBank)
    oracle_old = old_sweep(old_npu, old_words, inputs, VOLTAGES)
    oracle_new = new_npu.run_sweep(inputs, VOLTAGES, temperature=TEMPERATURE)
    for voltage, old_point, new_point in zip(VOLTAGES, oracle_old, oracle_new):
        assert_point_identical(f"{voltage:.2f} V", old_point, new_point, old_npu, new_npu)

    # ---- single-point timings ---------------------------------------------
    old_npu, old_words = deploy(OldReadBank)
    t0 = time.perf_counter()
    old_single_cold = old_run(old_npu, inputs, SINGLE_POINT)
    old_single_cold_s = time.perf_counter() - t0
    old_single_warm_s, _ = _best_of(
        REPEATS,
        lambda: (old_store(old_npu.program.placement, old_npu.memory, old_words),
                 old_run(old_npu, inputs, SINGLE_POINT)),
    )

    new_npu, _ = deploy(SramBank)
    t0 = time.perf_counter()
    new_single_cold = new_npu.run(inputs, sram_voltage=SINGLE_POINT)
    new_single_cold_s = time.perf_counter() - t0
    new_single_warm_s, _ = _best_of(
        REPEATS,
        lambda: (new_npu.refresh_weights(),
                 new_npu.run(inputs, sram_voltage=SINGLE_POINT)),
    )
    if not np.array_equal(old_single_cold[0], new_single_cold[0]):
        raise AssertionError("single-point cold outputs diverged")

    # ---- multi-voltage sweep timings --------------------------------------
    old_npu, old_words = deploy(OldReadBank)
    t0 = time.perf_counter()
    old_sweep(old_npu, old_words, inputs, VOLTAGES)
    old_sweep_cold_s = time.perf_counter() - t0
    old_sweep_warm_s, _ = _best_of(
        REPEATS, lambda: old_sweep(old_npu, old_words, inputs, VOLTAGES)
    )

    new_npu, _ = deploy(SramBank)
    t0 = time.perf_counter()
    new_npu.run_sweep(inputs, VOLTAGES, temperature=TEMPERATURE)
    new_sweep_cold_s = time.perf_counter() - t0
    new_sweep_warm_s, _ = _best_of(
        REPEATS, lambda: new_npu.run_sweep(inputs, VOLTAGES, temperature=TEMPERATURE)
    )

    sweep_speedup = old_sweep_warm_s / new_sweep_warm_s
    session = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": {
            "topology": TOPOLOGY,
            "num_pes": NUM_PES,
            "words_per_bank": WORDS_PER_BANK,
            "word_bits": WORD_BITS,
            "batch": BATCH,
            "voltages": list(VOLTAGES),
        },
        "single_point": {
            "voltage": SINGLE_POINT,
            "old_cold_seconds": round(old_single_cold_s, 6),
            "old_warm_seconds": round(old_single_warm_s, 6),
            "new_cold_seconds": round(new_single_cold_s, 6),
            "new_warm_seconds": round(new_single_warm_s, 6),
            "warm_speedup": round(old_single_warm_s / new_single_warm_s, 2),
        },
        "sweep": {
            "points": len(VOLTAGES),
            "old_cold_seconds": round(old_sweep_cold_s, 6),
            "old_warm_seconds": round(old_sweep_warm_s, 6),
            "new_cold_seconds": round(new_sweep_cold_s, 6),
            "new_warm_seconds": round(new_sweep_warm_s, 6),
            "warm_speedup": round(sweep_speedup, 2),
        },
        "bit_identical": True,  # asserted above, per grid point
    }
    print(json.dumps(session, indent=2))
    if sweep_speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: sweep speedup {sweep_speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
