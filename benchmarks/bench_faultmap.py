"""Fault-map pipeline microbenchmark.

Measures the two wins of the array-native fault-map pipeline on a
4096-word x 16-bit bank at a high-fault operating point:

1. **Vectorized profiling** — :meth:`SramProfiler.profile_bank` against a
   faithful reimplementation of the pre-PR per-bit recording loop (one
   ``BitFault`` dataclass inserted into a dict per faulty bit, per-fault
   Python loops for the AND/OR masks).
2. **Memoized chip profiling** — a repeat :meth:`MaticFlow.profile_chip` at
   the same operating point must be a cache hit returning bit-identical
   fault maps.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_faultmap.py

Prints the session as JSON and exits non-zero if the vectorized speedup
falls below the 10x floor or the memoized maps are not bit-identical.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.accelerator.soc import Snnac, SnnacConfig  # noqa: E402
from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.matic.flow import MaticFlow  # noqa: E402
from repro.sram import BitFault, SramBank, SramProfiler  # noqa: E402

NUM_WORDS = 4096
WORD_BITS = 16
#: high-fault operating point: nearly every cell fails here (Fig. 9a)
VOLTAGE = 0.40
SPEEDUP_FLOOR = 10.0
REPEATS = 3


# --------------------------------------------------------------------------
# Pre-PR reference: dict-backed fault map + per-bit recording loop, verbatim.


class _LoopFaultMap:
    """The original ``dict[(address, bit)] -> value`` fault-map core."""

    def __init__(self, num_words: int, word_bits: int) -> None:
        self.num_words = num_words
        self.word_bits = word_bits
        self._faults: dict[tuple[int, int], int] = {}

    def add(self, fault: BitFault) -> None:
        if fault.address >= self.num_words:
            raise ValueError("address out of range")
        if fault.bit >= self.word_bits:
            raise ValueError("bit out of range")
        self._faults[(fault.address, fault.bit)] = fault.stuck_value

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        and_masks = np.full(self.num_words, (1 << self.word_bits) - 1, dtype=np.uint64)
        or_masks = np.zeros(self.num_words, dtype=np.uint64)
        for (address, bit), value in self._faults.items():
            if value == 0:
                and_masks[address] &= np.uint64(
                    ~(1 << bit) & ((1 << self.word_bits) - 1)
                )
            else:
                or_masks[address] |= np.uint64(1 << bit)
        return and_masks, or_masks


def _words_to_bits(words: np.ndarray, word_bits: int) -> np.ndarray:
    shifts = np.arange(word_bits, dtype=np.uint64)
    return ((np.asarray(words, dtype=np.uint64)[..., None] >> shifts) & np.uint64(1)).astype(
        np.uint8
    )


def profile_bank_loop(bank: SramBank, voltage: float) -> _LoopFaultMap:
    """The pre-PR profile_bank: vectorized reads, per-bit recording loop."""
    saved = bank.stored_words()
    addresses = np.arange(bank.num_words)
    fault_map = _LoopFaultMap(bank.num_words, bank.word_bits)
    for pattern in (0, bank.word_mask):
        expected = np.full(bank.num_words, pattern, dtype=np.uint64)
        bank.write(addresses, expected)
        bank.read(addresses, voltage=voltage)
        second_read = bank.read(addresses, voltage=voltage)
        second_diff = _words_to_bits(expected, bank.word_bits) != _words_to_bits(
            second_read, bank.word_bits
        )
        observed_bits = _words_to_bits(second_read, bank.word_bits)
        for address, bit in zip(*np.nonzero(second_diff)):
            fault_map.add(
                BitFault(int(address), int(bit), int(observed_bits[address, bit]))
            )
    bank.write(addresses, saved)
    # materialize the masks too: every consumer of a profiled map needs them
    fault_map.masks()
    return fault_map


# --------------------------------------------------------------------------


def _best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_profile_bank() -> dict:
    bank = SramBank(NUM_WORDS, WORD_BITS, seed=42, name="bench")

    def run_vectorized():
        report = SramProfiler().profile_bank(bank, VOLTAGE)
        # materialize the masks inside the timed region, matching the
        # baseline: every consumer of a profiled map needs them
        report.fault_map.masks()
        return report

    loop_seconds, loop_map = _best_of(REPEATS, lambda: profile_bank_loop(bank, VOLTAGE))
    vector_seconds, report = _best_of(REPEATS, run_vectorized)
    vector_map = report.fault_map

    loop_faults = {key: value for key, value in loop_map._faults.items()}
    vector_faults = {
        (fault.address, fault.bit): fault.stuck_value for fault in vector_map.faults
    }
    if loop_faults != vector_faults:
        raise AssertionError("vectorized profiler diverged from the per-bit loop")

    return {
        "num_words": NUM_WORDS,
        "word_bits": WORD_BITS,
        "voltage": VOLTAGE,
        "fault_rate": round(vector_map.fault_rate, 6),
        "num_faults": vector_map.num_faults,
        "loop_seconds": round(loop_seconds, 6),
        "vectorized_seconds": round(vector_seconds, 6),
        "speedup": round(loop_seconds / vector_seconds, 2),
    }


def bench_profile_chip(cache_dir: str) -> dict:
    cache = ArtifactCache(root=cache_dir)
    flow = MaticFlow(training_cache=cache)

    cold_start = time.perf_counter()
    cold_maps = flow.profile_chip(Snnac(SnnacConfig(seed=7)), VOLTAGE)
    cold_seconds = time.perf_counter() - cold_start

    stores_after_cold = cache.stats.stores
    warm_start = time.perf_counter()
    warm_maps = flow.profile_chip(Snnac(SnnacConfig(seed=7)), VOLTAGE)
    warm_seconds = time.perf_counter() - warm_start

    # the warm lookup is one batched chip-level round trip, not per-bank
    cache_hit = (
        cache.stats.stores == stores_after_cold
        and flow.profile_counters.chip_hits >= 1
        and flow.profile_counters.bank_hits == 0
    )
    bit_identical = len(cold_maps) == len(warm_maps) and all(
        np.array_equal(a.stuck_mask, b.stuck_mask)
        and np.array_equal(a.stuck_values, b.stuck_values)
        for a, b in zip(cold_maps, warm_maps)
    )
    return {
        "banks": len(cold_maps),
        "voltage": VOLTAGE,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "warm_is_cache_hit": cache_hit,
        "bit_identical": bit_identical,
        "profile_counters": flow.profile_counters.as_dict(),
    }


def main() -> int:
    bank_result = bench_profile_bank()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        chip_result = bench_profile_chip(cache_dir)

    session = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "profile_bank": bank_result,
        "profile_chip": chip_result,
    }
    print(json.dumps(session, indent=2))
    failures = []
    if bank_result["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"speedup {bank_result['speedup']}x below the {SPEEDUP_FLOOR}x floor"
        )
    if not chip_result["warm_is_cache_hit"]:
        failures.append("repeat profile_chip was not a cache hit")
    if not chip_result["bit_identical"]:
        failures.append("memoized fault maps were not bit-identical")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
