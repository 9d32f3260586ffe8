"""Chip-population fleet benchmark (BENCH_population.json).

Exercises the fleet simulator end to end and records the quantities the
subsystem promises:

1. **Sharded merge bit-identity** — the ``fleet_population`` driver run as
   shard 0/2 + shard 1/2 over a shared store must merge to the exact
   unsharded per-die reports (same floats, not merely close).
2. **Warm-cache reuse** — re-running the same fleet against the same
   artifact-cache root must recompute **zero** per-die fault-map profiles
   (the ``fault-map/*.pkl`` artifact count does not grow).
3. **Population-vs-single-die consistency** — a fleet of one die must be
   bit-identical to a direct :func:`repro.population.simulate_die` call
   with the same population seed tree.
4. **Quarantine-safe rendering** — a fleet CLI run with one die poisoned
   through the fault plan must still print the merged table with exactly
   one ``QUARANTINED`` row and exit nonzero.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_population.py

Appends a session record to ``BENCH_population.json`` at the repository
root and exits non-zero on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _bench_records import append_record  # noqa: E402
from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.experiments.common import default_flow, prepare_benchmark  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    ShardIncompleteError,
    ShardSpec,
    SweepRunner,
)
from repro.experiments.fleet_population import run_fleet_population  # noqa: E402
from repro.population import ChipPopulation, simulate_die  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_population.json"

SWEEP_LABEL = "bench-fleet-population"
DIES = 4
REQUESTS = 12
VOLTAGES = (0.90, 0.50)
SEED = 3
CHIP_SEED = 11
GEOMETRY = dict(num_pes=4, words_per_bank=128)
NUM_SAMPLES = 300


def _rows(result) -> list[tuple]:
    return [
        (
            report.die,
            report.seed,
            report.vmin,
            report.fault_rate,
            report.canary_margin,
            report.requests_served,
            report.cycles,
            report.busy_seconds,
            tuple(sorted(report.requests_by_voltage.items())),
            tuple(sorted(report.errors_by_voltage.items())),
        )
        for report in result.reports
    ]


def _shard_runner(store: ArtifactCache, index: int, count: int) -> SweepRunner:
    return SweepRunner(
        workers=1,
        shard=ShardSpec(index, count),
        shard_store=store,
        sweep_label=SWEEP_LABEL,
    )


def _fault_map_artifacts(cache_dir: str) -> int:
    kind_dir = Path(cache_dir) / "fault-map"
    return len(list(kind_dir.glob("*.pkl"))) if kind_dir.is_dir() else 0


def bench_fleet(cache_dir: str) -> dict:
    store = ArtifactCache(root=cache_dir)
    kwargs = dict(
        benchmark="inversek2j",
        dies=DIES,
        num_requests=REQUESTS,
        voltages=VOLTAGES,
        num_samples=NUM_SAMPLES,
        seed=SEED,
        chip_seed=CHIP_SEED,
        **GEOMETRY,
    )

    start = time.perf_counter()
    reference = run_fleet_population(
        runner=SweepRunner(workers=1), cache=store, **kwargs
    )
    cold_seconds = time.perf_counter() - start
    cold_profiles = _fault_map_artifacts(cache_dir)

    # warm re-run: a fresh cache object over the same root must recall every
    # per-die fault-map profile instead of recomputing it
    warm_store = ArtifactCache(root=cache_dir)
    start = time.perf_counter()
    warm = run_fleet_population(
        runner=SweepRunner(workers=1), cache=warm_store, **kwargs
    )
    warm_seconds = time.perf_counter() - start
    recomputed_profiles = _fault_map_artifacts(cache_dir) - cold_profiles

    start = time.perf_counter()
    shard0_incomplete = False
    try:
        run_fleet_population(runner=_shard_runner(store, 0, 2), cache=store, **kwargs)
    except ShardIncompleteError:
        shard0_incomplete = True
    shard0_seconds = time.perf_counter() - start

    start = time.perf_counter()
    merged = run_fleet_population(
        runner=_shard_runner(store, 1, 2), cache=store, **kwargs
    )
    shard1_seconds = time.perf_counter() - start

    summary = reference.summary
    return {
        "dies": DIES,
        "requests": REQUESTS,
        "voltages": list(VOLTAGES),
        "merged_bit_identical": _rows(merged) == _rows(reference),
        "shard0_incomplete_as_expected": shard0_incomplete,
        "warm_bit_identical": _rows(warm) == _rows(reference),
        "fault_map_profiles_cold": cold_profiles,
        "fault_map_profiles_recomputed_warm": recomputed_profiles,
        "yield_fraction": summary.yield_fraction,
        "vmin_mean": round(summary.vmin_mean, 6),
        "vmin_std": round(summary.vmin_std, 6),
        "throughput_requests_per_second": round(
            summary.throughput_requests_per_second, 3
        ),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "shard0_seconds": round(shard0_seconds, 6),
        "shard1_seconds": round(shard1_seconds, 6),
    }


def bench_single_die_consistency(cache_dir: str) -> dict:
    """A fleet of one die must equal a direct simulate_die call bit for bit."""
    store = ArtifactCache(root=cache_dir)
    fleet = run_fleet_population(
        benchmark="inversek2j",
        dies=1,
        num_requests=6,
        voltages=VOLTAGES,
        num_samples=NUM_SAMPLES,
        seed=SEED,
        chip_seed=CHIP_SEED,
        runner=SweepRunner(workers=1),
        cache=store,
        **GEOMETRY,
    )
    prepared = prepare_benchmark(
        "inversek2j", num_samples=NUM_SAMPLES, seed=SEED, cache=store
    )
    flow = default_flow(seed=SEED, cache=store)
    population = ChipPopulation(num_dies=1, entropy=CHIP_SEED, **GEOMETRY)
    requests = population.request_stream(6, VOLTAGES, seed=SEED)
    direct = simulate_die(
        population,
        0,
        flow,
        topology=prepared.spec.topology,
        train=prepared.train,
        loss=prepared.spec.loss,
        baseline=prepared.baseline,
        test_inputs=prepared.test.inputs,
        error_fn=lambda outputs: float(prepared.spec.error(outputs, prepared.test)),
        requests=requests,
        target_voltage=0.50,
    )
    report = fleet.report_for(0)
    return {
        "single_die_bit_identical": (
            report.vmin == direct.vmin
            and report.fault_rate == direct.fault_rate
            and report.canary_margin == direct.canary_margin
            and report.errors_by_voltage == direct.errors_by_voltage
            and report.requests_by_voltage == direct.requests_by_voltage
            and report.seed == direct.seed
        ),
        # the fleet run above already profiled this die into the shared
        # cache, so the direct call must recall it in one batched chip-level
        # round trip — no per-bank get/put traffic
        "profile_counters": flow.profile_counters.as_dict(),
        "profile_recall_is_batched": (
            flow.profile_counters.chip_hits >= 1
            and flow.profile_counters.bank_misses == 0
        ),
    }


def bench_quarantine_rendering(cache_dir: str) -> dict:
    """A poisoned die must degrade the fleet CLI to a QUARANTINED row."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    env["REPRO_FAULT_PLAN"] = json.dumps(
        [{"kind": "poison", "match": "die=0", "worker": -1}]
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.fleet_population",
            "--dies", "2", "--requests", "4",
            "--voltages", *[str(v) for v in VOLTAGES],
            "--num-pes", str(GEOMETRY["num_pes"]),
            "--words-per-bank", str(GEOMETRY["words_per_bank"]),
            "--num-samples", str(NUM_SAMPLES),
            "--seed", str(SEED),
            "--backend", "broker", "--workers", "1",
            "--retries", "0", "--backoff", "0.05",
            "--cache-dir", cache_dir,
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
        timeout=600,
    )
    quarantined_rows = sum(
        line.strip().startswith("QUARANTINED")
        for line in proc.stdout.splitlines()
    )
    return {
        "exit_code": proc.returncode,
        "quarantined_rows": quarantined_rows,
        "table_rendered": "Vmin (V)" in proc.stdout,
        "quarantine_renders_degraded_table": (
            proc.returncode == 1
            and quarantined_rows == 1
            and "Vmin (V)" in proc.stdout
        ),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-bench-population-") as cache_dir:
        fleet = bench_fleet(cache_dir)
        consistency = bench_single_die_consistency(cache_dir)
        quarantine = bench_quarantine_rendering(cache_dir)

    session = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fleet": fleet,
        "consistency": consistency,
        "quarantine": quarantine,
    }
    append_record(
        RECORD_PATH,
        session,
        suite="fleet-population",
        headline={
            "latest_bit_identical": fleet["merged_bit_identical"]
            and fleet["warm_bit_identical"]
            and consistency["single_die_bit_identical"],
            "latest_warm_profiles_recomputed": fleet[
                "fault_map_profiles_recomputed_warm"
            ],
            "latest_quarantine_safe": quarantine[
                "quarantine_renders_degraded_table"
            ],
            "latest_cold_seconds": fleet["cold_seconds"],
        },
    )
    print(json.dumps(session, indent=2))

    failures = []
    if not fleet["merged_bit_identical"]:
        failures.append("2-shard merge diverged from the unsharded fleet")
    if not fleet["shard0_incomplete_as_expected"]:
        failures.append("shard 0/2 did not report an incomplete sweep")
    if not fleet["warm_bit_identical"]:
        failures.append("warm re-run diverged from the cold run")
    if fleet["fault_map_profiles_recomputed_warm"] != 0:
        failures.append(
            "warm re-run recomputed "
            f"{fleet['fault_map_profiles_recomputed_warm']} fault-map profiles"
        )
    if not consistency["single_die_bit_identical"]:
        failures.append("N=1 fleet diverged from a direct simulate_die call")
    if not consistency["profile_recall_is_batched"]:
        failures.append(
            "die-0 profile recall was not one batched chip-level hit "
            f"(counters: {consistency['profile_counters']})"
        )
    if not quarantine["quarantine_renders_degraded_table"]:
        failures.append(
            "poisoned fleet CLI did not render exactly one QUARANTINED row "
            f"with a table and exit 1 (got {quarantine})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
