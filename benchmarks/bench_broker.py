"""Socket-broker chaos benchmark (BENCH_broker.json).

Exercises the networked sweep service end to end under the nastiest plan
the wire-level fault harness can express, and records the guarantees the
broker backend sells:

1. **broker_chaos** — a 12-task grid runs on a ``BrokerBackend`` with 4
   workers while the fault plan SIGKILLs two workers (one holding a
   freshly-claimed lease, one right after a publish), partitions a third
   from the broker mid-sweep, drops a fourth worker's ``complete``
   connections so lost acks must be re-sent, and SIGKILLs **the broker
   itself** after journaling its third completion.  The coordinator must
   restart the broker on the same port, journal replay must restore every
   settled task, and the merged result must be **bit-identical** to the
   ``SerialBackend`` reference — same floats, not merely close.
2. **resume** — a brand-new coordinator over the same artifact store re-runs
   the same sweep and must recompute **zero** published tasks.
3. **degraded** — a coordinator pointed at an unreachable broker address
   must drain the sweep inline (serially, full retry semantics) instead of
   hanging, and still match the serial reference bit for bit.
4. **poison** — one task raises on every attempt; with ``retries=1`` it is
   quarantined after exactly 2 attempts while every healthy result is
   delivered intact.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_broker.py

Appends a session record to ``BENCH_broker.json`` at the repository root
and exits non-zero on any violated guarantee.
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

from _bench_records import append_record  # noqa: E402
from repro.experiments.broker import BrokerBackend  # noqa: E402
from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    QuarantinedTask,
    SweepRunner,
    expand_grid,
)
from repro.experiments.faults import (  # noqa: E402
    DropConnection,
    FaultPlan,
    KillBroker,
    KillWorker,
    PartitionWorker,
)

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_broker.json"

VOLTAGES = tuple(round(0.40 + 0.015 * i, 3) for i in range(12))
SWEEP_LABEL = "bench-broker-chaos"

CHAOS_PLAN = FaultPlan(
    rules=(
        KillWorker(worker=0, after_tasks=1, phase="claim"),
        KillWorker(worker=1, after_tasks=1, phase="publish"),
        PartitionWorker(worker=2, after_tasks=1, seconds=0.8),
        DropConnection(worker=3, every=2, op="complete", limit=2),
        KillBroker(after_completions=3),
    )
)


def _chaos_worker(shared, task):
    rng = np.random.default_rng(task.seed)
    return {
        "voltage": task.voltage,
        "offset": shared["offset"],
        "draw": float(rng.uniform()),
    }


def _grid():
    return expand_grid(voltages=VOLTAGES, seed=29)


def _broker_backend(store: ArtifactCache, **kw) -> BrokerBackend:
    kw.setdefault("lease_seconds", 0.5)
    kw.setdefault("poll_seconds", 0.01)
    kw.setdefault("backoff", 0.05)
    kw.setdefault("connect_backoff", 0.02)
    return BrokerBackend(store=store, journal_dir=store.root / "broker", **kw)


def _broker_runner(store: ArtifactCache, backend: BrokerBackend, workers: int):
    return SweepRunner(
        workers=workers,
        backend=backend,
        shard_store=store,
        sweep_label=SWEEP_LABEL,
    )


def bench_broker_chaos(store: ArtifactCache) -> tuple[dict, list]:
    tasks = _grid()
    shared = {"offset": 11}
    start = time.perf_counter()
    reference = SweepRunner(workers=1).map(_chaos_worker, tasks, shared=shared)
    serial_seconds = time.perf_counter() - start

    backend = _broker_backend(store, respawn=False, fault_plan=CHAOS_PLAN)
    start = time.perf_counter()
    chaos = _broker_runner(store, backend, workers=4).map(
        _chaos_worker, tasks, shared=shared
    )
    chaos_seconds = time.perf_counter() - start
    return {
        "grid_tasks": backend.last_stats["tasks"],
        "workers": 4,
        "workers_killed": backend.last_stats["worker_deaths"],
        "partitions": 1,
        "dropped_connections": 2,
        "broker_restarts": backend.last_stats["broker_restarts"],
        "quarantined": backend.last_stats["quarantined"],
        "bit_identical": chaos == reference,
        "serial_seconds": round(serial_seconds, 6),
        "chaos_seconds": round(chaos_seconds, 6),
    }, reference


def bench_resume(store: ArtifactCache, reference: list) -> dict:
    backend = _broker_backend(store)
    start = time.perf_counter()
    resumed = _broker_runner(store, backend, workers=2).map(
        _chaos_worker, _grid(), shared={"offset": 11}
    )
    resume_seconds = time.perf_counter() - start
    return {
        "recalled_tasks": backend.last_stats["recalled"],
        "recomputed_tasks": backend.last_stats["enqueued"],
        "bit_identical": resumed == reference,
        "resume_seconds": round(resume_seconds, 6),
    }


def bench_degraded(store: ArtifactCache) -> dict:
    tasks = _grid()
    shared = {"offset": 3}  # different shared → a fresh sweep, nothing recalled
    reference = SweepRunner(workers=1).map(_chaos_worker, tasks, shared=shared)
    backend = _broker_backend(
        store,
        address="127.0.0.1:9",  # discard port: nothing listens there
        connect_timeout=0.2,
        connect_attempts=2,
    )
    start = time.perf_counter()
    degraded = _broker_runner(store, backend, workers=2).map(
        _chaos_worker, tasks, shared=shared
    )
    degraded_seconds = time.perf_counter() - start
    return {
        "grid_tasks": len(tasks),
        "inline_drained": backend.last_stats["inline_drained"],
        "bit_identical": degraded == reference,
        "degraded_seconds": round(degraded_seconds, 6),
    }


def _flaky_worker(shared, task):
    if task.voltage == shared["bad"]:
        raise RuntimeError("injected poison")
    return task.voltage * 2.0


def bench_poison(store: ArtifactCache) -> dict:
    tasks = expand_grid(voltages=(0.42, 0.46, 0.50, 0.54, 0.58), seed=5)
    shared = {"bad": 0.50}
    backend = _broker_backend(store, backoff=0.02)
    runner = SweepRunner(
        workers=2,
        backend=backend,
        shard_store=store,
        sweep_label="bench-broker-poison",
        retries=1,
    )
    start = time.perf_counter()
    results = runner.map(_flaky_worker, tasks, shared=shared)
    poison_seconds = time.perf_counter() - start
    poisoned = [r for r in results if isinstance(r, QuarantinedTask)]
    healthy_ok = [
        r for r in results if not isinstance(r, QuarantinedTask)
    ] == [t.voltage * 2.0 for t in tasks if t.voltage != shared["bad"]]
    return {
        "grid_tasks": len(tasks),
        "retries": 1,
        "poisoned_tasks": len(poisoned),
        "poison_attempts": poisoned[0].attempts if poisoned else None,
        "poison_error": poisoned[0].errors[-1] if poisoned else None,
        "healthy_results_intact": healthy_ok,
        "poison_seconds": round(poison_seconds, 6),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-bench-broker-") as cache_dir:
        store = ArtifactCache(root=Path(cache_dir) / "cache")
        broker_chaos, reference = bench_broker_chaos(store)
        resume = bench_resume(store, reference)
        degraded = bench_degraded(store)
        poison = bench_poison(store)

    session = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "broker_chaos": broker_chaos,
        "resume": resume,
        "degraded": degraded,
        "poison": poison,
    }
    append_record(
        RECORD_PATH,
        session,
        suite="socket-broker-chaos",
        headline={
            "latest_bit_identical": broker_chaos["bit_identical"],
            "latest_broker_restarts": broker_chaos["broker_restarts"],
            "latest_resume_recomputed": resume["recomputed_tasks"],
            "latest_poisoned": poison["poisoned_tasks"],
        },
    )
    print(json.dumps(session, indent=2))

    failures = []
    if not broker_chaos["bit_identical"]:
        failures.append("chaos run diverged from the serial reference")
    if broker_chaos["workers_killed"] != 2:
        failures.append(
            f"fault plan killed {broker_chaos['workers_killed']} workers, expected 2"
        )
    if broker_chaos["broker_restarts"] != 1:
        failures.append(
            f"broker restarted {broker_chaos['broker_restarts']} times, expected "
            "exactly 1 (the kill-broker rule fires once)"
        )
    if broker_chaos["quarantined"] != 0:
        failures.append("healthy chaos run quarantined a task")
    if resume["recomputed_tasks"] != 0:
        failures.append(
            f"restart recomputed {resume['recomputed_tasks']} published task(s)"
        )
    if not resume["bit_identical"]:
        failures.append("resumed run diverged from the serial reference")
    if degraded["inline_drained"] != degraded["grid_tasks"]:
        failures.append(
            f"unreachable-broker fallback drained {degraded['inline_drained']} of "
            f"{degraded['grid_tasks']} tasks inline"
        )
    if not degraded["bit_identical"]:
        failures.append("degraded (inline) run diverged from the serial reference")
    if poison["poisoned_tasks"] != 1:
        failures.append(
            f"expected exactly 1 quarantined task, got {poison['poisoned_tasks']}"
        )
    if poison["poison_attempts"] != 2:
        failures.append(
            f"poison task took {poison['poison_attempts']} attempts, "
            "expected retries + 1 = 2"
        )
    if not poison["healthy_results_intact"]:
        failures.append("poisoning one task disturbed the healthy results")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
