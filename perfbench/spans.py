"""Span tracer for the benchmark's traced run (``run.py --trace 1``).

The tracer never edits the program under test: :func:`install` wraps public
functions of each layer of ``repro`` from the outside and :func:`uninstall`
puts the originals back.  Every wrapped call is one span.  Spans sit on an
in-memory stack, so each span's *self time* is its duration minus the time
covered by its child spans; summing self times over all spans therefore
never counts an interval twice.

Coarse spans (driver-level calls such as a training run, a profiling pass
or a die simulation) are kept one record each and written as JSONL by
:meth:`Tracer.write_jsonl`.  Hot inner spans (``Network.forward``,
``FixedPointFormat.quantize`` ...) run hundreds of thousands of times; they
are rolled up, per name, into the nearest kept ancestor instead of being
stored one by one.

Sweep workers forked by the broker backend inherit the wrappers.  After a
fork the child starts an empty tracer.  It rewrites its per-name totals to
``<child_dir>/<pid>.json`` when its stack empties (at most every
:data:`CHILD_FLUSH_NS`) and when the worker exits;
:meth:`Tracer.merge_children` folds those files into the parent's totals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Spans rolled up into their nearest kept ancestor rather than stored.
HOT_SPANS = frozenset(
    {
        "nn.forward",
        "nn.backward",
        "nn.optimizer",
        "nn.train_step",
        "matic.mat_update",
        "matic.mask_install",
        "quant.quantize",
        "sram.marginal_cells",
        "experiments.cache.get",
        "experiments.cache.put",
        "experiments.broker.call",
    }
)

#: A forked child rewrites its totals at most this often (and once at exit).
CHILD_FLUSH_NS = 200_000_000

#: Per-layer metric -> (unit, what is measured, the end-to-end metric it
#: should move and on which workload).  ``run.py --trace 1`` reports them all.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "nn.baseline_fit_s": ("s", "self time of Trainer.fit on float baselines",
                          "wall_s on fig10_cold, setup_s on fleet_canary"),
    "nn.train_steps": ("count", "Trainer.train_step calls (baseline steps)",
                       "wall_s on fig10_cold, setup_s on fleet_canary"),
    "nn.forward_s": ("s", "self time of Network.forward",
                     "wall_s on fig10_cold, setup_s on fleet_canary"),
    "nn.backward_s": ("s", "self time of Network.backward",
                      "wall_s on fig10_cold, setup_s on fleet_canary"),
    "nn.optimizer_s": ("s", "self time of Optimizer.step / parameter_delta",
                       "wall_s on fig10_cold, setup_s on fleet_canary"),
    "matic.mat_fit_s": ("s", "self time of Trainer.fit under memory-adaptive training",
                        "wall_s on fig10_cold"),
    "matic.mat_steps": ("count", "MemoryAdaptiveTrainer.train_step calls",
                        "wall_s on fig10_cold"),
    "matic.mask_install_s": ("s", "self time of FaultMaskSet.install",
                             "wall_s on fig10_cold"),
    "matic.mat_update_s": ("s", "self time of MemoryAdaptiveTrainer.train_step",
                           "wall_s on fig10_cold"),
    "quant.quantize_s": ("s", "self time of FixedPointFormat.quantize",
                         "wall_s on fig10_cold"),
    "quant.quantize_calls": ("count", "FixedPointFormat.quantize calls",
                             "wall_s on fig10_cold"),
    "matic.canary_select_s": ("s", "self time of CanarySelector.select",
                              "wall_s and peak_rss_mb on fleet_canary"),
    "sram.marginal_cells_s": ("s", "self time of SramBank.marginal_cells",
                              "wall_s and peak_rss_mb on fleet_canary"),
    "sram.profile_bank_s": ("s", "self time of SramProfiler.profile_bank(_sweep)",
                            "wall_s on sweep_broker and fleet_canary"),
    "sram.chip_sample_s": ("s", "self time of bit-cell Vmin population sampling",
                           "wall_s on sweep_broker and fleet_canary"),
    "matic.profile_s": ("s", "self time of MaticFlow.profile_chip(_sweep)",
                        "wall_s on sweep_broker and fleet_canary"),
    "matic.profile_cache_hits": ("count", "MaticFlow.profile_counters hits",
                                 "wall_s on fleet_canary"),
    "accelerator.inference_s": ("s", "self time of Snnac.run_inference / run_voltage_sweep",
                                "warm_rerun_s on fig10_cold"),
    "accelerator.inference_runs": ("count", "inference batches run on the chip model",
                                   "warm_rerun_s on fig10_cold"),
    "accelerator.deploy_s": ("s", "self time of Snnac.deploy / deploy_quantized",
                             "warm_rerun_s on fig10_cold"),
    "population.simulate_die_s": ("s", "self time of population.simulate_die",
                                  "wall_s on fleet_canary"),
    "population.dies": ("count", "simulate_die calls", "wall_s on fleet_canary"),
    "experiments.cache.get_s": ("s", "self time of ArtifactCache.get",
                                "warm_rerun_s on fig10_cold"),
    "experiments.cache.put_s": ("s", "self time of ArtifactCache.put",
                                "wall_s on fig10_cold"),
    "experiments.cache.hits": ("count", "ArtifactCache.get hits",
                               "warm_rerun_s on fig10_cold"),
    "experiments.cache.misses": ("count", "ArtifactCache.get misses",
                                 "wall_s on fig10_cold"),
    "experiments.cache.hit_ratio": ("ratio", "hits / (hits + misses)",
                                    "warm_rerun_s on fig10_cold"),
    "experiments.engine.tasks": ("count", "sweep tasks completed",
                                 "wall_s on sweep_broker"),
    "experiments.engine.first_result_s": ("s", "submit to first completed task, summed over sweeps",
                                          "wall_s on sweep_broker"),
    "experiments.engine.drain_s": ("s", "first to last completed task, summed over sweeps",
                                   "wall_s on sweep_broker"),
    "experiments.broker.claims": ("count", "broker claims that returned a task",
                                  "wall_s on sweep_broker"),
    "experiments.broker.retries": ("count", "claims of a task already attempted",
                                   "wall_s on sweep_broker"),
    "experiments.broker.restarts": ("count", "BrokerBackend.last_stats broker_restarts",
                                    "wall_s on sweep_broker"),
    "datasets.generate_s": ("s", "self time of BenchmarkSpec.generate",
                            "wall_s on fig10_cold"),
}

#: Span name behind each ``*_s`` layer metric.
_SELF_TIME_SPANS = {
    metric: metric[: -len("_s")]
    for metric in LAYER_METRICS
    if metric.endswith("_s") and not metric.startswith("experiments.engine.")
}

#: Count metrics read straight off a span's call count.
_CALL_COUNTS = {
    "nn.train_steps": "nn.train_step",
    "matic.mat_steps": "matic.mat_update",
    "quant.quantize_calls": "quant.quantize",
    "population.dies": "population.simulate_die",
}


class Tracer:
    """In-memory span stack with per-name totals and kept span records."""

    def __init__(self, child_dir: Path) -> None:
        self.child_dir = Path(child_dir)
        self.enabled = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        self.thread_id = threading.get_ident()
        self.in_child = False
        #: open frames: [name, start_ns, child_ns, record_index, rollup, anchor]
        self.stack: list[list[Any]] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[str, float] = defaultdict(float)
        self.records: list[dict[str, Any] | None] = []
        self._submitted_ns = self._first_ns = time.perf_counter_ns()
        self._flushed_ns = 0

    def _after_fork(self) -> None:
        enabled = self.enabled
        self.reset()
        self.in_child = True
        self.enabled = enabled
        if enabled:
            # multiprocessing runs exit-priority finalizers when a worker returns
            multiprocessing.util.Finalize(self, self._flush_child, exitpriority=10)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phase roots)."""
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def active(self) -> bool:
        return self.enabled and threading.get_ident() == self.thread_id

    def enter(self, name: str) -> list[Any]:
        parent = self.stack[-1] if self.stack else None
        if name in HOT_SPANS:
            frame = [name, 0, 0, None, None, parent[5] if parent else None]
        else:
            index = len(self.records)
            self.records.append(None)
            frame = [name, 0, 0, index, defaultdict(lambda: [0, 0, 0]), None]
            frame[5] = frame
        self.stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list[Any]) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, index, rollup, anchor = frame
        self.stack.pop()
        duration = end - start
        self_ns = duration - child_ns
        totals = self.totals[name]
        totals[0] += 1
        totals[1] += duration
        totals[2] += self_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if index is not None:
            parent_anchor = parent[5] if parent is not None else None
            self.records[index] = {
                "id": index,
                "parent": parent_anchor[3] if parent_anchor is not None else None,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "self_ns": self_ns,
                "rolled_up": {key: list(value) for key, value in rollup.items()},
            }
        elif anchor is not None:
            rolled = anchor[4][name]
            rolled[0] += 1
            rolled[1] += duration
            rolled[2] += self_ns
        if self.in_child and not self.stack and end - self._flushed_ns > CHILD_FLUSH_NS:
            self._flush_child()

    def _flush_child(self) -> None:
        self._flushed_ns = time.perf_counter_ns()
        if not self.totals and not self.counters:
            return
        self.child_dir.mkdir(parents=True, exist_ok=True)
        path = self.child_dir / f"{os.getpid()}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(
            json.dumps({"totals": dict(self.totals), "counters": dict(self.counters)})
        )
        os.replace(temp, path)

    def merge_children(self) -> int:
        """Fold (and delete) the totals forked children wrote; returns how many."""
        merged = 0
        for path in sorted(self.child_dir.glob("*.json")):
            data = json.loads(path.read_text())
            for name, (calls, total_ns, self_ns) in data["totals"].items():
                totals = self.totals[name]
                totals[0] += calls
                totals[1] += total_ns
                totals[2] += self_ns
            for name, value in data["counters"].items():
                self.counters[name] += value
            path.unlink()
            merged += 1
        return merged

    def write_jsonl(self, path: Path) -> None:
        """Kept span records, then one ``total`` line per span name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                if record is not None:
                    handle.write(json.dumps({"kind": "span", **record}) + "\n")
            for name, (calls, total_ns, self_ns) in sorted(self.totals.items()):
                handle.write(
                    json.dumps(
                        {"kind": "total", "name": name, "calls": calls,
                         "total_ns": total_ns, "self_ns": self_ns}
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` entry (0 where the layer never ran)."""
        values: dict[str, float] = {}
        for metric, span in _SELF_TIME_SPANS.items():
            values[metric] = self.totals[span][2] / 1e9 if span in self.totals else 0.0
        for metric, span in _CALL_COUNTS.items():
            values[metric] = self.totals[span][0] if span in self.totals else 0
        for metric in LAYER_METRICS:
            if metric not in values:
                values[metric] = self.counters.get(metric, 0)
        lookups = values["experiments.cache.hits"] + values["experiments.cache.misses"]
        values["experiments.cache.hit_ratio"] = (
            values["experiments.cache.hits"] / lookups if lookups else 0.0
        )
        return values

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple], str],
        on_result: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return fn(*args, **kwargs)
            frame = tracer.enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def engine_progress(self, task: Any, result: Any, done: int, total: int) -> None:
        """``SweepRunner(progress=...)`` hook: first-result and drain times."""
        if not self.active():
            return
        now = time.perf_counter_ns()
        self.count("experiments.engine.tasks")
        if done == 1:
            self.count("experiments.engine.first_result_s",
                       (now - self._submitted_ns) / 1e9)
            self._first_ns = now
        if done == total:
            self.count("experiments.engine.drain_s", (now - self._first_ns) / 1e9)


def _mark_submitted(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer._submitted_ns = time.perf_counter_ns()


def _count(metric: str, amount: Callable[[tuple, Any], float] = lambda a, r: 1):
    def on_result(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(metric, amount(args, result))

    return on_result


def _cache_lookup(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("experiments.cache.misses" if result is None else "experiments.cache.hits")


def _broker_claim(tracer: Tracer, args: tuple, result: Any) -> None:
    message = args[1] if len(args) > 1 else {}
    record = result.get("record") if isinstance(result, dict) else None
    if message.get("op") == "claim" and record is not None:
        tracer.count("experiments.broker.claims")
        if record.get("attempts", 0) > 0:
            tracer.count("experiments.broker.retries")


def _targets() -> list[tuple[Any, str, Any, Any]]:
    """(owner, attribute, span name, on_result) for every wrapped function."""
    from repro.accelerator.soc import Snnac
    from repro.datasets import registry
    from repro.experiments import fleet_population
    from repro.experiments.broker import BrokerClient
    from repro.experiments.cache import ArtifactCache
    from repro.experiments.engine import SweepRunner
    from repro.matic.canary import CanarySelector
    from repro.matic.flow import MaticFlow
    from repro.matic.masking import FaultMaskSet
    from repro.matic.training import MemoryAdaptiveTrainer
    from repro.nn import optimizers
    from repro.nn.network import Network
    from repro.nn.trainer import Trainer
    from repro.population import fleet
    from repro.quant.fixed_point import FixedPointFormat
    from repro.sram import bitcell
    from repro.sram.array import SramBank
    from repro.sram.profiler import SramProfiler

    def fit_name(args: tuple) -> str:
        return "matic.mat_fit" if isinstance(args[0], MemoryAdaptiveTrainer) else "nn.baseline_fit"

    targets: list[tuple[Any, str, Any, Any]] = [
        (Trainer, "fit", fit_name, None),
        (Trainer, "train_step", "nn.train_step", None),
        (MemoryAdaptiveTrainer, "train_step", "matic.mat_update", None),
        (Network, "forward", "nn.forward", None),
        (Network, "backward", "nn.backward", None),
        (FaultMaskSet, "install", "matic.mask_install", None),
        (FixedPointFormat, "quantize", "quant.quantize", None),
        (CanarySelector, "select", "matic.canary_select", None),
        (SramBank, "marginal_cells", "sram.marginal_cells", None),
        (SramProfiler, "profile_bank", "sram.profile_bank", None),
        (SramProfiler, "profile_bank_sweep", "sram.profile_bank", None),
        (MaticFlow, "profile_chip", "matic.profile", None),
        (MaticFlow, "profile_chip_sweep", "matic.profile", None),
        (Snnac, "run_inference", "accelerator.inference",
         _count("accelerator.inference_runs")),
        (Snnac, "run_voltage_sweep", "accelerator.inference",
         _count("accelerator.inference_runs", lambda a, r: len(r))),
        (Snnac, "deploy", "accelerator.deploy", None),
        (Snnac, "deploy_quantized", "accelerator.deploy", None),
        (fleet, "simulate_die", "population.simulate_die", None),
        (fleet_population, "simulate_die", "population.simulate_die", None),
        (ArtifactCache, "get", "experiments.cache.get", _cache_lookup),
        (ArtifactCache, "put", "experiments.cache.put", None),
        (BrokerClient, "call", "experiments.broker.call", _broker_claim),
        (SweepRunner, "submit", "experiments.engine.submit", _mark_submitted),
    ]
    for spec in (registry.BenchmarkSpec, *registry.BenchmarkSpec.__subclasses__()):
        if "generate" in vars(spec):
            targets.append((spec, "generate", "datasets.generate", None))
    for name in dir(bitcell):
        model = getattr(bitcell, name)
        if (isinstance(model, type) and issubclass(model, bitcell.BitcellVariationModel)
                and "sample" in vars(model)):
            targets.append((model, "sample", "sram.chip_sample", None))
    for name in dir(optimizers):
        optimizer = getattr(optimizers, name)
        if isinstance(optimizer, type) and issubclass(optimizer, optimizers.Optimizer):
            for method in ("step", "parameter_delta"):
                if method in vars(optimizer):
                    targets.append((optimizer, method, "nn.optimizer", None))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that restores them all."""
    restore: list[tuple[Any, str, Any]] = []
    for owner, attribute, name, on_result in _targets():
        original = vars(owner)[attribute]
        restore.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(original, name, on_result))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall
