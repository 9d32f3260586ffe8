"""End-to-end benchmark of the MATIC reproduction.

    python3 perfbench/run.py --workload fig10_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It imports ``repro`` from ``src/`` of that
checkout and writes only under ``.perfbench/`` there.

Workloads (``BENCHMARK.json`` says why each exists):

``fig10_cold``
    The default ``run_fig10`` grid on the ``serial`` backend.  Each cold
    repetition starts from a fresh, empty artifact cache, so it trains the
    float baselines and every memory-adaptive operating point.  A warm
    rerun re-renders the same call against the cache a cold run filled,
    through a new ``ArtifactCache`` object (disk hits, no in-process
    memory).
``fleet_canary``
    ``run_fleet_population`` with 8 dies and 48 requests on ``serial``.
    Set-up trains the inversek2j float baseline into a fresh cache.  Each
    cold repetition starts from a fresh copy of that primed cache, so it
    profiles every die and selects oracle canaries.  A warm rerun runs
    against the cache a cold run filled.
``sweep_broker``
    ``run_fig9a`` on a 321-point grid through the embedded ``broker`` backend
    with 2 workers.  Each cold repetition gets a fresh store and broker
    journal and must compute every task.  A warm rerun reuses a cold run's
    store and journal, and must recall every task.

The timed phase repeats one cold repetition followed by warm reruns worth a
fifth of its time (at least one).  When no further cold repetition fits in
``--seconds``, warm reruns fill the rest of the window instead.  With
``--trace 0`` the last line is the end-to-end result: set-up time (median of
several set-ups), cold wall time (median), warm rerun time (median), peak
resident memory of the timed phase.  With ``--trace 1`` the same untraced measurement runs
first.  Then span wrappers (``perfbench/spans.py``) are installed and one
set-up, one cold and one warm repetition run traced.  The last line holds the
per-layer metrics, the tracing overhead and the unattributed share of the
traced cold run.  The spans go to ``.perfbench/traces/``.

Every run checks its outputs.  Cold tables must match the digests in
``perfbench/digests.json`` where one is recorded for the seed.  All cold
repetitions must render the same table, the warm rerun must render the cold
table, and the broker table must equal a serial run of the same grid.  The
traced tables must equal the untraced ones.  A quarantined task or a
mismatch counts as a failure.  The process exits 1 when any check fails, or
when ``repro`` cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Warm reruns after a cold repetition take this share of its time, unless
#: they fill the rest of the window.
WARM_SHARE = 0.2
#: Modules a user of the drivers imports; timed in a fresh interpreter.
IMPORTS = (
    "import repro.experiments.fig10_error_vs_voltage, "
    "repro.experiments.fleet_population, repro.experiments.fig09_sram, "
    "repro.experiments.broker"
)
#: Environment variables that would redirect caches, backends or fault
#: injection away from what the workload states.
_REPRO_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_DISABLE",
    "REPRO_CACHE_BUDGET",
    "REPRO_FAULT_PLAN",
    "REPRO_SWEEP_BACKEND",
    "REPRO_SWEEP_WORKERS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_rerun_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One driver call: what it rendered, its tasks, and what went wrong.

    ``failures`` counts quarantined tasks plus tasks whose cache state was
    not the one the phase promises (a cold run that recalled, a warm run
    that recomputed).
    """

    table: str
    tasks: int
    failures: int
    state: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_dir(scratch: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


def serial_runner(cache, progress):
    from repro.experiments.engine import SweepRunner

    return SweepRunner(backend="serial", workers=1, shard_store=cache, progress=progress)


# ------------------------------------------------------------------ workloads


class Workload:
    """``setup`` once per set-up, ``cold`` per repetition, ``warm`` per rerun."""

    name = ""
    cold_state = ""
    warm_state = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: ``SweepRunner(progress=...)`` hook; the traced run sets it
        self.progress = None
        #: ``MaticFlow.profile_counters`` of every flow built
        self.profile_counters: list = []
        self.aei_reduction: float | None = None
        self.restarts = 0

    def setup(self, scratch: Path):
        """Nothing to prime by default."""
        return None


class Fig10Cold(Workload):
    name = "fig10_cold"
    cold_state = "fresh empty cache root (trains baselines and every MAT point)"
    warm_state = "cache root filled by the cold run, new cache object (disk hits only)"

    def _run(self, root: Path):
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.common import default_flow
        from repro.experiments.fig10_error_vs_voltage import run_fig10

        cache = ArtifactCache(root=root)
        flow = default_flow(epochs=60, seed=self.seed, cache=cache)
        self.profile_counters.append(flow.profile_counters)
        result = run_fig10(
            seed=self.seed,
            chip_seed=10 + self.seed,
            flow=flow,
            cache=cache,
            runner=serial_runner(cache, self.progress),
        )
        rendered = result.to_experiment_result()
        tasks = 2 * len(result.sweeps)
        return result, rendered, cache, tasks

    def cold(self, scratch: Path, state: None) -> tuple[Outcome, Path]:
        from repro.experiments.table1_application_error import run_table1

        root = fresh_dir(scratch, "fig10-")
        result, rendered, cache, tasks = self._run(root)
        if self.aei_reduction is None:
            self.aei_reduction = run_table1(sweep=result).average_aei_reduction
        note = f"stores={cache.stats.stores}"
        return Outcome(rendered.to_text(), tasks, len(rendered.quarantined), note), root

    def warm(self, root: Path) -> Outcome:
        _, rendered, cache, tasks = self._run(root)
        # a warm re-render recalls everything: nothing may be recomputed
        stores = cache.stats.stores
        failures = len(rendered.quarantined) + (1 if stores else 0)
        return Outcome(rendered.to_text(), tasks, failures, f"stores={stores}")


class FleetCanary(Workload):
    name = "fleet_canary"
    cold_state = "fresh copy of the set-up cache (baseline only; every die profiled)"
    warm_state = "cache filled by the cold run, new cache object (profiles recalled)"

    dies = 8
    requests = 48

    def setup(self, scratch: Path) -> Path:
        """Train the float baseline into a fresh cache (the cold runs' template)."""
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.common import prepare_benchmark

        root = fresh_dir(scratch, "fleet-template-")
        prepare_benchmark("inversek2j", seed=self.seed, cache=ArtifactCache(root=root))
        return root

    def _run(self, root: Path):
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.common import default_flow
        from repro.experiments.fleet_population import run_fleet_population

        cache = ArtifactCache(root=root)
        flow = default_flow(seed=self.seed, cache=cache)
        self.profile_counters.append(flow.profile_counters)
        result = run_fleet_population(
            benchmark="inversek2j",
            dies=self.dies,
            num_requests=self.requests,
            target_voltage=0.50,
            seed=self.seed,
            chip_seed=10 + self.seed,
            flow=flow,
            runner=serial_runner(cache, self.progress),
            cache=cache,
        )
        rendered = result.to_experiment_result()
        return rendered, flow.profile_counters

    def cold(self, scratch: Path, template: Path) -> tuple[Outcome, Path]:
        root = fresh_dir(scratch, "fleet-")
        shutil.copytree(template, root, dirs_exist_ok=True)
        rendered, counters = self._run(root)
        # a cold run profiles every die; a recalled profile means stale state
        stale = counters.chip_hits
        note = f"profile chip misses={counters.chip_misses} hits={stale}"
        return Outcome(rendered.to_text(), self.dies, len(rendered.quarantined) + stale, note), root

    def warm(self, root: Path) -> Outcome:
        rendered, counters = self._run(root)
        recomputed = counters.chip_misses
        note = f"profile chip hits={counters.chip_hits} misses={recomputed}"
        return Outcome(
            rendered.to_text(), self.dies, len(rendered.quarantined) + recomputed, note
        )


class SweepBroker(Workload):
    name = "sweep_broker"
    cold_state = "fresh store and broker journal (every task computed)"
    warm_state = "store and journal of the cold run (every task recalled)"

    points = 321

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.voltages = [round(0.400 + 0.0005 * i, 4) for i in range(self.points)]

    @staticmethod
    def render(result) -> str:
        lines = [
            f"{p.voltage!r} {p.measured_rate!r} {p.predicted_rate!r} {p.word_rate!r}"
            for p in result.points
        ]
        return "\n".join(lines + [f"quarantined {result.quarantined!r}"])

    def serial_table(self) -> str:
        """The same grid on the serial backend (the correctness reference)."""
        from repro.experiments.fig09_sram import run_fig9a

        result = run_fig9a(
            voltages=self.voltages, seed=self.seed + 2, runner=serial_runner(None, None)
        )
        return self.render(result)

    def _run(self, root: Path):
        from repro.experiments.broker import BrokerBackend
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.engine import SweepRunner
        from repro.experiments.fig09_sram import run_fig9a

        store = ArtifactCache(root=root)
        backend = BrokerBackend(journal_dir=root / "journal")
        runner = SweepRunner(
            backend=backend, workers=2, shard_store=store, progress=self.progress
        )
        result = run_fig9a(voltages=self.voltages, seed=self.seed + 2, runner=runner)
        stats = dict(backend.last_stats)
        self.restarts += stats.get("broker_restarts", 0)
        return self.render(result), stats

    def cold(self, scratch: Path, state: None) -> tuple[Outcome, Path]:
        root = fresh_dir(scratch, "broker-")
        table, stats = self._run(root)
        # a cold run must compute every task, never recall one
        unexpected = stats["recalled"] + abs(stats["enqueued"] - self.points)
        note = f"enqueued={stats['enqueued']} recalled={stats['recalled']}"
        return Outcome(table, self.points, stats["quarantined"] + unexpected, note), root

    def warm(self, root: Path) -> Outcome:
        table, stats = self._run(root)
        unexpected = self.points - stats["recalled"]
        note = f"enqueued={stats['enqueued']} recalled={stats['recalled']}"
        return Outcome(table, self.points, stats["quarantined"] + unexpected, note)


WORKLOADS = {w.name: w for w in (Fig10Cold, FleetCanary, SweepBroker)}


# ------------------------------------------------------------------ measuring


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's peak RSS since the reset, plus the largest reaped child's."""
    parent_kb = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                parent_kb = int(line.split()[1])
    except OSError:
        pass
    if parent_kb is None:
        parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent_kb + children_kb) / 1024


def import_seconds() -> float:
    """Interpreter start plus importing the drivers, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - start


class Checks:
    """Counts attempted tasks and failures (quarantines plus mismatches)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def outcome(self, phase: str, outcome: Outcome) -> None:
        self.attempted += outcome.tasks
        if outcome.failures:
            self.failed += outcome.failures
            self.problems.append(f"{phase}: {outcome.failures} failed task(s) ({outcome.state})")

    def same(self, phase: str, got: str, expected: str | None) -> None:
        if expected is not None and got != expected:
            self.failed += 1
            self.problems.append(f"{phase}: output differs")


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def measure(workload, seconds: float, scratch: Path, checks: Checks):
    """The untraced run: set-ups, cold repetitions, warm reruns."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, state = timed(workload.setup, scratch)
        setup_times.append(elapsed)
    print(f"phase setup: {SETUP_REPEATS} repetitions, "
          f"{[round(t, 4) for t in setup_times]} s (plus import, timed below)")

    # cold repetitions, each followed by warm reruns, so both kinds of sample
    # span the measured window; once no further cold repetition fits, warm
    # reruns fill the rest of the window (the whole tail on fig10_cold, where
    # one cold repetition takes most of it)
    reset_peak_rss()
    cold_times: list[float] = []
    warm_times: list[float] = []
    cold_table = None
    deadline = time.perf_counter() + seconds
    warm_block = 0.0
    while True:
        elapsed, (outcome, warm_root) = timed(workload.cold, scratch, state)
        cold_times.append(elapsed)
        checks.outcome("cold", outcome)
        if cold_table is None:
            cold_table = outcome.table
        checks.same("cold repetition", outcome.table, cold_table)
        print(f"phase cold #{len(cold_times)}: {elapsed:.4f} s, {workload.cold_state}; {outcome.state}; "
              f"peak RSS so far {peak_rss_mb():.2f} MB")
        # the next cold repetition and its warm reruns would end past the deadline
        last = time.perf_counter() + elapsed + max(elapsed * WARM_SHARE, warm_block) > deadline
        began = time.perf_counter()
        warm_until = deadline if last else began + elapsed * WARM_SHARE
        reruns = 0
        while True:
            warm_s, outcome = timed(workload.warm, warm_root)
            warm_times.append(warm_s)
            reruns += 1
            checks.outcome("warm", outcome)
            checks.same("warm vs cold", outcome.table, cold_table)
            if time.perf_counter() + (warm_s if last else 0) > warm_until:
                break
        warm_block = time.perf_counter() - began
        print(f"phase warm: {reruns} reruns, {workload.warm_state}; {outcome.state}; "
              f"peak RSS so far {peak_rss_mb():.2f} MB")
        if last:
            break

    peak = peak_rss_mb()

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    metrics = {
        "setup_s": statistics.median(i + s for i, s in zip(imports, setup_times)),
        "wall_s": statistics.median(cold_times),
        "warm_rerun_s": statistics.median(warm_times),
        "peak_rss_mb": peak,
    }
    print(f"import: {[round(t, 4) for t in imports]} s; cold: {[round(t, 4) for t in cold_times]} s; "
          f"warm: {[round(t, 4) for t in warm_times]} s")
    return metrics, cold_table


def traced_run(workload, scratch: Path, checks: Checks, cold_table: str, untraced: dict):
    """One traced set-up, cold and warm repetition; returns per-layer metrics."""
    import spans

    tracer = spans.Tracer(scratch / "child-spans")
    workload.progress = tracer.engine_progress
    workload.profile_counters = []
    workload.restarts = 0
    uninstall = spans.install(tracer)
    try:
        tracer.enabled = True
        with tracer.span("bench.setup"):
            state = workload.setup(scratch)
        with tracer.span("bench.cold") as frame:
            cold_s, (outcome, warm_root) = timed(workload.cold, scratch, state)
        unattributed = tracer.records[frame[3]]["self_ns"] / 1e9
        checks.outcome("traced cold", outcome)
        checks.same("traced vs untraced cold", outcome.table, cold_table)
        with tracer.span("bench.warm"):
            warm_s, outcome = timed(workload.warm, warm_root)
        checks.outcome("traced warm", outcome)
        checks.same("traced vs untraced warm", outcome.table, cold_table)
    finally:
        tracer.enabled = False
        uninstall()
    children = tracer.merge_children()
    for counters in workload.profile_counters:
        tracer.count(
            "matic.profile_cache_hits",
            counters.chip_hits + counters.bank_hits + counters.sweep_hits,
        )
    tracer.count("experiments.broker.restarts", workload.restarts)
    path = WORK / "traces" / f"{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_jsonl(path)

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = cold_s - untraced["wall_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced["wall_s"]
    metrics["trace.warm_overhead_s"] = warm_s - untraced["warm_rerun_s"]
    metrics["trace.unattributed_frac"] = unattributed / cold_s
    metrics["matic.aei_reduction"] = workload.aei_reduction or 0.0
    metrics["bench.failed_frac"] = checks.failed / max(checks.attempted, 1)
    print(f"traced cold {cold_s:.4f} s (untraced median {untraced['wall_s']:.4f} s), "
          f"traced warm {warm_s:.4f} s; {unattributed:.4f} s of the traced cold run "
          f"({metrics['trace.unattributed_frac']:.1%}) ran in this process outside every layer span; "
          f"merged spans of {children} forked worker(s); spans written to {path}")
    print("per-layer summary (self time or count -> end-to-end metric it should move):")
    for metric, (unit, what, moves) in spans.LAYER_METRICS.items():
        print(f"  {metric:38s} {metrics[metric]:>14.6g} {unit:6s} {what}; moves {moves}")
    units = {metric: unit for metric, (unit, _, _) in spans.LAYER_METRICS.items()}
    units.update({
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.warm_overhead_s": "s",
        "trace.unattributed_frac": "ratio",
        "matic.aei_reduction": "x",
        "bench.failed_frac": "ratio",
    })
    return metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for variable in _REPRO_ENV:
        os.environ.pop(variable, None)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # anything that falls back to the default cache or the temp directory
    # stays in this run's scratch
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(SRC))
    try:
        import repro
        from repro.experiments.cache import ArtifactCache, set_default_cache

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")
        set_default_cache(ArtifactCache(root=scratch / "default-cache"))

        checks = Checks()
        workload = WORKLOADS[args.workload](args.seed)
        expected = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
        if isinstance(workload, SweepBroker):
            elapsed, expected_table = timed(workload.serial_table)
            print(f"reference: serial table of the same grid in {elapsed:.4f} s")
        else:
            expected_table = None
        metrics, cold_table = measure(workload, args.seconds, scratch, checks)
        if expected is not None:
            checks.same("cold vs recorded digest", digest(cold_table), expected)
            print(f"check: cold table compared with the digest recorded for seed {args.seed}")
        else:
            print(f"check: no digest recorded for seed {args.seed}; "
                  "checked repetitions, warm rerun and references only")
        checks.same("broker vs serial", cold_table, expected_table)
        print(f"cold table sha256 {digest(cold_table)}")
        if workload.aei_reduction is not None:
            print(f"aei_reduction (run_table1 average over the cold sweep): {workload.aei_reduction:.6f}")
        leaked = scratch / "default-cache"
        if leaked.exists() and any(leaked.iterdir()):
            checks.failed += 1
            checks.problems.append("something wrote to the default cache")
        units = dict(END_TO_END_UNITS)
        print("end-to-end: " + ", ".join(f"{k}={v:.4f} {units[k]}" for k, v in metrics.items()))
        if args.trace:
            metrics, units = traced_run(workload, scratch, checks, cold_table, metrics)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in checks.problems:
        print(f"FAILED: {problem}")
    correct = checks.failed == 0
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": int(value) if units[name] == "count" else float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
