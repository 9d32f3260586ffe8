"""The benchmark's tracer must observe the program without changing it.

Runs a reduced Fig. 10 grid with tracing off, on, and off again (each from a
fresh cache) and requires byte-identical tables, spans for the layers the
grid exercises, and the original functions back after ``uninstall``.
"""

from __future__ import annotations

from repro.experiments.cache import ArtifactCache
from repro.experiments.common import default_flow
from repro.experiments.engine import SweepRunner
from repro.experiments.fig10_error_vs_voltage import run_fig10
from repro.nn.network import Network

from spans import Tracer, install


def _fig10_table(root, progress=None) -> str:
    cache = ArtifactCache(root=root)
    result = run_fig10(
        benchmarks=("inversek2j",),
        voltages=(0.90, 0.50),
        num_samples=200,
        adaptive_epochs=2,
        flow=default_flow(epochs=2, seed=1, cache=cache),
        cache=cache,
        runner=SweepRunner(backend="serial", workers=1, shard_store=cache, progress=progress),
    )
    return result.to_experiment_result().to_text()


def test_tracing_on_and_off_render_identical_tables(tmp_path):
    untraced = _fig10_table(tmp_path / "off")
    forward = Network.forward

    tracer = Tracer(tmp_path / "children")
    uninstall = install(tracer)
    try:
        assert Network.forward is not forward
        tracer.enabled = True
        with tracer.span("bench.cold"):
            traced = _fig10_table(tmp_path / "on", progress=tracer.engine_progress)
    finally:
        tracer.enabled = False
        uninstall()

    assert Network.forward is forward
    assert traced == untraced
    assert _fig10_table(tmp_path / "off-again") == untraced

    metrics = tracer.layer_metrics()
    assert metrics["nn.train_steps"] > 0
    assert metrics["matic.mat_steps"] > 0
    assert metrics["quant.quantize_calls"] > 0
    assert metrics["experiments.engine.tasks"] == 2
    assert metrics["experiments.cache.misses"] > 0
    # self times partition the root span: no interval is counted twice
    root = next(r for r in tracer.records if r and r["name"] == "bench.cold")
    covered = sum(self_ns for _, _, self_ns in tracer.totals.values())
    assert covered == root["end_ns"] - root["start_ns"]
