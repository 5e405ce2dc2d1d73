"""Fast-mode smoke test for the online-learning divergence benchmark.

``benchmarks/`` is outside the tier-1 test paths, so without this the
script could bit-rot silently.  This drives the same importable
``run_divergence`` the benchmark uses on a small trace.
"""

import pytest

from repro.workload import DriftConfig, build_drifting_noise_trace, drift_graph

learning_bench = pytest.importorskip(
    "benchmarks.bench_online_learning",
    reason="benchmarks/ must be importable from the repo root",
)


def test_learning_divergence_helper_reports_bounded_metrics():
    config = DriftConfig(hours=4.0, drift=False)
    trace = build_drifting_noise_trace(config)
    graph = drift_graph(config)
    metrics = learning_bench.run_divergence(trace, graph, flush_size=256)
    assert 0.0 <= metrics["precision"] <= 1.0
    assert 0.0 <= metrics["recall"] <= 1.0
    assert metrics["online_blocked"] > 0
