"""Online rule learning: divergence from the batch rule set at bench scale.

Replays the drifting-noise workload (:mod:`repro.workload.drift`) at
bench scale through a learning gateway and compares the rules it
promoted with the batch-derived set: learned-rule precision/recall on
the stationary trace (asserted >= 0.9 precision, the ISSUE-4 bound) and
the reported divergence on the drifting trace.  The numbers land in the
report and ``benchmarks/results/online_learning.json``.

The cost of learning, QoA and detection is measured end to end by the
``background_detect`` workload of ``benchmarks/e2e``.

``run_divergence`` is importable; the fast smoke test under ``tests/``
drives it with a small trace so this script cannot silently bit-rot.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import record_report
from repro.analysis.report import ComparisonRow, render_comparison
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.streaming import AlertGateway, LearnerConfig, rule_set_divergence
from repro.workload import DriftConfig, build_drifting_noise_trace, drift_graph

_RESULTS_DIR = Path(__file__).parent / "results"

_LEARNER = LearnerConfig(rule_ttl=1800.0)


def _bench_config(hours: float = 24.0, drift: bool = True) -> DriftConfig:
    return DriftConfig(hours=hours, drift=drift)


def run_divergence(trace, graph, flush_size: int = 512) -> dict[str, float]:
    """Online-vs-batch rule divergence on one trace (bench-scale leg)."""
    batch_blocker = MitigationPipeline.derive_blocker(trace)
    batch_set = {rule.strategy_id for rule in batch_blocker.rules}
    gateway = AlertGateway(
        graph,
        blocker=AlertBlocker(),
        flush_size=flush_size,
        learn_rules=True,
        learner_config=_LEARNER,
        retain_artifacts=False,
    )
    gateway.ingest_batch(trace.iter_ordered())
    stats = gateway.drain()
    batch_report = MitigationPipeline(graph).run(trace, blocker=batch_blocker)
    metrics = rule_set_divergence(gateway.learner.ever_promoted, batch_set)
    metrics["online_blocked"] = float(stats.blocked_alerts)
    metrics["batch_blocked"] = float(batch_report.blocked_alerts)
    metrics["rule_events"] = float(len(gateway.learner.events))
    return metrics


def test_online_learning_divergence():
    config = _bench_config()
    trace = build_drifting_noise_trace(config)
    graph = drift_graph(config)
    stationary = build_drifting_noise_trace(_bench_config(drift=False))

    stationary_div = run_divergence(stationary, graph)
    assert stationary_div["precision"] >= 0.9, (
        f"bench-scale stationary precision {stationary_div['precision']:.2f}"
    )
    drifting_div = run_divergence(trace, graph)

    rows = [
        ComparisonRow(
            f"{label:>10}", "(rule divergence vs batch)",
            f"precision {metrics['precision']:.2f}  "
            f"recall {metrics['recall']:.2f}  "
            f"blocked {metrics['online_blocked']:,.0f} online / "
            f"{metrics['batch_blocked']:,.0f} batch",
        )
        for label, metrics in (("stationary", stationary_div),
                               ("drifting", drifting_div))
    ]
    record_report("online_learning", render_comparison(
        f"Online rule learning over {len(trace):,} drifting-noise alerts", rows,
    ))

    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "online_learning.json").write_text(json.dumps({
        "trace_alerts": len(trace),
        "divergence": {"stationary": stationary_div, "drifting": drifting_div},
    }, indent=2, sort_keys=True))
