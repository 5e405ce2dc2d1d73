"""Write the legacy detection directory ``tests/data/legacy_detection``.

The directory pins restore compatibility with detector state written
before A2 folded its final hours: the suite then kept one ``stats`` row
per (strategy, region, hour), every alert's event time included, and
re-judged all of them at every ``findings()``.  A seeded trace with
storm hours runs through a ``detect_antipatterns=True`` service
(``n_planes=2``, ``journal_mode="batch"``): a snapshot mid-stream, a
journalled tail, then a simulated crash (``abort``).  Beside the service
directory the writer leaves the alerts after the crash
(``tail.jsonl.gz``) and ``expected.json``: the writer's own A1-A3
findings at the crash and those of an uninterrupted gateway drained
over the whole trace.  It must be written by a checkout from before the
fold (commit dbee72b), because only that code records ``stats`` rows:

    git clone <repo> old && git -C old checkout dbee72b
    cd old && PYTHONPATH=src:<repo> \\
        python <repo>/tests/serving/legacy_detection_fixture.py \\
        <repo>/tests/data/legacy_detection

``test_legacy_detection.py`` restores it under the current code.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

from repro.common.timeutil import DAY
from repro.core.antipatterns.base import DetectorThresholds
from repro.io.traces import alert_from_dict, alert_to_dict
from repro.serving import AlertGatewayService
from repro.streaming import AlertGateway
from repro.topology import TopologyConfig, generate_topology
from repro.topology.graph import DependencyGraph
from repro.workload import TraceConfig, TraceScale, generate_trace

#: Loose enough that a 1 000-alert trace yields A2 and A3 verdicts.
THRESHOLDS = DetectorThresholds(
    severity_min_alerts=3, severity_rank_gap=0.1,
    severity_min_distance=0.05, min_alerts_for_stats=2, stale_after=2 * DAY,
)
#: Gateway options shared by the writer and the restoring test.
GATEWAY_OPTIONS = dict(
    n_planes=2, flush_size=64, retain_artifacts=False,
    detect_antipatterns=True, detector_thresholds=THRESHOLDS,
)
#: Service options on top of the gateway's.
SERVICE_OPTIONS = dict(journal_mode="batch", checkpoint_every=100_000)
#: Events covered by the snapshot, and where the crash cuts the stream:
#: both multiples of the flush size, so both are flush barriers.
SNAPSHOT_AT = 448
CRASH_AT = 704


def trace_alerts() -> list:
    """The writer's seeded trace, 7 days over 60 strategies, in order."""
    topology = generate_topology(TopologyConfig(seed=44))
    rate = TraceScale.default().alerts_per_strategy_per_day
    trace = generate_trace(TraceConfig(
        seed=44,
        scale=TraceScale(
            days=7, n_strategies=60, target_total_alerts=int(rate * 420),
        ),
        storms_per_week_per_region=1.0,
    ), topology)
    return list(trace.iter_ordered())


def service(data_dir: Path) -> AlertGatewayService:
    """The fixture's service, as both sides build it."""
    return AlertGatewayService(
        DependencyGraph(), data_dir, **SERVICE_OPTIONS, **GATEWAY_OPTIONS,
    )


def findings_payload(findings: dict) -> dict:
    """A1-A3 findings as JSON rows: subject, score, evidence, details."""
    return {
        pattern: [
            [f.subject, f.score, f.evidence, f.details] for f in items
        ]
        for pattern, items in findings.items()
    }


def load_tail(data_dir: Path) -> list:
    """The alerts the stream carries after the crash."""
    with gzip.open(data_dir / "tail.jsonl.gz", "rt") as handle:
        return [alert_from_dict(json.loads(line)) for line in handle]


def write(data_dir: Path) -> None:
    alerts = trace_alerts()
    writer = service(data_dir)
    writer.start()
    writer.ingest(alerts[:SNAPSHOT_AT])
    writer.checkpoint(force=True)
    writer.ingest(alerts[SNAPSHOT_AT:CRASH_AT])
    assert writer.gateway.at_flush_barrier
    at_crash = findings_payload(writer.gateway.detectors.findings())
    writer.abort()
    straight = AlertGateway(DependencyGraph(), **GATEWAY_OPTIONS)
    straight.ingest_batch(alerts)
    straight.drain()
    drained = findings_payload(straight.detectors.findings())
    with gzip.GzipFile(data_dir / "tail.jsonl.gz", "wb", mtime=0) as raw:
        for alert in alerts[CRASH_AT:]:
            raw.write((json.dumps(alert_to_dict(alert)) + "\n").encode())
    (data_dir / "expected.json").write_text(json.dumps(
        {"at_crash": at_crash, "drained": drained}, indent=1,
    ) + "\n")


if __name__ == "__main__":
    write(Path(sys.argv[1]))
