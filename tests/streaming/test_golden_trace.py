"""Golden-trace regression: a committed trace with frozen expected counts.

``tests/data/golden_stream/trace.jsonl`` is a small deterministic alert
trace (quiet traffic, one flood burst, novel late strategies) and
``expected.json`` freezes the mitigation chain's exact volume accounting
over it.  Any change that shifts a single count — R1 rule matching, R2
session boundaries, R3 evidence or finalisation, R4 thresholds, JSONL
round-tripping — fails here before it can silently alter every other
result in the repo.

The expectations apply to *every* execution backend and plane count, to
replays restored from checkpoints mid-trace, and to the batch pipeline,
so the file also guards streaming/batch parity — and plane-partitioning
and restore exactness — itself.

Regenerate (after an intentional semantics change, with review):

    PYTHONPATH=src:tests python tests/streaming/test_golden_trace.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.io.jsonl import write_jsonl
from repro.io.traces import alert_to_dict
from repro.streaming import AlertGateway, LearnerConfig, iter_jsonl_alerts
from repro.topology.graph import DependencyGraph
from repro.workload.trace import AlertTrace

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "golden_stream"
TRACE_PATH = DATA_DIR / "trace.jsonl"
EXPECTED_PATH = DATA_DIR / "expected.json"
LEARNED_PATH = DATA_DIR / "learned_rules.json"

WINDOW = 900.0

#: Frozen learner configuration for the learned-rules fixture.  The
#: golden flood (120 alerts in 25 minutes) deliberately crosses the A5
#: repeat threshold, so the fixture freezes promotion *and* expiry
#: behaviour, plus the end-of-run streaming QoA scores.
LEARN_CONFIG = LearnerConfig(
    window_seconds=1800.0, min_alerts=10, repeat_count=15, rule_ttl=1800.0,
)


def golden_graph() -> DependencyGraph:
    """A fixed six-node topology: two call chains sharing a sink."""
    graph = DependencyGraph()
    for name in ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6"):
        graph.add_microservice(name, service="svc")
    for caller, callee in (("m-1", "m-2"), ("m-2", "m-3"),
                           ("m-4", "m-5"), ("m-5", "m-3")):
        graph.add_dependency(caller, callee)
    return graph


def golden_blocker() -> AlertBlocker:
    """Two fixed R1 rules: one strategy-wide, one region-scoped."""
    return AlertBlocker([
        BlockingRule(strategy_id="s-noise", reason="golden: repeating"),
        BlockingRule(strategy_id="s-flaky", region="region-B",
                     reason="golden: toggling in one region"),
    ])


def _load_alerts():
    return list(iter_jsonl_alerts(TRACE_PATH))


def _run_gateway(alerts, backend: str, **kwargs):
    gateway = AlertGateway(
        golden_graph(), blocker=golden_blocker(), backend=backend,
        aggregation_window=WINDOW, correlation_window=WINDOW, **kwargs,
    )
    gateway.ingest_batch(alerts)
    return gateway.drain()


#: Restore points for the checkpointed replays: multiples of the flush
#: size 64, so each lands on a barrier the uninterrupted run flushes at
#: anyway and adds no judgment round of its own.
RESTORE_AT = (64, 192)


def _run_restored(alerts, build):
    """Replay ``alerts`` through ``build()`` gateways, checkpointing at
    every :data:`RESTORE_AT` barrier into a fresh gateway."""
    gateway = build()
    cursor = 0
    for position in RESTORE_AT:
        gateway.ingest_batch(alerts[cursor:position])
        cursor = position
        state = gateway.checkpoint_state()
        gateway.close()
        gateway = build()
        gateway.adopt_checkpoint(state)
    gateway.ingest_batch(alerts[cursor:])
    return gateway, gateway.drain()


def _stats_payload(stats) -> dict:
    return {
        "input_alerts": stats.input_alerts,
        "blocked_alerts": stats.blocked_alerts,
        "aggregates": stats.aggregates_emitted,
        "clusters": stats.clusters_finalized,
        "storm_episodes": stats.storm_episodes,
        "emerging_flags": stats.emerging_flags,
        "late_events": stats.late_events,
        "watermark": stats.watermark,
    }


def _run_learning_gateway(alerts, **kwargs):
    """The fixed learned-rules configuration (empty initial rule table)."""
    gateway = AlertGateway(
        golden_graph(), blocker=AlertBlocker(),
        flush_size=64, aggregation_window=WINDOW, correlation_window=WINDOW,
        learn_rules=True, enable_qoa=True, learner_config=LEARN_CONFIG,
        retain_artifacts=False, **kwargs,
    )
    gateway.ingest_batch(alerts)
    stats = gateway.drain()
    return gateway, stats


def _learned_payload(gateway, stats) -> dict:
    """Rule event log + final counters + QoA scores, JSON-stable."""
    return {
        "events": [
            [e.kind, e.strategy_id, e.at_input, round(e.at_time, 3),
             None if e.expires_at is None else round(e.expires_at, 3)]
            for e in gateway.learner.events
        ],
        "counters": {
            "blocked_alerts": stats.blocked_alerts,
            "rules_promoted": stats.rules_promoted,
            "rules_renewed": stats.rules_renewed,
            "rules_demoted": stats.rules_demoted,
            "rules_expired": stats.rules_expired,
        },
        "qoa": {
            strategy_id: {
                "seen": row["seen"],
                "blocked": row["blocked"],
                "transient": row["transient"],
                "groups": row["groups"],
                "overall": round(row["overall"], 6),
            }
            for strategy_id, row in sorted(stats.qoa.items())
        },
    }


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads(EXPECTED_PATH.read_text())

    @pytest.fixture(scope="class")
    def alerts(self):
        return _load_alerts()

    def test_fixture_integrity(self, expected, alerts):
        assert len(alerts) == expected["trace_alerts"]
        times = [a.occurred_at for a in alerts]
        assert times == sorted(times), "golden trace must be in-order"

    @pytest.mark.parametrize("backend,kwargs", [
        ("serial", {}),
        ("serial", {"flush_size": 64}),
        ("serial", {"flush_size": 64, "n_planes": 2}),
        ("serial", {"n_planes": 4}),
        ("process", {"flush_size": 64, "n_workers": 2}),
        ("process", {"flush_size": 64, "n_workers": 2, "n_planes": 2}),
    ])
    def test_gateway_counts_are_frozen(self, expected, alerts, backend, kwargs):
        stats = _run_gateway(alerts, backend, **kwargs)
        assert _stats_payload(stats) == expected["counts"], (
            f"counting drift detected on the {backend} backend "
            f"({kwargs or 'per-event'}); if the semantics change is "
            f"intentional, regenerate with --regen and justify the diff"
        )

    def test_learned_rule_timeline_is_frozen(self, alerts):
        """Any change to learner behaviour — thresholds, promotion or
        expiry timing, QoA scoring — shows up here as a reviewable diff
        of the committed event log, not as silent drift."""
        expected = json.loads(LEARNED_PATH.read_text())
        gateway, stats = _run_learning_gateway(alerts)
        assert _learned_payload(gateway, stats) == expected, (
            "learned-rule drift detected; if the semantics change is "
            "intentional, regenerate with --regen and justify the diff"
        )

    def test_learned_rule_timeline_is_plane_invariant(self, alerts):
        """Learning runs on the serial backend only; splitting the
        regions over two planes must not change what it learns."""
        expected = json.loads(LEARNED_PATH.read_text())
        gateway, stats = _run_learning_gateway(alerts, n_planes=2)
        assert _learned_payload(gateway, stats) == expected

    @pytest.mark.parametrize("backend,kwargs", [
        ("serial", {}),
        ("process", {"n_workers": 2, "n_planes": 2}),
    ])
    def test_restored_replay_counts_are_frozen(
        self, expected, alerts, backend, kwargs,
    ):
        """Two checkpoint restores mid-trace (one inside the flood)
        reproduce the uninterrupted golden counts bit for bit."""
        def build():
            return AlertGateway(
                golden_graph(), blocker=golden_blocker(), backend=backend,
                flush_size=64, aggregation_window=WINDOW,
                correlation_window=WINDOW, **kwargs,
            )
        _, stats = _run_restored(alerts, build)
        assert _stats_payload(stats) == expected["counts"]

    def test_learned_rule_timeline_survives_restores(self, alerts):
        """Learner evidence, rule TTLs and QoA counters travel in the
        checkpoint: restoring twice mid-trace reproduces the frozen
        learned-rule fixture exactly."""
        expected = json.loads(LEARNED_PATH.read_text())

        def build():
            return AlertGateway(
                golden_graph(), blocker=AlertBlocker(), flush_size=64,
                aggregation_window=WINDOW, correlation_window=WINDOW,
                learn_rules=True, enable_qoa=True,
                learner_config=LEARN_CONFIG, retain_artifacts=False,
            )
        gateway, stats = _run_restored(alerts, build)
        assert _learned_payload(gateway, stats) == expected

    def test_batch_pipeline_counts_are_frozen(self, expected, alerts):
        trace = AlertTrace(alerts=list(alerts), label="golden", seed=0)
        report = MitigationPipeline(
            golden_graph(), aggregation_window=WINDOW,
            correlation_window=WINDOW,
        ).run(trace, blocker=golden_blocker())
        counts = expected["counts"]
        assert report.input_alerts == counts["input_alerts"]
        assert report.blocked_alerts == counts["blocked_alerts"]
        assert len(report.aggregates) == counts["aggregates"]
        assert len(report.clusters) == counts["clusters"]


# ----------------------------------------------------------------------
# fixture generation (not executed by pytest)
# ----------------------------------------------------------------------
def _build_golden_alerts():
    """~260 deterministic alerts: steady traffic, one flood, novel tails."""
    import random

    from repro.alerting.alert import Alert, Severity

    rng = random.Random(20260707)
    micro_of = {
        "s-api": "m-1", "s-cache": "m-2", "s-db": "m-3",
        "s-queue": "m-4", "s-batch": "m-5", "s-edge": "m-6",
        "s-noise": "m-2", "s-flaky": "m-5",
        "s-late-1": "m-1", "s-late-2": "m-4",
    }
    severities = [Severity.CRITICAL, Severity.MAJOR, Severity.MINOR,
                  Severity.WARNING]
    events: list[tuple[float, str, str, str]] = []

    def emit(time, strategy, region, title):
        events.append((time, strategy, region, title))

    # Phase 1 — two hours of sparse background traffic in both regions.
    for strategy in ("s-api", "s-cache", "s-db", "s-queue", "s-batch",
                     "s-edge", "s-noise", "s-flaky"):
        for region in ("region-A", "region-B"):
            t = rng.uniform(0.0, 600.0)
            while t < 7200.0:
                emit(t, strategy, region,
                     f"{strategy} latency {rng.randrange(100, 999)} ms")
                t += rng.uniform(900.0, 2400.0)
    # Phase 2 — a 25-minute flood in region-A (crosses the 100/h storm
    # threshold) spread over the two correlated call chains.
    for index in range(120):
        t = 7200.0 + index * 12.5
        strategy = ("s-api", "s-cache", "s-db", "s-queue")[index % 4]
        emit(t, strategy, "region-A",
             f"{strategy} errors {rng.randrange(1, 50)}xx rising")
    # Phase 3 — elevated-but-sub-flood region-A traffic (the 25-100/h
    # emerging band once the flood ages out of the rate window), with
    # two never-seen strategies appearing inside it, plus B-side strays.
    for strategy in ("s-api", "s-cache", "s-db", "s-queue", "s-batch",
                     "s-edge"):
        t = 9800.0 + rng.uniform(0.0, 400.0)
        while t < 13_000.0:
            emit(t, strategy, "region-A",
                 f"{strategy} retries {rng.randrange(2, 30)} climbing")
            t += rng.uniform(300.0, 700.0)
    for index, strategy in enumerate(("s-late-1", "s-late-2")):
        for repeat in range(3):
            emit(11_500.0 + index * 140.0 + repeat * 13.0, strategy,
                 "region-A", f"{strategy} saturation {repeat}")
    for strategy in ("s-api", "s-db", "s-noise"):
        t = 9500.0
        while t < 13_000.0:
            emit(t, strategy, "region-B",
                 f"{strategy} latency {rng.randrange(100, 999)} ms")
            t += rng.uniform(400.0, 1200.0)

    events.sort(key=lambda event: event[0])
    alerts = []
    for index, (time, strategy, region, title) in enumerate(events):
        alerts.append(Alert(
            alert_id=f"golden-{index:04d}",
            strategy_id=strategy,
            strategy_name=f"{strategy}-name",
            title=title,
            description="golden fixture event",
            severity=severities[rng.randrange(len(severities))],
            service="svc",
            microservice=micro_of[strategy],
            region=region,
            datacenter=f"{region}-dc1",
            channel="metric",
            occurred_at=round(time, 3),
        ))
    return alerts


def _regenerate() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    alerts = _build_golden_alerts()
    write_jsonl(TRACE_PATH, (alert_to_dict(alert) for alert in alerts))
    stats = _run_gateway(alerts, "serial")
    EXPECTED_PATH.write_text(json.dumps({
        "trace_alerts": len(alerts),
        "counts": _stats_payload(stats),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TRACE_PATH} ({len(alerts)} alerts)")
    print(f"wrote {EXPECTED_PATH}: {_stats_payload(stats)}")
    gateway, learn_stats = _run_learning_gateway(alerts)
    payload = _learned_payload(gateway, learn_stats)
    LEARNED_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEARNED_PATH}: {len(payload['events'])} rule events, "
          f"{payload['counters']}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run outside pytest without --regen")
    _regenerate()
