"""Property-based tests for the streaming gateway's backend equivalence.

Randomized alert traces (arbitrary strategies, regions, severities,
bursts and gaps) must produce *identical* volume accounting no matter
how the gateway executes: serial vs process backends, any
plane count (the region partition), batched vs per-event ingestion, and
any flush size.  Each
property also cross-checks the batch ``MitigationPipeline`` on the same
trace — the reconciliation invariant under adversarial inputs rather
than the curated storm fixture.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.streaming import AlertGateway
from repro.topology.graph import DependencyGraph
from repro.workload.trace import AlertTrace

_MICROSERVICES = ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6")
_STRATEGIES = ("s-1", "s-2", "s-3", "s-4")
_REGIONS = ("region-A", "region-B")


def _build_graph() -> DependencyGraph:
    graph = DependencyGraph()
    for name in _MICROSERVICES:
        graph.add_microservice(name, service="svc")
    # Two call chains sharing a sink: m-1 -> m-2 -> m-3, m-4 -> m-5 -> m-3;
    # m-6 stays isolated so some pairs are never related.
    for caller, callee in (("m-1", "m-2"), ("m-2", "m-3"),
                           ("m-4", "m-5"), ("m-5", "m-3")):
        graph.add_dependency(caller, callee)
    return graph


_GRAPH = _build_graph()


@st.composite
def alert_traces(draw):
    """A time-ordered randomized trace over the fixed tiny topology."""
    n = draw(st.integers(min_value=0, max_value=120))
    times = sorted(
        draw(st.lists(
            st.floats(min_value=0, max_value=50_000, allow_nan=False),
            min_size=n, max_size=n,
        ))
    )
    alerts = []
    for index, occurred_at in enumerate(times):
        strategy = draw(st.sampled_from(_STRATEGIES))
        alerts.append(Alert(
            alert_id=f"a-{index:04d}",
            strategy_id=strategy,
            strategy_name=strategy,
            title=draw(st.sampled_from(("latency high", "errors 500 spiking"))),
            description="prop",
            severity=draw(st.sampled_from(list(Severity))),
            service="svc",
            microservice=draw(st.sampled_from(_MICROSERVICES)),
            region=draw(st.sampled_from(_REGIONS)),
            datacenter="dc",
            channel="metric",
            occurred_at=occurred_at,
        ))
    return alerts


def blockers():
    return st.sets(st.sampled_from(_STRATEGIES)).map(
        lambda blocked: AlertBlocker(
            BlockingRule(strategy_id=strategy) for strategy in sorted(blocked)
        )
    )


def _counts(stats) -> tuple:
    return (
        stats.input_alerts,
        stats.blocked_alerts,
        stats.aggregates_emitted,
        stats.clusters_finalized,
        stats.storm_episodes,
        stats.emerging_flags,
    )


def _run(alerts, blocker, backend="serial", flush_size=None, n_planes=1,
         per_event=False, window=600.0):
    gateway = AlertGateway(
        _GRAPH, blocker=blocker, n_planes=n_planes, backend=backend,
        n_workers=2, flush_size=flush_size,
        aggregation_window=window, correlation_window=window,
    )
    if per_event:
        for alert in alerts:
            gateway.ingest_batch([alert])
    else:
        gateway.ingest_batch(alerts)
    return gateway.drain()


def _batch_counts(alerts, blocker, window=600.0) -> tuple:
    trace = AlertTrace(alerts=list(alerts), label="prop", seed=0)
    report = MitigationPipeline(
        _GRAPH, aggregation_window=window, correlation_window=window,
    ).run(trace, blocker=blocker)
    return (
        report.input_alerts,
        report.blocked_alerts,
        len(report.aggregates),
        len(report.clusters),
    )


class TestBackendEquivalence:
    @given(alert_traces(), blockers())
    @settings(max_examples=5, deadline=None)
    def test_process_backend_counts_identically(self, alerts, blocker):
        serial = _run(alerts, blocker, "serial", flush_size=32)
        forked = _run(alerts, blocker, "process", flush_size=32)
        assert _counts(serial) == _counts(forked)

    @given(alert_traces(), blockers(), st.sampled_from([2, 7, 64]))
    @settings(max_examples=40, deadline=None)
    def test_ingest_batch_equals_per_event_ingest(
        self, alerts, blocker, flush_size
    ):
        per_event = _run(alerts, blocker, per_event=True)
        batched = _run(alerts, blocker, flush_size=flush_size)
        assert _counts(per_event) == _counts(batched)
        assert per_event.watermark == batched.watermark
        assert per_event.late_events == batched.late_events


class TestPlaneEquivalence:
    @given(alert_traces(), blockers(),
           st.sampled_from([2, 4]),
           st.sampled_from([1, 16, 128]))
    @settings(max_examples=40, deadline=None)
    def test_plane_split_equals_flat_gateway(
        self, alerts, blocker, n_planes, flush_size
    ):
        """Any region partition must count exactly like one plane."""
        flat = _run(alerts, blocker, flush_size=flush_size, n_planes=1)
        split = _run(alerts, blocker, flush_size=flush_size, n_planes=n_planes)
        assert _counts(flat) == _counts(split)
        assert flat.watermark == split.watermark
        assert flat.late_events == split.late_events

    @given(alert_traces(), blockers(), st.sampled_from([2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_plane_split_reconciles_with_batch_pipeline(
        self, alerts, blocker, n_planes
    ):
        stats = _run(alerts, blocker, n_planes=n_planes, flush_size=32)
        assert (
            stats.input_alerts,
            stats.blocked_alerts,
            stats.aggregates_emitted,
            stats.clusters_finalized,
        ) == _batch_counts(alerts, blocker)

    @given(alert_traces(), blockers())
    @settings(max_examples=5, deadline=None)
    def test_planes_and_processes_count_identically(self, alerts, blocker):
        serial = _run(alerts, blocker, "serial", flush_size=32, n_planes=2)
        forked = _run(alerts, blocker, "process", flush_size=32, n_planes=2)
        assert _counts(serial) == _counts(forked)

    @given(alert_traces(), blockers(), st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_per_plane_totals_partition_the_gateway_totals(
        self, alerts, blocker, n_planes
    ):
        stats = _run(alerts, blocker, flush_size=16, n_planes=n_planes)
        planes = stats.snapshot()["planes"]
        assert sum(p["processed"] for p in planes) == stats.input_alerts
        assert sum(p["blocked"] for p in planes) == stats.blocked_alerts
        assert sum(p["aggregates"] for p in planes) == stats.aggregates_emitted
        assert sum(p["clusters"] for p in planes) == stats.clusters_finalized
        regions = [r for p in planes for r in p["regions"]]
        assert len(regions) == len(set(regions))  # no region on two planes


class TestBatchReconciliation:
    @given(alert_traces(), blockers())
    @settings(max_examples=40, deadline=None)
    def test_gateway_reconciles_with_pipeline(self, alerts, blocker):
        stats = _run(alerts, blocker, flush_size=32)
        assert (
            stats.input_alerts,
            stats.blocked_alerts,
            stats.aggregates_emitted,
            stats.clusters_finalized,
        ) == _batch_counts(alerts, blocker)

    @given(alert_traces())
    @settings(max_examples=25, deadline=None)
    def test_aggregate_counts_partition_the_survivors(self, alerts):
        gateway = AlertGateway(_GRAPH, flush_size=16,
                               aggregation_window=600.0,
                               correlation_window=600.0)
        gateway.ingest_batch(alerts)
        stats = gateway.drain()
        assert sum(a.count for a in gateway.aggregates) == stats.input_alerts
        assert sorted(
            alert_id for a in gateway.aggregates for alert_id in a.alert_ids
        ) == sorted(a.alert_id for a in alerts)
