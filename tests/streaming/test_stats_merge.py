"""GatewayStats merge paths: per-plane counters vs gateway totals.

The gateway's lifetime totals are *derived* — every flush and drain
merges per-plane counter dicts into ``GatewayStats`` via
``_refresh_totals``.  These tests pin the merge invariant directly (the
property suite only exercises it indirectly through parity): at any
observable point — mid-stream snapshot, after a live plane scale, after
a mid-stream drain, across backends — the per-plane rows must partition
the gateway totals exactly, and the ``snapshot()`` payload must agree
with the dataclass counters it summarises.
"""

from __future__ import annotations

import pytest

from repro.streaming import AlertGateway
from repro.topology.graph import DependencyGraph

from tests.streaming.conftest import make_alert


def _graph() -> DependencyGraph:
    graph = DependencyGraph()
    for name in ("m-1", "m-2", "m-3"):
        graph.add_microservice(name, service="svc")
    graph.add_dependency("m-1", "m-2")
    return graph


def _alerts(n: int = 240) -> list:
    """Four regions interleaved, several strategies, session-window gaps."""
    alerts = []
    for index in range(n):
        region = ("region-A", "region-B", "region-C", "region-D")[index % 4]
        strategy = f"s-{index % 5}"
        alerts.append(make_alert(
            occurred_at=index * 37.0,
            strategy_id=strategy,
            region=region,
            microservice=("m-1", "m-2", "m-3")[index % 3],
        ))
    return alerts


def _assert_planes_partition_totals(stats) -> None:
    planes = stats.planes.values()
    assert sum(p["processed"] for p in planes) == stats.input_alerts
    assert sum(p["blocked"] for p in planes) == stats.blocked_alerts
    assert sum(p["aggregates"] for p in planes) == stats.aggregates_emitted
    assert sum(p["clusters"] for p in planes) == stats.clusters_finalized
    assert sum(p["storm_episodes"] for p in planes) == stats.storm_episodes
    assert sum(p["emerging_flags"] for p in planes) == stats.emerging_flags


def _assert_snapshot_agrees(stats) -> None:
    payload = stats.snapshot()
    assert payload["input_alerts"] == stats.input_alerts
    assert payload["blocked_alerts"] == stats.blocked_alerts
    assert payload["aggregates"] == stats.aggregates_emitted
    assert payload["clusters"] == stats.clusters_finalized
    assert len(payload["planes"]) == len(stats.planes)
    for row in payload["planes"]:
        assert row == stats.planes[row["plane_id"]]


@pytest.mark.parametrize("backend,kwargs", [
    ("serial", {"n_planes": 1}),
    ("serial", {"n_planes": 4}),
    ("process", {"n_planes": 2, "n_workers": 2}),
])
class TestPlaneMergePartitionsTotals:
    def test_mid_stream_snapshot_merge(self, backend, kwargs):
        gateway = AlertGateway(
            _graph(), backend=backend, flush_size=32,
            retain_artifacts=False, **kwargs,
        )
        alerts = _alerts()
        gateway.ingest_batch(alerts[:150])
        gateway.flush()  # a barrier: every plane row is current
        _assert_planes_partition_totals(gateway.stats)
        _assert_snapshot_agrees(gateway.stats)
        gateway.ingest_batch(alerts[150:])
        gateway.drain()

    def test_merge_under_mid_stream_drain(self, backend, kwargs):
        """Draining with sessions and buffers still open: the drain flush
        plus the final per-plane drain results must still partition."""
        gateway = AlertGateway(
            _graph(), backend=backend, flush_size=64,
            retain_artifacts=False, **kwargs,
        )
        alerts = _alerts()
        # 70 events: partial flush buffered, sessions open everywhere.
        gateway.ingest_batch(alerts[:70])
        stats = gateway.drain()
        assert stats.input_alerts == 70
        _assert_planes_partition_totals(stats)
        _assert_snapshot_agrees(stats)


@pytest.mark.parametrize("backend,kwargs", [
    ("serial", {"n_planes": 1}),
    ("serial", {"n_planes": 4}),
    ("process", {"n_planes": 2, "n_workers": 2}),
])
class TestPlaneMergeSurvivesMigration:
    """The satellite fix: per-plane rows must reconcile to gateway totals
    even though a scale event re-homes counter history — the old merge
    assumed plane identity was stable, so scale-in left stale rows for
    dead planes (double counting) and scale-out left moved history on
    the wrong plane."""

    def test_merge_after_scale_out(self, backend, kwargs):
        gateway = AlertGateway(
            _graph(), backend=backend, flush_size=32,
            retain_artifacts=False, **kwargs,
        )
        alerts = _alerts()
        gateway.ingest_batch(alerts[:150])
        gateway.scale_planes(4)
        # Immediately after the migration — before any further flush —
        # the rebuilt rows must already partition the totals.
        _assert_planes_partition_totals(gateway.stats)
        assert set(gateway.stats.planes) == set(range(4))
        gateway.ingest_batch(alerts[150:])
        stats = gateway.drain()
        _assert_planes_partition_totals(stats)
        _assert_snapshot_agrees(stats)

    def test_merge_after_scale_in(self, backend, kwargs):
        gateway = AlertGateway(
            _graph(), backend=backend, flush_size=32,
            retain_artifacts=False, **kwargs,
        )
        alerts = _alerts()
        gateway.ingest_batch(alerts[:150])
        gateway.scale_planes(1)
        # Rows keyed by dead plane ids must be gone, not lingering as
        # stale duplicates of the migrated history.
        assert set(gateway.stats.planes) == {0}
        _assert_planes_partition_totals(gateway.stats)
        gateway.ingest_batch(alerts[150:])
        stats = gateway.drain()
        assert set(stats.planes) == {0}
        _assert_planes_partition_totals(stats)
        _assert_snapshot_agrees(stats)


def test_scale_events_land_in_the_snapshot_payload():
    gateway = AlertGateway(_graph(), n_planes=1, flush_size=16,
                           retain_artifacts=False)
    alerts = _alerts(120)
    gateway.ingest_batch(alerts[:60])
    gateway.scale_planes(3)
    gateway.ingest_batch(alerts[60:])
    stats = gateway.drain()
    payload = stats.snapshot()
    assert payload["plane_scales"] == 1
    assert payload["scales"] == [{
        "at_input": 60, "from_planes": 1, "to_planes": 3,
        "moved_regions": stats.scales[0]["moved_regions"],
    }]
    assert payload["scales"][0]["moved_regions"] > 0


def test_post_drain_snapshot_is_rebuilt_from_frozen_totals():
    gateway = AlertGateway(_graph(), n_planes=2, flush_size=16,
                           retain_artifacts=False)
    gateway.ingest_batch(_alerts(120))
    stats = gateway.drain()
    snapshot = stats.snapshot()
    assert snapshot["input_alerts"] == stats.input_alerts
    assert snapshot["blocked_alerts"] == stats.blocked_alerts
    assert all(p["open_sessions"] == 0 for p in snapshot["planes"])
    assert sum(p["processed"] for p in snapshot["planes"]) == stats.input_alerts


def test_learner_and_qoa_counters_survive_the_merge():
    """The learning-side counters ride the same snapshot payload."""
    gateway = AlertGateway(
        _graph(), n_planes=2, flush_size=16, learn_rules=True,
        enable_qoa=True, retain_artifacts=False,
    )
    gateway.ingest_batch(_alerts(120))
    stats = gateway.drain()
    payload = stats.snapshot()
    assert payload["learner"]["enabled"] is True
    assert payload["learner"]["rules_promoted"] == stats.rules_promoted
    assert payload["qoa"] is not None
    assert sum(row["seen"] for row in payload["qoa"].values()) == (
        stats.input_alerts
    )
