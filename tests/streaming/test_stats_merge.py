"""GatewayStats merge paths: per-plane counters vs gateway totals.

The gateway's lifetime totals are *derived* — every flush and drain
merges per-plane counter dicts into ``GatewayStats`` via
``_refresh_totals``.  These tests pin the merge invariant directly (the
property suite only exercises it indirectly through parity): at any
observable point — mid-stream snapshot, after a checkpoint capture or
restore, after a mid-stream drain, across backends — the per-plane rows
must partition the gateway totals exactly, and the ``snapshot()`` payload must agree
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
class TestPlaneMergeSurvivesCheckpoint:
    """Per-plane rows must reconcile to gateway totals across a
    checkpoint, which moves every region's counter slice out of its
    plane and back in (a capture) or onto the planes of a fresh gateway
    (a restore): a slice lost or counted twice on the way shows here."""

    def _gateway(self, backend, kwargs):
        return AlertGateway(
            _graph(), backend=backend, flush_size=32,
            retain_artifacts=False, **kwargs,
        )

    def _uninterrupted_planes(self, backend, kwargs):
        gateway = self._gateway(backend, kwargs)
        gateway.ingest_batch(_alerts())
        return gateway.drain().planes

    def test_merge_after_capture(self, backend, kwargs):
        gateway = self._gateway(backend, kwargs)
        alerts = _alerts()
        gateway.ingest_batch(alerts[:150])
        gateway.flush()
        before = {
            plane_id: dict(row) for plane_id, row in gateway.stats.planes.items()
        }
        gateway.checkpoint_state()
        gateway.flush()
        # The capture only read the planes: the rows a barrier
        # rebuilds are the rows before it.
        assert gateway.stats.planes == before
        _assert_planes_partition_totals(gateway.stats)
        gateway.ingest_batch(alerts[150:])
        stats = gateway.drain()
        _assert_planes_partition_totals(stats)
        _assert_snapshot_agrees(stats)
        assert stats.planes == self._uninterrupted_planes(backend, kwargs)

    def test_merge_after_restore(self, backend, kwargs):
        gateway = self._gateway(backend, kwargs)
        alerts = _alerts()
        gateway.ingest_batch(alerts[:150])
        gateway.flush()
        state = gateway.checkpoint_state()
        gateway.close()
        restored = self._gateway(backend, kwargs)
        restored.adopt_checkpoint(state)
        # Immediately after the restore — before any further flush — the
        # restored rows must already partition the totals.
        assert set(restored.stats.planes) == set(range(kwargs["n_planes"]))
        _assert_planes_partition_totals(restored.stats)
        restored.ingest_batch(alerts[150:])
        stats = restored.drain()
        _assert_planes_partition_totals(stats)
        _assert_snapshot_agrees(stats)
        assert stats.planes == self._uninterrupted_planes(backend, kwargs)


def test_restored_snapshot_payload_matches_the_uninterrupted_one():
    """Everything the snapshot payload reports except wall-clock rates
    continues across a restore as if the gateway never stopped."""
    alerts = _alerts(120)

    def gateway():
        return AlertGateway(_graph(), n_planes=3, flush_size=16,
                            retain_artifacts=False)

    first = gateway()
    first.ingest_batch(alerts[:60])
    first.flush()
    state = first.checkpoint_state()
    first.close()
    restored = gateway()
    restored.adopt_checkpoint(state)
    restored.ingest_batch(alerts[60:])
    # The same barrier, so the flush count agrees too.
    uninterrupted = gateway()
    uninterrupted.ingest_batch(alerts[:60])
    uninterrupted.flush()
    uninterrupted.ingest_batch(alerts[60:])
    payloads = [
        g.drain().snapshot() for g in (restored, uninterrupted)
    ]
    for payload in payloads:
        del payload["throughput"]
    assert payloads[0] == payloads[1]
    assert payloads[0]["input_alerts"] == 120
    assert len(payloads[0]["planes"]) == 3


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
