"""Region-partitioned execution planes: routing, plane mechanics, R4 split.

The structural guarantees of the plane refactor:

* the two-level router is deterministic and sticky (a region's plane
  never changes), and a restored router continues the same sequence;
* a plane's accounting equals a batch pipeline run over just its
  regions' alerts — the partition really is region-exact;
* the batched / plane-partitioned storm detector reproduces the shared
  per-event instance bit for bit, including the stream-global warmup;
* R3/R4 state lives on the planes, not the gateway — the gateway loop
  only routes and merges.
"""

import pytest

from repro.common.errors import ValidationError
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import rulebook_from_ground_truth
from repro.streaming import (
    AlertGateway,
    OnlineStormDetector,
    PlaneConfig,
    PlaneRouter,
    RegionPlane,
)
from tests.streaming.conftest import make_alert


class TestPlaneRouter:
    def test_round_robin_first_seen(self):
        router = PlaneRouter(3)
        assert [router.plane_of(r) for r in ("rA", "rB", "rC", "rD")] == [0, 1, 2, 0]

    def test_assignment_is_sticky(self):
        router = PlaneRouter(2)
        first = router.plane_of("rX")
        for _ in range(5):
            router.plane_of(f"r{_}")
        assert router.plane_of("rX") == first

    def test_single_plane_owns_everything(self):
        router = PlaneRouter(1)
        assert {router.plane_of(f"r{i}") for i in range(10)} == {0}

    def test_regions_of_inverts_assignments(self):
        router = PlaneRouter(2)
        for region in ("rA", "rB", "rC"):
            router.plane_of(region)
        assert router.regions_of(0) == ("rA", "rC")
        assert router.regions_of(1) == ("rB",)
        assert router.assignments == {"rA": 0, "rB": 1, "rC": 0}

    def test_restore_matches_fresh_router_replay(self):
        """A restored router continues exactly as the router it was
        captured from: regions first seen after the restore land where a
        fresh router fed the whole first-seen sequence puts them — the
        invariant checkpoint parity rests on."""
        regions = [f"r-{index}" for index in range(11)]
        captured = PlaneRouter(3)
        for region in regions[:5]:
            captured.plane_of(region)
        restored = PlaneRouter(3)
        restored.restore(list(captured.assignments.items()))
        for region in regions[5:]:
            restored.plane_of(region)
        fresh = PlaneRouter(3)
        for region in regions:
            fresh.plane_of(region)
        assert list(restored.assignments.items()) == list(fresh.assignments.items())
        assert restored.regions_of(2) == fresh.regions_of(2)

    def test_restore_refuses_a_plane_outside_the_count(self):
        router = PlaneRouter(2)
        with pytest.raises(ValidationError, match="does not fit 2 plane"):
            router.restore([("rA", 0), ("rB", 2)])
        assert router.assignments == {}

    def test_restore_refuses_a_router_that_already_routed(self):
        router = PlaneRouter(2)
        router.plane_of("rA")
        with pytest.raises(ValidationError, match="already routed"):
            router.restore({"rB": 0})
        assert router.assignments == {"rA": 0}


class TestRegionPlane:
    def _config(self, graph, **overrides) -> PlaneConfig:
        defaults = dict(
            graph=graph, blocker=AlertBlocker(), rulebook=None,
            aggregation_window=900.0, correlation_window=900.0,
            correlation_max_hops=4, enable_storm_detection=True,
            retain_artifacts=True, finalize_every=256,
        )
        defaults.update(overrides)
        return PlaneConfig(**defaults)

    def test_process_batch_counts(self, small_topology):
        plane = RegionPlane(0, self._config(small_topology.graph))
        alerts = [make_alert(float(i) * 10.0, strategy_id=f"s-{i % 3}")
                  for i in range(30)]
        result = plane.process_batch(alerts, 0, alerts[-1].occurred_at)
        assert result.plane_id == 0
        assert result.processed == 30
        assert result.open_sessions == 3
        drained = plane.drain(alerts[-1].occurred_at)
        assert drained.aggregates == 3
        assert sum(a.count for a in drained.retained_aggregates) == 30

    def test_warmup_prefix_suppresses_emerging_flags(self, small_topology):
        config = self._config(small_topology.graph)
        # A burst dense enough to sit in the emerging band (25-100/h).
        alerts = [make_alert(i * 80.0, strategy_id=f"s-{i}") for i in range(40)]
        flagged = RegionPlane(0, config)
        all_post_warmup = flagged.process_batch(alerts, 0, alerts[-1].occurred_at)
        muted = RegionPlane(1, config)
        all_in_warmup = muted.process_batch(
            alerts, len(alerts), alerts[-1].occurred_at
        )
        assert all_post_warmup.emerging_flags > 0
        assert all_in_warmup.emerging_flags == 0


class TestDetectorPartitioning:
    def _stream(self):
        alerts = []
        time = 0.0
        for index in range(3000):
            time += (2.0, 5.0, 2.0, 400.0)[index % 4]
            alerts.append(make_alert(
                time,
                strategy_id=f"s-{index % 17}",
                region=("rA", "rB", "rC")[index % 3],
            ))
        return alerts

    def test_batched_equals_per_event(self):
        alerts = self._stream()
        per_event = OnlineStormDetector()
        for alert in alerts:
            per_event.ingest_batch([alert])
        for chunk in (1, 7, 256, len(alerts)):
            batched = OnlineStormDetector()
            for start in range(0, len(alerts), chunk):
                batched.ingest_batch(alerts[start:start + chunk])
            assert batched.episode_count == per_event.episode_count, chunk
            assert batched.emerging_count == per_event.emerging_count, chunk

    def test_region_partitioned_with_warmup_prefix_is_exact(self):
        alerts = self._stream()
        shared = OnlineStormDetector()
        for alert in alerts:
            shared.ingest_batch([alert])
        router = PlaneRouter(2)
        detectors = {0: OnlineStormDetector(), 1: OnlineStormDetector()}
        buffers: dict[int, list] = {0: [], 1: []}
        warmup = {0: 0, 1: 0}
        for position, alert in enumerate(alerts, start=1):
            plane = router.plane_of(alert.region)
            buffers[plane].append(alert)
            if position <= 50:  # the gateway-global warmup prefix
                warmup[plane] += 1
            if position % 97 == 0:
                for plane_id, batch in buffers.items():
                    if batch:
                        detectors[plane_id].ingest_batch(batch, warmup[plane_id])
                buffers = {0: [], 1: []}
                warmup = {0: 0, 1: 0}
        for plane_id, batch in buffers.items():
            if batch:
                detectors[plane_id].ingest_batch(batch, warmup[plane_id])
        assert sum(d.episode_count for d in detectors.values()) == shared.episode_count
        assert sum(d.emerging_count for d in detectors.values()) == shared.emerging_count


class TestGatewayPlaneSemantics:
    def test_r3_r4_state_lives_on_planes_not_the_gateway(self, small_topology):
        """The refactor's point: the gateway loop hosts no reaction state."""
        gateway = AlertGateway(small_topology.graph, n_planes=2)
        assert not hasattr(gateway, "_correlator")
        assert not hasattr(gateway, "_storm_detector")
        for plane in gateway._backend.planes:
            assert plane._correlator is not None
            assert plane._detector is not None
        gateway.drain()

    def test_regions_never_split_across_planes(self, small_topology):
        gateway = AlertGateway(small_topology.graph, n_planes=3)
        for index in range(60):
            gateway.ingest_batch([make_alert(
                float(index), strategy_id=f"s-{index % 5}",
                region=("rA", "rB", "rC", "rD", "rE")[index % 5],
            )])
        rows = gateway.drain().planes
        owner = {
            region: plane_id
            for plane_id, row in rows.items() for region in row["regions"]
        }
        assert len(owner) == sum(len(row["regions"]) for row in rows.values()) == 5
        for plane in gateway._backend.planes:
            assert plane.processed == 12 * len(rows[plane.plane_id]["regions"])

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_per_plane_accounting_matches_regional_batch_runs(
        self, storm_trace, backend
    ):
        """Each plane's counters == batch pipeline over its regions only."""
        from repro.workload import build_multi_region_storm
        from repro.workload.storms import StormConfig

        _, topology = storm_trace
        trace = build_multi_region_storm(
            StormConfig(seed=42), topology, regions=("region-A", "region-B"),
        )
        rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
        blocker = MitigationPipeline.derive_blocker(trace)
        gateway = AlertGateway(
            topology.graph, blocker=blocker, rulebook=rulebook,
            n_planes=2, backend=backend, n_workers=2,
            flush_size=256, retain_artifacts=False,
        )
        gateway.ingest_batch(trace.iter_ordered())
        stats = gateway.drain()
        assert len(stats.planes) == 2
        assert {
            region for row in stats.planes.values() for region in row["regions"]
        } == {"region-A", "region-B"}
        for plane_id, plane in sorted(stats.planes.items()):
            regions = frozenset(plane["regions"])
            regional = trace.filter(lambda a: a.region in regions,
                                    label=f"plane-{plane_id}")
            report = MitigationPipeline(topology.graph, rulebook=rulebook).run(
                regional, blocker=blocker,
            )
            assert plane["processed"] == report.input_alerts
            assert plane["blocked"] == report.blocked_alerts
            assert plane["aggregates"] == len(report.aggregates)
            assert plane["clusters"] == len(report.clusters)

    def test_stats_snapshot_exposes_planes(self, small_topology):
        gateway = AlertGateway(small_topology.graph, n_planes=2)
        for index in range(40):
            gateway.ingest_batch([make_alert(
                float(index), region=("rA", "rB")[index % 2],
            )])
        stats = gateway.drain()
        payload = stats.snapshot()
        assert payload["n_planes"] == 2
        assert len(payload["planes"]) == 2
        assert sum(p["processed"] for p in payload["planes"]) == 40
        assert payload["input_alerts"] == 40
        assert {r for p in payload["planes"] for r in p["regions"]} == {"rA", "rB"}

    def test_gateway_snapshot_carries_plane_snapshots(self, small_topology):
        """After a flush every plane row holds the plane's open state."""
        gateway = AlertGateway(small_topology.graph, n_planes=2, flush_size=64)
        for index in range(10):
            gateway.ingest_batch([make_alert(
                float(index), region=("rA", "rB")[index % 2],
            )])
        gateway.flush()
        planes = gateway.stats.snapshot()["planes"]
        assert len(planes) == 2
        assert sum(p["processed"] for p in planes) == 10
        for plane, live in zip(planes, gateway._backend.planes):
            assert plane["open_sessions"] == live.open_sessions == 1
            assert plane == {
                **live.report().counters(),
                "plane_id": live.plane_id,
                "regions": [
                    region for region, plane_id in gateway._plane_router.assignments.items()
                    if plane_id == live.plane_id
                ],
            }
        gateway.drain()
