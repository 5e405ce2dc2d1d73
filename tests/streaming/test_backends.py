"""Backend parity harness: every execution backend must count identically.

The core correctness invariant of the streaming subsystem is that the
gateway's end-of-run volume accounting reproduces the batch
``MitigationPipeline`` *exactly*.  This module pins that invariant
across every execution backend, plane count, flush size, and cut of
the stream into separately ingested pieces, plus the
mechanics the plane backends themselves must honour (worker lifecycle,
deterministic results).
"""

import pytest

from repro.common.errors import ValidationError
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import rulebook_from_ground_truth
from repro.streaming import (
    AlertGateway,
    GatewayConfig,
    PlaneConfig,
    ProcessPlaneBackend,
    SerialPlaneBackend,
    make_backend,
)
from repro.topology.graph import DependencyGraph
from tests.streaming.conftest import ingest_in_cuts, make_alert


@pytest.fixture(scope="module")
def storm_setup(storm_trace):
    """Trace, topology, derived blocker/rulebook, and the batch report."""
    trace, topology = storm_trace
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    blocker = MitigationPipeline.derive_blocker(trace)
    report = MitigationPipeline(topology.graph, rulebook=rulebook).run(
        trace, blocker=blocker
    )
    return trace, topology, blocker, rulebook, report


def _gateway(setup, **kwargs):
    trace, topology, blocker, rulebook, _ = setup
    kwargs.setdefault("retain_artifacts", False)
    return AlertGateway(
        topology.graph, blocker=blocker, rulebook=rulebook, **kwargs
    )


def _plane_config(**overrides) -> PlaneConfig:
    defaults = dict(
        graph=DependencyGraph(),
        blocker=AlertBlocker(),
        rulebook=None,
        aggregation_window=900.0,
        correlation_window=900.0,
        correlation_max_hops=4,
        enable_storm_detection=True,
        retain_artifacts=False,
        finalize_every=256,
    )
    defaults.update(overrides)
    return PlaneConfig(**defaults)


class TestBackendParity:
    @pytest.mark.parametrize("n_planes", [1, 2])
    @pytest.mark.parametrize("n_cuts", [1, 4, 16])
    @pytest.mark.parametrize("flush_size", [1, 64, 512])
    def test_batched_ingestion_reconciles_exactly(
        self, storm_setup, n_planes, n_cuts, flush_size
    ):
        trace, _, _, _, report = storm_setup
        gateway = _gateway(
            storm_setup, backend="serial", n_planes=n_planes,
            flush_size=flush_size,
        )
        ingest_in_cuts(gateway, trace.iter_ordered(), n_cuts)
        stats = gateway.drain()
        assert stats.reconcile(report) == {}
        assert stats.total_reduction == pytest.approx(report.total_reduction)

    @pytest.mark.parametrize("n_planes,n_workers", [(1, 2), (2, 2), (4, 2)])
    def test_process_backend_reconciles_exactly(
        self, storm_setup, n_planes, n_workers
    ):
        trace, _, _, _, report = storm_setup
        gateway = _gateway(
            storm_setup, backend="process", n_planes=n_planes,
            n_workers=n_workers, flush_size=512,
        )
        gateway.ingest_batch(trace.iter_ordered())
        stats = gateway.drain()
        assert stats.reconcile(report) == {}


class TestIngestionPaths:
    def test_ingest_batch_matches_per_event_ingest(self, storm_setup):
        trace = storm_setup[0]
        per_event = _gateway(storm_setup, n_planes=2)
        for alert in trace.iter_ordered():
            per_event.ingest_batch([alert])
        batched = _gateway(storm_setup, n_planes=2, flush_size=512)
        batched.ingest_batch(trace.iter_ordered())
        a, b = per_event.drain(), batched.drain()
        for field in ("input_alerts", "blocked_alerts", "aggregates_emitted",
                      "clusters_finalized", "storm_episodes", "emerging_flags",
                      "late_events", "watermark"):
            assert getattr(a, field) == getattr(b, field), field

    def test_ingest_honours_flush_size(self, storm_setup):
        trace = storm_setup[0]
        gateway = _gateway(storm_setup, flush_size=100)
        for alert in list(trace.iter_ordered())[:250]:
            gateway.ingest_batch([alert])
        # 250 buffered events cross the 100-event threshold twice.
        assert gateway.stats.flushes == 2
        gateway.drain()
        assert gateway.stats.input_alerts == 250

    def test_per_event_ingest_latency_counts_every_event(self, small_topology):
        """A flush of N events must add N to the latency count, not 1."""
        gateway = AlertGateway(small_topology.graph, flush_size=50)
        for step in range(200):
            gateway.ingest_batch([make_alert(float(step))])
        assert gateway.stats.latency.count == 200

    def test_flush_interval_bounds_staleness(self, small_topology):
        gateway = AlertGateway(
            small_topology.graph, flush_size=10_000, flush_interval=60.0,
        )
        for step in range(100):
            gateway.ingest_batch([make_alert(float(step * 10))])
        # Event time advances 990s; a 60s flush interval must have fired
        # repeatedly despite the huge flush_size.
        assert gateway.stats.flushes >= 10
        gateway.drain()

    def test_buffered_events_surface_in_snapshot(self, small_topology):
        gateway = AlertGateway(small_topology.graph, flush_size=10_000)
        gateway.ingest_batch([make_alert(float(i)) for i in range(50)])
        gateway.flush()
        stats = gateway.stats
        assert stats.input_alerts == 50
        assert stats.flushes == 1
        assert sum(row["open_sessions"] for row in stats.planes.values()) > 0


class TestBackendMechanics:
    @pytest.mark.parametrize("name", ["gpu", "thread"])
    def test_unknown_backend_is_rejected(self, name):
        # "thread": a name older callers and checkpoint records may
        # still carry; it gets no special handling.
        with pytest.raises(ValidationError, match="unknown backend"):
            GatewayConfig(backend=name)

    def test_factory_builds_each_backend(self):
        config = _plane_config()
        serial = make_backend(GatewayConfig(n_planes=2), config)
        assert isinstance(serial, SerialPlaneBackend)
        assert (serial.n_planes, serial.n_workers) == (2, 1)
        process = make_backend(GatewayConfig(backend="process", n_planes=2), config)
        assert isinstance(process, ProcessPlaneBackend)
        process.close()

    def test_worker_pools_clamp_to_plane_count(self):
        process = make_backend(
            GatewayConfig(backend="process", n_planes=3, n_workers=8),
            _plane_config(),
        )
        assert process.n_workers == 3
        process.close()

    def test_process_backend_spawns_lazily_and_closes(self):
        backend = ProcessPlaneBackend(
            GatewayConfig(backend="process", n_planes=2, n_workers=2),
            _plane_config(),
        )
        assert backend._workers is None  # nothing spawned yet
        backend.flush([(0, [make_alert(1.0)], 1)], 1.0)
        assert backend._workers is not None
        assert all(worker.is_alive() for worker in backend._workers)
        backend.close()
        assert backend._workers is None
        with pytest.raises(ValidationError):
            backend.flush([(0, [make_alert(2.0)], 0)], 2.0)

    def test_process_backend_counts_match_serial(self):
        alerts = [
            make_alert(float(i) * 30.0, strategy_id=f"s-{i % 5}",
                       region=f"region-{i % 3}")
            for i in range(200)
        ]
        batches = [(i, [], 0) for i in range(3)]
        for alert in alerts:
            batches[int(alert.region[-1])][1].append(alert)
        serial = SerialPlaneBackend(3, _plane_config())
        process = ProcessPlaneBackend(
            GatewayConfig(backend="process", n_planes=3, n_workers=2),
            _plane_config(),
        )
        try:
            serial_results = {
                r.plane_id: r for r in serial.flush(
                    batches, alerts[-1].occurred_at)
            }
            process_results = {
                r.plane_id: r for r in process.flush(
                    batches, alerts[-1].occurred_at)
            }
            assert serial_results.keys() == process_results.keys()
            for plane, expected in serial_results.items():
                actual = process_results[plane]
                for field in ("processed", "blocked", "aggregates", "clusters",
                              "storm_episodes", "emerging_flags",
                              "open_sessions", "active_components",
                              "retained_representatives"):
                    assert getattr(actual, field) == getattr(expected, field), field
        finally:
            process.close()
