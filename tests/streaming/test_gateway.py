"""Gateway integration: end-to-end parity, snapshots, sim driving, IO."""

import pytest

from repro.alerting.alert import Severity
from repro.common.errors import ValidationError
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.aggregation import AggregatedAlert, AlertAggregator
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import rulebook_from_ground_truth
from repro.io import save_trace
from repro.sim import SimulationEngine
from repro.streaming import (
    AlertGateway,
    drive_gateway,
    iter_jsonl_alerts,
    merge_ordered,
)
from repro.streaming.dedup import OpenSession
from repro.topology.graph import DependencyGraph
from repro.workload import StormConfig, build_multi_region_storm
from repro.workload.trace import AlertTrace
from tests.streaming.conftest import aggregate_row, ingest_in_cuts, make_alert


def _gateway_for(trace, topology, **kwargs):
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    blocker = MitigationPipeline.derive_blocker(trace)
    return AlertGateway(
        topology.graph, blocker=blocker, rulebook=rulebook, **kwargs
    ), rulebook


class TestBatchParity:
    @pytest.mark.parametrize("n_cuts", [1, 4, 16])
    def test_storm_trace_counts_match_pipeline(self, storm_trace, n_cuts):
        trace, topology = storm_trace
        gateway, rulebook = _gateway_for(trace, topology)
        ingest_in_cuts(gateway, trace.iter_ordered(), n_cuts, batched=False)
        stats = gateway.drain()
        report = MitigationPipeline(topology.graph, rulebook=rulebook).run(trace)
        assert stats.reconcile(report) == {}
        assert stats.total_reduction == pytest.approx(report.total_reduction)

    def test_smoke_trace_counts_match_pipeline(self, smoke_trace, topology):
        gateway, rulebook = _gateway_for(smoke_trace, topology)
        gateway.ingest_batch(smoke_trace.iter_ordered())
        stats = gateway.drain()
        report = MitigationPipeline(topology.graph, rulebook=rulebook).run(smoke_trace)
        assert stats.reconcile(report) == {}

    def test_retained_artifacts_match_counts(self, storm_trace):
        trace, topology = storm_trace
        gateway, _ = _gateway_for(trace, topology)
        gateway.ingest_batch(trace.iter_ordered())
        stats = gateway.drain()
        assert len(gateway.aggregates) == stats.aggregates_emitted
        assert len(gateway.clusters) == stats.clusters_finalized


@pytest.fixture(scope="module")
def multi_region_report(storm_trace):
    """Four concurrent regional storms, nothing blocked, and the batch
    pipeline's artefacts on them (R2 and R3 see every alert)."""
    _, topology = storm_trace
    trace = build_multi_region_storm(StormConfig(seed=42), topology)
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    report = MitigationPipeline(topology.graph, rulebook=rulebook).run(
        trace, blocker=AlertBlocker(),
    )
    return trace, topology, rulebook, report


def _cluster_rows(clusters):
    return sorted(
        (
            tuple(alert.alert_id for alert in c.alerts),
            c.root_alert.alert_id, c.root_microservice, c.coverage,
        )
        for c in clusters
    )


class TestArtefactParity:
    """The retained aggregates and clusters themselves — member order,
    ``root_alert``, coverage — equal the batch pipeline's, not just
    their counts, however the stream is cut and partitioned."""

    @pytest.mark.parametrize("n_planes", [1, 4])
    @pytest.mark.parametrize("n_cuts", [1, 4])
    @pytest.mark.parametrize("flush_size", [1, 7, 512])
    def test_artefacts_match_pipeline(
        self, multi_region_report, flush_size, n_cuts, n_planes,
    ):
        trace, topology, rulebook, report = multi_region_report
        gateway = AlertGateway(
            topology.graph, blocker=AlertBlocker(), rulebook=rulebook,
            retain_artifacts=True, flush_size=flush_size, n_planes=n_planes,
        )
        ingest_in_cuts(gateway, trace.iter_ordered(), n_cuts, batched=False)
        stats = gateway.drain()
        assert stats.reconcile(report) == {}
        assert sorted(map(aggregate_row, gateway.aggregates)) == sorted(
            map(aggregate_row, report.aggregates)
        )
        assert _cluster_rows(gateway.clusters) == _cluster_rows(report.clusters)


class TestAggregateHandoff:
    """R2 hands closed sessions to R3 as they are: an ``AggregatedAlert``
    is built only where a caller receives one, once per aggregate."""

    @staticmethod
    def _count_builds(monkeypatch):
        built = {"emit": 0, "init": 0}
        emit = OpenSession.emit
        init = AggregatedAlert.__init__

        def counting_emit(self):
            built["emit"] += 1
            return emit(self)

        def counting_init(self, *args, **kwargs):
            built["init"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(OpenSession, "emit", counting_emit)
        monkeypatch.setattr(AggregatedAlert, "__init__", counting_init)
        return built

    def test_ingest_batch_builds_no_aggregate(self, multi_region_report, monkeypatch):
        trace, topology, rulebook, report = multi_region_report
        built = self._count_builds(monkeypatch)

        def run(retain):
            gateway = AlertGateway(
                topology.graph, blocker=AlertBlocker(), rulebook=rulebook,
                retain_artifacts=retain, flush_size=64, n_planes=4,
            )
            gateway.ingest_batch(trace.iter_ordered())
            assert gateway.drain().reconcile(report) == {}
            return gateway

        run(retain=False)
        assert built == {"emit": 0, "init": 0}
        kept = run(retain=True)
        # Retention emits every aggregate exactly once.
        assert built == {"emit": len(report.aggregates), "init": len(report.aggregates)}
        assert sorted(map(aggregate_row, kept.aggregates)) == sorted(
            map(aggregate_row, report.aggregates)
        )
        assert _cluster_rows(kept.clusters) == _cluster_rows(report.clusters)

    @pytest.mark.parametrize("retain", [False, True])
    def test_per_event_flushes_retain_the_batch_aggregates(
        self, multi_region_report, monkeypatch, retain,
    ):
        trace, topology, rulebook, _ = multi_region_report
        alerts = list(trace.iter_ordered())
        # One late-enough alert per region closes every session before
        # the drain, so the flushes cover the whole batch aggregation.
        end = alerts[-1].occurred_at + 10 * 900.0
        sentinels = [
            make_alert(end, strategy_id="s-sentinel", region=region)
            for region in sorted({alert.region for alert in alerts})
        ]
        expected = AlertAggregator(900.0).aggregate(alerts)
        built = self._count_builds(monkeypatch)
        gateway = AlertGateway(
            topology.graph, blocker=AlertBlocker(), rulebook=rulebook,
            retain_artifacts=retain, flush_size=7, n_planes=2,
        )
        for index, alert in enumerate(alerts + sentinels):
            gateway.ingest_batch([alert])
            if index % 50 == 0:
                assert gateway.flush() is None
        gateway.flush()
        assert gateway.stats.aggregates_emitted == len(expected)
        # Built as the flushes close them, once each, and only to retain.
        closed = len(expected) if retain else 0
        assert built["emit"] == built["init"] == closed
        gateway.drain()
        if not retain:
            assert built == {"emit": 0, "init": 0}
            assert gateway.aggregates == []
            return

        def order(aggregate):
            return aggregate.strategy_id, aggregate.region, aggregate.window.start

        kept = [a for a in gateway.aggregates if a.strategy_id != "s-sentinel"]
        assert sorted(kept, key=order) == sorted(expected, key=order)
        assert built["init"] == len(gateway.aggregates) == len(expected) + len(sentinels)


def _repeating_storm(n_bursts):
    """Two regions, each with a strategy that fires every 5 min for the
    whole stream (the paper's repeating alert) and, every two correlation
    windows, a burst over three topology-linked microservices."""
    graph = DependencyGraph()
    for name in ("front", "back", "db", "island"):
        graph.add_microservice(name)
    graph.add_dependency("front", "back")
    graph.add_dependency("back", "db")
    alerts = []
    for region in ("region-A", "region-B"):
        alerts += [
            make_alert(300.0 * index, strategy_id="s-repeat", microservice="island",
                       region=region, severity=Severity.CRITICAL)
            for index in range(6 * n_bursts)
        ]
        for burst in range(n_bursts):
            for step in range(9):
                micro = ("front", "back", "db")[step % 3]
                alerts.append(make_alert(
                    1800.0 * burst + 100.0 + 30.0 * step,
                    strategy_id=f"s-{micro}", microservice=micro, region=region,
                ))
    alerts.sort(key=lambda alert: alert.occurred_at)
    return graph, alerts


class TestStreamingBehaviour:
    def test_memory_stays_bounded_during_storm(self, storm_trace):
        """In-flight state must stay far below the number of ingested events."""
        trace, topology = storm_trace
        gateway, _ = _gateway_for(trace, topology, retain_artifacts=False)
        peak_open = 0
        peak_retained = 0
        for alert in trace.iter_ordered():
            gateway.ingest_batch([alert])
            planes = gateway.stats.planes.values()
            peak_open = max(
                peak_open, sum(row["open_sessions"] for row in planes),
            )
            peak_retained = max(
                peak_retained,
                sum(row["retained_representatives"] for row in planes),
            )
        stats = gateway.drain()
        assert stats.input_alerts == len(trace)
        assert peak_open < len(trace) * 0.15
        assert peak_retained < len(trace) * 0.25

    def test_r3_state_is_bounded_under_a_never_closing_session(self):
        """A repeating strategy keeps its R2 session open for the whole
        stream; R3 must still finalise and evict behind it, so retained
        representatives at 4x the stream are those at 1x plus a small
        constant (the amortised sweep's slack), and the accounting stays
        exact."""
        graph, alerts = _repeating_storm(n_bursts=160)
        report = MitigationPipeline(graph).run(
            AlertTrace(alerts=list(alerts)), blocker=AlertBlocker(),
        )
        gateway = AlertGateway(graph, blocker=AlertBlocker(), retain_artifacts=False)
        quarter = len(alerts) // 4
        gateway.ingest_batch(alerts[:quarter])
        gateway.flush()
        at_one = gateway.stats.planes[0]["retained_representatives"]
        gateway.ingest_batch(alerts[quarter:])
        gateway.flush()
        at_four = gateway.stats.planes[0]["retained_representatives"]
        assert at_four <= at_one + 64
        assert gateway.drain().reconcile(report) == {}

        kept = AlertGateway(graph, blocker=AlertBlocker(), retain_artifacts=True)
        kept.ingest_batch(alerts)
        assert kept.drain().reconcile(report) == {}
        assert _cluster_rows(kept.clusters) == _cluster_rows(report.clusters)

    def test_r2_state_is_bounded_under_a_never_closing_session(self):
        """Without retained artifacts nothing reads a session's member
        ids, so the never-closing session holds none: the checkpoint at
        4x the stream is the one at 1x plus a small constant, and the
        accounting stays exact.  A retaining gateway keeps every id."""
        graph, alerts = _repeating_storm(n_bursts=160)
        report = MitigationPipeline(graph).run(
            AlertTrace(alerts=list(alerts)), blocker=AlertBlocker(),
        )

        def blob_bytes(gateway):
            return sum(map(len, gateway.checkpoint_state()["blobs"]))

        gateway = AlertGateway(graph, blocker=AlertBlocker(), retain_artifacts=False)
        quarter = len(alerts) // 4
        gateway.ingest_batch(alerts[:quarter])
        at_one = blob_bytes(gateway)
        gateway.ingest_batch(alerts[quarter:])
        at_four = blob_bytes(gateway)
        assert at_four <= at_one + 1024
        assert gateway.drain().reconcile(report) == {}

        kept = AlertGateway(graph, blocker=AlertBlocker(), retain_artifacts=True)
        kept.ingest_batch(alerts)
        kept.drain()
        assert sorted(map(aggregate_row, kept.aggregates)) == sorted(
            map(aggregate_row, report.aggregates)
        )

    def test_storm_is_detected_online(self, storm_trace):
        trace, topology = storm_trace
        gateway, _ = _gateway_for(trace, topology)
        gateway.ingest_batch(trace.iter_ordered())
        stats = gateway.drain()
        assert stats.storm_episodes >= 1

    def test_snapshot_progresses_monotonically(self, storm_trace):
        trace, topology = storm_trace
        gateway, _ = _gateway_for(trace, topology)
        previous = 0
        for index, alert in enumerate(trace.iter_ordered()):
            gateway.ingest_batch([alert])
            if index % 500 == 0:
                gateway.flush()
                snapshot = gateway.stats.snapshot()
                assert snapshot["input_alerts"] >= previous
                previous = snapshot["input_alerts"]
        gateway.flush()
        snapshot = gateway.stats.snapshot()
        assert snapshot["watermark"] == max(a.occurred_at for a in trace.alerts)

    def test_drain_is_idempotent_and_ingest_after_drain_rejected(self):
        from repro.topology import TopologyConfig, generate_topology

        topology = generate_topology(TopologyConfig(seed=7, n_microservices=24,
                                                    n_regions=2))
        gateway = AlertGateway(topology.graph)
        gateway.ingest_batch([make_alert(0.0)])
        first = gateway.drain()
        second = gateway.drain()
        assert first is second
        with pytest.raises(ValidationError):
            gateway.ingest_batch([make_alert(1.0)])

    def test_late_events_are_counted_not_dropped(self, small_topology):
        gateway = AlertGateway(small_topology.graph)
        gateway.ingest_batch([make_alert(1000.0)])
        gateway.ingest_batch([make_alert(500.0)])  # out of order
        stats = gateway.drain()
        assert stats.late_events == 1
        assert stats.input_alerts == 2

    @pytest.mark.parametrize("batched", [False, True])
    def test_interval_flush_not_stalled_by_late_tail(
        self, small_topology, batched
    ):
        """Regression: a forward watermark jump followed by an all-late
        tail kept ``watermark - last_flush_watermark`` at ~0 forever, so
        the interval trigger never fired and events piled up until drain.
        The late-event clamp re-arms the trigger."""
        gateway = AlertGateway(small_topology.graph, flush_size=10**6,
                               flush_interval=60.0)
        late = [make_alert(100.0 + i) for i in range(5)]
        if batched:
            gateway.ingest_batch([make_alert(10_000.0)])
            gateway.ingest_batch(late)
        else:
            gateway.ingest_batch([make_alert(10_000.0)])
            for alert in late:
                gateway.ingest_batch([alert])
        assert gateway.stats.late_events == 5
        # Every late arrival re-armed and fired the interval trigger;
        # without the clamp nothing flushes before drain.
        assert gateway.stats.flushes >= 5
        assert gateway.at_flush_barrier
        gateway.drain()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_snapshot_after_drain_keeps_final_accounting(
        self, small_topology, backend
    ):
        """The drained stats keep the final totals, and every plane row
        reports its open state as closed."""
        gateway = AlertGateway(small_topology.graph, n_planes=2,
                               backend=backend, n_workers=2, flush_size=16)
        gateway.ingest_batch([
            make_alert(float(i) * 10.0, strategy_id=f"s-{i % 4}",
                       region=("rA", "rB")[i % 2])
            for i in range(64)
        ])
        stats = gateway.drain()
        assert stats.aggregates_emitted > 0
        snapshot = stats.snapshot()
        assert snapshot["input_alerts"] == 64
        assert snapshot["aggregates"] == stats.aggregates_emitted
        assert snapshot["clusters"] == stats.clusters_finalized
        assert sum(p["processed"] for p in snapshot["planes"]) == 64
        for plane in snapshot["planes"]:
            assert plane["open_sessions"] == 0
            assert plane["active_components"] == 0
            assert plane["retained_representatives"] == 0
        assert gateway.drain() is stats

    def test_ingest_batch_stays_consistent_when_source_raises(
        self, small_topology
    ):
        """A source that dies mid-iteration must not desync the accounting."""
        gateway = AlertGateway(small_topology.graph, flush_size=1000)

        def flaky_source():
            for index in range(25):
                yield make_alert(float(index), strategy_id=f"s-{index % 3}")
            raise IOError("malformed line")

        with pytest.raises(IOError):
            gateway.ingest_batch(flaky_source())
        assert gateway.stats.input_alerts == 25
        stats = gateway.drain()
        # everything buffered before the failure is processed and counted
        assert stats.input_alerts == 25
        assert sum(p["processed"] for p in stats.planes.values()) == 25
        assert sum(a.count for a in gateway.aggregates) == 25

    def test_backend_failure_mid_flush_leaves_buffers_consistent(
        self, small_topology
    ):
        """A backend that raises during a flush must not leave a phantom
        buffered count behind (the next flush would record ghost events)."""
        gateway = AlertGateway(small_topology.graph, flush_size=10)

        original_flush = gateway._backend.flush
        calls = []

        def failing_flush(batches, watermark, *rest):
            if not calls:
                calls.append(1)
                raise RuntimeError("worker died")
            return original_flush(batches, watermark, *rest)

        gateway._backend.flush = failing_flush
        with pytest.raises(RuntimeError):
            gateway.ingest_batch(
                [make_alert(float(i)) for i in range(10)]
            )
        assert gateway._buffered == 0
        assert all(not buffer for buffer in gateway._buffers)
        flushes_after_failure = gateway.stats.flushes
        gateway.drain()  # nothing pending: must not count a phantom flush
        assert gateway.stats.flushes == flushes_after_failure


class TestSimulationDriver:
    def test_periodic_process_drives_gateway(self, storm_trace):
        trace, topology = storm_trace
        gateway, _ = _gateway_for(trace, topology)
        engine = SimulationEngine()
        batches = []
        process = drive_gateway(
            engine, gateway, trace.iter_ordered(), interval=300.0,
            drain_on_exhaust=True,
            on_batch=lambda gw, time, n: batches.append((time, n)),
        )
        end = trace.window().end + 600.0
        engine.run_until(end)
        assert not process.active  # stopped itself at exhaustion
        assert gateway.stats.input_alerts == len(trace)
        assert sum(n for _, n in batches) == len(trace)
        # Micro-batching really happened: many ticks, each far below the total.
        assert len([n for _, n in batches if n]) > 10

    def test_driver_parity_with_direct_ingestion(self, storm_trace):
        trace, topology = storm_trace
        gateway, rulebook = _gateway_for(trace, topology)
        engine = SimulationEngine()
        drive_gateway(engine, gateway, trace.iter_ordered(), interval=60.0,
                      drain_on_exhaust=True)
        engine.run_until(trace.window().end + 120.0)
        report = MitigationPipeline(topology.graph, rulebook=rulebook).run(trace)
        assert gateway.stats.reconcile(report) == {}

    @pytest.mark.parametrize("flush_size", [1, 64])
    def test_driver_ingests_whole_ticks(self, storm_trace, monkeypatch, flush_size):
        """Each tick is one ``ingest_batch`` call, the last one before the
        drain, and the flush triggers fire at the per-event run's events."""
        trace, topology = storm_trace
        direct, _ = _gateway_for(trace, topology, flush_size=flush_size)
        for alert in trace.iter_ordered():
            direct.ingest_batch([alert])
        expected = direct.drain().snapshot()

        calls = []
        ingest_batch = AlertGateway.ingest_batch

        def counting(self, alerts):
            calls.append(1)
            return ingest_batch(self, alerts)

        monkeypatch.setattr(AlertGateway, "ingest_batch", counting)
        driven, _ = _gateway_for(trace, topology, flush_size=flush_size)
        engine = SimulationEngine()
        drive_gateway(engine, driven, trace.iter_ordered(), interval=60.0,
                      drain_on_exhaust=True)
        engine.run_until(trace.window().end + 120.0)
        got = driven.stats.snapshot()
        assert driven.stats.input_alerts == len(trace)
        # Whole ticks, not event by event.
        assert 0 < len(calls) < len(trace)
        del expected["throughput"], got["throughput"]
        assert got == expected


class TestSources:
    def test_jsonl_source_round_trips(self, storm_trace, tmp_path):
        trace, topology = storm_trace
        directory = save_trace(trace, tmp_path / "trace")
        streamed = list(iter_jsonl_alerts(directory / "alerts.jsonl"))
        assert len(streamed) == len(trace)
        assert {a.alert_id for a in streamed} == {a.alert_id for a in trace.alerts}

    def test_merge_ordered_interleaves_sources(self):
        left = [make_alert(t, strategy_id="s-left") for t in (0.0, 100.0, 200.0)]
        right = [make_alert(t, strategy_id="s-right") for t in (50.0, 150.0)]
        merged = list(merge_ordered(left, right))
        times = [a.occurred_at for a in merged]
        assert times == sorted(times)
        assert len(merged) == 5
