"""Kill-and-restore parity: a restored gateway continues bit-identically.

The central serving guarantee: snapshot + journal-tail replay lands the
restored gateway in *exactly* the state of a process that never died —
same counts, same aggregate and cluster fingerprints, same storm
verdicts, same learned-rule timeline, same QoA scores.  Verified here as

* a deterministic matrix over every backend x plane count x learning
  flag, killing at a checkpoint barrier with a buffered journal tail;
* chaos interleavings (hypothesis-driven kill positions and batch
  shapes, multiple deaths per run) on the serial backend;
* configuration-drift rejection: restoring with changed topology-shaped
  knobs must refuse, not silently resume a different stream.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.serving import AlertGatewayService, CheckpointLoader, restore_gateway
from repro.streaming import AlertGateway

from tests.serving.conftest import make_gateway, serving_blocker
from tests.streaming.test_golden_trace import golden_graph
from tests.streaming.multiregion import (
    aggregate_fingerprint,
    cluster_fingerprint,
    counts,
    multiregion_trace,
)

pytestmark = pytest.mark.scale_chaos

FLUSH = 64


def _uninterrupted(graph, trace, **kwargs):
    gateway = make_gateway(graph, retain_artifacts=True, **kwargs)
    gateway.ingest_batch(trace)
    stats = gateway.drain()
    return (
        counts(stats),
        aggregate_fingerprint(gateway),
        cluster_fingerprint(gateway),
        stats.qoa,
    )


def _service(graph, data_dir, **kwargs):
    # "batch" journalling: these tests kill with an uncommitted tail on
    # purpose — the write-ahead tier is the one that must replay it.
    return AlertGatewayService(
        graph, data_dir, blocker=serving_blocker(), checkpoint_every=100,
        journal_mode=kwargs.pop("journal_mode", "batch"),
        retain_artifacts=True, n_planes=kwargs.pop("n_planes", 2),
        flush_size=FLUSH, **kwargs,
    )


class TestKillRestoreMatrix:
    @pytest.mark.parametrize("n_planes", [1, 3])
    @pytest.mark.parametrize("learn,backend,backend_kwargs", [
        (False, "serial", {}),
        (True, "serial", {}),
        # Learning and QoA run on the serial backend only.
        (False, "process", {"n_workers": 2}),
    ])
    def test_restored_run_matches_uninterrupted(
        self, serving_graph, storm_alerts, tmp_path, backend,
        backend_kwargs, n_planes, learn,
    ):
        kwargs = dict(
            backend=backend, n_planes=n_planes, learn_rules=learn,
            enable_qoa=backend == "serial", **backend_kwargs,
        )
        want = _uninterrupted(
            serving_graph, storm_alerts, flush_size=FLUSH, **kwargs,
        )
        service = _service(serving_graph, tmp_path, **kwargs)
        assert service.start() == "fresh"
        # 192 = 3 flushes: lands on a natural barrier past the 100-event
        # checkpoint cadence, so a snapshot fires; the next 68 events
        # stay journal-only — the restore must replay them.
        service.ingest(storm_alerts[:192])
        assert service.checkpoints_written == 1
        service.ingest(storm_alerts[192:260])
        service.abort()

        revived = _service(serving_graph, tmp_path, **kwargs)
        assert revived.start() == "restored"
        assert revived.input_alerts == 260
        assert revived.replayed_events == 68
        revived.ingest(storm_alerts[260:])
        gateway = revived.gateway
        stats = gateway.drain()
        got = (
            counts(stats),
            aggregate_fingerprint(gateway),
            cluster_fingerprint(gateway),
            stats.qoa,
        )
        assert got == want

    def test_learner_timeline_survives_restore(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        """Not just the counters — the full rule event log (kind, input
        position, promotion/expiry times) continues identically."""
        baseline = make_gateway(
            serving_graph, flush_size=FLUSH, learn_rules=True,
        )
        baseline.ingest_batch(storm_alerts)
        baseline.drain()
        want = [
            (e.kind, e.strategy_id, e.at_input, e.at_time, e.expires_at)
            for e in baseline.learner.events
        ]

        service = _service(serving_graph, tmp_path, learn_rules=True)
        service.start()
        service.ingest(storm_alerts[:192])
        service.ingest(storm_alerts[192:230])
        service.abort()
        revived = _service(serving_graph, tmp_path, learn_rules=True)
        revived.start()
        revived.ingest(storm_alerts[230:])
        revived.gateway.drain()
        got = [
            (e.kind, e.strategy_id, e.at_input, e.at_time, e.expires_at)
            for e in revived.gateway.learner.events
        ]
        assert got == want


class TestChaosInterleavings:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kills=st.lists(
            st.integers(min_value=1, max_value=7), min_size=1, max_size=3,
        ),
        batch=st.sampled_from([17, 64, 97, 256]),
        learn=st.booleans(),
    )
    def test_arbitrary_kill_schedule_preserves_parity(
        self, serving_graph, storm_alerts, tmp_path_factory,
        kills, batch, learn,
    ):
        """Kill the service at arbitrary points (barrier or mid-buffer,
        before or after the first snapshot), any number of times: the
        final drained accounting never deviates."""
        kwargs = dict(learn_rules=learn, enable_qoa=True)
        want = _uninterrupted(
            serving_graph, storm_alerts, flush_size=FLUSH, **kwargs,
        )
        data_dir = tmp_path_factory.mktemp("chaos")
        # Kill positions in events, derived from eighths of the trace —
        # deliberately NOT aligned to flush barriers.
        positions = sorted(
            {min(k * len(storm_alerts) // 8, len(storm_alerts)) for k in kills}
        )
        cursor = 0
        for position in positions:
            service = _service(serving_graph, data_dir, **kwargs)
            service.start()
            assert service.input_alerts == cursor
            while cursor < position:
                cut = min(cursor + batch, position)
                service.ingest(storm_alerts[cursor:cut])
                cursor = cut
            service.abort()
        final = _service(serving_graph, data_dir, **kwargs)
        final.start()
        assert final.input_alerts == cursor
        final.ingest(storm_alerts[cursor:])
        gateway = final.gateway
        stats = gateway.drain()
        got = (
            counts(stats),
            aggregate_fingerprint(gateway),
            cluster_fingerprint(gateway),
            stats.qoa,
        )
        assert got == want


class TestLazyJournalTier:
    def test_hard_kill_falls_back_to_snapshot_then_source_replay(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        """The default (lazy) tier: an uncommitted tail dies with the
        process, recovery lands at the last snapshot, and re-feeding
        the source from the reported position restores full parity."""
        kwargs = dict(enable_qoa=True)
        want = _uninterrupted(
            serving_graph, storm_alerts, flush_size=FLUSH, **kwargs,
        )
        service = _service(
            serving_graph, tmp_path, journal_mode="lazy", **kwargs,
        )
        service.start()
        service.ingest(storm_alerts[:192])  # snapshot fires at the barrier
        service.ingest(storm_alerts[192:260])  # buffered, never committed
        status = service.status()["service"]["journal"]
        assert status["mode"] == "lazy"
        assert status["pending_events"] == 68
        service.abort()

        revived = _service(
            serving_graph, tmp_path, journal_mode="lazy", **kwargs,
        )
        assert revived.start() == "restored"
        # The tail died in memory: recovery is honest about the durable
        # position instead of pretending the lost events were accepted.
        assert revived.input_alerts == 192
        assert revived.replayed_events == 0
        revived.ingest(storm_alerts[revived.input_alerts:])
        gateway = revived.gateway
        stats = gateway.drain()
        got = (
            counts(stats),
            aggregate_fingerprint(gateway),
            cluster_fingerprint(gateway),
            stats.qoa,
        )
        assert got == want


class TestRestoreRefusals:
    def _checkpointed(self, tmp_path, storm_alerts, **kwargs):
        service = _service(golden_graph(), tmp_path, **kwargs)
        service.start()
        service.ingest(storm_alerts[:192])
        service.abort()
        return CheckpointLoader(tmp_path).latest()

    def test_config_drift_is_refused(self, storm_alerts, tmp_path):
        checkpoint = self._checkpointed(tmp_path, storm_alerts)
        assert checkpoint is not None
        drifted = make_gateway(golden_graph(), n_planes=5, flush_size=FLUSH)
        with pytest.raises(ValidationError, match="drift"):
            restore_gateway(
                checkpoint, golden_graph(),
                expected_config=drifted.checkpoint_config(),
            )
        drifted.close()

    def test_adopt_into_used_gateway_is_refused(self, storm_alerts, tmp_path):
        checkpoint = self._checkpointed(tmp_path, storm_alerts)
        gateway = make_gateway(golden_graph(), flush_size=FLUSH)
        gateway.ingest_batch(storm_alerts[:10])
        with pytest.raises(ValidationError):
            gateway.adopt_checkpoint(checkpoint.restore_state())
        gateway.close()

    def test_checkpoint_requires_flush_barrier(self, storm_alerts):
        gateway = make_gateway(golden_graph(), flush_size=FLUSH)
        gateway.ingest_batch(storm_alerts[:10])  # 10 % 64 != 0: buffered
        assert not gateway.at_flush_barrier
        with pytest.raises(ValidationError):
            gateway.checkpoint_state()
        gateway.close()

    def test_learning_flag_mismatch_is_refused(self, storm_alerts, tmp_path):
        checkpoint = self._checkpointed(
            tmp_path, storm_alerts, learn_rules=True,
        )
        plain = make_gateway(golden_graph(), flush_size=FLUSH)
        with pytest.raises(ValidationError):
            plain.adopt_checkpoint(checkpoint.restore_state())
        plain.close()
