"""Worker-fleet fault tolerance: death detection, recovery, live resize.

The tentpole promise, in two halves:

* recovery **off** — killing a plane worker mid-stream surfaces a typed
  :class:`WorkerDiedError` naming the worker, its exit code, and the
  planes it owned, within the bounded poll — never an indefinite hang in
  ``recv()``;
* recovery **on** — the supervisor respawns the dead worker from its
  last full-plane snapshot, rewinds its rule table, replays the journal
  tail, re-sends the in-flight batch exactly once, and the drained
  accounting lands **bit-identical** to a run nothing was killed in.

The deterministic layer here runs in tier-1; the ``scale_chaos``-marked
kill matrix (transport × plane counts × which worker dies) runs in the
dedicated chaos job alongside the plane scale-out harness.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.common.errors import ValidationError
from repro.streaming import (
    AlertGateway,
    CircuitBreaker,
    GatewayConfig,
    PlaneRouter,
    ProcessPlaneBackend,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.streaming import lanes as lanes_module
from repro.streaming.lanes import LaneIngress
from repro.streaming.stats import GatewayStats

from tests.streaming.conftest import make_alert
from tests.streaming.test_golden_trace import golden_graph
from tests.streaming.test_scale import (
    _aggregate_fingerprint,
    _blocker,
    _cluster_fingerprint,
    _counts,
    _storm_trace,
)


def _gateway(**overrides) -> AlertGateway:
    kwargs = dict(
        blocker=_blocker(),
        backend="process",
        n_planes=4,
        n_workers=2,
        flush_size=32,
        retain_artifacts=True,
        worker_recovery=True,
        worker_checkpoint_every=4,
    )
    kwargs.update(overrides)
    return AlertGateway(golden_graph(), **kwargs)


def _baseline(alerts, **overrides):
    """Drain an unkilled run: the fingerprints every chaos run must hit."""
    gateway = _gateway(**overrides)
    gateway.ingest_batch(alerts)
    stats = gateway.drain()
    return (
        _counts(stats),
        _aggregate_fingerprint(gateway),
        _cluster_fingerprint(gateway),
    )


def _worker_pids(gateway) -> list[int]:
    """The live fleet's pids (after a barrier so the fleet exists)."""
    gateway.snapshot()
    return [worker.pid for worker in gateway._backend._workers]


# ----------------------------------------------------------------------
# circuit breaker (pure unit layer, no processes)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker(threshold=3, probation=2)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.is_open and breaker.allow_ring
        breaker.record_failure()
        assert breaker.is_open and not breaker.allow_ring
        assert breaker.trips == 1

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open

    def test_death_opens_immediately(self):
        breaker = CircuitBreaker(threshold=5)
        breaker.record_death()
        assert breaker.is_open and not breaker.allow_ring

    def test_probation_closes_after_consecutive_successes(self):
        breaker = CircuitBreaker(threshold=1, probation=3)
        breaker.record_death()
        breaker.record_success()
        breaker.record_success()
        assert breaker.is_open  # probation not served yet
        breaker.record_success()
        assert not breaker.is_open and breaker.allow_ring
        # A second trip counts separately and restarts probation.
        breaker.record_failure()
        assert breaker.is_open and breaker.trips == 2

    def test_failure_during_probation_restarts_it(self):
        breaker = CircuitBreaker(threshold=1, probation=2)
        breaker.record_death()
        breaker.record_success()
        breaker.record_failure()  # re-trips: probation progress is gone
        breaker.record_success()
        assert breaker.is_open
        breaker.record_success()
        assert not breaker.is_open

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probation=0)


# ----------------------------------------------------------------------
# dead-worker detection (the bounded-recv bugfix, recovery off)
# ----------------------------------------------------------------------
class TestDeadWorkerDetection:
    def test_kill_raises_typed_error_not_hang(self):
        alerts = _storm_trace()
        gateway = _gateway(worker_recovery=False)
        gateway.ingest_batch(alerts[:200])
        pids = _worker_pids(gateway)
        os.kill(pids[0], signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(WorkerDiedError) as excinfo:
            gateway.ingest_batch(alerts[200:])
            gateway.drain()
        # Detection is poll-slice fast, nowhere near worker_timeout.
        assert time.monotonic() - started < 10.0
        error = excinfo.value
        assert error.worker_id == 0
        assert error.exitcode == -signal.SIGKILL
        assert error.planes == (0, 2)  # plane % n_workers == 0
        assert "worker 0" in str(error)
        assert f"signal {signal.SIGKILL}" in str(error)
        assert "worker_recovery" in str(error)
        gateway.close()

    def test_wedged_worker_raises_timeout_and_is_not_respawned(self):
        alerts = _storm_trace()
        gateway = _gateway(worker_timeout=0.5)
        gateway.ingest_batch(alerts[:100])
        pids = _worker_pids(gateway)
        os.kill(pids[1], signal.SIGSTOP)
        try:
            with pytest.raises(WorkerTimeoutError) as excinfo:
                gateway.ingest_batch(alerts[100:])
                gateway.drain()
            assert excinfo.value.worker_id == 1
            assert excinfo.value.timeout == 0.5
            # A wedge is never auto-recovered: the live process still
            # owns its planes (and possibly a ring slot mid-consume).
            assert gateway._backend.worker_recoveries == 0
        finally:
            os.kill(pids[1], signal.SIGCONT)
            gateway.close()


# ----------------------------------------------------------------------
# snapshot + journal recovery (the tentpole, deterministic layer)
# ----------------------------------------------------------------------
class TestWorkerRecovery:
    @pytest.mark.parametrize("lane_transport", ["ring", "pipe"])
    def test_kill_mid_stream_drains_bit_identical(self, lane_transport):
        alerts = _storm_trace()
        base = _baseline(alerts, lane_transport=lane_transport)
        gateway = _gateway(lane_transport=lane_transport)
        gateway.ingest_batch(alerts[:200])
        pids = _worker_pids(gateway)
        os.kill(pids[1], signal.SIGKILL)
        gateway.ingest_batch(alerts[200:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base
        assert stats.worker_deaths == 1
        assert stats.worker_recoveries == 1
        assert "worker deaths" in stats.render()
        assert "(1 recovered)" in stats.render()

    def test_kill_under_ingress_lanes_recovers(self):
        alerts = _storm_trace()
        base = _baseline(alerts)
        gateway = _gateway(ingress_lanes=2)
        gateway.ingest_batch(alerts[:200])
        pids = _worker_pids(gateway)
        os.kill(pids[0], signal.SIGKILL)
        gateway.ingest_batch(alerts[200:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base
        assert stats.worker_deaths == 1
        assert stats.worker_recoveries == 1

    def test_kill_before_any_snapshot_replays_from_empty(self):
        # checkpoint cadence far beyond the stream: the journal carries
        # every batch and the snapshot stays the empty spawn baseline.
        alerts = _storm_trace()
        base = _baseline(alerts)
        gateway = _gateway(worker_checkpoint_every=100_000)
        gateway.ingest_batch(alerts[:64])
        pids = _worker_pids(gateway)
        os.kill(pids[0], signal.SIGKILL)
        gateway.ingest_batch(alerts[64:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base
        assert stats.worker_recoveries == 1

    def test_repeated_kills_of_the_same_worker(self):
        alerts = _storm_trace()
        base = _baseline(alerts)
        gateway = _gateway()
        cuts = (120, 240, 360)
        cursor = 0
        for cut in cuts:
            gateway.ingest_batch(alerts[cursor:cut])
            cursor = cut
            os.kill(_worker_pids(gateway)[0], signal.SIGKILL)
        gateway.ingest_batch(alerts[cursor:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base
        assert stats.worker_deaths == len(cuts)
        assert stats.worker_recoveries == len(cuts)

    def test_recovery_survives_rule_changes_since_snapshot(self):
        # A rule applied *after* the worker's snapshot must re-apply at
        # its journaled stream position during replay, not at fork time:
        # the revived worker's table is rewound to the snapshot capture
        # first.  Learning mode exercises exactly that path.
        alerts = _storm_trace()

        from repro.core.mitigation.blocking import AlertBlocker
        from repro.streaming import LearnerConfig

        def run(kill: bool):
            gateway = _gateway(
                blocker=AlertBlocker(), learn_rules=True, enable_qoa=True,
                worker_checkpoint_every=3,
                learner_config=LearnerConfig(
                    window_seconds=1800.0, min_alerts=10, repeat_count=15,
                    rule_ttl=1800.0,
                ),
            )
            gateway.ingest_batch(alerts[:240])
            # Barrier in BOTH runs: with learning on, a flush is a
            # judgment round, so the kill run's pid read must not add a
            # round the clean run lacks.
            pids = _worker_pids(gateway)
            if kill:
                os.kill(pids[1], signal.SIGKILL)
            gateway.ingest_batch(alerts[240:])
            stats = gateway.drain()
            timeline = [
                (event.kind, event.strategy_id, event.at_input)
                for event in gateway.learner.events
            ]
            return _counts(stats), timeline, stats.qoa

        killed, clean = run(kill=True), run(kill=False)
        assert killed[1], "learning never fired; the scenario proves nothing"
        assert killed == clean

    def test_fleet_counters_survive_gateway_checkpoint_restore(self):
        alerts = _storm_trace()
        gateway = _gateway()
        gateway.ingest_batch(alerts[:200])
        os.kill(_worker_pids(gateway)[0], signal.SIGKILL)
        gateway.ingest_batch(alerts[200:240])
        gateway.snapshot()
        assert gateway.stats.worker_deaths == 1
        state = gateway.checkpoint_state()
        gateway.close()

        restored = _gateway()
        restored.adopt_checkpoint(state)
        restored.ingest_batch(alerts[240:])
        stats = restored.drain()
        # The restored fleet is fresh (its own counters start at zero),
        # but the checkpointed history folds in as a baseline.
        assert stats.worker_deaths == 1
        assert stats.worker_recoveries == 1


# ----------------------------------------------------------------------
# live worker-pool resize
# ----------------------------------------------------------------------
class TestResizeWorkers:
    @pytest.mark.parametrize("path", [(2, 4), (4, 1), (1, 3)])
    def test_resize_round_trip_is_invisible(self, path):
        alerts = _storm_trace()
        base = _baseline(alerts)
        gateway = _gateway(n_workers=path[0])
        gateway.ingest_batch(alerts[:160])
        gateway.resize_workers(path[1])
        assert gateway.stats.n_workers == min(path[1], 4)
        gateway.ingest_batch(alerts[160:320])
        gateway.resize_workers(path[0])
        gateway.ingest_batch(alerts[320:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base

    def test_resize_then_kill_still_recovers(self):
        # The resize re-baselines every worker's snapshot; a death after
        # it must revive from the *new* mapping, not the stale one.
        alerts = _storm_trace()
        base = _baseline(alerts)
        gateway = _gateway(n_workers=2)
        gateway.ingest_batch(alerts[:160])
        gateway.resize_workers(4)
        gateway.ingest_batch(alerts[160:280])
        os.kill(_worker_pids(gateway)[3], signal.SIGKILL)
        gateway.ingest_batch(alerts[280:])
        stats = gateway.drain()
        assert (_counts(stats), _aggregate_fingerprint(gateway),
                _cluster_fingerprint(gateway)) == base
        assert stats.worker_recoveries == 1

    def test_failed_resize_poisons_the_gateway(self, monkeypatch):
        # A resize that dies mid-migration may have detached plane state
        # that never reached its destination: the gateway must refuse
        # ingest afterwards, not stay silently wrong.
        alerts = _storm_trace()
        gateway = _gateway()
        gateway.ingest_batch(alerts[:160])

        def exploding_resize(n_workers):
            raise RuntimeError("worker died mid-migration")

        monkeypatch.setattr(gateway._backend, "resize_workers", exploding_resize)
        with pytest.raises(RuntimeError, match="mid-migration"):
            gateway.resize_workers(4)
        with pytest.raises(ValidationError, match="drained"):
            gateway.ingest_batch(alerts[160:])

    def test_serial_backend_has_no_pool_to_resize(self):
        gateway = AlertGateway(golden_graph(), blocker=_blocker())
        with pytest.raises(ValidationError, match="no worker pool"):
            gateway.resize_workers(4)
        gateway.close()

    def test_resize_rejects_nonpositive(self):
        gateway = _gateway()
        with pytest.raises(ValidationError):
            gateway.resize_workers(0)
        gateway.close()


# ----------------------------------------------------------------------
# shutdown hygiene: the zombie fix + loud lane close
# ----------------------------------------------------------------------
def _ignore_sigterm_forever():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


class TestCloseHygiene:
    def test_join_worker_escalates_terminate_then_kill(self):
        import multiprocessing

        worker = multiprocessing.get_context().Process(
            target=_ignore_sigterm_forever, daemon=True,
        )
        worker.start()
        ProcessPlaneBackend._join_worker(worker, grace=0.2, term_grace=0.2)
        # Escalation ends in SIGKILL + join: dead AND reaped (exitcode
        # read back), never a zombie left for the kernel.
        assert not worker.is_alive()
        assert worker.exitcode == -signal.SIGKILL

    def test_close_reaps_a_killed_worker(self):
        alerts = _storm_trace()
        gateway = _gateway(worker_recovery=False)
        gateway.ingest_batch(alerts[:100])
        gateway.snapshot()
        backend = gateway._backend
        workers = list(backend._workers)
        os.kill(workers[0].pid, signal.SIGKILL)
        gateway.close()
        for worker in workers:
            assert not worker.is_alive()
            assert worker.exitcode is not None  # joined, not zombied

    def test_close_is_idempotent(self):
        gateway = _gateway()
        gateway.ingest_batch(_storm_trace()[:64])
        gateway.close()
        gateway.close()


class _BlockingBackend:
    """A lane backend whose feed wedges until released (stuck-lane stand-in)."""

    def __init__(self):
        self.release = threading.Event()

    def lane_feed(self, plane, batch, in_warmup, watermark):
        self.release.wait()
        from repro.streaming.plane import PlaneFlushResult
        return PlaneFlushResult(
            plane_id=plane, processed=len(batch), blocked=0, aggregates=0,
            clusters=0, storm_episodes=0, emerging_flags=0, open_sessions=0,
            active_components=0, retained_representatives=0,
        )


class TestLaneLoudClose:
    def test_close_names_stuck_lanes(self, monkeypatch):
        monkeypatch.setattr(lanes_module, "LANE_JOIN_TIMEOUT", 0.1)
        backend = _BlockingBackend()
        ingress = LaneIngress(
            backend, PlaneRouter(1), GatewayConfig(flush_size=1), warmup_limit=0,
        )
        ingress.ingest([make_alert(0.0)], GatewayStats())
        try:
            with pytest.raises(RuntimeError, match="ingress-lane-0"):
                ingress.close()
        finally:
            backend.release.set()

    def test_close_joins_healthy_lanes_quietly(self):
        backend = _BlockingBackend()
        backend.release.set()
        ingress = LaneIngress(
            backend, PlaneRouter(1), GatewayConfig(flush_size=1), warmup_limit=0,
        )
        ingress.ingest([make_alert(0.0)], GatewayStats())
        ingress.barrier(0.0)
        ingress.close()
        ingress.close()  # idempotent


# ----------------------------------------------------------------------
# chaos kill matrix (dedicated CI job, alongside the scale-out harness)
# ----------------------------------------------------------------------
@pytest.mark.scale_chaos
@pytest.mark.parametrize("lane_transport", ["ring", "pipe"])
@pytest.mark.parametrize("n_planes,n_workers", [(2, 2), (5, 3)])
class TestWorkerKillMatrix:
    def test_any_single_worker_kill_is_invisible(
        self, lane_transport, n_planes, n_workers,
    ):
        alerts = _storm_trace()
        base = _baseline(
            alerts, n_planes=n_planes, n_workers=n_workers,
            lane_transport=lane_transport, ingress_lanes=2,
        )
        for victim in range(min(n_workers, n_planes)):
            gateway = _gateway(
                n_planes=n_planes, n_workers=n_workers,
                lane_transport=lane_transport, ingress_lanes=2,
            )
            gateway.ingest_batch(alerts[:200])
            os.kill(_worker_pids(gateway)[victim], signal.SIGKILL)
            gateway.ingest_batch(alerts[200:])
            backend = gateway._backend
            if lane_transport == "ring":
                # The dead worker's rings were retired at revive; the
                # post-kill stream re-created segments the respawned
                # worker attached cleanly (zero-copy traffic resumed).
                assert any(
                    worker_id == victim for _, worker_id in backend._rings
                )
            stats = gateway.drain()
            assert (_counts(stats), _aggregate_fingerprint(gateway),
                    _cluster_fingerprint(gateway)) == base, (
                f"victim={victim}"
            )
            assert stats.worker_deaths == 1
            assert stats.worker_recoveries == 1
            assert backend.breaker_trips == 1
