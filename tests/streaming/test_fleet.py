"""Worker-fleet failures: bounded waits, typed errors, a poisoned gateway.

Killing a plane worker mid-stream surfaces a typed
:class:`WorkerDiedError` naming the worker, its exit code, and the
planes it owned, within the bounded poll — never an indefinite hang in
``recv()``.  The flush that met the death poisons the gateway: every
later call refuses, so no input is accepted while a plane's state is
gone.  Recovery is the serving layer's snapshot + journal restore,
tested in ``tests/serving/test_service.py``.
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
from tests.streaming.multiregion import multiregion_blocker, multiregion_trace


def _gateway(**overrides) -> AlertGateway:
    kwargs = dict(
        blocker=multiregion_blocker(),
        backend="process",
        n_planes=4,
        n_workers=2,
        flush_size=32,
        retain_artifacts=True,
    )
    kwargs.update(overrides)
    return AlertGateway(golden_graph(), **kwargs)


def _worker_pids(gateway) -> list[int]:
    """The live fleet's pids (after a barrier so the fleet exists)."""
    gateway.flush()
    return [worker.pid for worker in gateway._backend._workers]


# ----------------------------------------------------------------------
# dead-worker detection (the bounded-recv bugfix)
# ----------------------------------------------------------------------
class TestDeadWorkerDetection:
    def test_kill_raises_typed_error_not_hang(self):
        alerts = multiregion_trace()
        gateway = _gateway()
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
        assert "data directory" in str(error)
        gateway.close()

    def test_wedged_worker_raises_timeout_and_is_not_respawned(
        self, monkeypatch,
    ):
        # The poisoned gateway reaps the stopped worker at once; short
        # join graces keep that terminate -> kill escalation quick.
        join = ProcessPlaneBackend._join_worker
        monkeypatch.setattr(
            ProcessPlaneBackend, "_join_worker",
            staticmethod(lambda worker: join(worker, grace=0.2, term_grace=0.2)),
        )
        alerts = multiregion_trace()
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
            with pytest.raises(ValidationError, match="drained"):
                gateway.ingest_batch(alerts[100:110])
        finally:
            try:
                os.kill(pids[1], signal.SIGCONT)
            except ProcessLookupError:
                pass  # the poisoned gateway already reaped it
            gateway.close()


# ----------------------------------------------------------------------
# a failed flush poisons the gateway
# ----------------------------------------------------------------------
class TestFailedFlushPoisons:
    def test_dead_worker_refuses_ingest_and_checkpoint(self):
        alerts = multiregion_trace()
        gateway = _gateway()
        gateway.ingest_batch(alerts[:200])
        pids = _worker_pids(gateway)
        os.kill(pids[1], signal.SIGKILL)  # planes 1 and 3
        with pytest.raises(WorkerDiedError):
            gateway.ingest_batch(alerts[200:])
        # Alerts whose planes live on the surviving worker must be
        # refused too: the stream is already missing a plane's state.
        survivors = [
            alert for alert in alerts[200:]
            if gateway._plane_router.assignments.get(alert.region, 1) % 2 == 0
        ]
        assert len(survivors) >= 32, "no full flush left on worker 0"
        with pytest.raises(ValidationError, match="drained"):
            gateway.ingest_batch(survivors)
        with pytest.raises(ValidationError, match="drained"):
            gateway.checkpoint_state()
        gateway.close()

    def test_raising_source_does_not_poison(self):
        # The caller's iterable failing is not a gateway failure: what
        # it yielded stays accounted for, and the stream carries on.
        alerts = multiregion_trace()

        def source():
            yield from alerts[:100]
            raise RuntimeError("source went away")

        gateway = AlertGateway(
            golden_graph(), blocker=multiregion_blocker(), n_planes=2, flush_size=32,
        )
        with pytest.raises(RuntimeError, match="source went away"):
            gateway.ingest_batch(source())
        gateway.ingest_batch(alerts[100:])
        assert gateway.drain().input_alerts == len(alerts)


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
        alerts = multiregion_trace()
        gateway = _gateway()
        gateway.ingest_batch(alerts[:100])
        gateway.flush()
        backend = gateway._backend
        workers = list(backend._workers)
        os.kill(workers[0].pid, signal.SIGKILL)
        gateway.close()
        for worker in workers:
            assert not worker.is_alive()
            assert worker.exitcode is not None  # joined, not zombied

    def test_close_is_idempotent(self):
        gateway = _gateway()
        gateway.ingest_batch(multiregion_trace()[:64])
        gateway.close()
        gateway.close()


class _BlockingBackend:
    """A lane backend whose feed wedges until released (stuck-lane stand-in)."""

    def __init__(self):
        self.release = threading.Event()

    def lane_feed_parts(self, lane, plane, parts, in_warmup, watermark):
        self.release.wait()
        from repro.streaming.plane import PlaneReport
        return PlaneReport(plane_id=plane, processed=1)


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
