"""AlertGatewayService life cycle: ticks, recovery, status, transports."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket

import pytest

from repro.common.errors import ValidationError
from repro.core.antipatterns.base import DetectorThresholds
from repro.io.traces import alert_to_dict
from repro.serving import AlertGatewayService, CheckpointLoader
from repro.serving.journal import journal_files
from repro.streaming import FleetError

from tests.serving.conftest import serving_blocker
from tests.streaming.test_golden_trace import (
    EXPECTED_PATH,
    WINDOW,
    _load_alerts,
    _stats_payload,
    golden_blocker,
    golden_graph,
)


def _service(graph, data_dir, **kwargs):
    kwargs.setdefault("blocker", serving_blocker())
    kwargs.setdefault("checkpoint_every", 100)
    kwargs.setdefault("n_planes", 2)
    kwargs.setdefault("flush_size", 64)
    return AlertGatewayService(graph, data_dir, **kwargs)


class TestLifecycle:
    def test_fresh_start_and_auto_checkpoint(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        assert service.start() == "fresh"
        # 64 events: past no barrier-aligned cadence yet (64 < 100).
        service.ingest(storm_alerts[:64])
        assert service.checkpoints_written == 0
        # 128: cadence reached but 128 is a barrier (2 x 64) -> snapshot.
        service.ingest(storm_alerts[64:128])
        assert service.checkpoints_written == 1
        snapshots = CheckpointLoader(tmp_path).paths()
        assert len(snapshots) == 1
        service.stop()
        assert service.gateway is None

    def test_due_checkpoint_waits_for_barrier(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        # 150 events: cadence (100) is due but 150 is mid-buffer — the
        # tick must wait rather than force a schedule-visible flush.
        service.ingest(storm_alerts[:150])
        assert service.checkpoints_written == 0
        assert service.checkpoint(force=False) is None
        # The next barrier-landing batch triggers the overdue snapshot.
        service.ingest(storm_alerts[150:192])
        assert service.checkpoints_written == 1
        service.stop()

    def test_stop_snapshots_and_resume_continues(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        service.ingest(storm_alerts[:130])
        service.stop()
        assert (tmp_path / "stats.json").exists()
        revived = _service(serving_graph, tmp_path)
        assert revived.start() == "restored"
        assert revived.input_alerts == 130
        revived.stop()

    def test_crash_before_first_checkpoint_recovers_from_journal(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        # "batch" journalling: the write-ahead tier is the one that
        # must survive a kill with no snapshot on disk at all.
        service = _service(serving_graph, tmp_path, journal_mode="batch")
        service.start()
        service.ingest(storm_alerts[:90])  # below cadence: journal only
        service.abort()
        assert CheckpointLoader(tmp_path).latest() is None
        revived = _service(serving_graph, tmp_path, journal_mode="batch")
        assert revived.start() == "restored"
        assert revived.input_alerts == 90
        assert revived.replayed_events == 90
        revived.stop()

    def test_unknown_journal_mode_raises(self, serving_graph, tmp_path):
        with pytest.raises(ValidationError, match="journal_mode"):
            _service(serving_graph, tmp_path, journal_mode="eventually")

    def test_start_twice_raises(self, serving_graph, tmp_path):
        service = _service(serving_graph, tmp_path)
        service.start()
        with pytest.raises(ValidationError):
            service.start()
        service.stop()

    def test_ingest_before_start_raises(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        with pytest.raises(ValidationError, match="not started"):
            service.ingest(storm_alerts[:1])

    def test_drain_ends_the_stream(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        service.ingest(storm_alerts)
        stats = service.stop(drain=True)
        assert stats is not None
        assert stats.input_alerts == len(storm_alerts)
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["service"]["drained"] is True
        assert payload["gateway"]["input_alerts"] == len(storm_alerts)

    def test_journal_rotation_and_pruning(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(
            serving_graph, tmp_path, checkpoint_every=64,
            retain_checkpoints=2,
        )
        service.start()
        for start in range(0, 448, 64):
            service.ingest(storm_alerts[start:start + 64])
        # 7 barrier batches at cadence 64 -> 7 snapshots, retention 2.
        assert service.checkpoints_written == 7
        snapshots = CheckpointLoader(tmp_path).paths()
        assert len(snapshots) == 2
        oldest_kept = min(int(p.stem.split("-")[1]) for p in snapshots)
        epochs = {epoch for epoch, _, _ in journal_files(tmp_path)}
        assert min(epochs) >= oldest_kept, (
            "journals older than every retained snapshot must be pruned"
        )
        service.stop()

    def test_stray_checkpoint_name_does_not_break_snapshots(self, tmp_path):
        """A foreign ``checkpoint-*.rck`` file is no snapshot: journal
        pruning skips it instead of failing every later tick after the
        snapshot is written and the journal rotated."""
        expected = json.loads(EXPECTED_PATH.read_text())["counts"]
        alerts = _load_alerts()

        def service():
            return AlertGatewayService(
                golden_graph(), tmp_path, blocker=golden_blocker(),
                journal_mode="batch", checkpoint_every=32, n_planes=2,
                flush_size=16, aggregation_window=WINDOW,
                correlation_window=WINDOW,
            )

        live = service()
        live.start()
        live.ingest(alerts[:32])
        assert live.checkpoints_written == 1
        (tmp_path / "checkpoint-foreign.rck").write_bytes(b"not a snapshot")
        for start in range(32, 192, 16):
            live.ingest(alerts[start:start + 16])
        assert live.checkpoints_written == 6
        oldest_kept = min(
            int(p.stem.split("-")[1]) for p in CheckpointLoader(tmp_path).paths()
            if p.name != "checkpoint-foreign.rck"
        )
        assert oldest_kept > 1
        assert min(epoch for epoch, _, _ in journal_files(tmp_path)) >= oldest_kept
        live.abort()

        revived = service()
        assert revived.start() == "restored"
        revived.ingest(alerts[revived.input_alerts:])
        assert _stats_payload(revived.stop(drain=True)) == expected


class TestConfiguredOptionsReachTheGateway:
    """Every option is a ``GatewayConfig`` field, so the service path —
    fresh boot, checkpoint record, restore, drift check — carries it.
    ``detector_thresholds`` was the option the hand-mirrored copies had
    dropped: a service given custom thresholds silently ran the defaults."""

    THRESHOLDS = dataclasses.replace(
        DetectorThresholds(), intermittent_threshold=1.0, repeat_window_count=3,
    )

    def _service(self, graph, data_dir, thresholds):
        return _service(
            graph, data_dir, journal_mode="batch",
            detect_antipatterns=True, detector_thresholds=thresholds,
        )

    def _assert_thresholds(self, service):
        gateway = service.gateway
        assert gateway.options.detector_thresholds == self.THRESHOLDS
        # The learner/QoA fold reads the A4 cut-off from the options.
        assert gateway.options.detector_thresholds.intermittent_threshold == 1.0
        assert gateway.detectors._thresholds.repeat_window_count == 3
        assert gateway.detectors._thresholds == self.THRESHOLDS

    def test_detector_thresholds_survive_boot_restore_and_gate_drift(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = self._service(serving_graph, tmp_path, self.THRESHOLDS)
        assert service.start() == "fresh"
        self._assert_thresholds(service)
        service.ingest(storm_alerts[:128])
        assert service.checkpoints_written == 1
        service.ingest(storm_alerts[128:160])  # journal tail past the snapshot
        service.abort()

        restored = self._service(serving_graph, tmp_path, self.THRESHOLDS)
        assert restored.start() == "restored"
        assert restored.input_alerts == 160
        self._assert_thresholds(restored)
        restored.abort()

        drifted = self._service(serving_graph, tmp_path, DetectorThresholds())
        with pytest.raises(ValidationError, match="drift.*detector_thresholds"):
            drifted.start()

    def test_invalid_option_fails_at_construction(self, serving_graph, tmp_path):
        with pytest.raises(ValidationError, match="unknown backend"):
            _service(serving_graph, tmp_path, backend="thread")
        with pytest.raises(TypeError, match="sync_journal"):
            _service(serving_graph, tmp_path, sync_journal=True)


class TestStatus:
    def test_status_payload_shape(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path, enable_qoa=True)
        service.start()
        service.ingest(storm_alerts[:128])
        status = service.status()
        assert status["gateway"]["input_alerts"] == 128
        assert status["service"]["checkpoints_written"] == 1
        assert status["service"]["journal"]["records"] >= 0
        assert status["qoa_live"], "live QoA scores expected"
        assert status["history"], "checkpoint ticks recorded"
        assert status["metrics"]["counters"]["checkpoints"] == 1
        assert "checkpoint_write_seconds" in status["metrics"]["timers"]
        json.dumps(status)  # JSON-safe end to end
        path = service.write_status()
        assert json.loads(path.read_text())["gateway"]["input_alerts"] == 128
        service.stop()

    def test_history_records_storm_progression(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path, checkpoint_every=64)
        service.start()
        for start in range(0, 448, 64):
            service.ingest(storm_alerts[start:start + 64])
        ticks = list(service.history)
        assert len(ticks) == 7
        assert [t["at_input"] for t in ticks] == \
               [64, 128, 192, 256, 320, 384, 448]
        assert ticks[-1]["storm_episodes"] >= 1, (
            "the storm trace's flood must appear in the history ring"
        )
        service.stop()


class TestTransports:
    def test_run_stream_honours_stop_request(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()

        def source():
            for index, alert in enumerate(storm_alerts):
                if index == 100:
                    service.request_stop()
                yield alert

        assert service.run_stream(source(), batch_size=32) == "stopped"
        # Alerts 0..100 were pulled: the one in hand at the stop is kept.
        assert service.input_alerts == 101
        service.stop()

    def test_run_lines_parses_json_alerts(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        lines = [json.dumps(alert_to_dict(a)) + "\n" for a in storm_alerts[:50]]
        lines.insert(10, "\n")  # blank lines are skipped
        assert service.run_lines(lines) == "exhausted"
        assert service.input_alerts == 50
        service.stop()

    def test_socket_ingest_and_stats_query(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        host, port = service.serve_socket()
        payload = b"".join(
            (json.dumps(alert_to_dict(a)) + "\n").encode()
            for a in storm_alerts[:128]
        )
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(payload + b"STATS\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
        status = json.loads(reply)
        assert status["gateway"]["input_alerts"] == 128
        service.stop()
        # The socket is closed with the service.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    @pytest.mark.parametrize("bad_line", [
        b"\xff\xfe not utf-8\n",
        b"{not json\n",
        b'{"alert_id": "missing-fields"}\n',
        b'{"alert_id": "a", "strategy_id": "s", "strategy_name": "n", '
        b'"title": "t", "description": "d", "severity": "MINOR", '
        b'"service": "v", "microservice": "m", "region": "r", '
        b'"datacenter": "d", "channel": "metric", '
        b'"occurred_at": "not a time", "state": "active"}\n',
    ], ids=["utf8", "json", "key", "value"])
    def test_socket_refuses_a_malformed_line_and_keeps_the_connection(
        self, serving_graph, storm_alerts, tmp_path, bad_line,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        host, port = service.serve_socket()
        lines = [
            (json.dumps(alert_to_dict(a)) + "\n").encode()
            for a in storm_alerts[:21]
        ]
        with socket.create_connection((host, port), timeout=10) as conn:
            # 20 alerts parsed before the bad line, one valid after it.
            conn.sendall(b"".join(lines[:20]) + bad_line + lines[20] + b"STATS\n")
            replies = conn.makefile("rb")
            refusal = replies.readline().decode("utf-8")
            status = json.loads(replies.readline())
        assert refusal.startswith("REFUSED malformed line: ")
        assert status["gateway"]["input_alerts"] == 21
        assert service.input_alerts == 21
        service.stop()

    def test_signal_handler_requests_stop(self, serving_graph, tmp_path):
        import os
        import signal as signal_module

        service = _service(serving_graph, tmp_path)
        service.start()
        previous_term = signal_module.getsignal(signal_module.SIGTERM)
        previous_int = signal_module.getsignal(signal_module.SIGINT)
        try:
            service.install_signal_handlers()
            assert not service.stop_requested
            os.kill(os.getpid(), signal_module.SIGTERM)
            assert service.stop_requested
            assert service.metrics.counter("signal_SIGTERM") == 1
        finally:
            signal_module.signal(signal_module.SIGTERM, previous_term)
            signal_module.signal(signal_module.SIGINT, previous_int)
        service.stop()


class TestClockDiscipline:
    """Durations must come from the monotonic clock: an NTP step of the
    wall clock cannot make uptime (or tick spacing) go negative."""

    def test_uptime_immune_to_backward_wall_clock_step(
        self, serving_graph, storm_alerts, tmp_path, monkeypatch,
    ):
        import repro.serving.service as service_module
        wall = {"now": 1_000_000.0}
        mono = {"now": 50.0}
        monkeypatch.setattr(service_module.time, "time", lambda: wall["now"])
        monkeypatch.setattr(
            service_module.time, "monotonic", lambda: mono["now"],
        )
        service = _service(serving_graph, tmp_path)
        service.start()
        # The wall clock steps back a full hour; real time advances 5s.
        wall["now"] -= 3600.0
        mono["now"] += 5.0
        status = service.status()["service"]
        assert status["uptime_seconds"] == pytest.approx(5.0)
        assert status["started_at"] == pytest.approx(1_000_000.0)
        # Ticks carry the same discipline: wall_time is a stamp, uptime
        # is the duration.
        service.ingest(storm_alerts[:128])  # lands on a checkpoint tick
        tick = service.history[-1]
        assert tick["uptime"] == pytest.approx(5.0)
        assert tick["uptime"] >= 0.0
        service.stop()


class TestDrainGate:
    """Ingest racing a drain-and-snapshot must be refused, not dropped."""

    def test_ingest_after_stop_is_refused_loudly(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        service.ingest(storm_alerts[:64])
        service.stop()
        with pytest.raises(ValidationError, match="draining"):
            service.ingest(storm_alerts[64:128])
        # A restart re-opens the gate.
        assert service.start() == "restored"
        assert service.ingest(storm_alerts[64:128]) == 64
        service.stop()

    def test_ingest_refused_while_drain_in_flight(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        """The exact race: a handler thread that loses the lock race to
        stop() must see the gate, not a half-shut-down service."""
        import threading

        service = _service(serving_graph, tmp_path)
        service.start()
        service.ingest(storm_alerts[:64])
        release = threading.Event()
        entered = threading.Event()

        original_checkpoint = service.checkpoint

        def slow_checkpoint(force=False):
            entered.set()
            release.wait(timeout=10)
            return original_checkpoint(force=force)

        service.checkpoint = slow_checkpoint
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        assert entered.wait(timeout=10)
        # stop() holds the lock mid-snapshot; a late ingest must be
        # refused by the pre-lock gate instead of queueing on the lock.
        with pytest.raises(ValidationError, match="draining"):
            service.ingest(storm_alerts[64:65])
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert service.gateway is None

    def test_socket_lines_get_refused_ack_when_draining(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        host, port = service.serve_socket()
        service._draining = True  # a stop is in flight
        payload = b"".join(
            (json.dumps(alert_to_dict(a)) + "\n").encode()
            for a in storm_alerts[:8]
        )
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
            reply = conn.makefile().readline()
        assert reply.startswith("REFUSED")
        assert "draining" in reply
        # Nothing slipped past the gate.
        assert service.input_alerts == 0
        service._draining = False
        service.stop()


class TestIngressLanes:
    def test_service_runs_and_restores_with_lanes(
        self, serving_graph, storm_alerts, tmp_path,
    ):
        service = _service(serving_graph, tmp_path)
        service.start()
        service.ingest(storm_alerts[:128])
        service.stop()
        # Lane count is not strict config, so a restore may ask for
        # another; the serial backend resumes on its one lane.
        revived = _service(serving_graph, tmp_path, ingress_lanes=2)
        assert revived.start() == "restored"
        assert revived.gateway.ingress_lanes == 1
        assert revived.input_alerts == 128
        revived.ingest(storm_alerts[128:192])
        stats = revived.stop(drain=True)
        # Same accounting as one uninterrupted classic run.
        clean_dir = tmp_path / "clean"
        clean = _service(serving_graph, clean_dir)
        clean.start()
        clean.ingest(storm_alerts[:192])
        clean_stats = clean.stop(drain=True)
        assert stats.input_alerts == clean_stats.input_alerts
        assert stats.blocked_alerts == clean_stats.blocked_alerts
        assert stats.aggregates_emitted == clean_stats.aggregates_emitted
        assert stats.clusters_finalized == clean_stats.clusters_finalized


class TestDeadWorkerRestore:
    """The one recovery path: a dead plane worker poisons the gateway,
    and restoring the service from its data directory recovers it."""

    KILL_AT = 144
    CHUNK = 16

    @staticmethod
    def _process_service(data_dir, ingress_lanes):
        return AlertGatewayService(
            golden_graph(), data_dir, blocker=golden_blocker(),
            journal_mode="batch", checkpoint_every=64,
            backend="process", n_planes=4, n_workers=2, flush_size=16,
            ingress_lanes=ingress_lanes,
            aggregation_window=WINDOW, correlation_window=WINDOW,
        )

    @pytest.mark.parametrize("victim", [0, 1])
    @pytest.mark.parametrize("ingress_lanes", [1, 2])
    def test_kill_then_restore_drains_golden(
        self, tmp_path, ingress_lanes, victim,
    ):
        expected = json.loads(EXPECTED_PATH.read_text())["counts"]
        alerts = _load_alerts()
        crashed = self._process_service(tmp_path, ingress_lanes)
        assert crashed.start() == "fresh"
        for start in range(0, self.KILL_AT, self.CHUNK):
            crashed.ingest(alerts[start:start + self.CHUNK])
        gateway = crashed.gateway
        gateway.flush()  # a barrier: every worker has run
        # region-B lives on plane 0 (worker 0), region-A on plane 1.
        os.kill(gateway._backend._workers[victim].pid, signal.SIGKILL)
        with pytest.raises(FleetError):
            for start in range(self.KILL_AT, len(alerts), self.CHUNK):
                crashed.ingest(alerts[start:start + self.CHUNK])
            # Free-running lanes surface the death at the next barrier.
            crashed.stop()
        crashed.abort()

        revived = self._process_service(tmp_path, ingress_lanes)
        assert revived.start() == "restored"
        assert revived.input_alerts > self.KILL_AT
        revived.ingest(alerts[revived.input_alerts:])
        stats = revived.stop(drain=True)
        assert _stats_payload(stats) == expected
