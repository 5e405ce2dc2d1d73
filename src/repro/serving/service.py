"""The long-running alert-gateway service: durable ingest with recovery.

:class:`AlertGatewayService` wraps one
:class:`~repro.streaming.gateway.AlertGateway` with the production
life cycle the paper's mitigation chain implies but one-shot CLI runs
cannot provide:

* **write-ahead journalling** — every accepted batch is appended to the
  event journal *before* the gateway processes it;
* **periodic checkpoints** — at natural flush barriers only, so with
  rule learning enabled the checkpoint never perturbs the learner's
  judgment schedule (a forced flush is a barrier, like a scale event);

The journal has three durability tiers (``journal_mode``), because
serialising a batch costs about a third of what the gateway spends
processing it (≈ 1.1 vs ≈ 2.9 µs per alert on the ``benchmarks/e2e``
storm; see :mod:`repro.serving.journal`):

* ``"lazy"`` (default) — appends are buffered in memory; a snapshot
  *discards* the buffer it covers unserialised, a graceful stop commits
  the tail.  Steady-state durability cost is the snapshot alone; a hard
  kill loses at most the events since the last snapshot (replay them
  from the source, from the restored position).  This is the
  Flink-style contract: checkpoint + source replay.
* ``"batch"`` — every append is serialised and flushed to the OS
  before the gateway sees the batch: a hard kill loses nothing that was
  acknowledged (the journal tail replays it).  For non-replayable
  sources (sockets, pipes).
* ``"sync"`` — ``"batch"`` plus fsync on every journal commit *and*
  every snapshot: survives host death, not just process death.
* **crash recovery** — :meth:`start` restores the newest valid snapshot
  and replays the journal tail, landing bit-identical to a process that
  never died;
* **graceful shutdown** — SIGTERM/SIGINT request a stop; :meth:`stop`
  flushes, snapshots, and releases the backend without draining (the
  stream has not ended — the *process* has);
* **operator surface** — :meth:`status` / :meth:`write_status` expose
  the full accounting, a bounded history ring for storm timelines, live
  QoA scores, the learned-rule event tail, and the service's own
  runtime metrics (checkpoint latency, journal volume, restores).

Ingest arrives either programmatically (:meth:`ingest` /
:meth:`run_stream`), over a newline-delimited-JSON socket
(:meth:`serve_socket`; the line ``STATS`` queries status), or from a
stdin pipe (:meth:`run_lines`).
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import DependencyRuleBook
from repro.io.traces import alert_from_dict
from repro.serving.checkpoint import (
    CheckpointLoader,
    CheckpointWriter,
    _snapshot_seq,
    checkpoint_of_gateway,
)
from repro.serving.journal import JournalWriter, journal_files, read_journal
from repro.serving.state import restore_gateway
from repro.streaming.config import GatewayConfig
from repro.streaming.gateway import AlertGateway
from repro.streaming.stats import GatewayStats
from repro.telemetry.runtime import RuntimeMetrics
from repro.topology.graph import DependencyGraph

__all__ = ["AlertGatewayService", "STATUS_FILENAME"]

STATUS_FILENAME = "stats.json"


class AlertGatewayService:
    """A durable, restartable gateway process around one service directory."""

    def __init__(
        self,
        graph: DependencyGraph,
        data_dir: str | Path,
        *,
        blocker: AlertBlocker | None = None,
        rulebook: DependencyRuleBook | None = None,
        checkpoint_every: int = 4096,
        retain_checkpoints: int = 3,
        journal_mode: str = "lazy",
        history_limit: int = 288,
        metrics: RuntimeMetrics | None = None,
        **gateway_options,
    ) -> None:
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be at least 1")
        if journal_mode not in ("lazy", "batch", "sync"):
            raise ValidationError(
                f"journal_mode must be 'lazy', 'batch' or 'sync', "
                f"not {journal_mode!r}"
            )
        self.graph = graph
        self.data_dir = Path(data_dir)
        self.blocker = blocker
        self.rulebook = rulebook
        self.checkpoint_every = int(checkpoint_every)
        self.journal_mode = journal_mode
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        #: The gateway's configuration (validated here, before any boot).
        self.config = GatewayConfig(**gateway_options)
        self.gateway: AlertGateway | None = None
        self._writer = CheckpointWriter(
            self.data_dir, retain=retain_checkpoints,
            sync=journal_mode == "sync",
        )
        self._loader = CheckpointLoader(self.data_dir)
        self._journal: JournalWriter | None = None
        self._epoch = 0
        self._since_checkpoint = 0
        self.checkpoints_written = 0
        self.recovered_from: int | None = None
        self.replayed_events = 0
        self.history: deque[dict] = deque(maxlen=history_limit)
        self._lock = threading.RLock()
        self._stop_requested = False
        self._draining = False
        self._server: socketserver.ThreadingTCPServer | None = None
        self._server_thread: threading.Thread | None = None
        # Wall clock is an informational stamp only — NTP steps make it
        # non-monotonic, so every *duration* derives from the monotonic
        # anchor instead.
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Boot the gateway: fresh, or restored from snapshot + journal.

        Returns ``"fresh"`` or ``"restored"``.  Restore picks the newest
        snapshot that passes checksum verification, then replays every
        journal record the snapshot has not seen (slicing partially-
        covered records), so the resumed stream continues at exactly the
        position the dead process had made durable — everything it
        accepted under ``journal_mode="batch"``/``"sync"``, the last
        snapshot plus any committed tail under ``"lazy"`` (re-feed the
        gap from the source, starting at :attr:`input_alerts`).
        """
        with self._lock:
            if self.gateway is not None:
                raise ValidationError("service already started")
            checkpoint = self._loader.latest()
            if checkpoint is None:
                # No snapshot — but a crash before the first checkpoint
                # still leaves journal records at epoch 0 to replay.
                self.gateway = AlertGateway(
                    self.graph, blocker=self.blocker, rulebook=self.rulebook,
                    **vars(self.config),
                )
                self._epoch = 0
                self.replayed_events = self._replay_journals(0)
                if self.replayed_events:
                    self.recovered_from = 0
                    self.metrics.increment("restores")
                    outcome = "restored"
                else:
                    outcome = "fresh"
            else:
                started = time.perf_counter()
                # Drift reference: what a fresh boot would record.
                self.gateway = restore_gateway(
                    checkpoint, self.graph, rulebook=self.rulebook,
                    expected_config=self.config.resolved().record(),
                )
                self._epoch = checkpoint.seq
                self.recovered_from = checkpoint.seq
                self.replayed_events = self._replay_journals(checkpoint.seq)
                self.metrics.observe(
                    "restore_seconds", time.perf_counter() - started,
                )
                self.metrics.increment("restores")
                outcome = "restored"
            self._open_journal()
            self._since_checkpoint = 0
            self._draining = False
            return outcome

    def _replay_journals(self, from_epoch: int) -> int:
        """Replay every journal record newer than the restored snapshot."""
        gateway = self.gateway
        replayed = 0
        for epoch, _part, path in journal_files(self.data_dir):
            if epoch < from_epoch:
                continue
            _header, records = read_journal(path)
            for start_index, alerts in records:
                have = gateway.stats.input_alerts
                if start_index + len(alerts) <= have:
                    continue  # fully covered by the snapshot
                gateway.ingest_batch(alerts[max(have - start_index, 0):])
                replayed += start_index + len(alerts) - max(have, start_index)
        self.metrics.increment("journal_replayed_events", replayed)
        return replayed

    def _open_journal(self) -> None:
        parts = [
            part for epoch, part, _ in journal_files(self.data_dir)
            if epoch == self._epoch
        ]
        part = max(parts) + 1 if parts else 0
        self._journal = JournalWriter(
            self.data_dir, self._epoch, part,
            sync=self.journal_mode == "sync",
            lazy=self.journal_mode == "lazy",
        )

    def stop(self, drain: bool = False) -> GatewayStats | None:
        """Graceful shutdown: flush, snapshot, release; idempotent-ish.

        With ``drain=True`` the stream is declared *finished*: the
        gateway drains (finalising every open window) and the final
        stats are returned — no snapshot is written, because a drained
        gateway is an ended stream, not a resumable one.  The default
        preserves the stream: force-flush, snapshot, write status, and
        release the backend so a later :meth:`start` resumes exactly
        here.
        """
        # Raised *before* taking the lock: socket handler threads already
        # queued on the lock re-check it inside ingest(), so no event can
        # slip in between the drain/flush and the snapshot/close.
        self._draining = True
        with self._lock:
            gateway = self.gateway
            if gateway is None:
                return None
            self.close_socket()
            if drain:
                stats = gateway.drain()
                events = (
                    [
                        [e.kind, e.strategy_id, e.at_input, e.at_time,
                         e.expires_at, e.reason]
                        for e in gateway.learner.events[-100:]
                    ]
                    if gateway.learner is not None else None
                )
                self._close_journal()
                self.write_status(final_stats=stats, final_rule_events=events)
                self.gateway = None
                return stats
            self.checkpoint(force=True)
            self.write_status()
            self._close_journal()
            gateway.close()
            self.gateway = None
            return None

    def abort(self) -> None:
        """Simulate a crash: release OS resources, write *nothing*.

        Test/chaos helper — the service directory is left exactly as a
        ``kill -9`` would leave it (snapshot possibly stale, journal
        possibly ahead of it, any *uncommitted* lazy-mode buffer lost),
        which is what :meth:`start` recovery is specified against.
        """
        self._draining = True
        with self._lock:
            self.close_socket()
            if self._journal is not None:
                self._journal.abandon()
                self._journal = None
            if self.gateway is not None:
                self.gateway.close()
                self.gateway = None

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    @property
    def input_alerts(self) -> int:
        """Events accepted so far (snapshot position + live ingest)."""
        gateway = self.gateway
        return gateway.stats.input_alerts if gateway is not None else 0

    def ingest(self, alerts: Iterable[Alert]) -> int:
        """Accept one batch: journal first, then process, then maybe snap.

        Raises :class:`~repro.common.errors.ValidationError` once a stop
        or abort is in flight: a batch accepted concurrently with the
        drain-and-snapshot would be journalled into an epoch the final
        snapshot never covers (or silently dropped after the gateway is
        released), so late callers get a refusal they can ack instead.
        """
        if self._draining:
            raise ValidationError("service is draining; ingest refused")
        with self._lock:
            if self._draining:
                raise ValidationError("service is draining; ingest refused")
            gateway = self._require_gateway()
            batch = list(alerts)
            if not batch:
                return 0
            self._journal.append(gateway.stats.input_alerts, batch)
            self.metrics.increment("journal_records")
            self.metrics.increment("journal_events", len(batch))
            count = gateway.ingest_batch(batch)
            self._since_checkpoint += count
            if self._since_checkpoint >= self.checkpoint_every:
                # Only at a natural barrier — a due-but-buffered tick
                # simply stays due until a later batch lands on one.
                self.checkpoint(force=False)
            return count

    def run_stream(
        self, source: Iterable[Alert], batch_size: int = 256,
    ) -> str:
        """Feed a source until it ends or a stop is requested.

        Returns ``"exhausted"`` or ``"stopped"`` — callers decide
        whether that means :meth:`stop(drain=True) <stop>` (a finished
        replay) or :meth:`stop` (a paused stream).
        """
        if batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        batch: list[Alert] = []
        for alert in source:
            # Keep the alert just pulled: the source has already handed
            # it over, so returning without it would lose it.
            batch.append(alert)
            if self._stop_requested:
                self.ingest(batch)
                return "stopped"
            if len(batch) >= batch_size:
                self.ingest(batch)
                batch = []
        if batch:
            self.ingest(batch)
        return "stopped" if self._stop_requested else "exhausted"

    def run_lines(self, lines: Iterable[str], batch_size: int = 256) -> str:
        """Stdin-pipe mode: one JSON alert per line (blank lines skipped)."""
        def decode() -> Iterator[Alert]:
            for line in lines:
                line = line.strip()
                if line:
                    yield alert_from_dict(json.loads(line))
        return self.run_stream(decode(), batch_size=batch_size)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, force: bool = False) -> Path | None:
        """Write one snapshot; rotates the journal to a new epoch.

        Without ``force`` the call is a no-op unless the gateway sits at
        a natural flush barrier (returns ``None`` otherwise); with
        ``force`` a flush is issued first — a barrier of its own, which
        with rule learning on is an extra learner judgment round
        (see :meth:`AlertGateway.flush`).
        """
        with self._lock:
            gateway = self._require_gateway()
            if not gateway.at_flush_barrier:
                if not force:
                    return None
                gateway.flush()
            started = time.perf_counter()
            seq = self._epoch + 1
            snapshot = checkpoint_of_gateway(gateway, seq)
            path = self._writer.write(snapshot)
            elapsed = time.perf_counter() - started
            # Every buffered journal record is now covered by the
            # snapshot: drop it unserialised instead of committing.
            self._journal.discard_pending()
            self._close_journal()
            self._epoch = seq
            self._open_journal()
            self._prune_journals()
            self._since_checkpoint = 0
            self.checkpoints_written += 1
            self.metrics.observe("checkpoint_write_seconds", elapsed)
            self.metrics.increment("checkpoints")
            if path.exists():  # retention may already have pruned it
                self.metrics.gauge("checkpoint_bytes", path.stat().st_size)
            self._record_tick(checkpoint_seq=seq, checkpoint_seconds=elapsed)
            return path

    def _prune_journals(self) -> None:
        """Drop journal epochs no retained snapshot could ever need."""
        # A foreign ``checkpoint-*.rck`` name parses to a negative seq;
        # it is no snapshot, so it can neither pin nor break pruning.
        seqs = [
            seq for seq in map(_snapshot_seq, self._loader.paths()) if seq >= 0
        ]
        if not seqs:
            return
        oldest = min(seqs)
        for epoch, _part, path in journal_files(self.data_dir):
            if epoch < oldest:
                path.unlink(missing_ok=True)

    def _record_tick(self, **extra) -> None:
        gateway = self.gateway
        stats = gateway.stats
        tick = {
            "at_input": stats.input_alerts,
            "watermark": stats.watermark,
            "blocked": stats.blocked_alerts,
            "aggregates": stats.aggregates_emitted,
            "clusters": stats.clusters_finalized,
            "storm_episodes": stats.storm_episodes,
            "emerging_flags": stats.emerging_flags,
            "rules_active": stats.rules_active,
            "wall_time": time.time(),  # informational stamp only
            "uptime": time.monotonic() - self._started_monotonic,
        }
        tick.update(extra)
        self.history.append(tick)

    # ------------------------------------------------------------------
    # operator surface
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The full operator view as one JSON-safe dict."""
        with self._lock:
            gateway = self._require_gateway()
            stats = gateway.stats
            payload = {
                "service": {
                    "data_dir": str(self.data_dir),
                    "started_at": self._started_at,
                    "uptime_seconds": time.monotonic() - self._started_monotonic,
                    "epoch": self._epoch,
                    "checkpoints_written": self.checkpoints_written,
                    "checkpoint_every": self.checkpoint_every,
                    "since_checkpoint": self._since_checkpoint,
                    "recovered_from": self.recovered_from,
                    "replayed_events": self.replayed_events,
                    "journal": {
                        "mode": self.journal_mode,
                        "path": str(self._journal.path)
                        if self._journal is not None else None,
                        "records": self._journal.records
                        if self._journal is not None else 0,
                        "pending_events": self._journal.pending_events
                        if self._journal is not None else 0,
                    },
                },
                "gateway": stats.snapshot(),
                "qoa_live": (
                    gateway.qoa.snapshot() if gateway.qoa is not None else None
                ),
                "detection_live": (
                    gateway.detectors.summary()
                    if gateway.detectors is not None else None
                ),
                "rule_events": (
                    [
                        [e.kind, e.strategy_id, e.at_input, e.at_time,
                         e.expires_at, e.reason]
                        for e in gateway.learner.events[-100:]
                    ]
                    if gateway.learner is not None else None
                ),
                "history": list(self.history),
                "metrics": self.metrics.snapshot(),
            }
            return payload

    def write_status(
        self,
        final_stats: GatewayStats | None = None,
        final_rule_events: list | None = None,
    ) -> Path:
        """Persist :meth:`status` (or final drained stats) to ``stats.json``."""
        path = self.data_dir / STATUS_FILENAME
        if final_stats is not None:
            payload = {
                "service": {
                    "data_dir": str(self.data_dir),
                    "epoch": self._epoch,
                    "checkpoints_written": self.checkpoints_written,
                    "drained": True,
                },
                "gateway": final_stats.snapshot(),
                "qoa_live": None,
                "rule_events": final_rule_events,
                "history": list(self.history),
                "metrics": self.metrics.snapshot(),
            }
        else:
            payload = self.status()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    # ------------------------------------------------------------------
    # signals and sockets
    # ------------------------------------------------------------------
    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful stop request."""
        signal.signal(signal.SIGTERM, self._handle_signal)
        signal.signal(signal.SIGINT, self._handle_signal)

    def _handle_signal(self, signum, _frame) -> None:
        self.metrics.increment(f"signal_{signal.Signals(signum).name}")
        self.request_stop()

    def request_stop(self) -> None:
        """Ask the ingest loops to wind down at the next batch boundary."""
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        """Whether a graceful stop has been requested."""
        return self._stop_requested

    def serve_socket(
        self, host: str = "127.0.0.1", port: int = 0,
    ) -> tuple[str, int]:
        """Listen for newline-delimited JSON alerts; returns (host, port).

        Line protocol: a JSON object per line is one alert
        (:func:`~repro.io.traces.alert_from_dict` fields); the literal
        line ``STATS`` answers with one JSON status line.  Connections
        are handled on daemon threads; ingest is serialised through the
        service lock, so accounting stays exact under concurrency.  A
        line that is not UTF-8, not JSON or not an alert record gets one
        ``REFUSED malformed line: <reason>`` line and is skipped; the
        connection stays open.  Once a stop/abort is in flight the
        connection gets one ``REFUSED <reason>`` line and closes — the
        sender knows its tail was not accepted and can replay it after
        the restart.
        """
        if self._server is not None:
            raise ValidationError("socket server already running")
        service = self

        class Handler(socketserver.StreamRequestHandler):
            def _refuse(self, reason: str) -> None:
                try:
                    self.wfile.write(f"REFUSED {reason}\n".encode("utf-8"))
                    self.wfile.flush()
                except OSError:
                    pass  # peer already gone; refusal is best-effort

            def _ingest(self, batch: list[Alert]) -> bool:
                try:
                    service.ingest(batch)
                except ValidationError as exc:
                    # Draining (or already stopped): refuse loudly
                    # instead of racing the shutdown snapshot.
                    self._refuse(str(exc))
                    return False
                return True

            def handle(self) -> None:
                batch: list[Alert] = []
                for raw in self.rfile:
                    try:
                        line = raw.decode("utf-8").strip()
                        alert = (
                            alert_from_dict(json.loads(line))
                            if line and line != "STATS" else None
                        )
                    except (ValueError, KeyError, TypeError) as exc:
                        # Bad UTF-8, JSON or alert record: refuse this
                        # line only; the alerts before it still ingest.
                        self._refuse(
                            f"malformed line: {type(exc).__name__}: {exc}"
                        )
                        continue
                    if line == "STATS":
                        if batch:
                            if not self._ingest(batch):
                                return
                            batch = []
                        reply = json.dumps(service.status()) + "\n"
                        self.wfile.write(reply.encode("utf-8"))
                        self.wfile.flush()
                        continue
                    if alert is None:
                        continue
                    batch.append(alert)
                    if len(batch) >= 256:
                        if not self._ingest(batch):
                            return
                        batch = []
                if batch:
                    self._ingest(batch)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True
            address_family = (
                socket.AF_INET6 if ":" in host else socket.AF_INET
            )

        self._server = Server((host, port), Handler)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="serving-ingest",
            daemon=True,
        )
        self._server_thread.start()
        bound = self._server.server_address
        return str(bound[0]), int(bound[1])

    def close_socket(self) -> None:
        """Stop the ingest socket (no-op when not listening)."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._server = None
            self._server_thread = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_gateway(self) -> AlertGateway:
        if self.gateway is None:
            raise ValidationError(
                "service not started (or already stopped); call start()"
            )
        return self.gateway
