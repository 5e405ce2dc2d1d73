"""Partitioned ingress lanes: the gateway ingress reduced to routing.

The classic ingest path does everything on the caller's thread: route,
buffer, and — on the ``process`` backend — wire-encode every flushed
batch before it crosses a pipe.  At one core that pass is a few µs per
event; at N planes on N cores it is *the* wall, because every plane's
feed serialises through it (the ROADMAP's "single-threaded ingress
ceiling").

:class:`LaneIngress` splits that work across **ingest lanes**, which
exist only to feed ``process`` workers.  The caller's thread keeps only
the irreducible sequential pass — a region → plane table hit
(:attr:`~repro.streaming.routing.PlaneRouter.plane_cache`), an append
into the plane's buffer, and the stream-global accounting (watermark,
late events, the novelty-warmup prefix).  Full per-plane batches are
handed to lane worker threads, which wire-encode them with a reusable
:class:`~repro.streaming.wire.AlertBatchBuilder` (encode once at the
lane, zero re-encode downstream) and hand the encoder's output parts to
``backend.lane_feed_parts``.  That writes them *in place* into the
(lane, worker) shared-memory ring (:mod:`~repro.streaming.rings`) — or,
on the ``pipe`` transport, joins and ships them over the worker's pipe
via the classic path — so lanes drive disjoint worker processes
concurrently without a gateway-side encode pass (or a per-batch payload
copy) in the way.  The ``serial`` backend never runs lanes: lane threads
under the GIL are slower than none.

Lanes own disjoint planes (``plane % n_lanes``), so no plane state is
ever touched by two lanes.  Exact parity with the classic path is a
hard invariant, and it follows from two existing frozen properties:

* end-of-run drain accounting is invariant to flush boundaries (the
  flush-size/backends parity harness), and lanes only ever change
  *where* flush boundaries fall (per-plane instead of gateway-global) —
  which is why rule learning, QoA and detection, whose judgments follow
  the flush schedule, never run beside lanes;
* each dispatched batch carries the stream-global watermark at its
  dispatch point — the same value the classic path hands
  ``backend.flush`` — so the R3 safety horizon advances through the
  identical sequence of cut points per plane substream.

Dispatch is backpressured: lane queues are bounded at
:data:`LANE_QUEUE_DEPTH` batches, so a slow worker stalls the ingest
thread (counted in :attr:`LaneIngress.stalls`, surfaced as
``GatewayStats.lane_stalls``) instead of ballooning gateway memory.

Thread contract: one ingest caller at a time (the gateway's existing
contract — the serving layer already serialises ingest under its
lock); lane threads never touch ``GatewayStats``; results and flush
telemetry cross back to the caller only at :meth:`barrier`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterable

from repro.alerting.alert import Alert
from repro.streaming.config import GatewayConfig
from repro.streaming.plane import PlaneReport
from repro.streaming.routing import PlaneRouter
from repro.streaming.stats import GatewayStats
from repro.streaming.wire import AlertBatchBuilder

__all__ = ["LaneIngress", "LANE_QUEUE_DEPTH", "LANE_JOIN_TIMEOUT"]

#: Bound on each lane's dispatch queue, in batches.  Deep enough that a
#: lane briefly behind its feed never stalls ingest, shallow enough
#: that a wedged worker caps buffered memory at a few flushes per lane.
LANE_QUEUE_DEPTH = 8

#: Per-thread join budget at :meth:`LaneIngress.close`.  A lane thread
#: still alive past this is surfaced as a hard error, not silently
#: leaked — a running lane holds a backend reference and may be blocked
#: inside a worker pipe exchange.
LANE_JOIN_TIMEOUT = 10.0


class LaneIngress:
    """Per-region ingest lanes feeding process workers (disjoint planes)."""

    def __init__(
        self,
        backend,
        router: PlaneRouter,
        config: GatewayConfig,
        warmup_limit: int,
    ) -> None:
        """``config`` is the gateway's *resolved* configuration."""
        n_planes = config.n_planes
        self._backend = backend
        self._router = router
        self._n_lanes = config.ingress_lanes
        self._flush_size = config.flush_size
        self._flush_interval = config.flush_interval
        self._warmup_limit = int(warmup_limit)
        self._buffers: list[list[Alert]] = [[] for _ in range(n_planes)]
        self._warmup_pending: list[int] = [0] * n_planes
        #: Per-plane interval anchor; clamped backwards by late events so
        #: a regressing source cannot stall interval flushes (the same
        #: fix the classic path's ``_last_flush_watermark`` got).
        self._interval_anchor: list[float | None] = [None] * n_planes
        self._buffered = 0
        self._queues: list[queue.Queue] | None = None
        self._threads: list[threading.Thread] = []
        self._errors: list[BaseException] = []
        #: Last flush result per plane (lifetime counters; lane threads
        #: write disjoint keys, the barrier reads after joining).
        self._last_results: dict[int, PlaneReport] = {}
        #: Blocking puts against the bounded lane queues (backpressure
        #: events); mutated on the ingest thread only.
        self.stalls = 0
        self._flush_counts: list[int] = [0] * self._n_lanes
        self._flush_seconds: list[float] = [0.0] * self._n_lanes
        self._flush_events: list[int] = [0] * self._n_lanes
        self._closed = False

    @property
    def n_lanes(self) -> int:
        """Number of ingest lane threads (clamped to the plane count)."""
        return self._n_lanes

    @property
    def pending(self) -> int:
        """Events not yet processed by a plane (buffered + in flight)."""
        in_flight = 0
        if self._queues is not None:
            in_flight = sum(q.unfinished_tasks for q in self._queues)
        return self._buffered + in_flight

    # ------------------------------------------------------------------
    # the sequential partition pass (caller thread)
    # ------------------------------------------------------------------
    def ingest(self, alerts: Iterable[Alert], stats: GatewayStats) -> int:
        """Route a batch into per-plane buffers, dispatching full ones.

        Mirrors the classic ``ingest_batch`` hot loop, minus everything
        that moved to the lanes; the try/finally keeps the accounting
        consistent when the source iterable raises mid-stream.
        """
        if self._queues is None:
            self._start()
        buffers = self._buffers
        warmup_pending = self._warmup_pending
        warmup_limit = self._warmup_limit
        anchors = self._interval_anchor
        plane_cache = self._router.plane_cache
        plane_of = self._router.plane_of
        flush_size = self._flush_size
        interval = self._flush_interval
        count = 0
        inputs = stats.input_alerts
        late = 0
        buffered = self._buffered
        watermark = stats.watermark
        try:
            for alert in alerts:
                occurred_at = alert.occurred_at
                if watermark is None or occurred_at >= watermark:
                    watermark = occurred_at
                else:
                    late += 1
                plane = plane_cache.get(alert.region)
                if plane is None:
                    plane = plane_of(alert.region)
                batch = buffers[plane]
                batch.append(alert)
                count += 1
                inputs += 1
                buffered += 1
                if inputs <= warmup_limit:
                    warmup_pending[plane] += 1
                if len(batch) >= flush_size:
                    buffered -= len(batch)
                    self._dispatch(plane, batch, watermark)
                elif interval is not None:
                    anchor = anchors[plane]
                    if anchor is None or occurred_at < anchor:
                        anchors[plane] = anchor = occurred_at
                    if watermark - anchor >= interval:
                        buffered -= len(batch)
                        self._dispatch(plane, batch, watermark)
        finally:
            stats.watermark = watermark
            stats.input_alerts = inputs
            stats.late_events += late
            self._buffered = buffered
        return count

    def _dispatch(
        self, plane: int, batch: list[Alert], watermark: float | None,
    ) -> None:
        """Hand one full per-plane batch to its owning lane."""
        self._buffers[plane] = []
        in_warmup = self._warmup_pending[plane]
        if in_warmup:
            self._warmup_pending[plane] = 0
        if self._flush_interval is not None:
            self._interval_anchor[plane] = watermark
        self._put(plane % self._n_lanes, (plane, batch, in_warmup, watermark))

    def _put(self, lane: int, item) -> None:
        """Enqueue onto a bounded lane queue, counting backpressure stalls.

        The fast path never blocks; a full queue falls back to a
        blocking put, so a slow worker throttles ingest (bounded memory)
        instead of the queue growing without limit.  Only the ingest
        thread calls this, so the stall counter needs no lock.
        """
        work = self._queues[lane]
        try:
            work.put_nowait(item)
        except queue.Full:
            self.stalls += 1
            work.put(item)

    # ------------------------------------------------------------------
    # lane workers
    # ------------------------------------------------------------------
    def _start(self) -> None:
        queues = [
            queue.Queue(maxsize=LANE_QUEUE_DEPTH) for _ in range(self._n_lanes)
        ]
        self._queues = queues
        for lane in range(self._n_lanes):
            thread = threading.Thread(
                target=self._lane_loop, args=(lane,),
                name=f"ingress-lane-{lane}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _lane_loop(self, lane: int) -> None:
        feed_parts = self._backend.lane_feed_parts
        builder = AlertBatchBuilder()
        work = self._queues[lane]
        results = self._last_results
        while True:
            item = work.get()
            if item is None:
                work.task_done()
                break
            plane, batch, in_warmup, watermark = item
            started = time.perf_counter()
            try:
                # Zero-copy hand-off: the encoder's output parts go
                # straight into the (lane, worker) shared-memory ring
                # (or the pipe, on the ``pipe`` transport).
                builder.extend(batch)
                results[plane] = feed_parts(
                    lane, plane, builder.finish_parts(), in_warmup, watermark,
                )
                self._flush_counts[lane] += 1
                self._flush_seconds[lane] += time.perf_counter() - started
                self._flush_events[lane] += len(batch)
            except BaseException as exc:  # surfaced at the next barrier
                # A failed feed must not leak half a batch into the next
                # one's encoding.
                builder.reset()
                self._errors.append(exc)
            finally:
                work.task_done()

    # ------------------------------------------------------------------
    # barriers and lifecycle (caller thread)
    # ------------------------------------------------------------------
    def barrier(
        self, watermark: float | None,
    ) -> tuple[list[PlaneReport], int, float, int]:
        """Dispatch partial buffers and wait for every lane to go idle.

        Returns ``(last per-plane results, flushes, seconds, events)``
        accumulated since the previous barrier.  Lane failures raise
        here, after the join, so the gateway's error surface stays on
        its own thread.
        """
        if self._buffered:
            for plane, batch in enumerate(self._buffers):
                if batch:
                    self._buffered -= len(batch)
                    self._dispatch(plane, batch, watermark)
        if self._queues is None:
            return [], 0, 0.0, 0
        for work in self._queues:
            work.join()
        if self._errors:
            error = self._errors[0]
            self._errors = []
            raise error
        results = [
            self._last_results[plane] for plane in sorted(self._last_results)
        ]
        flushes = sum(self._flush_counts)
        seconds = sum(self._flush_seconds)
        events = sum(self._flush_events)
        if flushes:
            self._flush_counts = [0] * self._n_lanes
            self._flush_seconds = [0.0] * self._n_lanes
            self._flush_events = [0] * self._n_lanes
        return results, flushes, seconds, events

    def close(self) -> None:
        """Stop the lane threads (queued work drains first); idempotent.

        A lane thread still alive after its join budget is surfaced as a
        ``RuntimeError`` naming the stuck lanes, never silently leaked:
        a running lane still holds the backend and may be mid-exchange
        on a worker pipe, so pretending it is gone would let the caller
        tear down resources the thread is actively using.
        """
        if self._closed:
            return
        self._closed = True
        if self._queues is None:
            return
        for work in self._queues:
            work.put(None)
        for thread in self._threads:
            thread.join(timeout=LANE_JOIN_TIMEOUT)
        stuck = [thread.name for thread in self._threads if thread.is_alive()]
        self._threads = []
        if stuck:
            raise RuntimeError(
                f"ingress lane thread(s) still running after "
                f"{LANE_JOIN_TIMEOUT:.0f}s shutdown join: {', '.join(stuck)}; "
                f"a plane worker is likely wedged (see worker_timeout) and "
                f"the lane is blocked on its pipe"
            )
