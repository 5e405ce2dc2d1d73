"""Pluggable plane execution backends for the alert gateway.

The gateway routes events to region-partitioned execution planes; a
*backend* decides where each :class:`~repro.streaming.plane.RegionPlane`
lives and what executes it:

* ``serial`` — all planes in-process, in the calling thread, one after
  another.  Zero coordination overhead; the baseline ``process`` must
  reconcile against, and the only backend that learns rules, scores
  QoA or detects anti-patterns (those fold in the gateway's process).
* ``process`` — planes are partitioned across worker processes
  (``plane % n_workers``); event batches cross the pipe in the
  struct-packed :mod:`~repro.streaming.wire` format and flush replies
  are counter-only reports, so the per-event serialisation tax is
  a dictionary-encoded column write, not a pickled object graph.  True
  parallelism regardless of the GIL, for the plane chain only; ingress
  lanes (:mod:`~repro.streaming.lanes`) exist to feed these workers.

Both backends speak the same protocol — ``flush`` with a barrier per
call, ``scale`` for live re-planing, ``checkpoint``/``restore`` for
durable capture, ``drain``/``close`` for shutdown — and every call that
runs planes answers with one :class:`~repro.streaming.plane.PlaneReport`
per plane it touched.  Both produce *bitwise identical*
volume accounting: a plane's reaction chain only ever sees its own
regions' events in arrival order, so where it runs cannot change what it
counts.  The parity harness in ``tests/streaming/test_backends.py`` pins
that invariant down for every backend × plane count × flush size.

A backend is built from the gateway's one
:class:`~repro.streaming.config.GatewayConfig` (which backend, how many
planes and workers, lane transport, worker timeout) plus the
:class:`~repro.streaming.plane.PlaneConfig` derived from it that every
plane — and every worker process at spawn — receives.

Every wait on a worker pipe is bounded: a dead worker raises
:class:`~repro.streaming.fleet.WorkerDiedError` and a silent one
:class:`~repro.streaming.fleet.WorkerTimeoutError`.  The backend never
respawns a worker; the gateway poisons itself on the error, and recovery
is the serving layer's one snapshot + journal restore.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Protocol, Sequence

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.common.validation import require_positive
from repro.streaming.config import GatewayConfig
from repro.streaming.fleet import WorkerDiedError, WorkerTimeoutError
from repro.streaming.plane import PlaneConfig, PlaneReport, RegionPlane
from repro.streaming.rings import SpscRing
from repro.streaming.wire import (
    pack_aggregates,
    pack_alerts,
    pack_clusters,
    pack_plane_state,
    unpack_aggregates,
    unpack_alerts,
    unpack_clusters,
    unpack_plane_state,
)

__all__ = [
    "PlaneBatch",
    "PlaneBackend",
    "SerialPlaneBackend",
    "ProcessPlaneBackend",
    "make_backend",
]

#: Poll slice for bounded worker-pipe waits: short enough that a dead
#: worker is noticed within a slice or two, long enough that the liveness
#: check is amortised away on the hot path.
_POLL_SLICE = 0.05

#: Transient pipe-error retries per request (worker still alive).
_MAX_TRANSIENT_RETRIES = 3

#: One plane's slice of a flush cycle: (plane id, in-order alerts,
#: number of leading events inside the gateway-global novelty warmup).
PlaneBatch = tuple[int, list[Alert], int]


class PlaneBackend(Protocol):
    """The execution contract the gateway programs against."""

    name: str
    #: Worker processes executing the planes (1: the caller itself).
    n_workers: int

    @property
    def n_planes(self) -> int:
        """Number of execution planes this backend runs."""
        ...

    def flush(
        self,
        batches: Sequence[PlaneBatch],
        watermark: float | None,
        collect_emitted: bool = False,
    ) -> list[PlaneReport]:
        """Run one flush cycle; a barrier — returns when every plane is done.

        ``batches`` holds at most one batch per plane; events within a
        batch are in arrival order.  ``watermark`` caps each plane's R3
        safety horizon.  ``collect_emitted`` asks for the closed
        aggregates in each report's ``emitted`` (in-process planes only;
        worker replies stay counter-only).
        """
        ...

    def scale(
        self, n_planes: int, moved: dict[str, tuple[int, int]],
    ) -> list[PlaneReport]:
        """Re-plane to ``n_planes``, migrating each moved region's state.

        A barrier (the gateway flushes first, so no batch is in flight):
        every region in ``moved`` (``region -> (old plane, new plane)``)
        has its *entire* plane state — open R2 sessions, R3 window +
        union-find, R4 counters and novelty state, lifetime counter
        slice, retained artifacts — detached from its old plane and
        installed on its new one.  Dropped planes must have had all their
        regions exported, which the round-robin rescale guarantees.
        Returns a post-migration report of every plane, the gateway's
        new per-plane accounting baseline.
        """
        ...

    def checkpoint(self, pairs: Sequence[tuple[int, str]]) -> list[bytes]:
        """Wire-pack every (plane, region) slice, *non-destructively*.

        A barrier (the gateway flushes first).  Each pair's region state
        is exported, packed, and immediately re-adopted on the same
        plane — the same export/adopt round trip live scale-out performs
        cross-plane, whose invisibility the scale parity harness already
        pins down — so after the call the backend is exactly as it was,
        and the returned blobs (in ``pairs`` order) are a complete
        durable image of all plane-resident state.  The blocker table is
        not in the blobs: the checkpoint records it once, gateway-level.
        """
        ...

    def restore(self, adopts: Sequence[tuple[int, bytes]]) -> None:
        """Install checkpointed region blobs onto a *fresh* backend.

        ``adopts`` rows are ``(plane, packed state)`` in the checkpoint's
        first-seen region order.  Only valid before any event has
        flowed; the process backend spawns its workers here so the
        state lands in the processes that will run it.
        """
        ...

    def drain(self, watermark: float | None) -> list[PlaneReport]:
        """Flush all open plane state; the backend stays closeable only."""
        ...

    def close(self) -> None:
        """Release workers; idempotent."""
        ...


def _checkpoint_region(plane: RegionPlane, region: str) -> bytes:
    """Pack one region's plane state without disturbing the plane.

    ``export_region`` is destructive by design (it is the migration
    primitive), so a durable capture is export → pack → re-adopt on the
    same plane.
    """
    state = plane.export_region(region)
    blob = pack_plane_state(state)
    plane.adopt_region(state)
    return blob


class SerialPlaneBackend:
    """All planes execute inline in the calling thread."""

    name = "serial"
    n_workers = 1

    def __init__(self, n_planes: int, config: PlaneConfig) -> None:
        require_positive(n_planes, "n_planes")
        self._config = config
        self.planes = [RegionPlane(plane, config) for plane in range(n_planes)]

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    def flush(
        self,
        batches: Sequence[PlaneBatch],
        watermark: float | None,
        collect_emitted: bool = False,
    ) -> list[PlaneReport]:
        return [
            self.planes[plane].process_batch(
                alerts, in_warmup, watermark, collect_emitted,
            )
            for plane, alerts, in_warmup in batches
        ]

    def scale(
        self, n_planes: int, moved: dict[str, tuple[int, int]],
    ) -> list[PlaneReport]:
        require_positive(n_planes, "n_planes")
        planes = self.planes
        # Export everything first, then adopt: the round-robin rescale
        # can swap regions between two surviving planes.
        states = [
            planes[source].export_region(region)
            for region, (source, _) in moved.items()
        ]
        planes.extend(
            RegionPlane(plane, self._config)
            for plane in range(len(planes), n_planes)
        )
        dropped = planes[n_planes:]
        del planes[n_planes:]
        # Adopt before the dropped-plane emptiness check: if the check
        # ever fires, every exported region already lives on its
        # destination, so the failure is loud but non-destructive.
        for state, (_, destination) in zip(states, moved.values()):
            planes[destination].adopt_region(state)
        for plane in dropped:
            if plane.processed or plane.open_sessions:
                raise ValidationError(
                    f"plane {plane.plane_id} still owned state after its "
                    f"regions were exported; its history was not migrated"
                )
        return [plane.report() for plane in planes]

    def checkpoint(self, pairs: Sequence[tuple[int, str]]) -> list[bytes]:
        return [
            _checkpoint_region(self.planes[plane], region)
            for plane, region in pairs
        ]

    def restore(self, adopts: Sequence[tuple[int, bytes]]) -> None:
        for plane, blob in adopts:
            self.planes[plane].adopt_region(unpack_plane_state(blob))

    def drain(self, watermark: float | None) -> list[PlaneReport]:
        return [plane.drain(watermark) for plane in self.planes]

    def close(self) -> None:
        pass


def _plane_worker_loop(connection, plane_ids, config: PlaneConfig) -> None:
    """One process-backend worker: owns the planes assigned to it.

    Data-plane batches arrive either inline on the pipe (``flush``) or
    through a per-lane shared-memory ring announced by ``attach_ring``
    and signalled by ``ring_flush`` — the pipe then carries only the
    control message and the counter reply while the payload is decoded
    straight out of the ring slot via :class:`memoryview`, with zero
    copies between the lane thread's encode and this worker's decode.
    """
    planes = {plane: RegionPlane(plane, config) for plane in plane_ids}
    rings: dict[int, SpscRing] = {}
    try:
        _plane_worker_commands(connection, planes, rings, config)
    finally:
        for ring in rings.values():
            ring.close()


def _plane_worker_commands(connection, planes, rings, config) -> None:
    while True:
        try:
            kind, payload = connection.recv()
        except EOFError:
            break
        try:
            if kind == "ring_flush":
                # The hot lane path: the payload is already in shared
                # memory; peek validates seq/len/CRC and exposes the
                # slot as a memoryview the wire decoder reads in place.
                lane, plane_id, in_warmup, watermark = payload
                ring = rings[lane]
                view = ring.peek()
                try:
                    alerts = unpack_alerts(view)
                finally:
                    view.release()
                    ring.consume()
                result = planes[plane_id].process_batch(alerts, in_warmup, watermark)
                # List-shaped like a one-batch ``flush`` reply, so the
                # parent reads the same shape whichever transport
                # carried the batch.
                connection.send(("ok", [result]))
            elif kind == "attach_ring":
                lane, name = payload
                rings[lane] = SpscRing.attach(name)
                connection.send(("ok", None))
            elif kind == "flush":
                batches, watermark = payload
                results = [
                    # Artifacts stay worker-side until drain, so the
                    # reply is counters only (no ``collect_emitted``).
                    planes[plane_id].process_batch(
                        unpack_alerts(blob), in_warmup, watermark,
                    )
                    for plane_id, blob, in_warmup in batches
                ]
                connection.send(("ok", results))
            elif kind == "export_regions":
                # One packed blob per (plane, region), request order —
                # state crosses the pipe wire-packed, never pickled.
                connection.send(("ok", [
                    pack_plane_state(planes[plane].export_region(region))
                    for plane, region in payload
                ]))
            elif kind == "scale":
                create, drop, adopt = payload
                dropped = [(plane_id, planes.pop(plane_id)) for plane_id in drop]
                # New planes share the worker's spawn-time blocker.
                for plane_id in create:
                    planes[plane_id] = RegionPlane(plane_id, config)
                for plane_id, blob in adopt:
                    planes[plane_id].adopt_region(unpack_plane_state(blob))
                # Checked only after adoption: a failure here is loud
                # but non-destructive — migrated state already lives on
                # its destination planes (possibly in other workers).
                for plane_id, plane in dropped:
                    if plane.processed or plane.open_sessions:
                        raise ValueError(
                            f"plane {plane_id} still owned state after its "
                            f"regions were exported; its history was not "
                            f"migrated"
                        )
                connection.send(("ok", [
                    planes[plane].report() for plane in sorted(planes)
                ]))
            elif kind == "checkpoint":
                # Non-destructive capture: export → pack → re-adopt on
                # the same plane, one blob per (plane, region) pair in
                # request order.
                connection.send(("ok", [
                    _checkpoint_region(planes[plane], region)
                    for plane, region in payload
                ]))
            elif kind == "adopt":
                # Checkpoint restore: install packed region states on
                # this worker's freshly-built planes.
                for plane, blob in payload:
                    planes[plane].adopt_region(unpack_plane_state(blob))
                connection.send(("ok", None))
            elif kind == "drain":
                replies = []
                for plane_id in sorted(planes):
                    result = planes[plane_id].drain(payload)
                    aggregates = pack_aggregates(result.retained_aggregates)
                    clusters = pack_clusters(result.retained_clusters)
                    result.retained_aggregates = None
                    result.retained_clusters = None
                    replies.append((result, aggregates, clusters))
                connection.send(("ok", replies))
            elif kind == "stop":
                connection.send(("ok", None))
                break
            else:
                connection.send(("error", f"unknown command {kind!r}"))
        except Exception as exc:  # surface worker failures to the parent
            connection.send(("error", f"{type(exc).__name__}: {exc}"))


class ProcessPlaneBackend:
    """Planes are partitioned across worker processes.

    Workers are spawned lazily on first use, so constructing a gateway
    costs nothing until events flow.  Plane ``p`` lives in worker
    ``p % n_workers`` for the backend's whole lifetime — the distribution
    unit is the plane, so parallelism scales with plane count.  Ingress
    batches cross the pipe struct-packed
    (:func:`~repro.streaming.wire.pack_alerts`); flush replies are
    counter-only reports; retained artifacts come back packed once, at
    drain.
    """

    name = "process"

    def __init__(self, options: GatewayConfig, config: PlaneConfig) -> None:
        self._n_planes = options.n_planes
        self._requested_workers = options.requested_workers
        self.n_workers = min(self._requested_workers, self._n_planes)
        self._config = config
        self._workers: list[multiprocessing.Process] | None = None
        self._connections: list = []
        # Every pipe wait is bounded: a dead worker raises
        # WorkerDiedError instead of hanging recv, a silent one
        # WorkerTimeoutError after this many seconds.
        self._worker_timeout = options.worker_timeout
        # One lock per worker pipe, held across a send/recv round trip:
        # ingress lanes feed workers concurrently, and a pipe is only a
        # sane transport if exactly one request is in flight on it.
        self._locks: list[threading.Lock] = []
        self._start_lock = threading.Lock()
        self._closed = False
        # Zero-copy lane hand-off: one SPSC shared-memory ring per
        # (lane, worker) pair, created lazily on a lane's first feed to
        # that worker (under the worker's pipe lock) and unlinked at
        # close.  ``ring_spills`` counts batches that fell back to the
        # pipe (oversized for a slot, or no free slot).
        self.lane_transport = options.lane_transport
        self._rings: dict[tuple[int, int], SpscRing] = {}
        #: Per-(lane, worker) spill counts; each key is written by
        #: exactly one lane thread, so no lock is needed to sum them.
        self._spills: dict[tuple[int, int], int] = {}

    @property
    def n_planes(self) -> int:
        return self._n_planes

    def _worker_of(self, plane: int) -> int:
        return plane % self.n_workers

    def _planes_of(self, worker_id: int) -> list[int]:
        return [
            p for p in range(self._n_planes) if self._worker_of(p) == worker_id
        ]

    def _start(self) -> None:
        """Fork the fleet, one worker per plane set.

        Each fork inherits the parent's blocker; its table is fixed,
        because learning runs on the ``serial`` backend only.
        """
        context = multiprocessing.get_context()
        workers = []
        connections = []
        for worker_id in range(self.n_workers):
            parent_end, child_end = context.Pipe()
            worker = context.Process(
                target=_plane_worker_loop,
                args=(child_end, self._planes_of(worker_id), self._config),
                daemon=True,
            )
            worker.start()
            child_end.close()
            workers.append(worker)
            connections.append(parent_end)
        # Publish complete lists only: lane threads race through
        # _ensure_started's fast path as soon as _workers is non-None.
        self._connections = connections
        self._locks = [threading.Lock() for _ in workers]
        self._workers = workers

    def _ensure_started(self) -> None:
        if self._workers is not None:
            return
        with self._start_lock:
            if self._workers is None:
                self._start()

    # ------------------------------------------------------------------
    # bounded pipe exchanges
    # ------------------------------------------------------------------
    def _recv_reply(self, worker_id: int) -> tuple:
        """Bounded reply wait — never a bare ``recv`` on a worker pipe.

        Polls in short slices, checking worker liveness between them: a
        dead worker raises :class:`WorkerDiedError` (corpse joined, exit
        code attached) within a slice or two instead of blocking the
        gateway forever, and a live-but-silent worker raises
        :class:`WorkerTimeoutError` at ``worker_timeout``.
        """
        connection = self._connections[worker_id]
        worker = self._workers[worker_id]
        deadline = time.monotonic() + self._worker_timeout
        while True:
            try:
                if connection.poll(_POLL_SLICE):
                    return connection.recv()
            except (EOFError, OSError):
                break  # the pipe closed under us: the worker is gone
            if not worker.is_alive():
                # The worker may have replied and exited (a stop racing
                # its own reply): drain the pipe before declaring death.
                try:
                    if connection.poll(0):
                        return connection.recv()
                except (EOFError, OSError):
                    pass
                break
            if time.monotonic() >= deadline:
                raise WorkerTimeoutError(worker_id, self._worker_timeout)
        worker.join()
        raise WorkerDiedError(
            worker_id, worker.exitcode, tuple(self._planes_of(worker_id)),
        )

    def _exchange(
        self, worker_id: int, message: tuple, sent: bool = False,
    ) -> object:
        """One bounded request/reply (caller holds the worker's lock).

        ``sent`` marks a message the caller already dispatched.  A
        transient send error (worker alive) retries with backoff; a dead
        worker raises :class:`WorkerDiedError`, a failed command
        :class:`~repro.common.errors.ValidationError`.
        """
        transient = 0
        while not sent:
            try:
                self._connections[worker_id].send(message)
                sent = True
            except (BrokenPipeError, OSError) as exc:
                worker = self._workers[worker_id]
                if not worker.is_alive():
                    worker.join()
                    raise WorkerDiedError(
                        worker_id, worker.exitcode,
                        tuple(self._planes_of(worker_id)),
                    ) from exc
                transient += 1
                if transient > _MAX_TRANSIENT_RETRIES:
                    raise
                time.sleep(0.01 * transient)
        status, payload = self._recv_reply(worker_id)
        if status != "ok":
            raise ValidationError(f"plane worker {worker_id} failed: {payload}")
        return payload

    def _roundtrip(self, worker_ids: list[int], messages: list[tuple]) -> list:
        """Send to each worker, then gather — batches overlap in flight.

        Every involved pipe lock is taken up front, in worker order, so
        a barrier-style command can never interleave with an in-flight
        lane feed on the same pipe.  Deadlock-free: lane threads only
        ever hold a single lock, and multi-lock acquisition happens on
        the gateway thread alone.  The gather runs through
        :meth:`_exchange`, so every reply wait is bounded.
        """
        locks = [self._locks[worker_id] for worker_id in sorted(set(worker_ids))]
        for lock in locks:
            lock.acquire()
        try:
            dispatched = []
            for worker_id, message in zip(worker_ids, messages):
                try:
                    self._connections[worker_id].send(message)
                    dispatched.append(True)
                except (BrokenPipeError, OSError):
                    # A dead or flaky pipe: settle it in the gather,
                    # where the death/retry handling lives.
                    dispatched.append(False)
            return [
                self._exchange(worker_id, message, sent=sent)
                for (worker_id, message), sent
                in zip(zip(worker_ids, messages), dispatched)
            ]
        finally:
            for lock in locks:
                lock.release()

    @property
    def ring_spills(self) -> int:
        """Lane batches that fell back to the pipe (full ring/oversize)."""
        return sum(self._spills.values())

    def _ring_for(self, lane: int, worker_id: int) -> SpscRing:
        """The (lane, worker) ring, created and announced on first use.

        Called under the worker's pipe lock: the attach round trip can
        never interleave with another request on the same pipe, and the
        ring is fully attached worker-side before any ``ring_flush``
        references it.
        """
        ring = self._rings.get((lane, worker_id))
        if ring is None:
            ring = SpscRing.create()
            try:
                self._exchange(worker_id, ("attach_ring", (lane, ring.name)))
            except BaseException:
                ring.unlink()
                raise
            self._rings[(lane, worker_id)] = ring
        return ring

    def lane_feed_parts(
        self,
        lane: int,
        plane: int,
        parts: list[bytes],
        in_warmup: int,
        watermark: float | None,
    ) -> PlaneReport:
        """One lane batch as encoder output parts — the zero-copy path.

        ``parts`` is :meth:`~repro.streaming.wire.AlertBatchBuilder.
        finish_parts` output: buffers whose concatenation is the
        ``pack_alerts`` payload.  With the ``ring`` transport they are
        written in place into the (lane, worker) shared-memory ring and
        only a control message crosses the pipe; the worker decodes the
        slot via memoryview and replies with counters.  Batches that
        exceed the slot size (or find no free slot) spill to the classic
        pipe path, counted in :attr:`ring_spills` — slower, never wrong.
        With the ``pipe`` transport every batch takes the classic path.
        """
        if self._closed:
            raise ValidationError("process backend already closed")
        self._ensure_started()
        worker_id = self._worker_of(plane)
        with self._locks[worker_id]:
            message = None
            if self.lane_transport == "ring":
                if self._ring_for(lane, worker_id).try_write(parts) is not None:
                    message = ("ring_flush", (lane, plane, in_warmup, watermark))
                else:
                    key = (lane, worker_id)
                    self._spills[key] = self._spills.get(key, 0) + 1
            if message is None:
                message = (
                    "flush", ([(plane, b"".join(parts), in_warmup)], watermark)
                )
            payload = self._exchange(worker_id, message)
        return payload[0]

    def flush(
        self,
        batches: Sequence[PlaneBatch],
        watermark: float | None,
        collect_emitted: bool = False,
    ) -> list[PlaneReport]:
        # Emissions stay worker-side: ``collect_emitted`` is not honoured.
        if self._closed:
            raise ValidationError("process backend already closed")
        self._ensure_started()
        per_worker: dict[int, list[tuple[int, bytes, int]]] = {}
        for plane, alerts, in_warmup in batches:
            per_worker.setdefault(self._worker_of(plane), []).append(
                (plane, pack_alerts(alerts), in_warmup)
            )
        worker_ids = sorted(per_worker)
        replies = self._roundtrip(
            worker_ids,
            [("flush", (per_worker[w], watermark)) for w in worker_ids],
        )
        results: list[PlaneReport] = []
        for reply in replies:
            results.extend(reply)
        return results

    def scale(
        self, n_planes: int, moved: dict[str, tuple[int, int]],
    ) -> list[PlaneReport]:
        require_positive(n_planes, "n_planes")
        if self._closed:
            raise ValidationError("process backend already closed")
        old_planes = self._n_planes
        self._n_planes = int(n_planes)
        if self._workers is None:
            # Nothing has flowed, so there is no state to migrate; the
            # planes will be born on the new topology at first flush —
            # and since the fleet hasn't spawned yet, the worker clamp
            # can still follow the new plane count.
            self.n_workers = min(self._requested_workers, self._n_planes)
            return [PlaneReport(plane) for plane in range(self._n_planes)]
        # Round 1 — export: each source worker detaches its moved
        # regions' plane state and hands it back as packed bytes.
        exports: dict[int, list[tuple[int, str]]] = {}
        for region, (source, _) in moved.items():
            exports.setdefault(self._worker_of(source), []).append(
                (source, region)
            )
        blobs: dict[str, bytes] = {}
        if exports:
            worker_ids = sorted(exports)
            # An export is destructive: a death mid-migration loses
            # detached state, and the gateway poisons itself.
            replies = self._roundtrip(
                worker_ids,
                [("export_regions", exports[w]) for w in worker_ids],
            )
            for worker_id, reply in zip(worker_ids, replies):
                for (_, region), blob in zip(exports[worker_id], reply):
                    blobs[region] = blob
        # Round 2 — apply: every worker drops dead planes, creates its
        # share of new ones, and adopts the packed states routed to it.
        creates: dict[int, list[int]] = {w: [] for w in range(self.n_workers)}
        drops: dict[int, list[int]] = {w: [] for w in range(self.n_workers)}
        adopts: dict[int, list[tuple[int, bytes]]] = {
            w: [] for w in range(self.n_workers)
        }
        for plane in range(old_planes, n_planes):
            creates[self._worker_of(plane)].append(plane)
        for plane in range(n_planes, old_planes):
            drops[self._worker_of(plane)].append(plane)
        for region, (_, destination) in moved.items():
            adopts[self._worker_of(destination)].append(
                (destination, blobs[region])
            )
        worker_ids = list(range(self.n_workers))
        replies = self._roundtrip(worker_ids, [
            ("scale", (creates[w], drops[w], adopts[w]))
            for w in worker_ids
        ])
        reports: list[PlaneReport] = []
        for reply in replies:
            reports.extend(reply)
        reports.sort(key=lambda report: report.plane_id)
        return reports

    def checkpoint(self, pairs: Sequence[tuple[int, str]]) -> list[bytes]:
        if self._closed:
            raise ValidationError("process backend already closed")
        if not pairs:
            return []
        if self._workers is None:
            # No events have flowed, so no plane owns state yet — but a
            # region pair implies the gateway routed something, which
            # means a flush must have spawned the fleet first.
            raise ValidationError(
                "checkpoint requested for regions but no worker has run; "
                "flush before checkpointing"
            )
        per_worker: dict[int, list[tuple[int, str]]] = {}
        for plane, region in pairs:
            per_worker.setdefault(self._worker_of(plane), []).append(
                (plane, region)
            )
        worker_ids = sorted(per_worker)
        replies = self._roundtrip(
            worker_ids,
            [("checkpoint", per_worker[w]) for w in worker_ids],
        )
        blob_of: dict[tuple[int, str], bytes] = {}
        for worker_id, reply in zip(worker_ids, replies):
            for pair, blob in zip(per_worker[worker_id], reply):
                blob_of[pair] = blob
        return [blob_of[(plane, region)] for plane, region in pairs]

    def restore(self, adopts: Sequence[tuple[int, bytes]]) -> None:
        if self._closed:
            raise ValidationError("process backend already closed")
        if not adopts:
            return
        if self._workers is None:
            # Spawn now so the restored state lands in the worker
            # processes that will execute it; the spawn-time config
            # already carries the restored blocker table.
            self._ensure_started()
        per_worker: dict[int, list[tuple[int, bytes]]] = {}
        for plane, blob in adopts:
            per_worker.setdefault(self._worker_of(plane), []).append(
                (plane, blob)
            )
        worker_ids = sorted(per_worker)
        self._roundtrip(
            worker_ids,
            [("adopt", per_worker[w]) for w in worker_ids],
        )

    def drain(self, watermark: float | None) -> list[PlaneReport]:
        if self._workers is None:
            return [PlaneReport(plane) for plane in range(self._n_planes)]
        worker_ids = list(range(self.n_workers))
        replies = self._roundtrip(worker_ids, [("drain", watermark)] * self.n_workers)
        results: list[PlaneReport] = []
        for reply in replies:
            for result, aggregates, clusters in reply:
                result.retained_aggregates = unpack_aggregates(aggregates)
                result.retained_clusters = unpack_clusters(clusters)
                results.append(result)
        results.sort(key=lambda result: result.plane_id)
        return results

    @staticmethod
    def _join_worker(worker, grace: float = 5.0, term_grace: float = 2.0) -> None:
        """Join one worker, escalating terminate → kill; never a zombie.

        A worker that ignores its stop gets SIGTERM and a grace period;
        one that survives *that* gets SIGKILL, which cannot be ignored.
        Every path ends in a join, so no exit status is ever left
        unreaped for the kernel to hold as a zombie.
        """
        worker.join(timeout=grace)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=term_grace)
        if worker.is_alive():
            worker.kill()
            worker.join()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._workers is None:
            return
        for connection in self._connections:
            try:
                connection.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for connection in self._connections:
            try:
                if connection.poll(1.0):
                    connection.recv()
            except (EOFError, OSError):
                pass
            connection.close()
        for worker in self._workers:
            self._join_worker(worker)
        self._workers = None
        self._connections = []
        # Rings outlive the workers by design (a crashed worker must not
        # take the segment down with it); the creator retires them here,
        # exactly once, strictly after every worker is joined — never
        # before, so no attacher can still hold a slot mid-consume when
        # the segment goes away.
        for ring in self._rings.values():
            ring.unlink()
        self._rings = {}

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def make_backend(options: GatewayConfig, config: PlaneConfig) -> PlaneBackend:
    """Build the backend ``options.backend`` names.

    The lane-transport and worker-timeout options shape only the
    ``process`` backend's hand-off and fleet; ``serial`` has neither (no
    lanes, no workers) and takes just the plane count.
    """
    if options.backend == "serial":
        return SerialPlaneBackend(options.n_planes, config)
    return ProcessPlaneBackend(options, config)
