"""The online alert gateway: a thin ingress over region-partitioned planes.

This is the streaming counterpart of
:class:`~repro.core.mitigation.pipeline.MitigationPipeline`: instead of
re-running the reaction chain over a finished trace, the gateway accepts
one alert at a time (or micro-batches) and routes it to a plane: a
:class:`~repro.streaming.routing.PlaneRouter` assigns each *region* to
one of ``n_planes`` execution planes.  The whole mitigation chain is
region-local (R2 sessions key on ``(strategy, region)``, R3 evidence
requires equal regions, R4 flood rates are per ``(hour, region)``), so
each :class:`~repro.streaming.plane.RegionPlane` runs R1-R4 end to end
for its regions with no cross-plane coordination — its own
:class:`StreamProcessor`, :class:`OnlineCorrelator` and
:class:`OnlineStormDetector`, which therefore execute wherever the
pluggable :mod:`~repro.streaming.backends` (or an ingress lane) runs the
plane, not on the gateway loop.

What remains on the gateway loop is deliberately thin: route to a plane
buffer, track the watermark and the global novelty-warmup prefix, flush
buffered batches to the backend, and fold the planes' reports into
``stats``.  :class:`~repro.streaming.stats.GatewayStats` is the one
progress view: after :meth:`flush` (or any barrier) every
``stats.planes`` row is current, open sessions and components included.

Ingestion is one partition pass: :meth:`ingest_batch` routes events into
per-plane buffers and flushes them to the backend ``flush_size`` events
at a time (or whenever event time advances ``flush_interval`` seconds);
:meth:`ingest` is the same pass over a single event, processed
immediately at the ``serial`` default ``flush_size=1``.

Every scalar option is a field of
:class:`~repro.streaming.config.GatewayConfig` — declared there once,
with its default and whether a restore must reproduce it.

On the ``process`` backend, ``ingress_lanes > 1`` hands the pass over
to partitioned ingest lanes (:mod:`~repro.streaming.lanes`): the
caller's thread keeps only routing and stream-global accounting, while
lane threads wire-encode and ship per-plane flushes to the workers
concurrently — same end-of-run accounting, without the single-threaded
ingress ceiling.  The encoded batches cross via per-(lane, worker)
shared-memory rings (:mod:`~repro.streaming.rings`) by default — zero
payload copies between the lane's encoder and the worker's decoder —
with ``lane_transport="pipe"`` as the classic fallback.  ``serial``
always runs one lane: lane threads under the GIL only slow it down.

With ``learn_rules=True`` the gateway also *derives* its R1 rules
online: planes report per-flush observation digests, the
:class:`~repro.streaming.learning.OnlineRuleLearner` promotes/renews/
demotes TTL'd blocking rules from streaming A4/A5 detection, and rule
deltas apply to the gateway's blocker at flush barriers.
``enable_qoa=True`` scores per-strategy alert quality incrementally from
the same digests (:class:`~repro.streaming.qoa.StreamQoAScorer`), frozen
into ``stats.qoa`` at drain.  Both — and ``detect_antipatterns`` — fold
in this process, so they run on the ``serial`` backend only; all are off
by default and cost nothing when off.

On an in-order stream the end-of-run volume accounting (blocked,
aggregates, clusters) is *exactly* the batch pipeline's — the
reconciliation invariant ``GatewayStats.reconcile`` checks, for every
backend, plane count, and flush size.  Out-of-order events
are processed best-effort and counted in ``late_events``.

A flush or plane migration that fails part-way (a dead plane worker, a
lane error) poisons the gateway: the error is re-raised and every later
call refuses with "gateway already drained".  The buffers were already
handed over, so carrying on would silently run with a plane's state
missing.  Recovery is the serving layer's: restart the service from its
data directory and it restores the last snapshot and replays the
journal.

>>> gateway = AlertGateway(graph, blocker=blocker, n_planes=4,   # doctest: +SKIP
...                        backend="process", n_workers=4, flush_size=1024)
>>> gateway.ingest_batch(source)                                 # doctest: +SKIP
>>> stats = gateway.drain()                                      # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.common.validation import require_positive
from repro.core.mitigation.aggregation import AggregatedAlert
from repro.core.mitigation.blocking import AlertBlocker, rule_from_dict, rule_to_dict
from repro.core.mitigation.correlation import AlertCluster, DependencyRuleBook
from repro.streaming.backends import PlaneBackend, make_backend
from repro.streaming.config import GatewayConfig
from repro.streaming.detectors import StreamingDetectorSuite
from repro.streaming.lanes import LaneIngress
from repro.streaming.learning import OnlineRuleLearner
from repro.streaming.plane import PlaneConfig
from repro.streaming.qoa import StreamQoAScorer
from repro.streaming.routing import PlaneRouter
from repro.streaming.stats import GatewayStats
from repro.streaming.storm import DEFAULT_WARMUP_ALERTS
from repro.topology.graph import DependencyGraph

__all__ = ["AlertGateway"]


class AlertGateway:
    """Facade over the plane-partitioned online mitigation pipeline."""

    def __init__(
        self,
        graph: DependencyGraph,
        blocker: AlertBlocker | None = None,
        rulebook: DependencyRuleBook | None = None,
        **options,
    ) -> None:
        #: The configuration as given (validated); see ``checkpoint_config``
        #: for the record with live topology and effective values.
        self.options = options = GatewayConfig(**options)
        resolved = options.resolved()
        self._blocker = blocker or AlertBlocker()
        self.learner = (
            OnlineRuleLearner(options.learner_config)
            if options.learn_rules else None
        )
        self.qoa = StreamQoAScorer() if options.enable_qoa else None
        self.detectors = (
            StreamingDetectorSuite(
                thresholds=options.detector_thresholds,
                sketch_buckets=options.sketch_buckets,
            )
            if options.detect_antipatterns else None
        )
        self._config = PlaneConfig.from_options(
            options, graph, self._blocker, rulebook,
        )
        n_planes = options.n_planes
        self._plane_router = PlaneRouter(n_planes)
        self._backend: PlaneBackend = make_backend(options, self._config)
        # The one stream-global piece of R4 state: the novelty warmup is
        # defined over the first N *gateway* events, so the gateway counts
        # the warmup prefix of every plane buffer and hands it down.
        self._warmup_limit = (
            DEFAULT_WARMUP_ALERTS if options.enable_storm_detection else 0
        )
        self._flush_size = resolved.flush_size
        self._flush_interval = options.flush_interval
        self._buffers: list[list[Alert]] = [[] for _ in range(n_planes)]
        self._warmup_pending: list[int] = [0] * n_planes
        self._buffered = 0
        self._last_flush_watermark: float | None = None
        # Partitioned ingress (``process`` only): with more than one
        # effective lane the buffered path moves off this thread
        # entirely — see :mod:`repro.streaming.lanes`.  One lane is the
        # classic path (same thread, same flush schedule), so lane-count
        # parity tests compare against it directly.
        self._lanes: LaneIngress | None = None
        if resolved.ingress_lanes > 1:
            self._lanes = LaneIngress(
                self._backend, self._plane_router, resolved, self._warmup_limit,
            )
        self._drained = False
        self.stats = GatewayStats(
            n_planes=n_planes,
            backend=options.backend,
            n_workers=self._backend.n_workers,
            flush_size=self._flush_size,
            learning=options.learn_rules,
            qoa_enabled=options.enable_qoa,
            detect_enabled=options.detect_antipatterns,
        )
        self.aggregates: list[AggregatedAlert] = []
        self.clusters: list[AlertCluster] = []

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, alert: Alert) -> list[AggregatedAlert]:
        """Process one alert; returns aggregates the resulting flush closed.

        With the ``serial`` default ``flush_size=1`` the event is
        processed before this returns; larger flush sizes buffer it and
        return the emissions of whatever flush the event happened to
        trigger.  The ``process`` backend keeps emissions plane-side and
        returns ``[]`` (read ``stats`` after :meth:`flush` for progress,
        or drain to collect retained artifacts).  Without
        ``retain_artifacts`` R2 keeps no member ids, so returned
        aggregates carry ``alert_ids=()``; their ``count`` stays exact.
        """
        emitted: list[AggregatedAlert] = []
        self._ingest((alert,), emitted)
        return emitted

    def ingest_batch(self, alerts: Iterable[Alert]) -> int:
        """Feed a micro-batch (or a whole source) through the partition pass.

        Events are routed into per-plane buffers and handed to the
        execution backend ``flush_size`` at a time; end-of-run accounting
        is identical to per-event :meth:`ingest`.  Returns the count;
        no aggregate is handed back, so unless artifacts are retained no
        ``AggregatedAlert`` is built.  Buffered events persist across
        calls until a flush triggers or the gateway is drained.
        """
        return self._ingest(alerts, None)

    def _ingest(
        self, alerts: Iterable[Alert], emitted: list[AggregatedAlert] | None,
    ) -> int:
        """The one partition pass: route, watermark, warmup, flush trigger.

        ``emitted`` (per-event :meth:`ingest` only) collects what each
        triggered flush closed; it is consulted once per flush, never
        per alert.
        """
        if self._drained:
            raise ValidationError("gateway already drained; create a new one")
        if self._lanes is not None:
            # Lane emissions stay plane-side (counters only).
            return self._lanes.ingest(alerts, self.stats)
        stats = self.stats
        buffers = self._buffers
        warmup_pending = self._warmup_pending
        warmup_limit = self._warmup_limit
        plane_cache = self._plane_router.plane_cache
        plane_of = self._plane_router.plane_of
        flush_size = self._flush_size
        interval = self._flush_interval
        count = 0
        inputs = stats.input_alerts
        late = 0
        buffered = self._buffered
        watermark = stats.watermark
        # The finally block writes the loop-local counters back even when
        # the source iterable raises mid-stream: whatever was buffered
        # stays accounted for, so a caller that catches and drains still
        # reconciles.
        try:
            for alert in alerts:
                occurred_at = alert.occurred_at
                if watermark is None or occurred_at >= watermark:
                    watermark = occurred_at
                else:
                    late += 1
                    if (
                        interval is not None
                        and self._last_flush_watermark is not None
                        and occurred_at < self._last_flush_watermark
                    ):
                        # Late events must count against the interval
                        # trigger: after a forward watermark jump, an
                        # all-late tail keeps `watermark - last_flush`
                        # at zero and would stall interval flushes
                        # indefinitely.  Clamping the anchor to the late
                        # event's time re-arms the trigger.
                        self._last_flush_watermark = occurred_at
                plane = plane_cache.get(alert.region)
                if plane is None:
                    plane = plane_of(alert.region)
                buffers[plane].append(alert)
                count += 1
                inputs += 1
                if inputs <= warmup_limit:
                    warmup_pending[plane] += 1
                buffered += 1
                if self._last_flush_watermark is None:
                    self._last_flush_watermark = occurred_at
                if buffered >= flush_size or (
                    interval is not None
                    and watermark - self._last_flush_watermark >= interval
                ):
                    stats.watermark = watermark
                    stats.input_alerts = inputs
                    stats.late_events += late
                    late = 0
                    self._buffered = buffered
                    # Zero the local before flushing: if the backend
                    # raises, _flush has already consumed the buffers and
                    # the finally must not resurrect the stale count.
                    buffered = 0
                    flushed = self._flush(emitted is not None)
                    if emitted is not None:
                        emitted.extend(flushed)
                    buffered = self._buffered
                    buffers = self._buffers
                    warmup_pending = self._warmup_pending
        finally:
            stats.watermark = watermark
            stats.input_alerts = inputs
            stats.late_events += late
            self._buffered = buffered
        return count

    def drain(self) -> GatewayStats:
        """Flush every plane and finalise all state (end of stream)."""
        if self._drained:
            return self.stats
        self._flush()
        if self._lanes is not None:
            self._lanes.close()
        results = self._backend.drain(self.stats.watermark)
        results.sort(key=lambda result: result.plane_id)
        for result in results:
            self._set_plane_counters(result.plane_id, result.counters())
            if self.options.retain_artifacts:
                self.aggregates.extend(result.retained_aggregates or ())
                self.clusters.extend(result.retained_clusters or ())
        if self.options.retain_artifacts:
            # Planes finish independently; merge deterministically.
            self.aggregates.sort(
                key=lambda a: (a.window.start, a.strategy_id, a.region)
            )
            self.clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
        if self._config.collect_observations:
            # The drain flush closes the last R2 sessions; their groups
            # must land in the QoA counters before scores freeze.
            if self.qoa is not None:
                self.qoa.observe(self._gather_observations(results))
            if self.learner is not None:
                # Retiring the learned rules restores the caller's
                # blocker to its configured rule set.
                delta = self.learner.finish(
                    self.stats.watermark, self.stats.input_alerts,
                )
                if delta:
                    delta.apply_to(self._blocker)
                self.stats.set_learner_counters(self.learner.counters())
            if self.qoa is not None:
                self.stats.qoa = self.qoa.snapshot()
        if self.detectors is not None:
            # End of stream: close the R4 sketch's final partial window,
            # then freeze the online verdict summary into the stats.
            self.detectors.finish(self.stats.watermark)
            self.stats.detection = self.detectors.summary()
        self._refresh_totals()
        self.stats.mark_finished()
        self._drained = True
        self._backend.close()
        return self.stats

    def close(self) -> None:
        """Release backend resources *without* draining (service shutdown).

        The checkpointed service path: open window state is already
        durable in the snapshot + journal, so finalising it here (as
        :meth:`drain` would) is not just unnecessary — it would emit
        end-of-stream artifacts for a stream that has not ended.  The
        gateway is unusable afterwards; idempotent.
        """
        if self._drained:
            return
        self._drained = True
        if self._lanes is not None:
            self._lanes.close()
        self._backend.close()

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------
    def _poison(self) -> None:
        """Refuse all further use: a flush or a migration failed part-way."""
        self._drained = True
        try:
            if self._lanes is not None:
                self._lanes.close()
            self._backend.close()
        except Exception:
            pass

    def scale_planes(self, n_planes: int) -> dict[str, tuple[int, int]]:
        """Re-plane the live gateway to ``n_planes``, migrating state.

        A barrier: pending buffers flush first, then the
        :class:`~repro.streaming.routing.PlaneRouter` reassigns every
        known region to the plane a fresh ``n_planes`` ring would have
        given it (``first_seen_index % n_planes``), and each moved
        region's *entire* plane state — open R2 sessions, the R3
        correlator window + union-find, R4 ring counters and novelty
        state, its lifetime counter slice, and retained artifacts —
        migrates to its new plane (wire-packed across process
        boundaries on the ``process`` backend).  Scale-out and scale-in
        are both supported; either way the run drains bit-identical to
        a gateway built with the final plane count from the start
        (given the same flush barriers — with rule learning on, the
        learner's judgment positions follow the flush schedule, and
        ``scale_planes`` is itself a flush barrier).

        Returns the migration plan ``{region: (old_plane, new_plane)}``.
        Calling with the current plane count is a plain barrier: it
        flushes, moves nothing, and still counts as a scale event.
        """
        require_positive(n_planes, "n_planes")
        if self._drained:
            raise ValidationError("gateway already drained; create a new one")
        self._flush()
        stats = self.stats
        from_planes = stats.n_planes
        moved = self._plane_router.rescale(n_planes)
        try:
            reports = self._backend.scale(n_planes, moved)
        except BaseException:
            # The router already routes to the new topology and the
            # backend may have migrated some regions but not others;
            # further ingestion would silently split open sessions
            # across planes.  Poison the gateway so the failure stays
            # loud, then re-raise.
            self._poison()
            raise
        self._buffers = [[] for _ in range(n_planes)]
        self._warmup_pending = [0] * n_planes
        if self._lanes is not None:
            self._lanes.rescale(n_planes)
        stats.n_planes = n_planes
        stats.n_workers = self._backend.n_workers
        stats.plane_scales += 1
        stats.scales.append({
            "at_input": stats.input_alerts,
            "from_planes": from_planes,
            "to_planes": n_planes,
            "moved_regions": len(moved),
        })
        if self.learner is not None:
            self.learner.note_topology_change(stats.input_alerts)
        # Rebuild the per-plane accounting from the post-migration
        # reports: rows keyed by dead plane ids must not linger (the
        # totals merge would double-count their migrated history), and
        # surviving rows must reflect the counter slices that moved.
        stats.planes = {}
        for report in reports:
            self._set_plane_counters(report.plane_id, report.counters())
        self._refresh_totals()
        return moved

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    @property
    def at_flush_barrier(self) -> bool:
        """Whether no events are buffered (checkpoints require this).

        At a barrier every ingested event has been processed by its
        plane, so the backend's state plus the gateway's counters are a
        complete, consistent image of the stream so far.
        """
        if self._lanes is not None:
            return self._lanes.pending == 0
        return self._buffered == 0

    def flush(self) -> list[AggregatedAlert]:
        """Force a flush barrier, processing everything buffered.

        Note this is itself an observable event with rule learning on:
        every flush is a learner judgment round, so a forced flush — like
        ``scale_planes`` — changes the judgment schedule relative to a
        run that never forced one.
        """
        if self._drained:
            raise ValidationError("gateway already drained; create a new one")
        return self._flush(collect_emitted=True)

    def checkpoint_config(self) -> dict:
        """The configuration record (:meth:`GatewayConfig.record`), JSON-safe.

        Recorded in every checkpoint so a restore can rebuild an
        identically-configured gateway (the topology graph and rulebook
        are the caller's static inputs and stay outside the snapshot):
        the options as given, with the *live* topology and the effective
        flush size and lane count.
        """
        stats = self.stats
        return dataclasses.replace(
            self.options,
            n_planes=stats.n_planes,
            n_workers=stats.n_workers,
            flush_size=self._flush_size,
            ingress_lanes=self.ingress_lanes,
        ).record()

    def checkpoint_state(self) -> dict:
        """Capture the gateway's complete dynamic state (non-destructive).

        Only valid at a flush barrier (:attr:`at_flush_barrier`): the
        capture is then a consistent cut — every counter, the router
        map, the blocker table, learner/QoA state, and one wire-packed
        blob per (plane, region) — from which :meth:`adopt_checkpoint`
        on a fresh, identically-configured gateway continues the stream
        bit-identically.  ``blobs`` holds raw bytes; everything else is
        JSON-safe (the serving layer writes the two parts separately).
        """
        if self._drained:
            raise ValidationError("gateway already drained; nothing to checkpoint")
        if not self.at_flush_barrier:
            pending = (
                self._lanes.pending if self._lanes is not None else self._buffered
            )
            raise ValidationError(
                f"checkpoint requires a flush barrier; {pending} "
                f"event(s) still buffered (flush first or checkpoint "
                f"between batches)"
            )
        assignments = self._plane_router.assignments
        pairs = [(plane, region) for region, plane in assignments.items()]
        blobs = self._backend.checkpoint(pairs)
        return {
            "assignments": [[region, plane] for region, plane in assignments.items()],
            "rules": [rule_to_dict(rule) for rule in self._blocker.rules],
            "regions": [[plane, region] for plane, region in pairs],
            "blobs": blobs,
            "stats": self.stats.export_state(),
            "learner": (
                self.learner.export_state() if self.learner is not None else None
            ),
            "qoa": self.qoa.export_state() if self.qoa is not None else None,
            "detectors": (
                self.detectors.export_state()
                if self.detectors is not None else None
            ),
            "last_flush_watermark": self._last_flush_watermark,
        }

    def adopt_checkpoint(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` capture into this gateway.

        Only valid on a *fresh* gateway (nothing ingested) built with
        the checkpoint's recorded configuration.  Order matters: the
        blocker table is rebuilt first, so the process backend's workers
        — spawned during the backend restore — inherit it; then the
        router map, counters, learner/QoA state, and finally every
        plane's packed region state.
        """
        if self._drained:
            raise ValidationError("gateway already drained; create a new one")
        if self.stats.input_alerts or self._buffered:
            raise ValidationError(
                "checkpoints restore into a fresh gateway only; this one "
                "already ingested events"
            )
        if (state["learner"] is not None) != (self.learner is not None):
            raise ValidationError(
                "learner configuration mismatch: the checkpoint and this "
                "gateway disagree on learn_rules"
            )
        if (state["qoa"] is not None) != (self.qoa is not None):
            raise ValidationError(
                "QoA configuration mismatch: the checkpoint and this "
                "gateway disagree on enable_qoa"
            )
        # ``get``: absent from pre-online-detection checkpoints, which
        # could only have been written with detection off.
        detector_state = state.get("detectors")
        if (detector_state is not None) != (self.detectors is not None):
            raise ValidationError(
                "detector configuration mismatch: the checkpoint and this "
                "gateway disagree on detect_antipatterns"
            )
        # Rebuild the blocker to exactly the checkpointed table (the
        # caller's configured rules are a subset of it unless they were
        # learned away — the checkpoint is authoritative either way).
        blocker = self._blocker
        for rule in blocker.rules:
            blocker.remove_rule(rule)
        blocker.add_rules(rule_from_dict(row) for row in state["rules"])
        self._plane_router.restore(
            [(region, plane) for region, plane in state["assignments"]]
        )
        self.stats.restore_state(state["stats"])
        if self.learner is not None:
            self.learner.restore_state(state["learner"])
        if self.qoa is not None:
            self.qoa.restore_state(state["qoa"])
        if self.detectors is not None:
            self.detectors.restore_state(detector_state)
        watermark = state["last_flush_watermark"]
        self._last_flush_watermark = (
            float(watermark) if watermark is not None else None
        )
        self._backend.restore([
            (plane, blob)
            for (plane, _region), blob in zip(state["regions"], state["blobs"])
        ])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_planes(self) -> int:
        """Number of region-partitioned execution planes."""
        return self._backend.n_planes

    @property
    def ingress_lanes(self) -> int:
        """Effective ingest lane count (1 = classic single-threaded path)."""
        return self._lanes.n_lanes if self._lanes is not None else 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush(self, collect_emitted: bool = False) -> list[AggregatedAlert]:
        """Hand every buffered per-plane batch to the backend (a barrier).

        Returns the aggregates the flush closed only with
        ``collect_emitted`` (the public :meth:`ingest` and :meth:`flush`):
        the internal barriers need none built.  The buffers are consumed
        before the backend runs, so a failure past that point leaves the
        gateway half-applied: it is poisoned, then the error re-raised.
        """
        try:
            return self._flush_cycle(collect_emitted)
        except BaseException:
            self._poison()
            raise

    def _flush_cycle(self, collect_emitted: bool) -> list[AggregatedAlert]:
        if self._lanes is not None:
            return self._lane_barrier()
        if self._buffered == 0:
            return []
        started = time.perf_counter()
        batches = [
            (plane, batch, self._warmup_pending[plane])
            for plane, batch in enumerate(self._buffers)
            if batch
        ]
        n_planes = len(self._buffers)
        self._buffers = [[] for _ in range(n_planes)]
        self._warmup_pending = [0] * n_planes
        flushed = self._buffered
        self._buffered = 0
        stats = self.stats
        results = self._backend.flush(batches, stats.watermark, collect_emitted)
        results.sort(key=lambda result: result.plane_id)
        emitted_all: list[AggregatedAlert] = []
        for result in results:
            self._set_plane_counters(result.plane_id, result.counters())
            if result.emitted:
                emitted_all.extend(result.emitted)
        if self._config.collect_observations:
            self._learn(self._gather_observations(results))
        if self.detectors is not None:
            self._observe_detection(results)
        stats.flushes += 1
        self._last_flush_watermark = stats.watermark
        self._refresh_totals()
        stats.observe_flush(time.perf_counter() - started, flushed)
        return emitted_all

    def _lane_barrier(self) -> list[AggregatedAlert]:
        """Barrier the ingress lanes and fold their telemetry into stats.

        Lane threads flush to planes on their own schedule; the gateway
        only learns about it here — last per-plane lifetime counters,
        plus the flush count/latency accumulated since the previous
        barrier (observed as one amortised batch, like the classic
        path's per-flush observation).
        """
        stats = self.stats
        results, flushes, seconds, events = self._lanes.barrier(stats.watermark)
        stats.lane_stalls = self._lanes.stalls
        for result in results:
            self._set_plane_counters(result.plane_id, result.counters())
        if flushes:
            stats.flushes += flushes
            stats.observe_flush(seconds, events)
            self._last_flush_watermark = stats.watermark
        if results:
            self._refresh_totals()
        return []

    @staticmethod
    def _gather_observations(results) -> list[tuple]:
        """Concatenate per-plane digests in plane order (deterministic)."""
        return [
            row
            for result in results
            if result.observations
            for row in result.observations
        ]

    def _learn(self, observations: list[tuple]) -> None:
        """One learning/scoring step at a flush boundary.

        The learner's rule delta is applied to the blocker every plane
        shares *now*, before any further flush — so the rules a flush
        taught start blocking at the identical stream position whatever
        the plane count or flush size.
        """
        if self.qoa is not None:
            self.qoa.observe(observations)
        learner = self.learner
        if learner is not None:
            stats = self.stats
            delta = learner.observe(
                observations, stats.watermark, stats.input_alerts,
            )
            if delta:
                delta.apply_to(self._blocker)
            stats.set_learner_counters(learner.counters())

    def _observe_detection(self, results) -> None:
        """Fold this flush's per-plane detection digests into the suite.

        Results arrive sorted by plane id, so the fold order — and with
        it the sketch's within-window document order before its
        canonical sort — is deterministic for any plane count.
        """
        detectors = self.detectors
        watermark = self.stats.watermark
        for result in results:
            if result.detection:
                detectors.observe(result.detection, watermark)

    def _set_plane_counters(self, plane_id: int, counters: dict) -> None:
        counters["plane_id"] = plane_id
        counters["regions"] = list(self._plane_router.regions_of(plane_id))
        self.stats.planes[plane_id] = counters

    def _refresh_totals(self) -> None:
        """Merge per-plane lifetime counters into the gateway totals."""
        stats = self.stats
        counters = stats.planes.values()
        stats.blocked_alerts = sum(c["blocked"] for c in counters)
        stats.aggregates_emitted = sum(c["aggregates"] for c in counters)
        stats.clusters_finalized = sum(c["clusters"] for c in counters)
        stats.storm_episodes = sum(c["storm_episodes"] for c in counters)
        stats.emerging_flags = sum(c["emerging_flags"] for c in counters)
