"""Region-partitioned execution planes: one self-contained R1-R4 chain.

A :class:`RegionPlane` is the unit of parallelism of the refactored
gateway.  It owns everything needed to run the mitigation chain for a
disjoint set of regions:

* one :class:`~repro.streaming.processor.StreamProcessor` (R1 blocking
  + R2 session-window dedup over the plane's whole sub-stream);
* one :class:`~repro.streaming.correlator.OnlineCorrelator` over the
  processor's aggregate-representative stream (R3 — exact, because
  correlation evidence requires equal regions, so no component can span
  planes);
* one :class:`~repro.streaming.storm.OnlineStormDetector` over the
  plane's raw in-order sub-stream (R4 — exact, because flood rates and
  novelty are keyed per region; the stream-global novelty warmup is
  threaded through as a per-batch ``in_warmup`` prefix computed by the
  gateway).

Because a plane touches nothing outside itself, the execution backends
can run whole planes on lane threads or worker processes: R3 correlation
and R4 detection execute there, off the gateway loop — the
gateway is reduced to routing, watermark tracking, and merging the
planes' reports into its stats.

R3 finalisation is plane-local: a future representative in this plane's
regions is either the current representative of one of this plane's
open sessions or an alert at or after the gateway watermark, so the
plane hands its sessions' representatives to the correlator as
``pending``.  Components are closed only when provably unreachable, so
end-of-run accounting is identical to the flat gateway for in-order
streams.  Without ``retain_artifacts`` the correlator also evicts the
members nothing can reach any more and counts clusters without building
them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.alerting.alert import Alert, AlertState
from repro.common.timeutil import HOUR
from repro.core.antipatterns.base import DetectorThresholds
from repro.ml.sketch import DEFAULT_SKETCH_BUCKETS, alert_document, hash_document
from repro.core.mitigation.aggregation import AggregatedAlert
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import (
    AlertCluster,
    CorrelationAnalyzer,
    DependencyRuleBook,
)
from repro.streaming.config import GatewayConfig
from repro.streaming.correlator import OnlineCorrelator
from repro.streaming.dedup import OpenSession
from repro.streaming.processor import StreamProcessor
from repro.streaming.storm import OnlineStormDetector, RegionStormState
from repro.topology.graph import DependencyGraph

__all__ = [
    "PlaneConfig",
    "PlaneReport",
    "PlaneRegionState",
    "RegionPlane",
]


@dataclass(slots=True)
class PlaneConfig:
    """Everything a worker needs to build a plane (picklable once, at spawn)."""

    graph: DependencyGraph
    blocker: AlertBlocker
    rulebook: DependencyRuleBook | None
    aggregation_window: float
    correlation_window: float
    correlation_max_hops: int
    enable_storm_detection: bool
    retain_artifacts: bool
    finalize_every: int
    #: When set, every flush reports per-(strategy, region) observation
    #: digests (seen/blocked/transient/groups) for the gateway's rule
    #: learner and QoA scorer.  Off by default: the plain gateway path
    #: pays nothing and its accounting stays bit-identical.
    collect_observations: bool = False
    #: A4 transient cut-off used when digesting — defaulted from the
    #: batch detectors' single source of truth so streaming evidence and
    #: batch A4/QoA can never silently disagree.
    intermittent_threshold: float = DetectorThresholds().intermittent_threshold
    #: When set, every flush also hands over a detection digest
    #: (strategy catalog, A2 lifecycle statistics, hashed R4 documents)
    #: for the gateway's online detector suite.  Off by default; only
    #: the in-process ``serial`` backend sets it.
    collect_detection: bool = False
    #: Bucket count of the R4 hashing sketch documents — must match the
    #: gateway suite's sketch width or the hashed ids are meaningless.
    sketch_buckets: int = DEFAULT_SKETCH_BUCKETS
    #: Raw event times kept per (strategy, region, hour) stat row.  A
    #: bucket that reaches this cap is by itself proof of a repeat-sized
    #: run, so nothing beyond it ever needs shipping; defaulted from the
    #: batch thresholds' single source of truth.
    detection_times_cap: int = DetectorThresholds().repeat_window_count

    @classmethod
    def from_options(
        cls,
        options: GatewayConfig,
        graph: DependencyGraph,
        blocker: AlertBlocker,
        rulebook: DependencyRuleBook | None,
    ) -> PlaneConfig:
        """The plane-side view of a gateway configuration."""
        thresholds = options.detector_thresholds
        return cls(
            graph=graph,
            blocker=blocker,
            rulebook=rulebook,
            aggregation_window=float(options.aggregation_window),
            correlation_window=float(options.correlation_window),
            correlation_max_hops=int(options.correlation_max_hops),
            enable_storm_detection=options.enable_storm_detection,
            retain_artifacts=options.retain_artifacts,
            finalize_every=int(options.finalize_every),
            collect_observations=options.learn_rules or options.enable_qoa,
            collect_detection=options.detect_antipatterns,
            sketch_buckets=int(options.sketch_buckets),
            detection_times_cap=thresholds.repeat_window_count,
            intermittent_threshold=thresholds.intermittent_threshold,
        )


@dataclass(slots=True)
class PlaneReport:
    """One plane's lifetime accounting, plus what a flush or drain hands back.

    :meth:`RegionPlane.process_batch`, :meth:`RegionPlane.drain` and
    :meth:`RegionPlane.report` all return it.  The counters are
    lifetime totals (a report with only ``plane_id`` is a plane that has
    seen nothing); the payload fields are ``None`` unless the call that
    built the report had something to hand back, so a counter-only
    worker reply pickles no lists.
    """

    plane_id: int
    processed: int = 0
    blocked: int = 0
    aggregates: int = 0
    clusters: int = 0
    storm_episodes: int = 0
    emerging_flags: int = 0
    open_sessions: int = 0
    active_components: int = 0
    retained_representatives: int = 0
    #: Aggregates closed by this flush, only when the caller asked for
    #: them (``collect_emitted``): the retained objects when artifacts are
    #: retained, else emitted for this reply.  ``None`` otherwise.
    emitted: list[AggregatedAlert] | None = None
    #: Per-(strategy, region) observation digests of this flush batch —
    #: ``(strategy_id, region, service, seen, blocked, transient, groups)``
    #: rows, in deterministic batch order.  ``None`` unless the plane was
    #: configured with ``collect_observations``.
    observations: list[tuple] | None = None
    #: Detection digest of this flush batch (strategy metadata catalog,
    #: per-hour severity statistics, hashed topic-sketch documents): the
    #: plain ``(catalog, stats, docs, doc_rows)`` tuple.  ``None`` unless
    #: configured with ``collect_detection``.
    detection: tuple | None = None
    #: Every aggregate and cluster the plane retained (drain only).
    retained_aggregates: list[AggregatedAlert] | None = None
    retained_clusters: list[AlertCluster] | None = None

    def counters(self) -> dict[str, int]:
        """The accounting fields as a plain dict (a ``stats.planes`` row)."""
        return {
            "processed": self.processed,
            "blocked": self.blocked,
            "aggregates": self.aggregates,
            "clusters": self.clusters,
            "storm_episodes": self.storm_episodes,
            "emerging_flags": self.emerging_flags,
            "open_sessions": self.open_sessions,
            "active_components": self.active_components,
            "retained_representatives": self.retained_representatives,
        }


@dataclass(slots=True)
class PlaneRegionState:
    """One region's complete slice of a plane — the migration unit.

    Live plane scale-out (``gateway.scale_planes``) detaches this from
    the region's old plane and installs it on the new one, in-process or
    across a worker pipe (wire-packed by
    :func:`~repro.streaming.wire.pack_plane_state`).  It carries
    *everything* plane-resident the region's events ever touched: open
    R2 sessions, open R3 components (window + union-find), the R4 state
    (:class:`~repro.streaming.storm.RegionStormState`), the region's
    lifetime counter slice and any retained artifacts.  No rule table:
    every plane reads the one blocker the gateway configured (or the
    copy a worker forked with), so the rules never need to travel.
    """

    region: str
    #: [processed, blocked, aggregates, clusters] lifetime counts.
    counters: list[int]
    sessions: list[OpenSession]
    #: R3 components: (member representatives in union order, max time).
    components: list[tuple[list[Alert], float]]
    storm: RegionStormState | None
    retained_aggregates: list[AggregatedAlert] = field(default_factory=list)
    retained_clusters: list[AlertCluster] = field(default_factory=list)


def _new_region_row() -> list[int]:
    """A fresh [processed, blocked, aggregates, clusters] counter row."""
    return [0, 0, 0, 0]


def _count_groups(
    digest: dict[tuple[str, str], list],
    closed: list[OpenSession],
) -> None:
    """Fold closed R2 sessions into a digest's ``groups`` column.

    Sessions may close for keys absent from the current batch (they
    opened flushes ago), so missing rows are created on demand (the
    representative carries the service the row needs).
    """
    for session in closed:
        key = (session.strategy_id, session.region)
        row = digest.get(key)
        if row is None:
            digest[key] = row = [0, 0, 0, 0, session.representative.service]
        row[3] += 1


def _digest_rows(digest: dict[tuple[str, str], list]) -> list[tuple]:
    """Flatten a digest dict into deterministic observation rows."""
    return [
        (strategy, region, row[4], row[0], row[1], row[2], row[3])
        for (strategy, region), row in digest.items()
    ]


class RegionPlane:
    """One execution plane: R1/R2 plus plane-local R3/R4."""

    __slots__ = (
        "plane_id",
        "_config",
        "processor",
        "_correlator",
        "_detector",
        "_retain",
        "_since_finalize",
        "processed",
        "blocked",
        "aggregates_emitted",
        "clusters_finalized",
        "aggregates",
        "clusters",
        "_region_counts",
        "_doc_cache",
    )

    def __init__(self, plane_id: int, config: PlaneConfig) -> None:
        self.plane_id = plane_id
        self._config = config
        # Member ids are artifacts too: without retention nothing reads
        # them, and a never-closing session would hoard them forever.
        self.processor = StreamProcessor(
            config.blocker, config.aggregation_window,
            keep_ids=config.retain_artifacts,
        )
        self._correlator = OnlineCorrelator(
            CorrelationAnalyzer(
                config.graph,
                rulebook=config.rulebook,
                max_hops=config.correlation_max_hops,
                time_window=config.correlation_window,
            ),
            keep_members=config.retain_artifacts,
        )
        self._detector = (
            OnlineStormDetector() if config.enable_storm_detection else None
        )
        self._retain = config.retain_artifacts
        self._since_finalize = 0
        # Lifetime counters (the processor keeps only open state).
        self.processed = 0
        self.blocked = 0
        self.aggregates_emitted = 0
        self.clusters_finalized = 0
        self.aggregates: list[AggregatedAlert] = []
        self.clusters: list[AlertCluster] = []
        # Per-region slices of the four lifetime counters above
        # ([processed, blocked, aggregates, clusters]): what lets a
        # region's whole accounting history migrate with it when the
        # gateway scales its plane topology.
        self._region_counts: dict[str, list[int]] = defaultdict(_new_region_row)
        # strategy -> (name, title, description, microservice, service,
        # hashed ids, counts): re-tokenising every alert would dominate
        # the detection digest; text changes invalidate per-field.
        self._doc_cache: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def storm_episodes(self) -> int:
        """Lifetime storm episodes detected on this plane's regions."""
        return self._detector.episode_count if self._detector is not None else 0

    @property
    def emerging_flags(self) -> int:
        """Lifetime emerging-alert flags raised on this plane's regions."""
        return self._detector.emerging_count if self._detector is not None else 0

    @property
    def open_sessions(self) -> int:
        """In-flight R2 sessions on this plane."""
        return self.processor.open_sessions

    def regions(self) -> list[str]:
        """Regions with recorded history on this plane, sorted.

        The keys of the per-region counter slices — exactly the regions
        whose state (and accounting) would migrate in a plane scale, and
        therefore exactly what a checkpoint of the plane must capture.
        """
        return sorted(self._region_counts)

    def report(self, **payload) -> PlaneReport:
        """This plane's accounting now, carrying ``payload`` fields."""
        correlator = self._correlator
        return PlaneReport(
            plane_id=self.plane_id,
            processed=self.processed,
            blocked=self.blocked,
            aggregates=self.aggregates_emitted,
            clusters=self.clusters_finalized,
            storm_episodes=self.storm_episodes,
            emerging_flags=self.emerging_flags,
            open_sessions=self.open_sessions,
            active_components=correlator.active_components,
            retained_representatives=correlator.retained,
            **payload,
        )

    # ------------------------------------------------------------------
    # the flush-cycle hot path
    # ------------------------------------------------------------------
    def process_batch(
        self,
        alerts: list[Alert],
        in_warmup: int,
        watermark: float | None,
        collect_emitted: bool = False,
    ) -> PlaneReport:
        """Run one micro-batch through the plane's whole reaction chain.

        ``alerts`` is this plane's slice of the stream in arrival order;
        ``in_warmup`` the leading-event count inside the gateway-global
        novelty warmup; ``watermark`` the gateway's max event time, below
        which R3 can finalise (one window back).  R2's closed sessions
        feed R3 and the counters directly; an ``AggregatedAlert`` is
        built only to retain it or, with ``collect_emitted``, to hand it
        back in ``emitted`` (the retained object when retaining).
        """
        if self._detector is not None:
            self._detector.ingest_batch(alerts, in_warmup)
        if self._config.collect_detection and alerts:
            # One pass builds both digests: the detection scan already
            # touches every alert, so the learner's rows ride along.
            detection, digest = self._detection_digest(
                alerts, with_observations=self._config.collect_observations,
            )
        else:
            detection = None
            digest = (
                self._digest(alerts)
                if self._config.collect_observations else None
            )
        # Per-region processed counts, run-compressed (one dict touch
        # per contiguous same-region run, not per event).
        region_counts = self._region_counts
        n = len(alerts)
        index = 0
        while index < n:
            region = alerts[index].region
            stop = index + 1
            while stop < n and alerts[stop].region == region:
                stop += 1
            region_counts[region][0] += stop - index
            index = stop
        blocked_by_region: dict[str, int] = {}
        blocked, closed = self.processor.ingest_batch(
            alerts, blocked_by_region,
        )
        for region, count in blocked_by_region.items():
            region_counts[region][1] += count
        emitted = self._close_sessions(closed, collect_emitted)
        self.processed += len(alerts)
        self.blocked += blocked
        self._since_finalize += len(alerts)
        if self._since_finalize >= self._config.finalize_every and watermark is not None:
            self._since_finalize = 0
            self._finalize_ready(watermark)
        if digest is not None:
            _count_groups(digest, closed)
        return self.report(
            emitted=emitted,
            observations=_digest_rows(digest) if digest is not None else None,
            detection=detection,
        )

    def _close_sessions(
        self, closed: list[OpenSession], collect_emitted: bool,
    ) -> list[AggregatedAlert] | None:
        """Hand R2's closed sessions to R3 and the counters.

        Emits each session's ``AggregatedAlert`` at most once: to retain
        it, or, with ``collect_emitted``, for the caller; returns the
        collected aggregates (else ``None``).
        """
        correlator = self._correlator
        region_counts = self._region_counts
        for session in closed:
            correlator.add(session.representative)
            # A session may close flushes (or a migration) after its
            # region's last alert here, so rows appear on demand.
            region_counts[session.region][2] += 1
        self.aggregates_emitted += len(closed)
        if not (self._retain or collect_emitted):
            return None
        emitted = [session.emit() for session in closed]
        if self._retain:
            self.aggregates.extend(emitted)
        return emitted if collect_emitted else None

    def _digest(self, alerts: list[Alert]) -> dict[tuple[str, str], list]:
        """Per-(strategy, region) seen/blocked/transient over one batch.

        Measured on the *pre-R1* stream: the learner's evidence must not
        depend on its own blocking decisions.  The blocked count re-tests
        the shared blocker — identical rules to the processor's pass,
        because rule deltas only ever land between flushes — and skips
        the scan entirely for unruled strategies, mirroring its fast path.
        Each row also records the strategy's service (from its first
        alert of the batch), the key the learner's adaptive per-
        (service, region) baselines aggregate by.
        """
        blocker = self._config.blocker
        ruled = blocker.ruled_strategies
        is_blocked = blocker.is_blocked
        threshold = self._config.intermittent_threshold
        digest: dict[tuple[str, str], list] = {}
        for alert in alerts:
            strategy = alert.strategy_id
            key = (strategy, alert.region)
            row = digest.get(key)
            if row is None:
                digest[key] = row = [0, 0, 0, 0, alert.service]
            row[0] += 1
            if strategy in ruled and is_blocked(alert):
                row[1] += 1
            if alert.is_transient(threshold):
                row[2] += 1
        return digest

    def _detection_digest(
        self, alerts: list[Alert], with_observations: bool = False,
    ):
        """Build this batch's detection digest (pre-R1 stream).

        Catalog rows carry each strategy's deterministic first-seen
        metadata (smallest ``(occurred_at, alert_id)`` of the batch) and
        its latest event time; stat rows bucket the A2 lifecycle
        evidence per (strategy, region, hour); doc rows hash each
        alert's R4 document against the configured sketch width, with
        repeats of a strategy's unchanged document deduplicated into
        one shared table entry.
        Returns ``(detection, observations)`` — the digest as the plain
        ``(catalog, stats, docs, doc_rows)`` tuple plus, with
        ``with_observations``, the learner digest :meth:`_digest`
        builds, folded in the same pass.
        """
        config = self._config
        cap = config.detection_times_cap
        threshold = config.intermittent_threshold
        n_buckets = config.sketch_buckets
        cache = self._doc_cache
        hour = HOUR
        manual_state = AlertState.CLEARED_MANUAL
        auto_state = AlertState.CLEARED_AUTO
        with_obs = with_observations
        ruled = is_blocked = None
        if with_obs:
            blocker = config.blocker
            ruled = blocker.ruled_strategies
            is_blocked = blocker.is_blocked
        # One dict probe per alert: sid -> [first-seen alert, latest
        # occurred_at, cached doc, doc-table entry,
        # {region: observation row}, {(region, bucket): stat row}].
        # The inner keys drop the shared sid, so their hashes are cheap.
        per_sid: dict[str, list] = {}
        docs: list[tuple] = []
        doc_rows: list[tuple] = []
        for alert in alerts:
            sid = alert.strategy_id
            at = alert.occurred_at
            region = alert.region
            state = alert.state
            cleared = alert.cleared_at
            # ``Alert.is_transient``, inlined for the hot loop.
            transient = (
                state is auto_state
                and cleared is not None
                and cleared - at < threshold
            )
            srec = per_sid.get(sid)
            if srec is None:
                per_sid[sid] = srec = [
                    alert, at, cache.get(sid), None, {}, {},
                ]
            else:
                # First-seen metadata: smallest (event time, id) wins.
                held = srec[0]
                if at < held.occurred_at or (
                    at == held.occurred_at and alert.alert_id < held.alert_id
                ):
                    srec[0] = alert
                if at > srec[1]:
                    srec[1] = at
            if with_obs:
                orow = srec[4].get(region)
                if orow is None:
                    srec[4][region] = orow = [0, 0, 0, 0, alert.service]
                orow[0] += 1
                if sid in ruled and is_blocked(alert):
                    orow[1] += 1
                if transient:
                    orow[2] += 1
            skey = (region, int(at // hour))
            row = srec[5].get(skey)
            if row is None:
                srec[5][skey] = row = [0, 0, 0, 0, 0.0, []]
            row[0] += 1
            if transient:
                row[1] += 1
            else:
                # Steady-alert lifecycle evidence (the A2 impact proxy).
                if state is manual_state:
                    row[2] += 1
                if cleared is not None:
                    row[3] += 1
                    row[4] += cleared - at
            if len(row[5]) < cap:
                row[5].append(at)
            cached = srec[2]
            if (
                cached is None
                or cached[0] != alert.strategy_name
                or cached[1] != alert.title
                or cached[2] != alert.description
                or cached[3] != alert.microservice
                or cached[4] != alert.service
            ):
                ids, counts = hash_document(alert_document(alert), n_buckets)
                cached = (
                    alert.strategy_name, alert.title, alert.description,
                    alert.microservice, alert.service, (ids, counts),
                )
                cache[sid] = cached
                srec[2] = cached
            content = cached[5]
            if not content[0]:
                continue
            entry = srec[3]
            if entry is None or entry[0] is not content:
                srec[3] = entry = (content, len(docs))
                docs.append(content)
            doc_rows.append((at, sid, entry[1]))
        ordered = sorted(per_sid.items())
        observations = None
        if with_obs:
            observations = {
                (sid, region): orow
                for sid, srec in ordered
                for region, orow in srec[4].items()
            }
        catalog = [
            (
                sid, alert.occurred_at, alert.alert_id, alert.title,
                alert.description, alert.severity.value, alert.service,
                srec[1],
            )
            for sid, srec in ordered
            for alert in (srec[0],)
        ]
        stat_rows = [
            (sid, region, bucket, *row[:5], tuple(row[5]))
            for sid, srec in ordered
            for (region, bucket), row in sorted(srec[5].items())
        ]
        return (catalog, stat_rows, docs, doc_rows), observations

    def _finalize_ready(self, watermark: float) -> None:
        """Close correlation components no future representative can join."""
        self._count_clusters(*self._correlator.finalize_ready(
            watermark, self.processor.open_representatives(),
        ))

    def _count_clusters(
        self, closed: dict[str, int], clusters: list[AlertCluster],
    ) -> None:
        """Fold finalised components into plane and per-region counters
        (and their clusters, when artifacts are retained)."""
        region_counts = self._region_counts
        for region, count in closed.items():
            self.clusters_finalized += count
            region_counts[region][3] += count
        self.clusters.extend(clusters)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def export_region(self, region: str) -> PlaneRegionState:
        """Detach one region's entire slice of this plane (scale-out).

        Open R2 sessions leave the processor, open R3 components leave
        the correlator, the R4 region state leaves the detector, and the
        region's lifetime counter slice (plus its retained artifacts,
        when artifacts are retained) is subtracted from this plane's
        totals — so after the export this plane accounts only for the
        regions it still owns, and the adopting plane continues the
        region's stream exactly where it left off.
        """
        sessions = self.processor.export_region(region)
        components = self._correlator.export_region(region)
        storm = (
            self._detector.export_region(region)
            if self._detector is not None else None
        )
        counters = self._region_counts.pop(region, None) or _new_region_row()
        self.processed -= counters[0]
        self.blocked -= counters[1]
        self.aggregates_emitted -= counters[2]
        self.clusters_finalized -= counters[3]
        retained_aggregates: list[AggregatedAlert] = []
        retained_clusters: list[AlertCluster] = []
        if self._retain:
            retained_aggregates = [
                a for a in self.aggregates if a.region == region
            ]
            self.aggregates = [
                a for a in self.aggregates if a.region != region
            ]
            retained_clusters = [
                c for c in self.clusters if c.alerts[0].region == region
            ]
            self.clusters = [
                c for c in self.clusters if c.alerts[0].region != region
            ]
        return PlaneRegionState(
            region=region,
            counters=counters,
            sessions=sessions,
            components=components,
            storm=storm,
            retained_aggregates=retained_aggregates,
            retained_clusters=retained_clusters,
        )

    def adopt_region(self, state: PlaneRegionState) -> None:
        """Install a region's slice exported from another plane.

        Sessions, components and R4 state are re-installed verbatim; the
        counter slice joins this plane's totals.
        """
        region = state.region
        self.processor.adopt(state.sessions)
        self._correlator.adopt_region(region, state.components)
        if self._detector is not None and state.storm is not None:
            self._detector.adopt_region(state.storm)
        counters = state.counters
        row = self._region_counts[region]
        for slot in range(4):
            row[slot] += counters[slot]
        self.processed += counters[0]
        self.blocked += counters[1]
        self.aggregates_emitted += counters[2]
        self.clusters_finalized += counters[3]
        if self._retain:
            self.aggregates.extend(state.retained_aggregates)
            self.clusters.extend(state.retained_clusters)

    def drain(self, watermark: float | None) -> PlaneReport:
        """Flush all open state at end of stream and report final totals."""
        closed = self.processor.drain()
        self._close_sessions(closed, collect_emitted=False)
        self._count_clusters(*self._correlator.drain())
        if self._detector is not None and watermark is not None:
            self._detector.finish(watermark)
        observations = None
        if self._config.collect_observations:
            digest: dict[tuple[str, str], list] = {}
            _count_groups(digest, closed)
            observations = _digest_rows(digest)
        return self.report(
            retained_aggregates=self.aggregates,
            retained_clusters=self.clusters,
            observations=observations,
        )
