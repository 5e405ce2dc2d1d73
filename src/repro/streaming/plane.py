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
  plane's raw in-order sub-stream, before R1 drops anything (R4 — exact,
  because flood rates and novelty are keyed per region, one record per
  region; the stream-global novelty warmup is threaded through as a
  per-batch ``in_warmup`` prefix computed by the gateway).

Because a plane touches nothing outside itself, the execution backends
can run whole planes on lane threads or worker processes: R3 correlation
and R4 detection execute there, off the gateway loop — the
gateway is reduced to routing, watermark tracking, and merging the
planes' reports into its stats.

A flush or drain hands back counters only.  With ``count_groups`` it
also reports ``groups``, the R2 sessions it closed per (strategy,
region): the one figure the gateway cannot read off a flush's pre-R1
batches, from which it folds the rule learner's and QoA scorer's
evidence itself (:func:`~repro.streaming.learning.flush_observations`),
as anti-pattern detection does (:mod:`~repro.streaming.detectors`).

R3 finalisation is plane-local: a future representative in this plane's
regions is either the current representative of one of this plane's
open sessions or an alert at or after the gateway watermark, so the
plane hands its sessions' representatives to the correlator as
``pending``.  Components are closed only when provably unreachable, so
end-of-run accounting is identical to the flat gateway for in-order
streams.  Without ``retain_artifacts`` the correlator also evicts the
members nothing can reach any more and counts clusters without building
them.

The plane is also the checkpoint unit: :meth:`RegionPlane.pack` reads
its whole state into one :class:`PlaneState` blob (one string table for
its sessions, R3 components and timeline ties, R4 region records and
retained artifacts, beside the lifetime counters, the finalize countdown
and R3's and R4's sweep memory), and :meth:`RegionPlane.adopt` installs
that record on a fresh plane, which then runs and captures exactly as
the captured plane would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alerting.alert import Alert
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
from repro.streaming.wire import pack_plane_state
from repro.topology.graph import DependencyGraph

__all__ = [
    "PlaneConfig",
    "PlaneReport",
    "PlaneState",
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
    #: When set, every flush and drain reports ``groups``: the R2
    #: sessions it closed per (strategy, region), for the gateway's rule
    #: learner and QoA scorer.  Off by default: the plain gateway path
    #: pays nothing.
    count_groups: bool = False

    @classmethod
    def from_options(
        cls,
        options: GatewayConfig,
        graph: DependencyGraph,
        blocker: AlertBlocker,
        rulebook: DependencyRuleBook | None,
    ) -> PlaneConfig:
        """The plane-side view of a gateway configuration."""
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
            count_groups=options.learn_rules or options.enable_qoa,
        )


@dataclass(slots=True)
class PlaneReport:
    """One plane's lifetime accounting, plus what a flush or drain hands back.

    :meth:`RegionPlane.process_batch`, :meth:`RegionPlane.drain` and
    :meth:`RegionPlane.report` all return it.  The counters are
    lifetime totals (a report with only ``plane_id`` is a plane that has
    seen nothing); the payload fields are ``None`` unless the call that
    built the report had something to hand back, so a counter-only
    worker reply pickles no containers.
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
    #: R2 sessions this flush or drain closed, per (strategy, region),
    #: keys in close order.  ``None`` unless the plane was configured
    #: with ``count_groups``.
    groups: dict[tuple[str, str], int] | None = None
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
class PlaneState:
    """A plane's complete state — the checkpoint unit.

    A checkpoint builds this from live state and wire-packs it at once
    (:meth:`RegionPlane.pack`); a restore adopts the unpacked record
    onto the plane of the same id in a fresh gateway, in-process or in a
    worker.  It carries *everything* plane-resident (R3's part is
    :meth:`~repro.streaming.correlator.OnlineCorrelator.export`'s, R4's
    :class:`~repro.streaming.storm.RegionStormState` records).  No rule
    table: every plane reads the one blocker the gateway configured (or
    the copy a worker forked with).
    """

    #: [processed, blocked, aggregates, clusters] lifetime counts.
    counters: list[int]
    #: Events since the plane last finalised R3 components.
    since_finalize: int
    #: Open R2 sessions in key order.
    sessions: list[OpenSession]
    #: R3's open components in creation order: (member representatives
    #: in union order, max event time).
    components: list[tuple[list[Alert], float]]
    #: R3's ties whose timeline order differs from ``components`` order.
    ties: list[list[int]]
    #: R3's sweep memory: region -> below-horizon entries its last sweep kept.
    swept: dict[str, int]
    #: R4 region records, regions sorted (empty without storm detection).
    storm: list[RegionStormState]
    #: Event time of R4's last recency sweep (``None`` before the first).
    storm_swept_at: float | None
    retained_aggregates: list[AggregatedAlert] = field(default_factory=list)
    retained_clusters: list[AlertCluster] = field(default_factory=list)


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
    ) -> PlaneReport:
        """Run one micro-batch through the plane's whole reaction chain.

        ``alerts`` is this plane's slice of the stream in arrival order,
        which R4 reads whole, blocked alerts included;
        ``in_warmup`` the leading-event count inside the gateway-global
        novelty warmup; ``watermark`` the gateway's max event time, below
        which R3 can finalise (one window back).  R2's closed sessions
        feed R3 and the counters directly; an ``AggregatedAlert`` is
        built only to retain it.
        """
        if self._detector is not None:
            self._detector.ingest_batch(alerts, in_warmup)
        blocked, closed = self.processor.ingest_batch(alerts)
        self._close_sessions(closed)
        self.processed += len(alerts)
        self.blocked += blocked
        self._since_finalize += len(alerts)
        if self._since_finalize >= self._config.finalize_every and watermark is not None:
            self._since_finalize = 0
            self._finalize_ready(watermark)
        return self.report(groups=self._groups(closed))

    def _groups(
        self, closed: list[OpenSession],
    ) -> dict[tuple[str, str], int] | None:
        """Closed R2 sessions per (strategy, region), keys in close
        order; ``None`` unless the plane is configured with
        ``count_groups``."""
        if not self._config.count_groups:
            return None
        groups: dict[tuple[str, str], int] = {}
        for session in closed:
            key = (session.strategy_id, session.region)
            groups[key] = groups.get(key, 0) + 1
        return groups

    def _close_sessions(self, closed: list[OpenSession]) -> None:
        """Hand R2's closed sessions to R3 and the counters (and build
        their ``AggregatedAlert`` only when artifacts are retained)."""
        add = self._correlator.add
        for session in closed:
            add(session.representative)
        self.aggregates_emitted += len(closed)
        if self._retain:
            self.aggregates.extend(session.emit() for session in closed)

    def _finalize_ready(self, watermark: float) -> None:
        """Close correlation components no future representative can join."""
        self._count_clusters(*self._correlator.finalize_ready(
            watermark, self.processor.open_representatives(),
        ))

    def _count_clusters(self, closed: int, clusters: list[AlertCluster]) -> None:
        """Count finalised components (and keep their clusters, when
        artifacts are retained)."""
        self.clusters_finalized += closed
        self.clusters.extend(clusters)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Wire-pack this plane's whole state (checkpointing).

        A pure read: the :class:`PlaneState` is built from live state and
        packed (:func:`~repro.streaming.wire.pack_plane_state`) at once,
        so no view of the plane escapes it and nothing the plane runs on
        changes.
        """
        components, ties, swept = self._correlator.export()
        storm, swept_at = (
            self._detector.export() if self._detector is not None else ([], None)
        )
        return pack_plane_state(PlaneState(
            counters=[
                self.processed, self.blocked,
                self.aggregates_emitted, self.clusters_finalized,
            ],
            since_finalize=self._since_finalize,
            sessions=self.processor.sessions(),
            components=components,
            ties=ties,
            swept=swept,
            storm=storm,
            storm_swept_at=swept_at,
            retained_aggregates=self.aggregates,
            retained_clusters=self.clusters,
        ))

    def adopt(self, state: PlaneState) -> None:
        """Add a record unpacked from a checkpoint into this plane (restore).

        Sessions, components and R4 records are installed verbatim and
        the counters and countdown join this plane's.  A fresh plane
        that adopts its own capture continues exactly as the captured
        plane would; a legacy checkpoint adopts one record per region,
        each added in turn.
        """
        self.processor.adopt(state.sessions)
        self._correlator.adopt(state.components, state.ties, state.swept)
        if self._detector is not None:
            self._detector.adopt(state.storm, state.storm_swept_at)
        processed, blocked, aggregates, clusters = state.counters
        self.processed += processed
        self.blocked += blocked
        self.aggregates_emitted += aggregates
        self.clusters_finalized += clusters
        self._since_finalize += state.since_finalize
        if self._retain:
            self.aggregates.extend(state.retained_aggregates)
            self.clusters.extend(state.retained_clusters)

    def drain(self, watermark: float | None) -> PlaneReport:
        """Flush all open state at end of stream and report final totals."""
        closed = self.processor.drain()
        self._close_sessions(closed)
        self._count_clusters(*self._correlator.drain())
        if self._detector is not None and watermark is not None:
            self._detector.finish()
        return self.report(
            groups=self._groups(closed),
            retained_aggregates=self.aggregates,
            retained_clusters=self.clusters,
        )
