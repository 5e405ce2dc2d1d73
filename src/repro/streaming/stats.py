"""Gateway accounting: throughput, latency, volume reduction, plane stats.

:class:`GatewayStats` mirrors the stage-by-stage volume accounting of the
batch :class:`~repro.core.mitigation.pipeline.MitigationReport` — raw in,
blocked out, aggregates, clusters — and adds the streaming-only
dimensions: per-event processing latency (exact mean, sampled p50/p99),
wall-clock throughput, and per-plane accounting for the
region-partitioned execution planes (:attr:`planes`, refreshed by the
gateway at every flush barrier).  :meth:`reconcile` checks the gateway
against a batch report on the same trace, the invariant the integration
tests and the ``repro stream --reconcile`` CLI pin down; :meth:`snapshot`
returns the whole accounting — totals plus planes — as one plain dict
for dashboards and the CLI report.

A dead plane worker is not a counter here: it raises, and the gateway
refuses further use, so the stats only ever describe state the planes
hold.  :meth:`~GatewayStats.restore_state` reads only the keys it names,
so the retired worker-death counters in older checkpoints are ignored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.mitigation.pipeline import MitigationReport
from repro.streaming.windows import LatencyReservoir

__all__ = ["GatewayStats"]


def _deep_copy_jsonish(value):
    """Deep-copy a JSON-shaped value (dicts/lists/scalars only)."""
    if isinstance(value, dict):
        return {key: _deep_copy_jsonish(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_deep_copy_jsonish(item) for item in value]
    return value


@dataclass(slots=True)
class GatewayStats:
    """Running counters of one gateway instance."""

    n_planes: int = 1
    backend: str = "serial"
    n_workers: int = 1
    flush_size: int = 1
    input_alerts: int = 0
    blocked_alerts: int = 0
    aggregates_emitted: int = 0
    clusters_finalized: int = 0
    storm_episodes: int = 0
    emerging_flags: int = 0
    late_events: int = 0
    flushes: int = 0
    #: Ingress-lane backpressure: blocking puts against a full bounded
    #: lane queue (a slow worker throttling ingest instead of buffering
    #: without limit).  Zero on the classic single-lane path.
    lane_stalls: int = 0
    watermark: float | None = None
    #: Online R1 rule learning (``AlertGateway(learn_rules=True)``).
    learning: bool = False
    rules_promoted: int = 0
    rules_renewed: int = 0
    rules_demoted: int = 0
    rules_expired: int = 0
    rules_active: int = 0
    #: Streaming QoA (``AlertGateway(enable_qoa=True)``): per-strategy
    #: score dicts, frozen at drain (live scores via ``gateway.qoa``).
    qoa_enabled: bool = False
    qoa: dict[str, dict] | None = None
    #: Online anti-pattern detection (``AlertGateway(detect_antipatterns=
    #: True)``): the detector suite's summary — strategies observed, A1/
    #: A2/A3 finding counts, R4 sketch flags — frozen at drain (live
    #: access via ``gateway.detectors``).
    detect_enabled: bool = False
    detection: dict | None = None
    #: Per-plane accounting as plain dicts (``plane_id`` → counters +
    #: ``regions``), refreshed from plane flush/drain results.
    planes: dict[int, dict] = field(default_factory=dict)
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    started_wall: float = field(default_factory=time.perf_counter)
    finished_wall: float | None = None

    # -- volume accounting (MitigationReport-compatible) ---------------
    @property
    def after_blocking(self) -> int:
        """Alerts surviving R1."""
        return self.input_alerts - self.blocked_alerts

    @property
    def after_aggregation(self) -> int:
        """Aggregated groups emitted by R2."""
        return self.aggregates_emitted

    @property
    def after_correlation(self) -> int:
        """Clusters finalised by R3."""
        return self.clusters_finalized

    @property
    def total_reduction(self) -> float:
        """1 - (diagnosed items / raw alerts), as in the batch report."""
        if self.input_alerts == 0:
            return 0.0
        return 1.0 - self.after_correlation / self.input_alerts

    # -- streaming dimensions ------------------------------------------
    @property
    def elapsed_wall(self) -> float:
        """Wall-clock seconds from construction to now (or finish)."""
        end = self.finished_wall if self.finished_wall is not None else time.perf_counter()
        return max(end - self.started_wall, 1e-9)

    @property
    def throughput(self) -> float:
        """Events processed per wall-clock second."""
        return self.input_alerts / self.elapsed_wall

    def observe_flush(self, seconds: float, events: int) -> None:
        """Record one flush cycle's latency amortised over its events."""
        self.latency.observe_batch(seconds, events)

    def mark_finished(self) -> None:
        """Freeze the wall clock (called by ``drain``)."""
        if self.finished_wall is None:
            self.finished_wall = time.perf_counter()

    def set_learner_counters(self, counters: dict[str, int]) -> None:
        """Adopt the rule learner's lifetime accounting (per flush)."""
        self.rules_promoted = counters["rules_promoted"]
        self.rules_renewed = counters["rules_renewed"]
        self.rules_demoted = counters["rules_demoted"]
        self.rules_expired = counters["rules_expired"]
        self.rules_active = counters["rules_active"]

    # -- checkpointing --------------------------------------------------
    #: Counter fields that survive a checkpoint/restore cycle.  The
    #: construction-time topology fields (backend, plane/worker
    #: counts, flush size, learning/qoa flags) are deliberately absent:
    #: a restored gateway is *built* with them and the serving layer
    #: verifies they match the checkpoint's recorded configuration.
    _RESTORABLE = (
        "input_alerts", "blocked_alerts", "aggregates_emitted",
        "clusters_finalized", "storm_episodes", "emerging_flags",
        "late_events", "flushes", "watermark", "rules_promoted",
        "rules_renewed", "rules_demoted", "rules_expired", "rules_active",
    )

    def export_state(self) -> dict:
        """The restorable accounting as a JSON-safe dict (checkpointing).

        Wall-clock fields (throughput, latency reservoir) are excluded:
        a restored gateway starts a fresh wall clock — elapsed real time
        does not survive a process death, and pretending it does would
        corrupt every rate it feeds.
        """
        state = {name: getattr(self, name) for name in self._RESTORABLE}
        state["lane_stalls"] = self.lane_stalls
        state["qoa"] = (
            {k: dict(v) for k, v in self.qoa.items()}
            if self.qoa is not None else None
        )
        state["detection"] = (
            _deep_copy_jsonish(self.detection)
            if self.detection is not None else None
        )
        # JSON object keys are strings; plane ids are re-int'd on restore.
        state["planes"] = {
            str(plane_id): dict(row) for plane_id, row in self.planes.items()
        }
        return state

    def restore_state(self, state: dict) -> None:
        """Adopt accounting captured by :meth:`export_state` (exact).

        Keys an older checkpoint carries that this class no longer has
        (the count and log of live plane-count changes) are ignored.
        """
        for name in self._RESTORABLE:
            setattr(self, name, state[name])
        # Outside the strict tuple: absent from pre-ring checkpoints.
        self.lane_stalls = state.get("lane_stalls", 0)
        self.qoa = (
            {k: dict(v) for k, v in state["qoa"].items()}
            if state["qoa"] is not None else None
        )
        # Absent from pre-online-detection checkpoints.
        detection = state.get("detection")
        self.detection = (
            _deep_copy_jsonish(detection) if detection is not None else None
        )
        self.planes = {
            int(plane_id): dict(row)
            for plane_id, row in state["planes"].items()
        }

    # -- reporting ------------------------------------------------------
    def reconcile(self, report: MitigationReport) -> dict[str, tuple[int, int]]:
        """Stage-by-stage (gateway, batch) counts that disagree.

        An empty dict means the streaming run reproduced the batch
        pipeline's volume accounting exactly.
        """
        pairs = {
            "input_alerts": (self.input_alerts, report.input_alerts),
            "blocked_alerts": (self.blocked_alerts, report.blocked_alerts),
            "aggregates": (self.aggregates_emitted, len(report.aggregates)),
            "clusters": (self.clusters_finalized, len(report.clusters)),
        }
        return {stage: pair for stage, pair in pairs.items() if pair[0] != pair[1]}

    def snapshot(self) -> dict:
        """The full accounting — totals plus per-plane stats — as one dict."""
        return {
            "backend": self.backend,
            "n_planes": self.n_planes,
            "n_workers": self.n_workers,
            "flush_size": self.flush_size,
            "input_alerts": self.input_alerts,
            "blocked_alerts": self.blocked_alerts,
            "aggregates": self.aggregates_emitted,
            "clusters": self.clusters_finalized,
            "storm_episodes": self.storm_episodes,
            "emerging_flags": self.emerging_flags,
            "late_events": self.late_events,
            "flushes": self.flushes,
            "lane_stalls": self.lane_stalls,
            "watermark": self.watermark,
            "total_reduction": self.total_reduction,
            "throughput": self.throughput,
            "planes": [
                dict(self.planes[plane_id]) for plane_id in sorted(self.planes)
            ],
            "learner": {
                "enabled": self.learning,
                "rules_promoted": self.rules_promoted,
                "rules_renewed": self.rules_renewed,
                "rules_demoted": self.rules_demoted,
                "rules_expired": self.rules_expired,
                "rules_active": self.rules_active,
            },
            "qoa": dict(self.qoa) if self.qoa is not None else None,
            "detection": (
                _deep_copy_jsonish(self.detection)
                if self.detection is not None else None
            ),
        }

    def render_qoa(self, limit: int = 5, min_alerts: int = 5) -> str:
        """The lowest-scoring strategies, one line each (drain snapshot)."""
        if not self.qoa:
            return "  (no QoA scores recorded)"
        scored = [
            (strategy_id, row) for strategy_id, row in self.qoa.items()
            if row["seen"] >= min_alerts
        ]
        scored.sort(key=lambda item: (item[1]["overall"], item[0]))
        lines = []
        for strategy_id, row in scored[:limit]:
            lines.append(
                f"  {strategy_id:<24} overall {row['overall']:.2f}  "
                f"coverage {row['coverage']:.2f}  "
                f"actionable {row['actionability']:.2f}  "
                f"distinct {row['distinctness']:.2f}  "
                f"({row['seen']:,.0f} alerts)"
            )
        return "\n".join(lines)

    def render_planes(self) -> str:
        """One line per execution plane (regions and volume accounting)."""
        lines = []
        for plane_id in sorted(self.planes):
            plane = self.planes[plane_id]
            regions = ",".join(plane.get("regions", ())) or "-"
            lines.append(
                f"  plane {plane_id} [{regions}]: "
                f"in {plane['processed']:>8,}  blocked {plane['blocked']:>7,}  "
                f"groups {plane['aggregates']:>7,}  clusters {plane['clusters']:>6,}  "
                f"storms {plane['storm_episodes']:>4,}  "
                f"emerging {plane['emerging_flags']:>5,}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable gateway summary."""
        backend = self.backend
        if backend == "process":
            backend += f" x{self.n_workers} workers"
        lines = [
            f"planes:              {self.n_planes:>8}  "
            f"({backend}, flush {self.flush_size})",
            f"input alerts:        {self.input_alerts:>8,}",
            f"after R1 blocking:   {self.after_blocking:>8,} "
            f"({self.blocked_alerts:,} blocked)",
            f"after R2 aggregation:{self.after_aggregation:>8,} groups",
            f"after R3 correlation:{self.after_correlation:>8,} clusters to diagnose",
            f"total OCE-load reduction: {self.total_reduction:.1%}",
            f"R4 storm episodes:   {self.storm_episodes:>8,} "
            f"({self.emerging_flags:,} emerging flags)",
            f"throughput:          {self.throughput:>10,.0f} alerts/s",
            f"latency p50/p99:     {self.latency.quantile(0.50) * 1e6:>7.1f} / "
            f"{self.latency.quantile(0.99) * 1e6:.1f} us",
        ]
        if self.learning:
            lines.append(
                f"learned R1 rules:    {self.rules_promoted:>8,} promoted  "
                f"({self.rules_renewed:,} renewals, {self.rules_demoted:,} "
                f"demoted, {self.rules_expired:,} expired; "
                f"{self.rules_active:,} live)"
            )
        if self.qoa:
            lines.append("streaming QoA (worst strategies):")
            lines.append(self.render_qoa())
        if self.detect_enabled and self.detection:
            found = self.detection.get("findings", {})
            lines.append(
                f"online anti-patterns: "
                f"A1 {found.get('A1', 0):>4,}  A2 {found.get('A2', 0):>4,}  "
                f"A3 {found.get('A3', 0):>4,}  "
                f"(over {self.detection.get('strategies', 0):,} strategies; "
                f"{self.detection.get('emerging', 0):,} sketch-R4 flags)"
            )
        if self.n_planes > 1 and self.planes:
            lines.append("per-plane accounting:")
            lines.append(self.render_planes())
        if self.late_events:
            lines.append(f"late (out-of-order) events: {self.late_events:,}")
        if self.lane_stalls:
            lines.append(f"ingress lane stalls: {self.lane_stalls:>8,}")
        return "\n".join(lines)
