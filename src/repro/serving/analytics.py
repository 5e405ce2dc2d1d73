"""The operator analytics surface: render service state for humans.

Everything here consumes *plain dicts* — either the live status payload
from :meth:`AlertGatewayService.status()
<repro.serving.service.AlertGatewayService.status>` (also persisted as
``stats.json``), or a status synthesised from a checkpoint on disk via
:func:`status_of_checkpoint` — so ``repro ops`` can inspect a running
service, a stopped one, or a bare snapshot with the same code path and
no live gateway required.

The views map onto the paper's operator concerns: the QoA scoreboard
surfaces the lowest-quality alert strategies (the anti-pattern ranking
of §V), the storm timeline shows R4 episode pressure over the
checkpoint history, the rule history explains every R1
promotion/demotion the online learner made, and plane health shows how
the region-partitioned execution planes share the load.
"""

from __future__ import annotations

from repro.serving.checkpoint import GatewayCheckpoint
from repro.streaming.config import GatewayConfig
from repro.streaming.detectors import StreamingDetectorSuite
from repro.streaming.qoa import StreamQoAScorer
from repro.streaming.stats import GatewayStats

__all__ = [
    "status_of_checkpoint",
    "render_qoa_scoreboard",
    "render_storm_timeline",
    "render_rule_history",
    "render_plane_health",
    "render_detection",
    "render_ops_report",
]


def status_of_checkpoint(checkpoint: GatewayCheckpoint) -> dict:
    """A status-shaped dict from a snapshot — no gateway boot needed.

    The ``"gateway"`` section is the live view itself: a
    :class:`~repro.streaming.stats.GatewayStats` built on the recorded
    configuration, restored from the checkpointed accounting, then
    :meth:`~repro.streaming.stats.GatewayStats.snapshot`.  Only three
    fields differ from a live service at the same barrier: throughput
    (wall-clock does not survive a snapshot) and the QoA scores and
    detection summary, which freeze only at drain and are recomputed
    here from the checkpointed scorer and detector state.  Live-only
    sections (runtime metrics, journal position, history ring) stay
    empty.
    """
    state = checkpoint.state
    options = GatewayConfig.from_record(checkpoint.config)
    stats = GatewayStats(
        n_planes=options.n_planes,
        backend=options.backend,
        n_workers=options.n_workers,
        flush_size=options.flush_size,
        learning=options.learn_rules,
        qoa_enabled=options.enable_qoa,
        detect_enabled=options.detect_antipatterns,
    )
    stats.restore_state(state["stats"])
    gateway = stats.snapshot()
    gateway["throughput"] = None
    learner = state.get("learner")
    qoa_state = state.get("qoa")
    if qoa_state is not None:
        scorer = StreamQoAScorer()
        scorer.restore_state(qoa_state)
        gateway["qoa"] = scorer.snapshot()
    detectors_state = state.get("detectors")
    detection_detail = None
    if detectors_state is not None:
        suite = StreamingDetectorSuite(
            thresholds=options.detector_thresholds,
            sketch_buckets=options.sketch_buckets,
        )
        suite.restore_state(detectors_state)
        gateway["detection"] = suite.summary()
        detection_detail = [
            [finding.pattern, finding.subject, finding.score, finding.evidence]
            for items in suite.findings().values()
            for finding in items
        ]
    return {
        "service": {
            "source": "checkpoint",
            "epoch": checkpoint.seq,
            "created_at": checkpoint.created_at,
        },
        "gateway": gateway,
        "qoa_live": gateway["qoa"],
        "detection_detail": detection_detail,
        "rule_events": learner["events"] if learner is not None else None,
        "history": [],
        "metrics": None,
    }


def render_qoa_scoreboard(
    status: dict, limit: int = 10, min_alerts: int = 5,
) -> str:
    """Worst alert strategies by streaming QoA, one line each."""
    scores = status.get("qoa_live") or status["gateway"].get("qoa")
    if not scores:
        return "  (QoA scoring disabled or no scores yet)"
    scored = [
        (strategy_id, row) for strategy_id, row in scores.items()
        if row["seen"] >= min_alerts
    ]
    scored.sort(key=lambda item: (item[1]["overall"], item[0]))
    lines = [
        f"  {'strategy':<24} {'overall':>7} {'coverage':>8} "
        f"{'action':>7} {'distinct':>8} {'alerts':>8}"
    ]
    for strategy_id, row in scored[:limit]:
        lines.append(
            f"  {strategy_id:<24} {row['overall']:>7.2f} "
            f"{row['coverage']:>8.2f} {row['actionability']:>7.2f} "
            f"{row['distinctness']:>8.2f} {row['seen']:>8,.0f}"
        )
    if len(scored) > limit:
        lines.append(f"  ... and {len(scored) - limit} more strategies")
    return "\n".join(lines)


def render_storm_timeline(status: dict, limit: int = 12) -> str:
    """R4 storm pressure across the checkpoint history ring.

    Each row is one checkpoint tick; the deltas between rows show where
    in the stream storm episodes and emerging-storm flags landed.
    """
    history = status.get("history") or []
    gateway = status["gateway"]
    if not history:
        return (
            f"  (no checkpoint history; totals: "
            f"{gateway['storm_episodes']} storm episodes, "
            f"{gateway['emerging_flags']} emerging flags)"
        )
    lines = [
        f"  {'at input':>10} {'watermark':>12} {'storms':>7} "
        f"{'+new':>5} {'emerging':>9} {'rules':>6}"
    ]
    window = list(history)[-limit:]
    previous = None
    for tick in window:
        new = (
            tick["storm_episodes"] - previous["storm_episodes"]
            if previous is not None else tick["storm_episodes"]
        )
        watermark = tick["watermark"]
        watermark_text = f"{watermark:,.0f}" if watermark is not None else "-"
        lines.append(
            f"  {tick['at_input']:>10,} {watermark_text:>12} "
            f"{tick['storm_episodes']:>7,} {new:>5,} "
            f"{tick['emerging_flags']:>9,} {tick['rules_active']:>6,}"
        )
        previous = tick
    if len(history) > limit:
        lines.append(f"  ... {len(history) - limit} older ticks elided")
    return "\n".join(lines)


def render_rule_history(status: dict, limit: int = 20) -> str:
    """The online learner's R1 rule event tail, newest last."""
    events = status.get("rule_events")
    if events is None:
        return "  (rule learning disabled)"
    if not events:
        return "  (no rule events yet)"
    lines = []
    for kind, strategy_id, at_input, at_time, expires_at, reason in events[-limit:]:
        expiry = f" until {expires_at:,.0f}" if expires_at is not None else ""
        lines.append(
            f"  @{at_input:>9,} {kind:<9} {strategy_id:<24}"
            f"{expiry}  {reason}"
        )
    if len(events) > limit:
        lines.append(f"  ... {len(events) - limit} older events elided")
    return "\n".join(lines)


def render_plane_health(status: dict) -> str:
    """Per-plane load share and volume accounting, one line per plane."""
    gateway = status["gateway"]
    planes = gateway.get("planes") or []
    if not planes:
        return "  (no per-plane accounting yet — nothing flushed)"
    total = sum(plane["processed"] for plane in planes) or 1
    lines = []
    for plane in planes:
        regions = ",".join(plane.get("regions", ())) or "-"
        share = plane["processed"] / total
        lines.append(
            f"  plane {plane['plane_id']} [{regions}]: "
            f"in {plane['processed']:>8,} ({share:>5.1%})  "
            f"blocked {plane['blocked']:>7,}  "
            f"groups {plane['aggregates']:>6,}  "
            f"clusters {plane['clusters']:>5,}  "
            f"storms {plane['storm_episodes']:>4,}"
        )
    return "\n".join(lines)


def render_detection(status: dict, limit: int = 15) -> str:
    """Online anti-pattern verdicts (A1-A3 + sketch-R4), with detail.

    Counts come from the detector suite's summary (live: frozen at
    drain; checkpoint: recomputed from the folded state); the per-
    finding detail rows exist only on the checkpoint path.
    """
    detection = (
        status["gateway"].get("detection") or status.get("detection_live")
    )
    if not detection:
        return "  (online detection disabled or no digests folded yet)"
    found = detection.get("findings", {})
    lines = [
        f"  strategies observed {detection.get('strategies', 0):,}  "
        f"sketch-R4 flags {detection.get('emerging', 0):,}",
        f"  A2 open rows {detection.get('open_rows', 0):,}  "
        f"folded (strategy, region) totals "
        f"{detection.get('folded_keys', 0):,}  "
        f"late alerts skipped {detection.get('a2_late', 0):,}",
        f"  A1 unclear titles {found.get('A1', 0):,}   "
        f"A2 misconfigured severity {found.get('A2', 0):,}   "
        f"A3 stale/duplicate definitions {found.get('A3', 0):,}",
    ]
    detail = status.get("detection_detail")
    if detail:
        for pattern, subject, score, evidence in detail[:limit]:
            lines.append(f"  {pattern} {subject:<24} {score:>4.2f}  {evidence}")
        if len(detail) > limit:
            lines.append(f"  ... and {len(detail) - limit} more findings")
    return "\n".join(lines)


def render_ops_report(status: dict) -> str:
    """The full operator report: service, volumes, QoA, storms, rules."""
    service = status.get("service", {})
    gateway = status["gateway"]
    lines = ["service"]
    if service.get("source") == "checkpoint":
        lines.append(
            f"  checkpoint epoch {service['epoch']} "
            f"(created_at {service['created_at']:.0f})"
        )
    else:
        journal = service.get("journal") or {}
        lines.append(
            f"  epoch {service.get('epoch', 0)}  "
            f"checkpoints {service.get('checkpoints_written', 0)}  "
            f"since last {service.get('since_checkpoint', 0):,} events"
        )
        if service.get("recovered_from") is not None:
            lines.append(
                f"  recovered from snapshot {service['recovered_from']} "
                f"(+{service.get('replayed_events', 0):,} journal events)"
            )
        if journal.get("path"):
            lines.append(
                f"  journal {journal['path']} ({journal['records']:,} records)"
            )
    backend = gateway["backend"]
    if backend == "process":
        backend += f" x{gateway['n_workers']} workers"
    throughput = gateway.get("throughput")
    lines += [
        "gateway",
        f"  planes {gateway['n_planes']} "
        f"({backend}, flush {gateway['flush_size']})",
        f"  input {gateway['input_alerts']:,}  "
        f"blocked {gateway['blocked_alerts']:,}  "
        f"groups {gateway['aggregates']:,}  "
        f"clusters {gateway['clusters']:,}  "
        f"reduction {gateway['total_reduction']:.1%}"
        + (f"  ({throughput:,.0f}/s)" if throughput else ""),
        "QoA scoreboard (worst strategies)",
        render_qoa_scoreboard(status),
        "storm timeline",
        render_storm_timeline(status),
        "rule history",
        render_rule_history(status),
        "online detection",
        render_detection(status),
        "plane health",
        render_plane_health(status),
    ]
    metrics = status.get("metrics")
    if metrics:
        lines.append("runtime metrics")
        for name in sorted(metrics.get("counters", {})):
            lines.append(f"  {name:<32} {metrics['counters'][name]:>12,}")
        for name in sorted(metrics.get("timers", {})):
            row = metrics["timers"][name]
            lines.append(
                f"  {name:<32} n={row['count']:<5,} "
                f"mean {row['mean'] * 1e3:.2f}ms  max {row['max'] * 1e3:.2f}ms"
            )
    return "\n".join(lines)
