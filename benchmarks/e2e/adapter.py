"""The one file of the benchmark that names ``src`` symbols.

Everything the runner knows about the program under test comes through
here: how a seed becomes a topology and an alert stream, how the batch
oracle is computed, which keyword arguments each workload's gateway or
service takes, which public methods get spans, and the probe callables
that time single functions on captured inputs.  A rename under ``src/``
is a one-file edit; a span target that stops resolving costs one
``trace.spans_missing`` count, never the run.

End-to-end metrics depend only on ``AlertGateway(...)``,
``ingest_batch``, ``flush``, ``drain`` and
``AlertGatewayService.start/ingest/abort/stop``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.pipeline import MitigationPipeline
from repro.serving.checkpoint import (
    checkpoint_of_gateway,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.serving.journal import journal_files, read_journal
from repro.serving.service import AlertGatewayService
from repro.serving.state import restore_gateway
from repro.streaming.gateway import AlertGateway
from repro.streaming.learning import LearnerConfig
from repro.streaming.rings import SpscRing
from repro.streaming.wire import AlertBatchBuilder, pack_alerts, unpack_alerts
from repro.topology import TopologyConfig, generate_topology
from repro.workload import (
    StormConfig,
    TraceConfig,
    TraceScale,
    build_multi_region_storm,
    generate_trace,
)
from repro.workload.trace import AlertTrace

FLUSH_SIZE = 512
#: Hand-offs the ring probe times.
RING_ROUNDS = 200

#: Shared by every workload's gateway.
_BASE = dict(n_planes=4, flush_size=FLUSH_SIZE, retain_artifacts=False)

#: Gateway keyword arguments per workload, on top of ``_BASE``.
GATEWAY_KWARGS = {
    "storm_serial": dict(backend="serial"),
    "storm_blocked": dict(backend="serial"),
    "storm_fleet": dict(
        backend="process", n_workers=2, ingress_lanes=2, lane_transport="ring",
    ),
    "background_detect": dict(
        backend="serial", learn_rules=True,
        learner_config=LearnerConfig(adaptive=True),
        enable_qoa=True, detect_antipatterns=True,
    ),
    "storm_durable": dict(backend="serial"),
}

#: Service-only keyword arguments (``storm_durable``).  The issue's 32768
#: cadence is scaled with the stream's trim from 20 waves to 12, so a
#: pass still crosses ~7 snapshot ticks before the crash.
SERVICE_KWARGS = dict(journal_mode="batch", checkpoint_every=16384)

#: ``(layer, module, qualname)`` of every public method that gets a span.
SPAN_TARGETS = (
    ("gateway", "repro.streaming.gateway", "AlertGateway.ingest_batch"),
    ("gateway", "repro.streaming.gateway", "AlertGateway.flush"),
    ("gateway", "repro.streaming.gateway", "AlertGateway.drain"),
    ("backends", "repro.streaming.backends", "SerialPlaneBackend.flush"),
    ("backends", "repro.streaming.backends", "SerialPlaneBackend.drain"),
    ("backends", "repro.streaming.backends", "ProcessPlaneBackend.flush"),
    ("backends", "repro.streaming.backends", "ProcessPlaneBackend.lane_feed_parts"),
    ("backends", "repro.streaming.backends", "ProcessPlaneBackend.drain"),
    ("backends", "repro.streaming.backends", "ProcessPlaneBackend.close"),
    ("lanes", "repro.streaming.lanes", "LaneIngress.ingest"),
    ("lanes", "repro.streaming.lanes", "LaneIngress.barrier"),
    ("lanes", "repro.streaming.lanes", "LaneIngress.close"),
    ("wire", "repro.streaming.wire", "AlertBatchBuilder.extend"),
    ("wire", "repro.streaming.wire", "AlertBatchBuilder.finish_parts"),
    ("plane", "repro.streaming.plane", "RegionPlane.process_batch"),
    ("plane", "repro.streaming.plane", "RegionPlane.drain"),
    ("processor", "repro.streaming.processor", "StreamProcessor.ingest_batch"),
    ("processor", "repro.streaming.processor", "StreamProcessor.drain"),
    ("correlator", "repro.streaming.correlator", "OnlineCorrelator.add"),
    ("correlator", "repro.streaming.correlator", "OnlineCorrelator.finalize_ready"),
    ("correlator", "repro.streaming.correlator", "OnlineCorrelator.drain"),
    ("storm", "repro.streaming.storm", "OnlineStormDetector.ingest_batch"),
    ("storm", "repro.streaming.storm", "OnlineStormDetector.finish"),
    ("learning", "repro.streaming.learning", "OnlineRuleLearner.observe"),
    ("learning", "repro.streaming.learning", "OnlineRuleLearner.finish"),
    ("qoa", "repro.streaming.qoa", "StreamQoAScorer.observe"),
    ("detectors", "repro.streaming.detectors", "StreamingDetectorSuite.observe"),
    ("detectors", "repro.streaming.detectors", "StreamingDetectorSuite.finish"),
    ("detectors", "repro.streaming.detectors", "StreamingDetectorSuite.summary"),
    ("journal", "repro.serving.journal", "JournalWriter.append"),
    ("journal", "repro.serving.journal", "JournalWriter.commit"),
    ("journal", "repro.serving.journal", "JournalWriter.close"),
    ("checkpoint", "repro.serving.service", "AlertGatewayService.checkpoint"),
    ("service", "repro.serving.service", "AlertGatewayService.ingest"),
    ("service", "repro.serving.service", "AlertGatewayService.stop"),
)


# ----------------------------------------------------------------------
# inputs: the program only ever sees the generated alerts
# ----------------------------------------------------------------------
def build_topology(seed: int):
    """The simulated cloud every workload of this seed runs on."""
    return generate_topology(TopologyConfig(seed=seed))


def build_storm_stream(seed: int, topology, waves: int):
    """``build_multi_region_storm`` played as consecutive shifted waves.

    Returns ``(base_trace, stream_trace)``: the single-wave trace (what
    the R1 table is derived from) and the full stream as a trace whose
    ``alerts`` are in arrival order.  Each wave gets fresh alert and
    fault ids, so nothing downstream can dedupe across waves by id.
    """
    base = build_multi_region_storm(StormConfig(seed=seed), topology)
    first = list(base.iter_ordered())
    stride = first[-1].occurred_at - first[0].occurred_at + 60.0
    alerts = list(first)
    for wave in range(1, waves):
        shift = stride * wave
        tag = f"/w{wave + 1}"
        alerts += [
            replace(
                alert,
                alert_id=alert.alert_id + tag,
                fault_id=(
                    alert.fault_id + tag if alert.fault_id is not None else None
                ),
                occurred_at=alert.occurred_at + shift,
                cleared_at=(
                    alert.cleared_at + shift
                    if alert.cleared_at is not None else None
                ),
            )
            for alert in first
        ]
    stream = AlertTrace(
        alerts=alerts, strategies=base.strategies, faults=base.faults,
        seed=seed, label=f"storm-x{waves}",
    )
    return base, stream


def build_background_stream(seed: int, topology, days: int, strategies: int):
    """``generate_trace`` at the default per-strategy rate, time-ordered.

    Storm arrivals are switched off: at 25 days their number swings 10x
    from seed to seed (32 to 364 faults over seeds 100-109), and with it
    the share of dense keys and the per-alert cost (25 to 41 us).  Dense
    keys are what the four storm workloads are for; this one is the
    sparse background, and must cost the same whatever the seed.
    """
    rate = TraceScale.default().alerts_per_strategy_per_day
    scale = TraceScale(
        days=days, n_strategies=strategies,
        target_total_alerts=max(int(rate * days * strategies), 1),
    )
    trace = generate_trace(
        TraceConfig(seed=seed, scale=scale, storms_per_week_per_region=0.0),
        topology,
    )
    trace.alerts = list(trace.iter_ordered())
    return trace


def describe(stream) -> dict:
    """Shape of a stream, for the ``workload.*`` ledger lines."""
    return {
        "alerts": len(stream.alerts),
        "strategies": len({alert.strategy_id for alert in stream.alerts}),
        "regions": len({alert.region for alert in stream.alerts}),
    }


def derive_rules(base_trace) -> tuple:
    """The R1 table the batch pipeline would derive from one wave."""
    return tuple(MitigationPipeline.derive_blocker(base_trace).rules)


def batch_oracle(topology, stream, rules: tuple):
    """The batch pipeline's report on ``stream`` under the R1 ``rules``."""
    return MitigationPipeline(topology.graph).run(
        stream, blocker=AlertBlocker(rules),
    )


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------
def make_gateway(workload: str, topology, rules: tuple) -> AlertGateway:
    return AlertGateway(
        topology.graph, blocker=AlertBlocker(rules),
        **_BASE, **GATEWAY_KWARGS[workload],
    )


def make_service(workload: str, topology, rules: tuple, data_dir: Path):
    return AlertGatewayService(
        topology.graph, data_dir, blocker=AlertBlocker(rules),
        **SERVICE_KWARGS, **_BASE, **GATEWAY_KWARGS[workload],
    )


def accounting(stats, oracle=None) -> dict:
    """The drained counters the correctness checks compare."""
    return {
        "mismatch": stats.reconcile(oracle) if oracle is not None else {},
        "input_alerts": stats.input_alerts,
        "blocked_alerts": stats.blocked_alerts,
        "aggregates": stats.aggregates_emitted,
        "clusters": stats.clusters_finalized,
        "storm_episodes": stats.storm_episodes,
        "emerging_flags": stats.emerging_flags,
        "plane_processed": sum(row["processed"] for row in stats.planes.values()),
        "plane_blocked": sum(row["blocked"] for row in stats.planes.values()),
        "detection": stats.detection,
        # Ledger counts that only the drained stats know.
        "flushes": stats.flushes,
        "late_events": stats.late_events,
        "lane_stalls": stats.lane_stalls,
        "rule_events": (
            stats.rules_promoted + stats.rules_renewed
            + stats.rules_demoted + stats.rules_expired
        ),
    }


def ring_spills(gateway) -> int:
    """Lane batches that fell back to the pipe (0 without rings)."""
    return getattr(getattr(gateway, "_backend", None), "ring_spills", 0)


# ----------------------------------------------------------------------
# probes: direct calls into public functions on captured inputs
# ----------------------------------------------------------------------
def _timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - started


def probe_wire(chunks) -> dict:
    """``pack_alerts`` / ``unpack_alerts`` over every chunk of the stream."""
    encode = decode = 0.0
    size = alerts = 0
    for chunk in chunks:
        blob, seconds = _timed(pack_alerts, chunk)
        encode += seconds
        decoded, seconds = _timed(unpack_alerts, blob)
        decode += seconds
        if len(decoded) != len(chunk):
            raise RuntimeError("wire round trip lost alerts")
        size += len(blob)
        alerts += len(chunk)
    return {"encode_s": encode, "decode_s": decode, "bytes": size, "alerts": alerts}


def probe_ring(chunks) -> float:
    """Seconds per ``try_write`` + ``peek`` + ``consume`` of the median chunk."""
    ordered = sorted(chunks, key=len)
    builder = AlertBatchBuilder()
    builder.extend(ordered[len(ordered) // 2])
    parts = builder.finish_parts()
    ring = SpscRing.create()

    def hand_off(times: int) -> None:
        for _ in range(times):
            if ring.try_write(parts) is None:
                raise RuntimeError("probe payload does not fit a ring slot")
            view = ring.peek()
            view.release()
            ring.consume()

    try:
        hand_off(2 * ring.slot_count)  # fault every slot's pages in first
        _none, seconds = _timed(hand_off, RING_ROUNDS)
        return seconds / RING_ROUNDS
    finally:
        ring.unlink()


def probe_checkpoint(gateway, topology) -> dict:
    """Capture, encode, decode and re-adopt the live gateway's state."""
    checkpoint, capture = _timed(checkpoint_of_gateway, gateway, 1)
    blob, encode = _timed(encode_checkpoint, checkpoint)
    decoded, decode = _timed(decode_checkpoint, blob)
    restored, restore = _timed(restore_gateway, decoded, topology.graph)
    restored.close()
    return {
        "capture_s": capture, "encode_s": encode, "decode_s": decode,
        "restore_s": restore, "bytes": len(blob),
    }


def probe_journal(data_dir: Path) -> dict:
    """``read_journal`` over the tail a restore replays after a crash.

    Every snapshot rotates the journal to a new epoch, so the newest
    epoch's files are exactly what ``start()`` reads back.
    """
    files = journal_files(data_dir)
    newest = max((epoch for epoch, _part, _path in files), default=0)
    seconds = 0.0
    events = size = 0
    for epoch, _part, path in files:
        if epoch != newest:
            continue
        (_header, records), elapsed = _timed(read_journal, path)
        seconds += elapsed
        events += sum(len(alerts) for _start, alerts in records)
        size += path.stat().st_size
    return {"replay_s": seconds, "events": events, "bytes": size}
