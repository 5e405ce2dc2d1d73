"""The cold operator view: a checkpoint's status is the live view restored.

``status_of_checkpoint`` builds its ``"gateway"`` section from the same
:class:`~repro.streaming.stats.GatewayStats` a running gateway reports
through, so at a flush barrier the two agree on everything but the
fields that cannot survive a snapshot (throughput) or that freeze only
at drain (QoA scores, the detection summary).
"""

from __future__ import annotations

import pytest

from repro.core.antipatterns.base import DetectorThresholds
from repro.serving import (
    checkpoint_of_gateway,
    decode_checkpoint,
    encode_checkpoint,
    render_detection,
    status_of_checkpoint,
)
from repro.streaming import AlertGateway
from repro.topology import TopologyConfig, generate_topology
from repro.workload import TraceConfig, TraceScale, generate_trace
from tests.serving.conftest import make_gateway

#: Live-only (throughput) or frozen-at-drain (qoa, detection) fields.
COLD_OVERRIDES = ("throughput", "qoa", "detection")


def _cold_status(gateway) -> dict:
    """The status ``repro ops --from-checkpoint`` renders, via the disk form."""
    checkpoint = checkpoint_of_gateway(gateway, seq=1, created_at=0.0)
    return status_of_checkpoint(decode_checkpoint(encode_checkpoint(checkpoint)))


@pytest.mark.parametrize("kwargs", [
    dict(learn_rules=True, enable_qoa=True, detect_antipatterns=True),
    dict(backend="process", n_workers=2, ingress_lanes=2, flush_size=32),
], ids=["serial-observing", "process-lanes"])
def test_cold_gateway_view_is_the_live_one(serving_graph, storm_alerts, kwargs):
    gateway = make_gateway(serving_graph, n_planes=3, **kwargs)
    try:
        gateway.ingest_batch(storm_alerts)
        gateway.flush()
        live = gateway.stats.snapshot()
        cold = _cold_status(gateway)["gateway"]
    finally:
        gateway.close()
    assert cold["throughput"] is None
    for field in COLD_OVERRIDES:
        live.pop(field)
        cold.pop(field)
    assert cold == live


def test_cold_detection_judges_with_the_recorded_thresholds():
    """A checkpoint taken with strict detector thresholds must be judged
    with them, not with the defaults: the cold summary equals the live
    one."""
    topology = generate_topology(TopologyConfig(seed=44))
    rate = TraceScale.default().alerts_per_strategy_per_day
    trace = generate_trace(TraceConfig(
        seed=44,
        scale=TraceScale(
            days=3, n_strategies=100, target_total_alerts=int(rate * 300),
        ),
        storms_per_week_per_region=0.0,
    ), topology)
    strict = DetectorThresholds(
        severity_min_alerts=3, severity_rank_gap=0.1,
        severity_min_distance=0.05, min_alerts_for_stats=2,
    )
    gateway = AlertGateway(
        topology.graph, n_planes=2, flush_size=256,
        detect_antipatterns=True, detector_thresholds=strict,
    )
    gateway.ingest_batch(trace.iter_ordered())
    gateway.flush()
    live = gateway.detectors.summary()
    cold = _cold_status(gateway)
    gateway.close()
    assert live["findings"]["A2"] > 0
    assert cold["gateway"]["detection"] == live
    assert len(cold["detection_detail"]) == sum(live["findings"].values())


def test_detection_view_prints_the_a2_live_sizes():
    summary = {
        "strategies": 400, "open_rows": 41, "folded_keys": 1199,
        "a2_late": 3, "emerging": 2,
        "findings": {"A1": 50, "A2": 30, "A3": 126},
    }
    text = render_detection({"gateway": {"detection": summary}})
    assert "A2 open rows 41" in text
    assert "folded (strategy, region) totals 1,199" in text
    assert "late alerts skipped 3" in text
