"""Online alert gateway: region-partitioned planes + incremental mitigation.

The streaming counterpart of the batch mitigation pipeline (paper
§III-C run continuously, as the production system the paper studies
does): alerts enter one at a time or in micro-batches, regions map to
execution planes, and incremental versions of the whole reaction chain
run *inside the planes*: R1 blocking and R2 session-window dedup in one
processor per plane, R3 windowed correlation over its representative
stream, R4 storm/emerging detection on each plane's ring-buffer
counters.  End-of-run volume accounting reconciles exactly with
:class:`~repro.core.mitigation.pipeline.MitigationReport` on the same
in-order trace — for every backend, plane count, and flush size.

Choosing a backend (``AlertGateway(backend=...)``):

* ``serial`` (default) — planes run inline.  Lowest latency per event,
  zero moving parts; right for tests, simulations, and modest volumes.
  Pair with ``ingest_batch`` + ``flush_size`` ≥ 256 to amortise
  per-event overhead.
* ``process`` — planes partitioned across worker processes; batches
  cross the pipe in the struct-packed :mod:`~repro.streaming.wire`
  format and flush replies are bare counters.  Escapes the GIL for the
  plane chain only, so it refuses ``learn_rules``, ``enable_qoa`` and
  ``detect_antipatterns``: those fold in the parent, where workers add
  only encode and transport cost.  Parallelism scales with ``n_planes``
  (the distribution unit), so pair it with as many planes as you have
  busy regions and prefer big ``flush_size`` (≥ 1024).  A worker that
  dies raises a typed :class:`~repro.streaming.fleet.FleetError` and
  poisons the gateway; recovery is restoring the :mod:`repro.serving`
  service from its data directory.

Tuning ``n_planes``: planes partition by region — add planes to
parallelise the whole chain (every reaction is plane-local).
``flush_size`` trades emission staleness for amortisation — R2 folds a
flush grouped by ``(strategy, region)`` and by its end has closed every
session per-event ingestion would have; ``flush_interval`` bounds
staleness in event time.
``ingress_lanes=N`` (with ``n_planes >= N``) moves the buffered ingest
path of the ``process`` backend onto partitioned lane threads
(:mod:`~repro.streaming.lanes`) that encode and hand batches to the
workers over zero-copy shared-memory rings
(:mod:`~repro.streaming.rings`; ``lane_transport="pipe"`` restores the
classic pickled hand-off) — identical end-of-run accounting.  ``serial``
always runs one lane: lane threads under the GIL only slow it down.

Checkpoints (``AlertGateway.checkpoint_state`` / ``adopt_checkpoint``,
made durable by :mod:`repro.serving`) capture one wire-packed
:class:`PlaneState` blob per plane that has been routed a region: the
plane's lifetime counters and finalize countdown, its open R2 sessions,
R3 components, timeline ties and sweep memory, and R4 region records
with the detector's last sweep time, under one string table.  A fresh
gateway that adopts the blobs continues, and captures again, byte for
byte like the captured one.
"""

from repro.streaming.backends import (
    PlaneBackend,
    ProcessPlaneBackend,
    SerialPlaneBackend,
    make_backend,
)
from repro.streaming.config import BACKEND_NAMES, LANE_TRANSPORTS, GatewayConfig
from repro.streaming.correlator import OnlineCorrelator
from repro.streaming.dedup import OnlineAggregator, OpenSession
from repro.streaming.detectors import STORM_HOUR_THRESHOLD, StreamingDetectorSuite
from repro.streaming.driver import drive_gateway
from repro.streaming.fleet import FleetError, WorkerDiedError, WorkerTimeoutError
from repro.streaming.gateway import AlertGateway
from repro.streaming.lanes import LANE_JOIN_TIMEOUT, LaneIngress
from repro.streaming.learning import (
    LearnerConfig,
    OnlineRuleLearner,
    RuleDelta,
    RuleEvent,
    rule_set_divergence,
)
from repro.streaming.qoa import StreamQoA, StreamQoAScorer, measure_stream_qoa
from repro.streaming.plane import (
    PlaneConfig,
    PlaneReport,
    PlaneState,
    RegionPlane,
)
from repro.streaming.processor import StreamProcessor
from repro.streaming.rings import RingError, SpscRing
from repro.streaming.routing import PlaneRouter
from repro.streaming.sources import iter_jsonl_alerts, merge_ordered
from repro.streaming.stats import GatewayStats
from repro.streaming.storm import OnlineStormDetector, RegionStormState
from repro.streaming.windows import LatencyReservoir
from repro.streaming.wire import (
    AlertBatchBuilder,
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
    "AlertGateway",
    "GatewayConfig",
    "GatewayStats",
    "StreamProcessor",
    "BACKEND_NAMES",
    "PlaneBackend",
    "SerialPlaneBackend",
    "ProcessPlaneBackend",
    "make_backend",
    "PlaneConfig",
    "PlaneReport",
    "PlaneState",
    "RegionPlane",
    "PlaneRouter",
    "OnlineAggregator",
    "OpenSession",
    "OnlineCorrelator",
    "StreamingDetectorSuite",
    "STORM_HOUR_THRESHOLD",
    "LearnerConfig",
    "OnlineRuleLearner",
    "RuleDelta",
    "RuleEvent",
    "rule_set_divergence",
    "StreamQoA",
    "StreamQoAScorer",
    "measure_stream_qoa",
    "OnlineStormDetector",
    "RegionStormState",
    "LatencyReservoir",
    "drive_gateway",
    "FleetError",
    "WorkerDiedError",
    "WorkerTimeoutError",
    "LaneIngress",
    "LANE_JOIN_TIMEOUT",
    "LANE_TRANSPORTS",
    "SpscRing",
    "RingError",
    "iter_jsonl_alerts",
    "merge_ordered",
    "AlertBatchBuilder",
    "pack_alerts",
    "unpack_alerts",
    "pack_aggregates",
    "unpack_aggregates",
    "pack_clusters",
    "unpack_clusters",
    "pack_plane_state",
    "unpack_plane_state",
]
