"""Schedule parity harness for checkpoint capture and restore.

A gateway's plane count is fixed for life; what moves region state
between plane objects is the checkpoint: a *capture* reads every
region's slice off its plane and wire-packs it, changing nothing, and a
*restore* adopts the packed slices onto the planes of a fresh gateway
(in-process or in a worker).  Both promise invisibility: any schedule of
captures and restores interleaved with ingestion and mid-stream flushes
must drain to exactly the same volume accounting, aggregates, clusters,
storm verdicts and (with learning enabled) learned-rule timeline and QoA
scores as a gateway that never checkpointed — on every backend.

Two layers pin that down:

* deterministic schedules over the storm-heavy multi-region trace,
  parametrized across serial/process x flush sizes;
* hypothesis schedule properties (marked ``scale_chaos``; CI runs them
  in the seeded property job) generating arbitrary interleavings of
  ``ingest_batch`` / capture / restore / ``flush`` over random traces.

Captures and restores need a flush barrier, so the harness flushes
before each.  With rule learning **off** accounting is flush-schedule
invariant, so the reference run is completely clean — no barriers at
all.  With learning **on** every flush is a judgment round, so the
reference mirrors the schedule's barriers as plain flushes: the capture
or restore itself must contribute nothing observable beyond the barrier
it rides on.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker
from repro.serving import decode_checkpoint, encode_checkpoint, restore_gateway
from repro.serving.checkpoint import checkpoint_of_gateway
from repro.streaming import AlertGateway, LearnerConfig

from tests.streaming.multiregion import (
    aggregate_fingerprint,
    cluster_fingerprint,
    counts,
    multiregion_blocker,
    multiregion_trace,
)
from tests.streaming.test_golden_trace import golden_graph

_REGIONS = ("region-A", "region-B", "region-C", "region-D")
_STRATEGIES = ("s-api", "s-cache", "s-db", "s-queue", "s-noise")
_MICROS = ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6")


def _assert_planes_partition(stats) -> None:
    planes = stats.planes.values()
    assert set(stats.planes) == set(range(stats.n_planes))
    assert sum(p["processed"] for p in planes) == stats.input_alerts
    assert sum(p["blocked"] for p in planes) == stats.blocked_alerts
    assert sum(p["aggregates"] for p in planes) == stats.aggregates_emitted
    assert sum(p["clusters"] for p in planes) == stats.clusters_finalized
    assert sum(p["storm_episodes"] for p in planes) == stats.storm_episodes
    assert sum(p["emerging_flags"] for p in planes) == stats.emerging_flags


#: One schedule: ``(position, op)`` rows, positions in event counts;
#: ops are "capture" / "restore" / "flush".
Schedule = list[tuple[int, str]]


def _build(
    n_planes: int,
    backend: str = "serial",
    flush_size: int = 32,
    learn: bool = False,
    retain: bool = True,
    blocker: AlertBlocker | None = None,
) -> AlertGateway:
    return AlertGateway(
        golden_graph(),
        blocker=blocker if blocker is not None else (
            AlertBlocker() if learn else multiregion_blocker()
        ),
        backend=backend,
        n_planes=n_planes,
        n_workers=2,
        flush_size=flush_size,
        # Short windows and frequent R3 finalisation: every capture point
        # the schedules pick has closed aggregates and clusters retained
        # on the planes, not only open sessions and components.
        aggregation_window=120.0,
        correlation_window=120.0,
        finalize_every=16,
        retain_artifacts=retain,
        learn_rules=learn,
        enable_qoa=learn,
        learner_config=LearnerConfig(
            window_seconds=1800.0, min_alerts=10, repeat_count=15,
            rule_ttl=1800.0,
        ) if learn else None,
    )


def _restored(gateway: AlertGateway) -> AlertGateway:
    """Capture ``gateway`` durably, close it, and restore a fresh one."""
    encoded = encode_checkpoint(
        checkpoint_of_gateway(gateway, seq=1, created_at=0.0)
    )
    gateway.close()
    return restore_gateway(decode_checkpoint(encoded), golden_graph())


def _run_schedule(
    alerts: list[Alert],
    schedule: Schedule,
    n_planes: int,
    backend: str = "serial",
    flush_size: int = 32,
    learn: bool = False,
    retain: bool = True,
):
    gateway = _build(n_planes, backend, flush_size, learn, retain)
    cursor = 0
    try:
        for position, op in sorted(schedule, key=lambda row: row[0]):
            cut = min(max(position, cursor), len(alerts))
            gateway.ingest_batch(alerts[cursor:cut])
            cursor = cut
            gateway.flush()
            stats = gateway.stats
            assert sum(
                row["processed"] for row in stats.planes.values()
            ) == stats.input_alerts
            if op == "capture":
                gateway.checkpoint_state()
            elif op == "restore":
                gateway = _restored(gateway)
                assert gateway.stats.input_alerts == cursor
        gateway.ingest_batch(alerts[cursor:])
        stats = gateway.drain()
    finally:
        gateway.close()
    return gateway, stats


def _mirrored(schedule: Schedule) -> Schedule:
    """The reference schedule: the same flush barriers, no checkpoints."""
    return [(position, "flush") for position, _ in schedule]


def _assert_same_run(subject, reference) -> None:
    (subject_gw, subject_stats), (reference_gw, reference_stats) = (
        subject, reference,
    )
    assert counts(subject_stats) == counts(reference_stats)
    assert aggregate_fingerprint(subject_gw) == aggregate_fingerprint(reference_gw)
    assert cluster_fingerprint(subject_gw) == cluster_fingerprint(reference_gw)
    _assert_planes_partition(subject_stats)


# ----------------------------------------------------------------------
# deterministic schedules, full backend x flush matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("flush_size", [1, 32, 128])
class TestCheckpointInvisibility:
    def test_capture_matches_a_run_that_never_captured(self, backend, flush_size):
        alerts = multiregion_trace()
        _assert_same_run(
            _run_schedule(alerts, [(160, "capture")], 4, backend, flush_size),
            _run_schedule(alerts, [], 4, backend, flush_size),
        )

    def test_restore_matches_an_uninterrupted_run(self, backend, flush_size):
        alerts = multiregion_trace()
        _assert_same_run(
            _run_schedule(alerts, [(200, "restore")], 2, backend, flush_size),
            _run_schedule(alerts, [], 2, backend, flush_size),
        )

    def test_mixed_schedule(self, backend, flush_size):
        """Capture, flush, restore, flush, capture, restore — all
        mid-stream, against a clean run that never checkpointed."""
        alerts = multiregion_trace()
        schedule = [
            (70, "capture"),
            (190, "flush"),
            (250, "restore"),
            (310, "flush"),
            (370, "capture"),
            (400, "restore"),
        ]
        _assert_same_run(
            _run_schedule(alerts, schedule, 3, backend, flush_size),
            _run_schedule(alerts, [], 3, backend, flush_size),
        )


# Learning and QoA run on the serial backend only.
def test_checkpoints_with_learning_leave_the_timeline_untouched():
    """Learned-rule timeline and QoA survive captures and a restore
    bit-identically against the barrier-mirrored reference: evidence,
    promotions, TTLs and QoA counters are untouched by the checkpoints
    themselves."""
    alerts = multiregion_trace()
    schedule = [(120, "capture"), (260, "flush"), (360, "restore")]
    subject_gw, subject = _run_schedule(
        alerts, schedule, 2, learn=True, retain=False,
    )
    reference_gw, reference = _run_schedule(
        alerts, _mirrored(schedule), 2, learn=True, retain=False,
    )
    assert counts(subject) == counts(reference)
    assert subject_gw.learner.events == reference_gw.learner.events
    assert subject_gw.learner.counters() == reference_gw.learner.counters()
    assert subject.qoa == reference.qoa
    assert subject_gw.learner.events, "the trace must promote a rule"
    _assert_planes_partition(subject)


def test_retained_artifacts_survive_restore_across_processes():
    """A plane's retained aggregates/clusters travel in its region blobs
    — out of one worker and into a fresh one — instead of dying with the
    worker-side plane object."""
    alerts = multiregion_trace()
    gateway = _build(4, "process")
    gateway.ingest_batch(alerts[:240])
    gateway.flush()
    assert gateway.stats.aggregates_emitted and gateway.stats.clusters_finalized
    restored_gw = _restored(gateway)
    restored_gw.ingest_batch(alerts[240:])
    restored = restored_gw.drain()
    fixed_gw, _ = _run_schedule(alerts, [], 4, "process")
    assert aggregate_fingerprint(restored_gw) == aggregate_fingerprint(fixed_gw)
    assert cluster_fingerprint(restored_gw) == cluster_fingerprint(fixed_gw)
    assert len(restored_gw.aggregates) == restored.aggregates_emitted
    assert len(restored_gw.clusters) == restored.clusters_finalized


def test_capture_is_a_pure_barrier():
    """Back-to-back captures at one barrier read the same image: a
    capture leaves the planes as it found them."""
    alerts = multiregion_trace(160)
    gateway = _build(2, flush_size=16, retain=True)
    try:
        gateway.ingest_batch(alerts[:90])
        gateway.flush()
        first = gateway.checkpoint_state()
        second = gateway.checkpoint_state()
        assert first == second
        assert first["blobs"] and all(
            isinstance(blob, bytes) for blob in first["blobs"]
        )
        gateway.ingest_batch(alerts[90:])
        stats = gateway.drain()
    finally:
        gateway.close()
    reference = _build(2, flush_size=16, retain=True)
    reference.ingest_batch(alerts[:90])
    reference.flush()
    reference.ingest_batch(alerts[90:])
    assert counts(stats) == counts(reference.drain())


def test_restore_before_any_ingestion():
    """An empty capture restores to a gateway that runs exactly like a
    fresh one, workers included."""
    fresh = _build(3, "process", retain=False)
    state = fresh.checkpoint_state()
    assert state["blobs"] == [] and state["assignments"] == []
    restored = _restored(fresh)
    assert restored.n_planes == 3
    alerts = multiregion_trace(120)
    restored.ingest_batch(alerts)
    stats = restored.drain()
    reference = _build(3, "process", retain=False)
    reference.ingest_batch(alerts)
    assert counts(stats) == counts(reference.drain())
    _assert_planes_partition(stats)


def test_checkpoint_after_drain_is_rejected():
    gateway = _build(2, retain=False)
    gateway.ingest_batch(multiregion_trace(30))
    gateway.drain()
    with pytest.raises(ValidationError, match="drained"):
        gateway.checkpoint_state()


# ----------------------------------------------------------------------
# hypothesis schedules (seeded CI job: -m scale_chaos)
# ----------------------------------------------------------------------
#: Under the seeded CI profile (HYPOTHESIS_PROFILE=scale_chaos) the
#: properties run derandomized with a deeper example budget; the tier-1
#: default keeps them quick.  Explicit here because per-test @settings
#: would otherwise override the profile's example count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_SERIAL_EXAMPLES = 100 if _CHAOS_PROFILE else 25
_POOLED_EXAMPLES = 30 if _CHAOS_PROFILE else 8


@st.composite
def schedule_traces(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    times = sorted(draw(st.lists(
        st.floats(min_value=0, max_value=40_000, allow_nan=False),
        min_size=n, max_size=n,
    )))
    alerts = []
    for index, occurred_at in enumerate(times):
        strategy = draw(st.sampled_from(_STRATEGIES))
        alerts.append(Alert(
            alert_id=f"c-{index:04d}",
            strategy_id=strategy,
            strategy_name=strategy,
            title=draw(st.sampled_from(("latency high", "errors 500 spiking"))),
            description="schedule",
            severity=draw(st.sampled_from(list(Severity))),
            service="svc",
            microservice=draw(st.sampled_from(_MICROS)),
            region=draw(st.sampled_from(_REGIONS)),
            datacenter="dc",
            channel="metric",
            occurred_at=occurred_at,
        ))
    return alerts


schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.sampled_from(("capture", "restore", "restore", "flush")),
    ),
    min_size=1, max_size=4,
)


@pytest.mark.scale_chaos
@settings(max_examples=_SERIAL_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(
    alerts=schedule_traces(),
    schedule=schedules,
    n_planes=st.integers(min_value=1, max_value=4),
    flush_size=st.sampled_from((1, 7, 64)),
)
def test_schedule_parity(alerts, schedule, n_planes, flush_size):
    """Any interleaving of ingest/capture/restore/flush drains equal to a
    *clean* run (learning off — accounting is flush-schedule-invariant,
    so the reference needs no barriers)."""
    _assert_same_run(
        _run_schedule(alerts, schedule, n_planes, "serial", flush_size),
        _run_schedule(alerts, [], n_planes, "serial", flush_size),
    )


@pytest.mark.scale_chaos
@settings(max_examples=_POOLED_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(alerts=schedule_traces(), schedule=schedules)
def test_schedule_backend_equivalence(alerts, schedule):
    """The same schedule is backend-invariant: process execution, with
    its captures and restores crossing the worker boundary, reproduces
    the serial run exactly."""
    serial_gw, serial = _run_schedule(alerts, schedule, 2, "serial")
    pooled_gw, pooled = _run_schedule(alerts, schedule, 2, "process")
    assert counts(serial) == counts(pooled)
    assert aggregate_fingerprint(serial_gw) == aggregate_fingerprint(pooled_gw)
    assert cluster_fingerprint(serial_gw) == cluster_fingerprint(pooled_gw)


@pytest.mark.scale_chaos
@settings(max_examples=_POOLED_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(
    alerts=schedule_traces(),
    schedule=schedules,
    n_planes=st.integers(min_value=1, max_value=3),
)
def test_schedule_parity_with_learning(alerts, schedule, n_planes):
    """With online rule learning + QoA, the learned timeline and scores
    match the barrier-mirrored reference exactly."""
    subject_gw, subject = _run_schedule(
        alerts, schedule, n_planes, "serial", learn=True, retain=False,
    )
    reference_gw, reference = _run_schedule(
        alerts, _mirrored(schedule), n_planes, "serial", learn=True,
        retain=False,
    )
    assert counts(subject) == counts(reference)
    assert subject_gw.learner.events == reference_gw.learner.events
    assert subject.qoa == reference.qoa
