"""Schedule parity harness for checkpoint capture and restore.

A gateway's plane count is fixed for life; what moves plane state
between plane objects is the checkpoint: a *capture* reads each plane's
whole state and wire-packs it into one blob, changing nothing, and a
*restore* adopts the packed blobs onto the planes of a fresh gateway
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
from hypothesis import example, given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker
from repro.serving import decode_checkpoint, encode_checkpoint, restore_gateway
from repro.serving.checkpoint import checkpoint_of_gateway
from repro.streaming import AlertGateway, LearnerConfig
from repro.topology import TopologyConfig, generate_topology
from repro.workload import StormConfig, build_multi_region_storm

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
    finalize_every: int = 16,
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
        finalize_every=finalize_every,
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
    finalize_every: int = 16,
    images: list[dict] | None = None,
):
    """Run ``schedule``; with ``images``, append the gateway's
    ``checkpoint_state()`` at every barrier, after the barrier's op."""
    gateway = _build(
        n_planes, backend, flush_size, learn, retain,
        finalize_every=finalize_every,
    )
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
            if images is not None:
                images.append(gateway.checkpoint_state())
        gateway.ingest_batch(alerts[cursor:])
        stats = gateway.drain()
    finally:
        gateway.close()
    return gateway, stats


def _mirrored(schedule: Schedule) -> Schedule:
    """The reference schedule: the same flush barriers, no checkpoints."""
    return [(position, "flush") for position, _ in schedule]


def _assert_restores_invisible(
    schedule: Schedule, subject: list[dict], reference: list[dict],
) -> None:
    """From the first restore on, every barrier's whole capture — plane
    blobs, stats, router map, rules, learner and QoA state — equals the
    barrier-mirrored reference's: a restored gateway continues byte for
    byte like one that never stopped."""
    ops = [op for _, op in sorted(schedule, key=lambda row: row[0])]
    assert len(subject) == len(reference) == len(ops)
    first = ops.index("restore") if "restore" in ops else len(ops)
    for barrier in range(first, len(ops)):
        assert subject[barrier]["blobs"] == reference[barrier]["blobs"], barrier
        assert subject[barrier] == reference[barrier], barrier


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
    """A plane's retained aggregates/clusters travel in its plane blob
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


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_restore_before_any_ingestion(backend):
    """An empty capture holds no plane blob and restores to a gateway
    that runs exactly like a fresh one, workers included."""
    fresh = _build(3, backend, retain=False)
    state = fresh.checkpoint_state()
    assert state["blobs"] == [] and state["planes"] == []
    assert state["assignments"] == []
    restored = _restored(fresh)
    assert restored.n_planes == 3
    alerts = multiregion_trace(120)
    restored.ingest_batch(alerts)
    stats = restored.drain()
    reference = _build(3, backend, retain=False)
    reference.ingest_batch(alerts)
    assert counts(stats) == counts(reference.drain())
    _assert_planes_partition(stats)


def test_restored_storm_captures_like_an_uninterrupted_one():
    """One storm wave (11 004 alerts) on two planes without retained
    artifacts, restored through the durable path at barriers 6 and 13:
    every later capture equals the uninterrupted run's.  The wave is
    long enough for R3 to sweep its timelines, which the drawn
    schedules below are too short for."""
    topology = generate_topology(TopologyConfig(seed=44))
    alerts = list(build_multi_region_storm(
        StormConfig(seed=44), topology,
    ).iter_ordered())
    flush = 512

    def images(restore_at: set[int]) -> list[dict]:
        gateway = AlertGateway(
            topology.graph, n_planes=2, flush_size=flush,
            retain_artifacts=False,
        )
        captured = []
        try:
            for barrier in range(1, len(alerts) // flush + 1):
                gateway.ingest_batch(alerts[(barrier - 1) * flush:barrier * flush])
                if barrier in restore_at:
                    encoded = encode_checkpoint(
                        checkpoint_of_gateway(gateway, seq=1, created_at=0.0))
                    gateway.close()
                    gateway = restore_gateway(
                        decode_checkpoint(encoded), topology.graph)
                captured.append(gateway.checkpoint_state())
        finally:
            gateway.close()
        return captured

    restored, uninterrupted = images({6, 13}), images(set())
    assert len(restored) == 21
    assert [barrier for barrier in range(21)
            if restored[barrier] != uninterrupted[barrier]] == []


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
    finalize_every=st.integers(min_value=1, max_value=24),
    retain=st.booleans(),
)
# A restore at event 26 that drops the planes' finalize countdown: by
# the next barrier the restored gateway has finalised 2 clusters, the
# uninterrupted one 1.
@example(alerts=multiregion_trace(80), schedule=[(26, "restore"), (53, "flush")],
         n_planes=2, flush_size=7, finalize_every=8, retain=False)
def test_schedule_parity(
    alerts, schedule, n_planes, flush_size, finalize_every, retain,
):
    """Any interleaving of ingest/capture/restore/flush drains equal to a
    *clean* run (learning off — accounting is flush-schedule-invariant,
    so the reference needs no barriers), and from the first restore on
    every barrier captures exactly what the barrier-mirrored reference
    captures.  A small ``finalize_every`` makes R3's finalize countdown
    cross restores."""
    run = dict(backend="serial", flush_size=flush_size, retain=retain,
               finalize_every=finalize_every)
    subject_images: list[dict] = []
    mirrored_images: list[dict] = []
    subject = _run_schedule(alerts, schedule, n_planes, images=subject_images, **run)
    _run_schedule(alerts, _mirrored(schedule), n_planes, images=mirrored_images, **run)
    _assert_restores_invisible(schedule, subject_images, mirrored_images)
    _assert_same_run(subject, _run_schedule(alerts, [], n_planes, **run))


@pytest.mark.scale_chaos
@settings(max_examples=_POOLED_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(alerts=schedule_traces(), schedule=schedules)
def test_schedule_backend_equivalence(alerts, schedule):
    """The same schedule is backend-invariant: process execution, with
    its captures and restores crossing the worker boundary, reproduces
    the serial run exactly, and both capture byte-identical plane blobs
    at every barrier."""
    serial_images: list[dict] = []
    pooled_images: list[dict] = []
    serial_gw, serial = _run_schedule(
        alerts, schedule, 2, "serial", images=serial_images)
    pooled_gw, pooled = _run_schedule(
        alerts, schedule, 2, "process", images=pooled_images)
    assert [image["blobs"] for image in serial_images] == [
        image["blobs"] for image in pooled_images]
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
    finalize_every=st.integers(min_value=1, max_value=24),
)
def test_schedule_parity_with_learning(alerts, schedule, n_planes, finalize_every):
    """With online rule learning + QoA, the learned timeline and scores
    match the barrier-mirrored reference exactly, and so does every
    capture from the first restore on."""
    run = dict(backend="serial", learn=True, retain=False,
               finalize_every=finalize_every)
    subject_images: list[dict] = []
    reference_images: list[dict] = []
    subject_gw, subject = _run_schedule(
        alerts, schedule, n_planes, images=subject_images, **run)
    reference_gw, reference = _run_schedule(
        alerts, _mirrored(schedule), n_planes, images=reference_images, **run)
    _assert_restores_invisible(schedule, subject_images, reference_images)
    assert counts(subject) == counts(reference)
    assert subject_gw.learner.events == reference_gw.learner.events
    assert subject.qoa == reference.qoa
