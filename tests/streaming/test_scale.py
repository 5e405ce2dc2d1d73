"""Chaos-schedule parity harness for live plane scale-out.

``gateway.scale_planes(n)`` promises *bit-identical invisibility*: any
schedule of scale events interleaved with ingestion and mid-stream
flushes must drain to exactly the same volume
accounting, aggregates, clusters, storm verdicts, and (with learning
enabled) learned-rule timeline and QoA scores as a gateway built with
the final plane count from the start — on every backend.

Two layers pin that down:

* deterministic schedules over a storm-heavy multi-region trace,
  parametrized across serial/process × flush sizes;
* a hypothesis chaos property (marked ``scale_chaos``; CI runs it as a
  dedicated job with the seeded ``scale_chaos`` profile) generating
  arbitrary interleavings of ``ingest_batch`` / ``scale_planes`` /
  ``flush`` over randomized traces.

With rule learning **off**, the reference run is completely clean — no
barriers at all — so the assertion is the strongest form: any chaos
schedule ≡ a plain fixed-topology run.  With learning **on**, the
learner's judgment positions follow the flush schedule by design (every
flush is a judgment round), so the reference run mirrors the schedule's
flush barriers: each ``scale_planes(n)`` becomes ``scale_planes(
final_n)`` — a pure barrier that moves nothing — and flushes stay.
That is exactly the invisibility claim: the *migration* contributes
nothing observable beyond the barrier it rides on.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.streaming import AlertGateway, LearnerConfig, PlaneRouter

from tests.streaming.conftest import make_alert
from tests.streaming.test_golden_trace import golden_graph

_REGIONS = ("region-A", "region-B", "region-C", "region-D", "region-E")
_STRATEGIES = ("s-api", "s-cache", "s-db", "s-queue", "s-noise")
_MICROS = ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6")


def _blocker() -> AlertBlocker:
    return AlertBlocker([
        BlockingRule(strategy_id="s-noise", reason="chaos: repeating"),
        BlockingRule(strategy_id="s-cache", region="region-B",
                     reason="chaos: toggling in one region"),
    ])


def _storm_trace(n: int = 480) -> list[Alert]:
    """Deterministic multi-region trace with floods, gaps, and novelty.

    Region-A gets a real flood (crosses the 100/h storm threshold);
    the other regions see interleaved sub-flood traffic with session
    gaps, so R2/R3/R4 all carry non-trivial open state across any
    scale point the schedules pick.
    """
    alerts: list[Alert] = []
    for index in range(n):
        if index % 3 == 0:
            # The flood lane: every third event lands in region-A,
            # 20s apart -> ~180/h once the window fills.
            region = "region-A"
            occurred_at = (index // 3) * 20.0
        else:
            region = _REGIONS[1 + index % (len(_REGIONS) - 1)]
            occurred_at = (index // 3) * 20.0 + (index % 3) * 6.0
        alerts.append(make_alert(
            occurred_at=occurred_at,
            strategy_id=_STRATEGIES[index % len(_STRATEGIES)],
            region=region,
            microservice=_MICROS[index % len(_MICROS)],
            severity=list(Severity)[index % 4],
            cleared_after=30.0 if index % 4 == 0 else 1200.0,
        ))
    alerts.sort(key=lambda alert: alert.occurred_at)
    return alerts


def _counts(stats) -> tuple:
    return (
        stats.input_alerts,
        stats.blocked_alerts,
        stats.aggregates_emitted,
        stats.clusters_finalized,
        stats.storm_episodes,
        stats.emerging_flags,
    )


def _aggregate_fingerprint(gateway) -> list[tuple]:
    return [
        (a.strategy_id, a.region, a.count, a.window.start, a.window.end,
         tuple(a.alert_ids))
        for a in gateway.aggregates
    ]


def _cluster_fingerprint(gateway) -> list[tuple]:
    # Tie-robust canonical form: member sets, root microservice, and
    # coverage identify a cluster regardless of equal-timestamp member
    # ordering inside the union-find.
    return sorted(
        (tuple(sorted(alert.alert_id for alert in c.alerts)),
         c.root_microservice, round(c.coverage, 9))
        for c in gateway.clusters
    )


def _assert_planes_partition(stats) -> None:
    planes = stats.planes.values()
    assert set(stats.planes) == set(range(stats.n_planes))
    assert sum(p["processed"] for p in planes) == stats.input_alerts
    assert sum(p["blocked"] for p in planes) == stats.blocked_alerts
    assert sum(p["aggregates"] for p in planes) == stats.aggregates_emitted
    assert sum(p["clusters"] for p in planes) == stats.clusters_finalized
    assert sum(p["storm_episodes"] for p in planes) == stats.storm_episodes
    assert sum(p["emerging_flags"] for p in planes) == stats.emerging_flags


#: One chaos schedule: ``(position, op, arg)`` rows, positions in event
#: counts; ops are "scale" / "flush".
Schedule = list[tuple[int, str, int]]


def _run_schedule(
    alerts: list[Alert],
    schedule: Schedule,
    n_planes: int,
    backend: str = "serial",
    flush_size: int = 32,
    learn: bool = False,
    retain: bool = True,
    blocker: AlertBlocker | None = None,
):
    gateway = AlertGateway(
        golden_graph(),
        blocker=blocker if blocker is not None else (
            AlertBlocker() if learn else _blocker()
        ),
        backend=backend,
        n_planes=n_planes,
        n_workers=2,
        flush_size=flush_size,
        retain_artifacts=retain,
        learn_rules=learn,
        enable_qoa=learn,
        learner_config=LearnerConfig(
            window_seconds=1800.0, min_alerts=10, repeat_count=15,
            rule_ttl=1800.0,
        ) if learn else None,
    )
    cursor = 0
    for position, op, arg in sorted(schedule, key=lambda row: row[0]):
        cut = min(max(position, cursor), len(alerts))
        gateway.ingest_batch(alerts[cursor:cut])
        cursor = cut
        if op == "scale":
            gateway.scale_planes(arg)
        elif op == "flush":
            gateway.flush()
            stats = gateway.stats
            assert sum(
                row["processed"] for row in stats.planes.values()
            ) == stats.input_alerts
    gateway.ingest_batch(alerts[cursor:])
    stats = gateway.drain()
    return gateway, stats


def _final_planes(schedule: Schedule, initial: int) -> int:
    planes = initial
    for _, op, arg in sorted(schedule, key=lambda row: row[0]):
        if op == "scale":
            planes = arg
    return planes


def _mirrored(schedule: Schedule, final: int) -> Schedule:
    """The reference schedule: same flush barriers, no migrations."""
    return [
        (position, op, final if op == "scale" else arg)
        for position, op, arg in schedule
    ]


# ----------------------------------------------------------------------
# deterministic schedules, full backend x flush matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("flush_size", [1, 32, 128])
class TestScaleInvisibility:
    def test_scale_out_matches_fixed_final(self, backend, flush_size):
        alerts = _storm_trace()
        schedule = [(160, "scale", 4)]
        scaled_gw, scaled = _run_schedule(
            alerts, schedule, 1, backend, flush_size,
        )
        fixed_gw, fixed = _run_schedule(
            alerts, [], 4, backend, flush_size,
        )
        assert _counts(scaled) == _counts(fixed)
        assert _aggregate_fingerprint(scaled_gw) == _aggregate_fingerprint(fixed_gw)
        assert _cluster_fingerprint(scaled_gw) == _cluster_fingerprint(fixed_gw)
        _assert_planes_partition(scaled)

    def test_scale_in_matches_fixed_final(self, backend, flush_size):
        alerts = _storm_trace()
        schedule = [(200, "scale", 2)]
        scaled_gw, scaled = _run_schedule(
            alerts, schedule, 4, backend, flush_size,
        )
        fixed_gw, fixed = _run_schedule(
            alerts, [], 2, backend, flush_size,
        )
        assert _counts(scaled) == _counts(fixed)
        assert _aggregate_fingerprint(scaled_gw) == _aggregate_fingerprint(fixed_gw)
        assert _cluster_fingerprint(scaled_gw) == _cluster_fingerprint(fixed_gw)
        _assert_planes_partition(scaled)

    def test_chaotic_mixed_schedule(self, backend, flush_size):
        """Scale out, flush, scale in, flush, scale out again — all
        mid-stream, against a clean fixed-final run."""
        alerts = _storm_trace()
        schedule = [
            (70, "scale", 3),
            (190, "flush", 0),
            (250, "scale", 1),
            (310, "flush", 0),
            (370, "scale", 4),
        ]
        scaled_gw, scaled = _run_schedule(
            alerts, schedule, 2, backend, flush_size,
        )
        fixed_gw, fixed = _run_schedule(
            alerts, [], 4, backend, flush_size,
        )
        assert _counts(scaled) == _counts(fixed)
        assert _aggregate_fingerprint(scaled_gw) == _aggregate_fingerprint(fixed_gw)
        assert _cluster_fingerprint(scaled_gw) == _cluster_fingerprint(fixed_gw)
        assert scaled.plane_scales == 3
        assert [row["to_planes"] for row in scaled.scales] == [3, 1, 4]
        _assert_planes_partition(scaled)


# Learning and QoA run on the serial backend only.
@pytest.mark.parametrize("backend", ["serial"])
def test_scale_invisibility_with_learning(backend):
    """Learned-rule timeline and QoA survive migrations bit-identically.

    The reference run mirrors the schedule's flush barriers (scales
    become no-op barriers at the final plane count), because the
    learner's judgment cadence *is* the flush schedule; everything else
    — evidence, promotions, TTLs, QoA counters — must be untouched by
    the migrations themselves.
    """
    alerts = _storm_trace()
    schedule = [(120, "scale", 3), (260, "flush", 0), (360, "scale", 2)]
    scaled_gw, scaled = _run_schedule(
        alerts, schedule, 1, backend, learn=True, retain=False,
    )
    mirrored = _mirrored(schedule, 2)
    fixed_gw, fixed = _run_schedule(
        alerts, mirrored, 2, backend, learn=True, retain=False,
    )
    assert _counts(scaled) == _counts(fixed)
    assert scaled_gw.learner.events == fixed_gw.learner.events
    assert scaled_gw.learner.counters() == fixed_gw.learner.counters()
    assert scaled.qoa == fixed.qoa
    assert scaled_gw.learner.scale_positions == [120, 360]
    _assert_planes_partition(scaled)


def test_retained_artifacts_survive_scale_in_across_processes():
    """A dropped plane's retained aggregates/clusters migrate with its
    regions — over the wire for the process backend — instead of dying
    with the worker-side plane object."""
    alerts = _storm_trace()
    scaled_gw, scaled = _run_schedule(
        alerts, [(240, "scale", 1)], 4, "process", retain=True,
    )
    fixed_gw, fixed = _run_schedule(alerts, [], 1, "process", retain=True)
    assert _aggregate_fingerprint(scaled_gw) == _aggregate_fingerprint(fixed_gw)
    assert _cluster_fingerprint(scaled_gw) == _cluster_fingerprint(fixed_gw)
    assert len(scaled_gw.aggregates) == scaled.aggregates_emitted
    assert len(scaled_gw.clusters) == scaled.clusters_finalized


def test_scale_to_current_count_is_a_pure_barrier():
    alerts = _storm_trace(120)
    gateway = AlertGateway(golden_graph(), blocker=_blocker(), n_planes=2,
                           flush_size=16, retain_artifacts=False)
    gateway.ingest_batch(alerts[:60])
    moved = gateway.scale_planes(2)
    assert moved == {}
    assert gateway.stats.plane_scales == 1
    assert gateway.stats.scales[0]["moved_regions"] == 0
    gateway.ingest_batch(alerts[60:])
    stats = gateway.drain()
    reference = AlertGateway(golden_graph(), blocker=_blocker(), n_planes=2,
                             flush_size=16, retain_artifacts=False)
    reference.ingest_batch(alerts)
    assert _counts(stats) == _counts(reference.drain())


def test_scale_before_any_ingestion():
    gateway = AlertGateway(golden_graph(), blocker=_blocker(), n_planes=1,
                           backend="process", n_workers=2, flush_size=32,
                           retain_artifacts=False)
    assert gateway.scale_planes(3) == {}
    assert gateway.n_planes == 3
    alerts = _storm_trace(120)
    gateway.ingest_batch(alerts)
    stats = gateway.drain()
    reference = AlertGateway(golden_graph(), blocker=_blocker(), n_planes=3,
                             backend="process", n_workers=2, flush_size=32,
                             retain_artifacts=False)
    reference.ingest_batch(alerts)
    assert _counts(stats) == _counts(reference.drain())


def test_scale_after_drain_is_rejected():
    gateway = AlertGateway(golden_graph(), blocker=_blocker(),
                           retain_artifacts=False)
    gateway.ingest_batch(_storm_trace(30))
    gateway.drain()
    with pytest.raises(ValidationError, match="drained"):
        gateway.scale_planes(2)


def test_failed_migration_poisons_the_gateway():
    """If the backend raises mid-scale, routing and plane state may be
    divergent — further ingestion must fail loudly, not silently split
    open sessions across planes."""
    gateway = AlertGateway(golden_graph(), blocker=_blocker(), n_planes=2,
                           flush_size=16, retain_artifacts=False)
    alerts = _storm_trace(120)
    gateway.ingest_batch(alerts[:60])

    def exploding_scale(n_planes, moved):
        raise RuntimeError("worker died mid-migration")

    gateway._backend.scale = exploding_scale
    with pytest.raises(RuntimeError, match="mid-migration"):
        gateway.scale_planes(3)
    with pytest.raises(ValidationError, match="drained"):
        gateway.ingest_batch(alerts[60:])


def test_scale_rejects_nonpositive_plane_count():
    gateway = AlertGateway(golden_graph(), blocker=_blocker(),
                           retain_artifacts=False)
    with pytest.raises(ValidationError):
        gateway.scale_planes(0)


def test_rescale_matches_fresh_router_replay():
    """Post-rescale assignments equal a fresh router fed the same
    first-seen sequence — the invariant scale invisibility rests on."""
    router = PlaneRouter(2)
    regions = [f"r-{index}" for index in range(11)]
    for region in regions[:5]:
        router.plane_of(region)
    moved = router.rescale(3)
    for region in regions[5:8]:
        router.plane_of(region)
    router.rescale(5)
    for region in regions[8:]:
        router.plane_of(region)
    fresh = PlaneRouter(5)
    for region in regions:
        fresh.plane_of(region)
    assert router.assignments == fresh.assignments
    assert all(old != new for old, new in moved.values())


def test_learner_evidence_is_plane_attribution_invariant():
    """The evidence re-homing guarantee, directly: the same observation
    rows, attributed to different plane splits (what a migration changes),
    produce identical learned timelines — nothing lost, nothing double-
    counted."""
    from repro.streaming import OnlineRuleLearner

    config = LearnerConfig(window_seconds=600.0, min_alerts=5,
                           repeat_count=8, rule_ttl=600.0)
    rows = [
        ("s-noise", "region-A", "svc", 6, 0, 4, 1),
        ("s-noise", "region-B", "svc", 5, 0, 3, 1),
        ("s-api", "region-A", "svc", 3, 0, 0, 1),
    ]
    one_plane = OnlineRuleLearner(config)
    for step in range(4):
        one_plane.observe(list(rows), 100.0 * (step + 1), 20 * (step + 1))
    split = OnlineRuleLearner(config)
    for step in range(4):
        # Post-migration attribution: same rows, reported by different
        # planes in a different concatenation order.
        split.observe(list(reversed(rows)), 100.0 * (step + 1), 20 * (step + 1))
        if step == 1:
            split.note_topology_change(20 * (step + 1))
    assert one_plane.events == split.events
    assert one_plane.counters() == split.counters()
    assert split.scale_positions == [40]


# ----------------------------------------------------------------------
# hypothesis chaos schedules (dedicated CI job: -m scale_chaos)
# ----------------------------------------------------------------------
#: Under the seeded CI profile (HYPOTHESIS_PROFILE=scale_chaos) the
#: properties run derandomized with a deeper example budget; the tier-1
#: default keeps them quick.  Explicit here because per-test @settings
#: would otherwise override the profile's example count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_SERIAL_EXAMPLES = 100 if _CHAOS_PROFILE else 25
_POOLED_EXAMPLES = 30 if _CHAOS_PROFILE else 10


@st.composite
def chaos_traces(draw):
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
            description="chaos",
            severity=draw(st.sampled_from(list(Severity))),
            service="svc",
            microservice=draw(st.sampled_from(_MICROS)),
            region=draw(st.sampled_from(_REGIONS[:4])),
            datacenter="dc",
            channel="metric",
            occurred_at=occurred_at,
        ))
    return alerts


@st.composite
def chaos_schedules(draw):
    n_ops = draw(st.integers(min_value=1, max_value=4))
    schedule: Schedule = []
    for _ in range(n_ops):
        position = draw(st.integers(min_value=0, max_value=120))
        op = draw(st.sampled_from(("scale", "scale", "flush")))
        arg = draw(st.integers(min_value=1, max_value=4)) if op == "scale" else 0
        schedule.append((position, op, arg))
    return schedule


@pytest.mark.scale_chaos
@settings(max_examples=_SERIAL_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(
    alerts=chaos_traces(),
    schedule=chaos_schedules(),
    initial_planes=st.integers(min_value=1, max_value=4),
    flush_size=st.sampled_from((1, 7, 64)),
)
def test_chaos_schedule_parity(alerts, schedule, initial_planes, flush_size):
    """Any interleaving of ingest/scale/flush drains equal to a
    *clean* run at the final plane count (learning off — accounting is
    flush-schedule-invariant, so the reference needs no barriers)."""
    scaled_gw, scaled = _run_schedule(
        alerts, schedule, initial_planes, "serial", flush_size,
    )
    final = _final_planes(schedule, initial_planes)
    fixed_gw, fixed = _run_schedule(
        alerts, [], final, "serial", flush_size,
    )
    assert _counts(scaled) == _counts(fixed)
    assert _aggregate_fingerprint(scaled_gw) == _aggregate_fingerprint(fixed_gw)
    assert _cluster_fingerprint(scaled_gw) == _cluster_fingerprint(fixed_gw)
    _assert_planes_partition(scaled)


@pytest.mark.scale_chaos
@settings(max_examples=_POOLED_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(alerts=chaos_traces(), schedule=chaos_schedules())
def test_chaos_schedule_backend_equivalence(alerts, schedule):
    """The same chaos schedule is backend-invariant: process execution
    reproduces the serial run exactly, migrations included."""
    serial_gw, serial = _run_schedule(alerts, schedule, 2, "serial")
    pooled_gw, pooled = _run_schedule(alerts, schedule, 2, "process")
    assert _counts(serial) == _counts(pooled)
    assert _aggregate_fingerprint(serial_gw) == _aggregate_fingerprint(pooled_gw)
    assert _cluster_fingerprint(serial_gw) == _cluster_fingerprint(pooled_gw)


@pytest.mark.scale_chaos
@settings(max_examples=_POOLED_EXAMPLES, deadline=None,
          derandomize=_CHAOS_PROFILE)
@given(
    alerts=chaos_traces(),
    schedule=chaos_schedules(),
    initial_planes=st.integers(min_value=1, max_value=3),
)
def test_chaos_schedule_parity_with_learning(alerts, schedule, initial_planes):
    """With online rule learning + QoA, the learned timeline and scores
    match the barrier-mirrored fixed-topology reference exactly."""
    scaled_gw, scaled = _run_schedule(
        alerts, schedule, initial_planes, "serial", learn=True, retain=False,
    )
    final = _final_planes(schedule, initial_planes)
    fixed_gw, fixed = _run_schedule(
        alerts, _mirrored(schedule, final), final, "serial", learn=True,
        retain=False,
    )
    assert _counts(scaled) == _counts(fixed)
    assert scaled_gw.learner.events == fixed_gw.learner.events
    assert scaled.qoa == fixed.qoa
