"""Partitioned ingress lanes: parity, builder byte-identity, lifecycle.

The lane path moves routing-adjacent work (buffering, wire-encoding,
worker hand-off) off the gateway thread, so the one thing these tests
must pin down is that it changes *nothing observable*: drain accounting
and retained artifacts are byte-identical to the classic single-threaded
serial ingress for every plane count × lane count × transport, and the
reusable :class:`~repro.streaming.wire.AlertBatchBuilder` emits exactly
``pack_alerts``'s bytes.  Lanes only ever feed ``process`` workers, so
every lane case runs there.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.streaming import (
    AlertBatchBuilder,
    AlertGateway,
    iter_jsonl_alerts,
    pack_alerts,
)
from repro.streaming.rings import SpscRing
from tests.streaming.conftest import make_alert
from tests.streaming.test_golden_trace import (
    TRACE_PATH,
    WINDOW,
    golden_blocker,
    golden_graph,
)


#: The one backend lanes feed, kept to two worker processes.
PROCESS = dict(backend="process", n_workers=2)


@pytest.fixture(scope="module")
def golden_alerts():
    return list(iter_jsonl_alerts(TRACE_PATH))


def _run(alerts, *, backend="serial", n_planes=4, ingress_lanes=1, **kwargs):
    gateway = AlertGateway(
        golden_graph(), blocker=golden_blocker(), backend=backend,
        n_planes=n_planes, ingress_lanes=ingress_lanes,
        aggregation_window=WINDOW, correlation_window=WINDOW, **kwargs,
    )
    gateway.ingest_batch(alerts)
    stats = gateway.drain()
    return gateway, stats


def _accounting(stats) -> dict:
    return {
        "input_alerts": stats.input_alerts,
        "blocked_alerts": stats.blocked_alerts,
        "aggregates": stats.aggregates_emitted,
        "clusters": stats.clusters_finalized,
        "storm_episodes": stats.storm_episodes,
        "emerging_flags": stats.emerging_flags,
        "late_events": stats.late_events,
        "watermark": stats.watermark,
    }


def _artifacts(gateway) -> tuple:
    return (
        [
            (a.strategy_id, a.region, a.window.start, a.window.end, a.count)
            for a in gateway.aggregates
        ],
        [
            (c.size, c.alerts[0].occurred_at, sorted(a.alert_id for a in c.alerts))
            for c in gateway.clusters
        ],
    )


# ---------------------------------------------------------------------------
# AlertBatchBuilder: byte-identical to pack_alerts, reusable across batches
# ---------------------------------------------------------------------------
class TestAlertBatchBuilder:
    def test_empty_batch_matches_pack_alerts(self):
        assert AlertBatchBuilder().finish() == pack_alerts([])

    def test_golden_trace_bytes_identical(self, golden_alerts):
        builder = AlertBatchBuilder()
        builder.extend(golden_alerts)
        assert builder.finish() == pack_alerts(golden_alerts)

    def test_incremental_append_equals_bulk_extend(self, golden_alerts):
        builder = AlertBatchBuilder()
        for alert in golden_alerts[:100]:
            builder.append(alert)
        assert builder.finish() == pack_alerts(golden_alerts[:100])

    def test_optional_fields_covered(self):
        active = make_alert(5.0, cleared_after=None)  # no cleared_at
        active.fault_id = "fault-0007"
        active.tags = {"team": "edge", "ünïcode": "✓ value"}
        cleared = make_alert(10.0, cleared_after=3.5)
        batch = [active, cleared]
        builder = AlertBatchBuilder()
        builder.extend(batch)
        assert builder.finish() == pack_alerts(batch)

    def test_finish_resets_for_reuse(self, golden_alerts):
        builder = AlertBatchBuilder()
        builder.extend(golden_alerts[:50])
        first = builder.finish()
        assert len(builder) == 0
        # The second batch must not see the first batch's string table.
        builder.extend(golden_alerts[50:90])
        second = builder.finish()
        assert first == pack_alerts(golden_alerts[:50])
        assert second == pack_alerts(golden_alerts[50:90])

    def test_len_tracks_appends(self):
        builder = AlertBatchBuilder()
        assert len(builder) == 0
        builder.append(make_alert(1.0))
        builder.append(make_alert(2.0))
        assert len(builder) == 2

    def test_finish_parts_concatenates_to_pack_alerts(self, golden_alerts):
        builder = AlertBatchBuilder()
        builder.extend(golden_alerts[:80])
        parts = builder.finish_parts()
        assert b"".join(parts) == pack_alerts(golden_alerts[:80])
        # finish_parts resets like finish: the next batch starts clean.
        builder.extend(golden_alerts[80:120])
        assert builder.finish() == pack_alerts(golden_alerts[80:120])

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.floats(0.0, 1000.0),
                    st.booleans(),
                ),
                max_size=12,
            ),
            min_size=1, max_size=6,
        ),
        abort_prefix=st.integers(0, 5),
    )
    def test_interleaved_reuse_matches_one_shot(self, batches, abort_prefix):
        """One long-lived builder, arbitrary append/extend interleavings,
        and mid-build resets: every finish is byte-identical to a
        one-shot ``pack_alerts`` of just that batch."""
        builder = AlertBatchBuilder()
        for i, spec in enumerate(batches):
            alerts = [
                make_alert(
                    t, region=f"region-{r}", strategy_id=f"strategy-{r}",
                    cleared_after=3.0 if cleared else None,
                )
                for r, t, cleared in spec
            ]
            if i % 2 == 0 and alerts:
                # Poison with a half-built batch, then reset: nothing of
                # it — bytes or string-table entries — may leak through.
                builder.extend(alerts[:abort_prefix])
                builder.reset()
            for j, alert in enumerate(alerts):
                if j % 2:
                    builder.append(alert)
                else:
                    builder.extend([alert])
            produced = (
                b"".join(builder.finish_parts()) if i % 2 else builder.finish()
            )
            assert produced == pack_alerts(alerts)


# ---------------------------------------------------------------------------
# Drain parity: lanes × backends × planes vs the classic ingress
# ---------------------------------------------------------------------------
class TestLaneParity:
    @pytest.fixture(scope="class")
    def baseline(self, golden_alerts):
        gateway, stats = _run(
            golden_alerts, backend="serial", n_planes=4,
            ingress_lanes=1, flush_size=64,
        )
        return _accounting(stats), _artifacts(gateway)

    @pytest.mark.parametrize("backend,lanes", [
        ("process", 2),
        # Lane 0 owns planes 0 and 3, which live on different workers.
        ("process", 3),
        ("process", 4),
    ])
    def test_lane_drain_parity(self, golden_alerts, baseline, backend, lanes):
        gateway, stats = _run(
            golden_alerts, backend=backend, n_workers=2, n_planes=4,
            ingress_lanes=lanes, flush_size=64,
        )
        accounting, artifacts = baseline
        assert _accounting(stats) == accounting
        # Retained artifacts survive every transport (the process
        # backend ships them wire-packed at drain) and merge into the
        # same deterministic order.
        assert _artifacts(gateway) == artifacts

    @pytest.mark.parametrize("transport_kwargs,expect_spills", [
        # The classic pickled-pipe hand-off, kept as an explicit knob.
        ({"lane_transport": "pipe"}, None),
        # Slots far too small for any golden batch: every hand-off takes
        # the spill path, which must stay parity-exact with the ring.
        ({"slot_size": 32}, True),
        # A single slot: every write reuses it (continuous wraparound).
        ({"slot_count": 1}, None),
    ])
    def test_process_transport_parity(
        self, golden_alerts, baseline, transport_kwargs, expect_spills,
        monkeypatch,
    ):
        """Ring, spill, and pipe hand-offs all drain bit-identically."""
        options = dict(transport_kwargs)
        geometry = {
            key: options.pop(key)
            for key in ("slot_size", "slot_count") if key in options
        }
        if geometry:
            # Ring geometry is a constant: shrink the rings the backend
            # creates instead.
            create = SpscRing.create.__func__
            monkeypatch.setattr(SpscRing, "create", classmethod(
                lambda cls: create(cls, **geometry)
            ))
        gateway, stats = _run(
            golden_alerts, **PROCESS, n_planes=4,
            ingress_lanes=4, flush_size=64, **options,
        )
        accounting, artifacts = baseline
        assert _accounting(stats) == accounting
        assert _artifacts(gateway) == artifacts
        if expect_spills:
            assert gateway._backend.ring_spills > 0

    def test_per_event_ingest_path_parity(self, golden_alerts, baseline):
        gateway = AlertGateway(
            golden_graph(), blocker=golden_blocker(), **PROCESS,
            n_planes=4, ingress_lanes=4, flush_size=64,
            aggregation_window=WINDOW, correlation_window=WINDOW,
        )
        for alert in golden_alerts:
            assert gateway.ingest_batch([alert]) == 1  # a count, no emissions
        stats = gateway.drain()
        accounting, artifacts = baseline
        assert _accounting(stats) == accounting
        assert _artifacts(gateway) == artifacts

    def test_lanes_clamped_to_planes(self, golden_alerts, baseline):
        gateway, stats = _run(
            golden_alerts, **PROCESS, n_planes=4,
            ingress_lanes=64, flush_size=64,
        )
        assert gateway.ingress_lanes == 4
        accounting, _ = baseline
        assert _accounting(stats) == accounting

    def test_single_plane_degenerates_to_classic(self, golden_alerts):
        gateway, _ = _run(
            golden_alerts, **PROCESS, n_planes=1, ingress_lanes=8,
            flush_size=64,
        )
        assert gateway.ingress_lanes == 1

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 4), st.floats(0.0, 5000.0)),
            min_size=1, max_size=80,
        ),
        lanes=st.integers(2, 3),
        flush_size=st.sampled_from([1, 3, 16]),
    )
    def test_lane_count_invariance_property(self, data, lanes, flush_size):
        """Lanes feeding workers drain like the classic serial ingress on
        arbitrary streams (in-order by construction; regions drawn from a
        small pool)."""
        times = sorted(t for _, t in data)
        alerts = [
            [
                make_alert(
                    t, region=f"region-{r}", strategy_id=f"strategy-{r}",
                )
                for (r, _), t in zip(data, times)
            ]
            for _ in range(2)  # two identical streams, one per run
        ]
        runs = []
        classic, laned = {"ingress_lanes": 1}, {**PROCESS, "ingress_lanes": lanes}
        for stream, options in zip(alerts, (classic, laned)):
            _, stats = _run(
                stream, n_planes=3, flush_size=flush_size, **options,
            )
            accounting = _accounting(stats)
            accounting.pop("watermark")  # equal times, distinct objects
            runs.append(accounting)
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------
class TestLaneConfig:
    def test_unknown_lane_transport_rejected(self):
        with pytest.raises(ValidationError, match="lane transport"):
            AlertGateway(
                golden_graph(), blocker=golden_blocker(),
                n_planes=4, ingress_lanes=2, lane_transport="carrier-pigeon",
            )

    def test_nonpositive_lanes_rejected(self):
        with pytest.raises(ValidationError):
            AlertGateway(
                golden_graph(), blocker=golden_blocker(), ingress_lanes=0,
            )

    def test_backpressure_stalls_are_counted(self, monkeypatch):
        """A full bounded lane queue blocks ingest and counts the stall."""
        import time as _time
        monkeypatch.setattr("repro.streaming.lanes.LANE_QUEUE_DEPTH", 1)
        gateway = AlertGateway(
            golden_graph(), blocker=golden_blocker(), **PROCESS,
            n_planes=2, ingress_lanes=2, flush_size=1,
        )
        inner = gateway._backend.lane_feed_parts

        def slow(*args):
            _time.sleep(0.002)
            return inner(*args)

        gateway._backend.lane_feed_parts = slow
        gateway.ingest_batch([
            make_alert(float(i), region="region-0") for i in range(40)
        ])
        stats = gateway.drain()
        assert stats.lane_stalls > 0
        assert stats.snapshot()["lane_stalls"] == stats.lane_stalls


# ---------------------------------------------------------------------------
# Lifecycle: checkpoint capture/restore, interval stall fix on the lane path
# ---------------------------------------------------------------------------
class TestLaneLifecycle:
    def test_checkpoint_restore_continues_bit_identical(self, golden_alerts):
        kwargs = dict(PROCESS, n_planes=4, flush_size=32)
        split = len(golden_alerts) // 2
        first = AlertGateway(
            golden_graph(), blocker=golden_blocker(), ingress_lanes=2,
            aggregation_window=WINDOW, correlation_window=WINDOW, **kwargs,
        )
        first.ingest_batch(golden_alerts[:split])
        first.flush()
        assert first.at_flush_barrier
        state = first.checkpoint_state()
        first.close()
        # Restore with a *different* lane count: lanes are not part of
        # the strict config — they change where work runs, not counts.
        resumed = AlertGateway(
            golden_graph(), blocker=golden_blocker(), ingress_lanes=4,
            aggregation_window=WINDOW, correlation_window=WINDOW, **kwargs,
        )
        resumed.adopt_checkpoint(state)
        resumed.ingest_batch(golden_alerts[split:])
        resumed_stats = resumed.drain()
        _, uninterrupted = _run(
            golden_alerts, ingress_lanes=1, **kwargs,
        )
        assert _accounting(resumed_stats) == _accounting(uninterrupted)

    def test_capture_with_lanes_matches_classic(self, golden_alerts):
        """A capture mid-stream reads every region in the workers the
        lanes feed; the lanes carry on as if it never happened."""
        def captured(ingress_lanes):
            gateway = AlertGateway(
                golden_graph(), blocker=golden_blocker(), **PROCESS,
                n_planes=4, ingress_lanes=ingress_lanes, flush_size=32,
                aggregation_window=WINDOW, correlation_window=WINDOW,
                retain_artifacts=True,
            )
            gateway.ingest_batch(golden_alerts[:120])
            gateway.flush()
            gateway.checkpoint_state()
            gateway.ingest_batch(golden_alerts[120:])
            return _accounting(gateway.drain()), _artifacts(gateway)
        uncaptured_gw, uncaptured = _run(
            golden_alerts, **PROCESS, flush_size=32, retain_artifacts=True,
        )
        want = (_accounting(uncaptured), _artifacts(uncaptured_gw))
        assert captured(2) == captured(1) == want

    def test_interval_flush_survives_late_tail(self):
        """The lane-path version of the watermark-clamp stall fix."""
        gateway = AlertGateway(
            golden_graph(), blocker=golden_blocker(), **PROCESS,
            n_planes=2, ingress_lanes=2, flush_size=10**6,
            flush_interval=60.0,
        )
        gateway.ingest_batch([make_alert(10_000.0, region="region-A")])
        # An all-late tail: without the anchor clamp the per-plane delta
        # stays ~0 forever and nothing would flush until drain.
        gateway.ingest_batch([
            make_alert(100.0 + i, region="region-A") for i in range(5)
        ])
        gateway.flush()
        assert gateway.stats.late_events == 5
        # Interval triggers fired mid-stream, not just the final barrier.
        assert gateway.stats.flushes >= 5
        gateway.drain()

    def test_barrier_surfaces_lane_errors(self):
        gateway = AlertGateway(
            golden_graph(), blocker=golden_blocker(), **PROCESS,
            n_planes=2, ingress_lanes=2, flush_size=4,
        )
        # Sabotage the backend after construction: the lane thread hits
        # the failure, the *caller* must see it at the next barrier.
        def boom(*_args, **_kwargs):
            raise ValidationError("lane backend failure")
        gateway._backend.lane_feed_parts = boom
        gateway.ingest_batch([
            make_alert(float(i), region=f"region-{i % 2}") for i in range(16)
        ])
        with pytest.raises(ValidationError, match="lane backend failure"):
            gateway.flush()
        gateway.close()

    def test_close_without_drain_stops_lane_threads(self, golden_alerts):
        import threading
        before = {t.name for t in threading.enumerate()}
        gateway = AlertGateway(
            golden_graph(), blocker=golden_blocker(), **PROCESS,
            n_planes=4, ingress_lanes=4, flush_size=16,
        )
        gateway.ingest_batch(golden_alerts[:64])
        gateway.close()
        lingering = {
            t.name for t in threading.enumerate()
            if t.name.startswith("ingress-lane-")
        } - before
        assert not lingering
