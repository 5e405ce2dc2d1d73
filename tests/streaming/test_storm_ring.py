"""R4's rate ring, case by case.

:class:`~repro.streaming.storm.OnlineStormDetector` keeps each region's
rolling hourly volume in its :class:`RegionStormState` record: ``counts``
(one slot per ``bucket_seconds`` bucket, spanning one hour), the newest
absolute bucket ``head`` and a running ``total``.  The property suite
compares whole streams against a per-alert reference; these cases pin
the ring's edges one at a time, reading the record through
``export`` (what a checkpoint packs).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import ValidationError
from repro.streaming import OnlineStormDetector

from tests.streaming.conftest import make_alert


def _ring(times: list[float], **options):
    """Feed one region's events (one batch each) and read its record."""
    detector = OnlineStormDetector(**options)
    for occurred_at in times:
        detector.ingest_batch([make_alert(occurred_at, region="r")])
    [state], _ = detector.export()
    return state


class TestStormRateRing:
    def test_counts_events_within_the_hour(self):
        state = _ring([0.0, 30.0, 59.0, 120.0], bucket_seconds=60.0)
        assert len(state.counts) == 60
        assert state.head == 2
        assert state.total == sum(state.counts) == 4
        assert state.counts[:3] == [3, 0, 1]

    def test_rolling_past_the_hour_evicts_the_oldest_buckets(self):
        # Bucket 61 reuses the slots of buckets 0 and 1: the two events
        # of bucket 0 leave, the one of bucket 59 stays.
        state = _ring([0.0, 30.0, 3590.0, 3660.0], bucket_seconds=60.0)
        assert state.head == 61
        assert state.total == sum(state.counts) == 2

    def test_a_gap_longer_than_the_ring_zeroes_it_once(self):
        state = _ring([0.0, 1_000_000.0], bucket_seconds=1.0)
        assert len(state.counts) == 3600
        assert state.head == 1_000_000
        assert state.total == sum(state.counts) == 1

    def test_events_older_than_the_ring_are_not_counted(self):
        state = _ring([10_000.0, 0.0, 9_000.0], bucket_seconds=60.0)
        # 0 s is more than an hour behind the head; 9 000 s is inside it.
        assert state.total == sum(state.counts) == 2
        assert state.ingested == 3
        assert state.head == int(10_000.0 / 60.0)

    def test_the_flood_threshold_opens_one_episode(self):
        # 60 one-minute buckets span exactly one hour, so the rate is the
        # ring total: the 100th event of the hour crosses the threshold.
        times = [10.0 * index for index in range(120)]
        assert _ring(times[:99], flood_hourly_threshold=100).episode_count == 0
        state = _ring(times, flood_hourly_threshold=100)
        assert state.episode_count == 1
        assert state.episode_started_at == times[99]
        assert state.episode_peak_rate == 120.0

    def test_hysteresis_closes_below_half_and_reopens(self):
        flood = [10.0 * index for index in range(100)]
        quiet = [10_000.0]  # the hour rolled past: rate 1 < 50 closes it
        again = [20_000.0 + 10.0 * index for index in range(100)]
        state = _ring(flood + quiet, flood_hourly_threshold=100)
        assert state.episode_count == 1
        assert state.episode_started_at is None
        assert state.episode_peak_rate == 0.0
        state = _ring(flood + quiet + again, flood_hourly_threshold=100)
        assert state.episode_count == 2
        assert state.episode_started_at == again[-1]

    def test_capture_changes_nothing_and_a_copy_restores(self):
        """``export`` reads the live records and leaves the detector as
        it was; copies of them (what a checkpoint's pack and unpack hand
        a restore) continue on a fresh detector exactly as the originals
        do."""
        flood = [10.0 * index for index in range(120)]
        detector = OnlineStormDetector(flood_hourly_threshold=100)
        for occurred_at in flood:
            detector.ingest_batch([
                make_alert(occurred_at, region="r"),
                make_alert(occurred_at, region="q", strategy_id="s-q"),
            ])
        counts = (detector.episode_count, detector.emerging_count, detector._ingested)
        states, swept_at = detector.export()
        assert [state.region for state in states] == ["q", "r"]
        assert states[1] is detector.export()[0][1]
        assert (detector.episode_count, detector.emerging_count, detector._ingested) == counts
        restored = OnlineStormDetector(flood_hourly_threshold=100)
        restored.adopt([
            replace(state, counts=list(state.counts), last_seen=dict(state.last_seen))
            for state in states
        ], swept_at)
        assert (restored.episode_count, restored.emerging_count, restored._ingested) == counts
        for instance in (detector, restored):
            instance.ingest_batch([make_alert(10_000.0, region="r")])
        assert restored.export() == detector.export()

    def test_the_sweep_time_travels_with_the_records(self):
        """A restored detector keeps the captured sweep time, so its next
        recency sweep falls where the captured detector's does: not
        within a quarter horizon of the last one."""
        detector = OnlineStormDetector(novelty_horizon=100.0, warmup_alerts=1)
        detector.ingest_batch([
            make_alert(0.001 * index, region="r", strategy_id=f"s-{index}")
            for index in range(4_095)
        ])
        # The 4 096th entry arms the sweep; nothing is past the horizon.
        detector.ingest_batch([make_alert(90.0, region="r", strategy_id="s-late")])
        states, swept_at = detector.export()
        assert swept_at == 90.0 and len(states[0].last_seen) == 4_096

        def copy():
            return [replace(states[0], counts=list(states[0].counts),
                            last_seen=dict(states[0].last_seen))]

        restored = OnlineStormDetector(novelty_horizon=100.0, warmup_alerts=1)
        restored.adopt(copy(), swept_at)
        forgetful = OnlineStormDetector(novelty_horizon=100.0, warmup_alerts=1)
        forgetful.adopt(copy())
        for instance in (detector, restored, forgetful):
            instance.ingest_batch([make_alert(110.0, region="r")])
        assert restored.export() == detector.export()
        assert len(detector.export()[0][0].last_seen) == 4_097
        assert len(forgetful.export()[0][0].last_seen) == 2

    def test_rejects_nonpositive_settings(self):
        with pytest.raises(ValidationError, match="bucket_seconds"):
            OnlineStormDetector(bucket_seconds=0.0)
        with pytest.raises(ValidationError, match="flood_hourly_threshold"):
            OnlineStormDetector(flood_hourly_threshold=0)
