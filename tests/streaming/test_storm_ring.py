"""R4's rate ring, case by case.

:class:`~repro.streaming.storm.OnlineStormDetector` keeps each region's
rolling hourly volume in its :class:`RegionStormState` record: ``counts``
(one slot per ``bucket_seconds`` bucket, spanning one hour), the newest
absolute bucket ``head`` and a running ``total``.  The property suite
compares whole streams against a per-alert reference; these cases pin
the ring's edges one at a time, reading the record through
``export_region`` (the checkpoint unit).
"""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.streaming import OnlineStormDetector

from tests.streaming.conftest import make_alert


def _ring(times: list[float], **options):
    """Feed one region's events (one batch each) and export its record.

    The export detaches the region, so its lifetime counts are read from
    the record, not from the detector."""
    detector = OnlineStormDetector(**options)
    for occurred_at in times:
        detector.ingest_batch([make_alert(occurred_at, region="r")])
    return detector.export_region("r")


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

    def test_rejects_nonpositive_settings(self):
        with pytest.raises(ValidationError, match="bucket_seconds"):
            OnlineStormDetector(bucket_seconds=0.0)
        with pytest.raises(ValidationError, match="flood_hourly_threshold"):
            OnlineStormDetector(flood_hourly_threshold=0)
