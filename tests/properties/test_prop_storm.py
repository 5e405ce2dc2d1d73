"""Property: R4's per-region fold equals the per-alert reference.

``OnlineStormDetector.ingest_batch`` splits a batch into region groups
and folds each in one pass over the region's record: the ring update is
inlined (the head bucket's count stays implicit in the running total
until an event leaves it, an event inside the head bucket's certain
interval skips the division, skipped slots are cleared by slices), the
episode hysteresis and the novelty band compare the ring total against
integer cutoffs, and the novelty recency map is keyed per region.  The
reference below is the straightforward per-alert form: a standalone ring counter (add, then
rate) per region, one ``_Episode`` object per episode, and one
``(strategy, region)`` recency key per alert, with the recency sweep run
once per batch like the detector's.

Over drawn streams — 1–5 interleaved regions, equal timestamps, late
events inside and beyond the ring, far-future jumps, bucket widths
0.3–60 s, thresholds 2–100, novelty horizons, warmup prefixes and cut
schedules, with checkpoint restores at the cuts (``export`` captures,
which change nothing, adopted as copies into fresh detectors, some
regions onto another one) — both must hold the same
ring, open episode, recency map and per-region counts at every cut,
and fed one alert at a time they must produce the same episodes to the
last bit (``float.hex``).  Two exhaustive checks pin the arithmetic
the fold relies on: the integer cutoffs decide exactly as the float rate
compares, and the head-bucket interval never holds a time of another
bucket.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.common.timeutil import HOUR
from repro.streaming.storm import (
    OnlineStormDetector,
    RegionStormState,
    _cutoffs,
    _head_interval,
)
from tests.streaming.conftest import make_alert

_REGIONS = ("region-A", "region-B", "region-C", "region-D", "region-E")
#: Event kinds by weight (out of 100): floods of bursts build storms,
#: rare gaps and far-future jumps end them.
_KINDS = (
    ("burst", 50), ("step", 20), ("tie", 10), ("late", 5), ("edge", 3),
    ("stale", 3), ("again", 4), ("gap", 3), ("jump", 2),
)
_KIND_OF = tuple(kind for kind, weight in _KINDS for _ in range(weight))

#: Deeper and derandomized under the seeded CI profile; explicit here
#: because the per-test @settings would override the profile's count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = 400 if _CHAOS_PROFILE else 80


class _Ring:
    """Per-alert ring counter: ``add`` then the hourly rate."""

    def __init__(self, bucket_seconds: float, n_buckets: int) -> None:
        self.bucket_seconds = bucket_seconds
        self.n = n_buckets
        self.counts = [0] * n_buckets
        self.total = 0
        self.head: int | None = None

    def add_and_rate(self, time: float) -> float:
        bucket = int(math.floor(time / self.bucket_seconds))
        if self.head is None:
            self.head = bucket
        elif bucket > self.head:
            steps = min(bucket - self.head, self.n)
            for offset in range(1, steps + 1):
                slot = (self.head + offset) % self.n
                self.total -= self.counts[slot]
                self.counts[slot] = 0
            self.head = bucket
        elif bucket < self.head - self.n + 1:
            return self.total * (3600.0 / (self.bucket_seconds * self.n))
        self.counts[bucket % self.n] += 1
        self.total += 1
        return self.total * (3600.0 / (self.bucket_seconds * self.n))


@dataclass
class _Episode:
    region: str
    started_at: float
    peak_rate: float
    ended_at: float | None = None


class _Reference:
    """The R4 rules written out one alert at a time."""

    def __init__(self, threshold, bucket_seconds, horizon, warmup) -> None:
        self.threshold = threshold
        self.bucket_seconds = bucket_seconds
        self.horizon = horizon
        self.warmup = warmup
        self.rings: dict[str, _Ring] = {}
        self.active: dict[str, _Episode] = {}
        self.last_seen: dict[tuple[str, str], float] = {}
        self.last_sweep_at: float | None = None
        self.ingested = 0
        self.by_region: dict[str, list[int]] = {}  # [episodes, emerging, ingested]
        self.episodes: list[_Episode] = []
        self.episode_count = 0
        self.emerging_count = 0

    def ingest_batch(self, alerts, in_warmup=None) -> None:
        if not alerts:
            return
        if in_warmup is None:
            in_warmup = min(max(self.warmup - self.ingested, 0), len(alerts))
        self.ingested += len(alerts)
        threshold = self.threshold
        for position, alert in enumerate(alerts):
            region = alert.region
            row = self.by_region.setdefault(region, [0, 0, 0])
            row[2] += 1
            ring = self.rings.get(region)
            if ring is None:
                ring = self.rings[region] = _Ring(
                    self.bucket_seconds, max(int(HOUR / self.bucket_seconds), 1),
                )
            rate = ring.add_and_rate(alert.occurred_at)
            episode = self.active.get(region)
            if episode is None:
                if rate >= threshold:
                    episode = _Episode(region, alert.occurred_at, rate)
                    self.active[region] = episode
                    self.episodes.append(episode)
                    self.episode_count += 1
                    row[0] += 1
            else:
                if rate > episode.peak_rate:
                    episode.peak_rate = rate
                if rate < threshold / 2:
                    episode.ended_at = alert.occurred_at
                    del self.active[region]
            key = (alert.strategy_id, region)
            last = self.last_seen.get(key)
            self.last_seen[key] = alert.occurred_at
            if position < in_warmup:
                continue
            if (last is None or alert.occurred_at - last > self.horizon) and (
                threshold / 4 <= rate < threshold
            ):
                self.emerging_count += 1
                row[1] += 1
        if len(alerts) > in_warmup:
            self._sweep(alerts[-1].occurred_at)

    def finish(self, at: float) -> None:
        for episode in self.active.values():
            episode.ended_at = at
        self.active.clear()

    def _sweep(self, now: float) -> None:
        if len(self.last_seen) < 4096:
            return
        if self.last_sweep_at is not None and now - self.last_sweep_at < self.horizon / 4:
            return
        self.last_sweep_at = now
        self.last_seen = {
            key: seen for key, seen in self.last_seen.items()
            if now - seen <= self.horizon
        }

    def view(self, region: str) -> tuple:
        ring = self.rings.get(region)
        episode = self.active.get(region)
        episodes, emerging, ingested = self.by_region.get(region, (0, 0, 0))
        return (
            region,
            ring.bucket_seconds.hex() if ring else self.bucket_seconds.hex(),
            list(ring.counts) if ring else None,
            ring.total if ring else 0,
            ring.head if ring else None,
            episode.started_at.hex() if episode else None,
            episode.peak_rate.hex() if episode else (0.0).hex(),
            sorted(
                (strategy, seen.hex())
                for (strategy, key_region), seen in self.last_seen.items()
                if key_region == region
            ),
            episodes,
            emerging,
            ingested,
        )


def _view(state: RegionStormState) -> tuple:
    return (
        state.region,
        state.bucket_seconds.hex(),
        list(state.counts) if state.counts is not None else None,
        state.total,
        state.head,
        state.episode_started_at.hex()
        if state.episode_started_at is not None else None,
        state.episode_peak_rate.hex(),
        sorted((strategy, seen.hex()) for strategy, seen in state.last_seen.items()),
        state.episode_count,
        state.emerging_count,
        state.ingested,
    )


def _observe(detector: OnlineStormDetector, region: str) -> tuple:
    """A region's record, read through the read-only capture (an empty
    record for a region the detector has not seen)."""
    states = {state.region: state for state in detector.export()[0]}
    return _view(states.get(region) or detector._empty(region))


def _totals(detector: OnlineStormDetector) -> tuple:
    """A detector's lifetime counts and owned regions."""
    return (
        detector.episode_count, detector.emerging_count,
        detector._ingested, list(detector._regions),
    )


def _restored(state: RegionStormState) -> RegionStormState:
    """What a restore adopts: a copy of the captured record (a
    checkpoint packs and unpacks it), never the live one."""
    return replace(
        state,
        counts=list(state.counts) if state.counts is not None else None,
        last_seen=dict(state.last_seen),
    )


@st.composite
def cases(draw):
    n_regions = draw(st.integers(min_value=1, max_value=5))
    regions = _REGIONS[:n_regions]
    bucket_seconds = draw(st.one_of(
        st.sampled_from((0.3, 1.0, 7.5, 60.0)),
        st.floats(min_value=0.3, max_value=60.0),
    ))
    # The ring's span: a late event this far back is just inside or out.
    span = bucket_seconds * max(int(HOUR / bucket_seconds), 1)
    horizon = draw(st.one_of(
        st.sampled_from((60.0, HOUR, 24 * HOUR)),
        st.floats(min_value=1.0, max_value=3 * HOUR),
    ))
    config = dict(
        flood_hourly_threshold=draw(st.one_of(
            st.integers(min_value=2, max_value=12),
            st.integers(min_value=2, max_value=100),
        )),
        bucket_seconds=bucket_seconds,
        novelty_horizon=horizon,
        warmup_alerts=draw(st.integers(min_value=1, max_value=40)),
    )
    size = draw(st.integers(min_value=1, max_value=160))
    steps = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_regions - 1),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=len(_KIND_OF) - 1).map(
                _KIND_OF.__getitem__
            ),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=size, max_size=size,
    ))
    clock = 6 * HOUR  # room for late events behind the first ones
    alerts = []
    for region, strategy, kind, u in steps:
        strategy_id, region = f"s-{strategy}", regions[region]
        at = clock
        if kind == "step":
            clock += u * 90.0
            at = clock
        elif kind == "burst":
            clock += u * bucket_seconds
            at = clock
        elif kind == "late":  # inside the ring
            at = clock - u * 0.95 * HOUR
        elif kind == "edge":  # within a bucket of the ring's far end
            at = clock - span + (2.0 * u - 1.0) * bucket_seconds
        elif kind == "stale":  # beyond the ring
            at = clock - (1.05 + 4.0 * u) * HOUR
        elif kind == "again" and alerts:  # exactly one horizon later
            previous = alerts[-1]
            strategy_id, region = previous.strategy_id, previous.region
            clock = max(clock, previous.occurred_at + horizon)
            at = previous.occurred_at + horizon
        elif kind == "gap":
            clock += u * 2 * HOUR
            at = clock
        elif kind == "jump":  # far future: every bucket expires
            clock += (2.0 + 400.0 * u) * HOUR
            at = clock
        alerts.append(make_alert(
            max(at, 0.0), strategy_id=strategy_id, region=region,
        ))
    n = len(alerts)
    cuts = sorted(set(draw(st.lists(
        st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=12,
    )))) if n > 1 else []
    bounds = [0, *[cut for cut in cuts if cut < n], n]
    n_detectors = draw(st.integers(min_value=1, max_value=3))
    standalone = n_detectors == 1 and draw(st.booleans())
    moves = [
        draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=n_regions - 1),
            st.integers(min_value=0, max_value=n_detectors - 1),
        ), max_size=3))
        for _ in range(len(bounds) - 1)
    ]
    return config, regions, alerts, bounds, n_detectors, standalone, moves


def _edge_case():
    """Times on, one ulp around and just inside the head interval's
    ends of 0.3 s buckets (``k * 0.3`` is rarely exact), two regions
    interleaved, cut mid-stream."""
    width = 0.3
    times = []
    for k in (72_000, 72_001, 72_002, 72_005, 72_100, 84_000):
        at = k * width
        low, high = _head_interval(k, width)
        times += [
            math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf),
            low, math.nextafter(low, -math.inf), (k + 0.5) * width,
            math.nextafter(high, -math.inf), high,
        ]
    alerts = [
        make_alert(at, strategy_id=f"s-{index % 3}", region=_REGIONS[index % 2])
        for index, at in enumerate(times)
    ]
    config = dict(flood_hourly_threshold=3, bucket_seconds=width,
                  novelty_horizon=60.0, warmup_alerts=1)
    return (config, _REGIONS[:2], alerts, [0, 17, len(alerts)], 1, False,
            [[], []])


def _warmup_case(standalone):
    """A warmup prefix of 7 over three interleaved regions that ends
    inside the second batch, with the regions split over two detectors;
    threshold 4 puts every first event in the rising band."""
    alerts = [
        make_alert(6 * HOUR + index, strategy_id=f"s-{index}",
                   region=_REGIONS[index % 3])
        for index in range(15)
    ]
    config = dict(flood_hourly_threshold=4, bucket_seconds=60.0,
                  novelty_horizon=HOUR, warmup_alerts=7)
    n_detectors = 1 if standalone else 2
    return (config, _REGIONS[:3], alerts, [0, 4, 15], n_detectors,
            standalone, [[], []])


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE)
@given(case=cases())
@example(case=_edge_case())
@example(case=_warmup_case(standalone=False))
@example(case=_warmup_case(standalone=True))
def test_fused_batches_and_restores_match_the_reference(case):
    config, regions, alerts, bounds, n_detectors, standalone, moves = case
    reference = _Reference(
        config["flood_hourly_threshold"], config["bucket_seconds"],
        config["novelty_horizon"], config["warmup_alerts"],
    )
    detectors = [OnlineStormDetector(**config) for _ in range(n_detectors)]
    owner = {region: index % n_detectors for index, region in enumerate(regions)}
    for segment, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        batch = alerts[start:stop]
        # The gateway-global warmup prefix, split by owner as planes do.
        warm = min(max(config["warmup_alerts"] - start, 0), len(batch))
        reference.ingest_batch(batch, None if standalone else warm)
        for index, detector in enumerate(detectors):
            mine = [alert for alert in batch if owner[alert.region] == index]
            if standalone:
                detector.ingest_batch(mine)
            else:
                detector.ingest_batch(mine, sum(
                    1 for alert in batch[:warm] if owner[alert.region] == index
                ))
        if moves[segment]:
            before = [_totals(detector) for detector in detectors]
            captured = [
                state for detector in detectors for state in detector.export()[0]
            ]
            assert [_totals(detector) for detector in detectors] == before
            for region_index, target in moves[segment]:
                owner[regions[region_index]] = target
            detectors = [OnlineStormDetector(**config) for _ in range(n_detectors)]
            for state in captured:
                detectors[owner[state.region]].adopt([_restored(state)])
        for region in regions:
            assert _observe(detectors[owner[region]], region) == reference.view(region)
        assert sum(d.episode_count for d in detectors) == reference.episode_count
        assert sum(d.emerging_count for d in detectors) == reference.emerging_count
    end = alerts[-1].occurred_at
    reference.finish(end)
    for detector in detectors:
        detector.finish()
    for region in regions:
        assert _observe(detectors[owner[region]], region) == reference.view(region)


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE)
@given(case=cases())
@example(case=_edge_case())
def test_per_alert_episodes_match_the_reference_bitwise(case):
    config, regions, alerts = case[:3]
    reference = _Reference(
        config["flood_hourly_threshold"], config["bucket_seconds"],
        config["novelty_horizon"], config["warmup_alerts"],
    )
    detector = OnlineStormDetector(**config)
    episodes: list[list] = []
    open_episode: dict[str, list] = {}
    for alert in alerts:
        reference.ingest_batch([alert])
        detector.ingest_batch([alert])
        region = alert.region
        view = _observe(detector, region)
        started, peak = view[5], view[6]
        current = open_episode.get(region)
        if current is not None and started != current[1]:
            current[3] = alert.occurred_at.hex()
            del open_episode[region]
            current = None
        if started is not None:
            if current is None:
                current = open_episode[region] = [region, started, peak, None]
                episodes.append(current)
            current[2] = peak
        assert view == reference.view(region)
    end = alerts[-1].occurred_at
    reference.finish(end)
    detector.finish()
    for current in open_episode.values():
        current[3] = end.hex()
    assert episodes == [
        [e.region, e.started_at.hex(), e.peak_rate.hex(), e.ended_at.hex()]
        for e in reference.episodes
    ]
    assert detector.episode_count == reference.episode_count
    assert detector.emerging_count == reference.emerging_count


def test_recency_sweep_counts_entries_over_all_regions():
    """Past the sweep's 4096-entry floor (summed over regions, as the
    reference's one flat map counts it), both forget the same strategies
    at the same batch."""
    config = dict(novelty_horizon=HOUR, warmup_alerts=1)
    reference = _Reference(100, 60.0, HOUR, 1)
    detector = OnlineStormDetector(**config)
    batches = []
    for wave in range(4):
        batch = []
        for index in range(1500):
            batch.append(make_alert(
                wave * 2000.0 + index,
                strategy_id=f"s-{index}",
                region=_REGIONS[(index + wave) % 3],
            ))
        batches.append(batch)
    for batch in batches:
        reference.ingest_batch(batch)
        detector.ingest_batch(batch)
        for region in _REGIONS[:3]:
            assert _observe(detector, region) == reference.view(region)
    assert reference.last_sweep_at is not None
    assert detector.emerging_count == reference.emerging_count


@pytest.mark.parametrize("width", (0.3, 1.0, 7.0, 60.0, 61.7))
def test_integer_cutoffs_decide_as_the_float_rate(width):
    """For every threshold 1-100 and every ring total up to four rings'
    worth, ``total >= open``, ``total < close`` and ``total >= rising``
    agree with the rate compares the fold replaced."""
    size = max(int(HOUR / width), 1)
    totals = np.arange(4 * size + 1)
    scale = 3600.0 / (width * size)
    # The rates as the fold's arithmetic forms them, in Python floats.
    rates = np.array([total * scale for total in range(len(totals))])
    for threshold in range(1, 101):
        cut_scale, open_at, close_below, rising_from = _cutoffs(
            threshold, width, size,
        )
        assert cut_scale == scale
        assert ((totals >= open_at) == (rates >= threshold)).all()
        assert ((totals < close_below) == (rates < threshold / 2)).all()
        assert ((totals >= rising_from) == (rates >= threshold / 4)).all()


@settings(max_examples=_EXAMPLES * 5, deadline=None, derandomize=_CHAOS_PROFILE)
@given(
    width=st.one_of(
        st.sampled_from((0.3, 1.0, 7.0, 60.0, 61.7)),
        st.floats(min_value=0.3, max_value=HOUR),
    ),
    k=st.one_of(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=10**10),
    ),
    ulps=st.integers(min_value=-64, max_value=64),
)
def test_head_interval_never_misplaces_an_event(width, k, ulps):
    """A time ``k * w`` moved 0-64 ulps either way lies in the interval
    of bucket ``k - 1`` or ``k`` only if ``int(t / w)`` is that bucket."""
    at = k * width
    for _ in range(abs(ulps)):
        at = math.nextafter(at, math.copysign(math.inf, ulps))
    assume(at >= 0.0)
    for head in (k - 1, k):
        if head < 0:
            continue
        low, high = _head_interval(head, width)
        assert low <= (head + 0.5) * width < high
        if low <= at < high:
            assert int(at / width) == head
