"""Online storm and emerging-alert detection (streaming R4).

The batch mining pipeline finds storms by bucketing a finished trace per
(hour, region) and flagging buckets above the flood threshold; R4's
batch form replays the whole stream through an online LDA.  The
streaming detector keeps the same two signals live with O(1) state per
region, all of it in one :class:`RegionStormState` record:

* **storms** — a ring of ``bucket_seconds`` buckets spanning one hour
  tracks the region's rolling hourly volume.  It lives in the region's
  record as ``counts``, the newest absolute bucket ``head`` and a
  running ``total``.  Moving to a newer bucket zeroes only the buckets
  skipped since the region's last event, so a sparse region costs
  O(buckets skipped), never O(elapsed time); an event older than the
  ring is not counted.  Crossing the flood threshold opens a storm
  episode, falling below half of it closes the episode (hysteresis, so
  one storm is not reported once per event);
* **emerging alerts** — a strategy alerting in a region for the first
  time while the region's volume is *rising* toward a storm is exactly
  the "few alerts corresponding to a root cause appear first" pattern
  §III-C [R4] describes.  Strategies are remembered per region with a
  bounded recency map, so one quiet for longer than ``novelty_horizon``
  counts as new again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alerting.alert import Alert
from repro.common.timeutil import HOUR
from repro.common.validation import require_positive

__all__ = [
    "RegionStormState",
    "OnlineStormDetector",
]


@dataclass(slots=True)
class RegionStormState:
    """One region's complete R4 state: the detector's live record.

    The detector keeps exactly one of these per region it has seen, and
    a checkpoint packs the record itself: the rate ring, the open
    storm episode if one is in flight, the novelty recency map, the
    region's lifetime episode/emerging counts, and its ingested-event
    count (the novelty warmup position a standalone detector derives
    ``in_warmup`` from).
    """

    region: str
    bucket_seconds: float
    #: Ring buckets, newest at ``head % len(counts)`` (``None`` until
    #: the region's first event).
    counts: list[int] | None
    total: int
    #: Absolute bucket index of the newest bucket (``None`` when empty).
    head: int | None
    #: Open episode's start, if the region is mid-flood.
    episode_started_at: float | None
    #: Open episode's peak rate (0.0 when no episode is open).
    episode_peak_rate: float
    #: strategy → last event time in this region (novelty state).
    last_seen: dict[str, float]
    episode_count: int
    emerging_count: int
    ingested: int


#: Default number of leading gateway events exempt from novelty flags.
DEFAULT_WARMUP_ALERTS = 50


class OnlineStormDetector:
    """Streaming detector for floods and their precursors.

    All detector state is keyed by region, so the detector partitions
    cleanly along region boundaries: one instance per execution plane is
    exact as long as every alert of a region reaches the same instance.
    Instances that split a region's alerts would be wrong — each would
    see a diluted rate against the flood threshold.  The one global
    coupling is the warmup count, which callers that partition the stream
    thread through as an explicit ``in_warmup`` prefix (see
    :meth:`ingest_batch`).
    """

    def __init__(
        self,
        flood_hourly_threshold: int = 100,
        bucket_seconds: float = 60.0,
        novelty_horizon: float = 24 * HOUR,
        warmup_alerts: int = DEFAULT_WARMUP_ALERTS,
    ) -> None:
        require_positive(flood_hourly_threshold, "flood_hourly_threshold")
        require_positive(bucket_seconds, "bucket_seconds")
        require_positive(novelty_horizon, "novelty_horizon")
        require_positive(warmup_alerts, "warmup_alerts")
        self._threshold = int(flood_hourly_threshold)
        self._bucket_seconds = float(bucket_seconds)
        self._horizon = float(novelty_horizon)
        self._warmup = int(warmup_alerts)
        self._regions: dict[str, RegionStormState] = {}
        self._last_sweep_at: float | None = None
        self._ingested = 0
        # Exact lifetime counters over the regions this instance owns.
        self.episode_count = 0
        self.emerging_count = 0

    def ingest_batch(self, alerts: list[Alert], in_warmup: int | None = None) -> None:
        """Advance the counters with one in-order pre-R1 micro-batch.

        R4 watches the raw flood: planes feed it every alert of their
        batch, blocked or not, because an R1 rule silences a strategy's
        notifications but not the storm it is part of — the flood rate
        and the first-seen precursors must not depend on the rule table.

        Event-for-event equivalent to feeding the alerts one at a time.
        Each contiguous same-region run is one fused pass over the
        region's record: the ring update, the episode hysteresis and the
        novelty check share one bucket computation and one rate per
        event, and the ring slots are written only when an event leaves
        the head bucket.  On a plane that owns whole regions, a flood is
        one long run.

        ``in_warmup`` is the number of leading events that fall inside
        the *stream-global* warmup.  ``None`` (standalone use) derives it
        from this instance's own ingest count; a plane-partitioned
        gateway passes the prefix computed from its global input counter,
        which is what keeps per-plane detectors bitwise-equal to one
        shared instance.  The recency sweep runs once per batch instead
        of per event — identical behaviour below the sweep's size floor.
        """
        n = len(alerts)
        if n == 0:
            return
        if in_warmup is None:
            in_warmup = min(max(self._warmup - self._ingested, 0), n)
        self._ingested += n
        threshold = self._threshold
        half_threshold = threshold / 2
        quarter_threshold = threshold / 4
        horizon = self._horizon
        regions = self._regions
        episodes = 0
        emerging = 0
        index = 0
        while index < n:
            region = alerts[index].region
            stop = index + 1
            while stop < n and alerts[stop].region == region:
                stop += 1
            state = regions.get(region)
            if state is None:
                state = regions[region] = self._empty(region)
            bucket_seconds = state.bucket_seconds
            counts = state.counts
            if counts is None:
                counts = state.counts = [0] * max(int(HOUR / bucket_seconds), 1)
            size = len(counts)
            scale = 3600.0 / (bucket_seconds * size)
            total = state.total
            head = state.head
            if head is None:
                head = int(alerts[index].occurred_at / bucket_seconds)
            head_slot = head % size
            at_head = counts[head_slot]
            started_at = state.episode_started_at
            peak_rate = state.episode_peak_rate
            last_seen = state.last_seen
            run_episodes = 0
            run_emerging = 0
            for position in range(index, stop):
                alert = alerts[position]
                occurred_at = alert.occurred_at
                # int() == floor for the non-negative times Alert validates.
                bucket = int(occurred_at / bucket_seconds)
                if bucket == head:
                    at_head += 1
                    total += 1
                elif bucket > head:
                    counts[head_slot] = at_head
                    for offset in range(1, min(bucket - head, size) + 1):
                        slot = (head + offset) % size
                        total -= counts[slot]
                        counts[slot] = 0
                    head = bucket
                    head_slot = bucket % size
                    at_head = 1
                    total += 1
                elif bucket > head - size:
                    counts[bucket % size] += 1
                    total += 1
                # else: older than the ring, so not recorded.
                rate = total * scale
                if started_at is None:
                    if rate >= threshold:
                        started_at = occurred_at
                        peak_rate = rate
                        run_episodes += 1
                else:
                    if rate > peak_rate:
                        peak_rate = rate
                    if rate < half_threshold:
                        started_at = None
                        peak_rate = 0.0
                strategy = alert.strategy_id
                if quarter_threshold <= rate < threshold and position >= in_warmup:
                    last = last_seen.get(strategy)
                    if last is None or occurred_at - last > horizon:
                        run_emerging += 1
                last_seen[strategy] = occurred_at
            counts[head_slot] = at_head
            state.total = total
            state.head = head
            state.episode_started_at = started_at
            state.episode_peak_rate = peak_rate
            state.ingested += stop - index
            state.episode_count += run_episodes
            state.emerging_count += run_emerging
            episodes += run_episodes
            emerging += run_emerging
            index = stop
        self.episode_count += episodes
        self.emerging_count += emerging
        if n > in_warmup:
            self._sweep(alerts[-1].occurred_at)

    def finish(self) -> None:
        """Close any episodes still open at end of stream."""
        for state in self._regions.values():
            state.episode_started_at = None
            state.episode_peak_rate = 0.0

    # ------------------------------------------------------------------
    # checkpoint capture / restore
    # ------------------------------------------------------------------
    def region_state(self, region: str) -> RegionStormState:
        """One region's whole R4 record, read-only (checkpointing).

        The live record itself, so a caller packs it and never hands it
        to another detector's :meth:`adopt_region`; the detector's
        lifetime counts are untouched.  A region never seen reads as an
        empty record.
        """
        state = self._regions.get(region)
        return state if state is not None else self._empty(region)

    def adopt_region(self, state: RegionStormState) -> None:
        """Install a region's R4 record unpacked from a checkpoint (restore).

        The record itself becomes this instance's live state (the
        caller hands it over), and its lifetime counts join this
        instance's.  An open episode continues on the adopting detector;
        it was already counted, and its count travels with the record,
        so it is not counted again.
        """
        region = state.region
        if region in self._regions:
            raise ValueError(f"region {region!r} already owned by this detector")
        if state.counts is None:
            state.bucket_seconds = self._bucket_seconds
            state.total = 0
            state.head = None
        if state.episode_started_at is None:
            state.episode_peak_rate = 0.0
        if state == self._empty(region):
            return
        self._regions[region] = state
        self.episode_count += state.episode_count
        self.emerging_count += state.emerging_count
        self._ingested += state.ingested

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _empty(self, region: str) -> RegionStormState:
        """A fresh record for a region this instance has not seen."""
        return RegionStormState(
            region=region,
            bucket_seconds=self._bucket_seconds,
            counts=None,
            total=0,
            head=None,
            episode_started_at=None,
            episode_peak_rate=0.0,
            last_seen={},
            episode_count=0,
            emerging_count=0,
            ingested=0,
        )

    def _sweep(self, now: float) -> None:
        """Bound the recency maps: forget strategies quiet past the horizon.

        Time-gated: a sweep can only evict entries older than the
        horizon, so once one ran, rerunning before a quarter-horizon has
        elapsed cannot free anything new — without the gate, a key
        population that stays above the size floor would make every
        ingest O(keys).  The floor counts entries over all regions.
        """
        horizon = self._horizon
        if self._last_sweep_at is not None and now - self._last_sweep_at < horizon / 4:
            return
        states = self._regions.values()
        if sum(len(state.last_seen) for state in states) < 4096:
            return
        self._last_sweep_at = now
        for state in states:
            state.last_seen = {
                strategy: seen
                for strategy, seen in state.last_seen.items()
                if now - seen <= horizon
            }
