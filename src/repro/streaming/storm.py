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

A batch folds one region at a time, on integers: each rate bound is the
smallest ring total that reaches it, a head-bucket event skips the
bucket division, and the float rate is formed only for an episode peak.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

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


def _head_interval(head: int, width: float) -> tuple[float, float]:
    """``low <= t < high`` makes ``int(t / width) == head`` certain: the
    1e-12 margin is thousands of ulps, far past any rounding here."""
    return head * width * (1 + 1e-12), (head + 1) * width * (1 - 1e-12)


@lru_cache(maxsize=64)
def _cutoffs(threshold: int, width: float, size: int) -> tuple[float, int, int, int]:
    """``(scale, open, close, rising)`` for one ring shape: ``scale``
    turns a ring total into the hourly rate, and the others are the
    smallest totals whose rate reaches the threshold, half and a quarter
    of it.  ``T * scale`` never decreases as ``T`` grows, so ``total >=
    open`` is exactly ``total * scale >= threshold``, and so on."""
    scale = 3600.0 / (width * size)
    least = []
    for bound in (threshold, threshold / 2, threshold / 4):
        # One below the rounded quotient cannot overshoot the answer.
        total = max(int(bound / scale) - 1, 0)
        while total * scale < bound:
            total += 1
        least.append(total)
    return scale, *least


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

    def ingest_batch(
        self, alerts: list[Alert], in_warmup: int | None = None,
    ) -> None:
        """Advance the counters with one in-order pre-R1 micro-batch.

        R4 watches the raw flood: planes feed it every alert of their
        batch, blocked or not, because an R1 rule silences a strategy's
        notifications but not the storm it is part of — the flood rate
        and the first-seen precursors must not depend on the rule table.

        Event-for-event equivalent to feeding the alerts one at a time:
        regions share no state, so each region's events, in order, are
        one :meth:`_fold`.

        ``in_warmup`` is the number of leading events that fall inside
        the *stream-global* warmup.  ``None`` (standalone use) derives it
        from this instance's own ingest count; a plane-partitioned
        gateway passes the prefix computed from its global input counter,
        which is what keeps per-plane detectors bitwise-equal to one
        shared instance; a region's share is its count among them.  The
        recency sweep runs once per batch instead of per event —
        identical behaviour below the sweep's size floor.
        """
        n = len(alerts)
        if n == 0:
            return
        if in_warmup is None:
            in_warmup = min(max(self._warmup - self._ingested, 0), n)
        self._ingested += n
        regions = [alert.region for alert in alerts]
        groups = {regions[0]: alerts}
        if regions.count(regions[0]) != n:
            groups = {}
            for alert, region in zip(alerts, regions):
                groups.setdefault(region, []).append(alert)
        warm = Counter(regions[:in_warmup]) if in_warmup else {}
        states = self._regions
        for region, group in groups.items():
            state = states.get(region)
            if state is None:
                state = states[region] = self._empty(region)
            quiet = warm.get(region, 0)
            if quiet:
                self._fold(state, group[:quiet], novelty=False)
                group = group[quiet:]
            if group:
                self._fold(state, group, novelty=True)
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
    def export(self) -> tuple[list[RegionStormState], float | None]:
        """Every region's record, regions sorted, and the event time of
        the last recency sweep (checkpointing).

        The live records themselves, so a caller packs them and never
        hands them to another detector's :meth:`adopt`; nothing here
        changes.
        """
        return (
            [self._regions[region] for region in sorted(self._regions)],
            self._last_sweep_at,
        )

    def adopt(
        self, states: list[RegionStormState], swept_at: float | None = None,
    ) -> None:
        """Install records unpacked from a checkpoint (restore).

        The records themselves become this instance's live state (the
        caller hands them over), and their lifetime counts join this
        instance's: an open episode continues, already counted once.
        ``swept_at``, when given, is the captured last sweep time.
        """
        for state in states:
            if state.region in self._regions:
                raise ValueError(
                    f"region {state.region!r} already owned by this detector")
            self._regions[state.region] = state
            self.episode_count += state.episode_count
            self.emerging_count += state.emerging_count
            self._ingested += state.ingested
        if swept_at is not None:
            self._last_sweep_at = swept_at

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

    def _fold(self, state: RegionStormState, alerts: list[Alert], novelty: bool) -> None:
        """One region's events, in order, through its record.

        Ring, episode and novelty share one ``total`` compared against
        :func:`_cutoffs`; an event inside :func:`_head_interval` skips
        the division, and skipped ring slots are cleared by slices.
        ``novelty=False`` keeps warmup events' recency but flags none.
        """
        width = state.bucket_seconds
        counts = state.counts
        if counts is None:
            counts = state.counts = [0] * max(int(HOUR / width), 1)
        size = len(counts)
        scale, open_at, close_below, rising_from = _cutoffs(self._threshold, width, size)
        if not novelty:
            rising_from = open_at
        total = state.total
        head = state.head
        if head is None:
            head = int(alerts[0].occurred_at / width)
        head_slot = head % size
        # The head bucket holds total - beneath: a head event bumps total.
        beneath = total - counts[head_slot]
        low, high = _head_interval(head, width)
        started_at = state.episode_started_at
        peak_rate = state.episode_peak_rate
        peak_total = 0
        last_seen = state.last_seen
        episodes = emerging = 0
        for alert in alerts:
            occurred_at = alert.occurred_at
            # int() == floor for the non-negative times Alert validates.
            if low <= occurred_at < high or (
                bucket := int(occurred_at / width)
            ) == head:
                total += 1
            elif bucket > head:
                # Only here does the total fall: an open episode's peak
                # is the total just before, and only here can it close.
                if started_at is not None and total > peak_total:
                    peak_total = total
                counts[head_slot] = total - beneath
                start = head_slot + 1
                stop = start + min(bucket - head, size)
                if stop > size:  # the skipped slots wrap around
                    total -= sum(counts[:stop - size])
                    counts[:stop - size] = [0] * (stop - size)
                    stop = size
                total -= sum(counts[start:stop])
                counts[start:stop] = [0] * (stop - start)
                head, head_slot, beneath = bucket, bucket % size, total
                total += 1
                low, high = _head_interval(head, width)
                if started_at is not None and total < close_below:
                    started_at, peak_rate, peak_total = None, 0.0, 0
            elif bucket > head - size:
                counts[bucket % size] += 1
                beneath += 1
                total += 1
            # else: older than the ring, so not recorded.
            if started_at is None and total >= open_at:
                started_at, peak_rate, peak_total = occurred_at, 0.0, total
                episodes += 1
            strategy = alert.strategy_id
            if total < open_at and total >= rising_from:
                last = last_seen.get(strategy)
                if last is None or occurred_at - last > self._horizon:
                    emerging += 1
            last_seen[strategy] = occurred_at
        counts[head_slot] = total - beneath
        state.total, state.head, state.episode_started_at = total, head, started_at
        state.episode_peak_rate = 0.0 if started_at is None else max(
            peak_rate, max(peak_total, total) * scale,
        )
        state.ingested += len(alerts)
        state.episode_count += episodes
        state.emerging_count += emerging
        self.episode_count += episodes
        self.emerging_count += emerging

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
