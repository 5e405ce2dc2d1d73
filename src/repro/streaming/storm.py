"""Online storm and emerging-alert detection (streaming R4).

The batch mining pipeline finds storms by bucketing a finished trace per
(hour, region) and flagging buckets above the flood threshold; R4's
batch form replays the whole stream through an online LDA.  The
streaming detector keeps the same two signals live with O(1) state:

* **storms** — one :class:`~repro.streaming.windows.RingCounter` per
  region tracks the rolling hourly volume; crossing the flood threshold
  opens a storm episode, falling below half of it closes the episode
  (hysteresis, so one storm is not reported once per event);
* **emerging alerts** — a ``(strategy, region)`` key alerting for the
  first time while its region's volume is *rising* toward a storm is
  exactly the "few alerts corresponding to a root cause appear first"
  pattern §III-C [R4] describes.  Keys are remembered with a bounded
  recency map, so a strategy quiet for longer than ``novelty_horizon``
  counts as new again.
"""

from __future__ import annotations

from collections import deque

from dataclasses import dataclass

from repro.alerting.alert import Alert
from repro.common.timeutil import HOUR
from repro.common.validation import require_positive
from repro.streaming.windows import RingCounter

__all__ = [
    "StormEpisode",
    "EmergingSignal",
    "RegionStormState",
    "OnlineStormDetector",
]


@dataclass(slots=True)
class StormEpisode:
    """One contiguous flood of alerts in a region."""

    region: str
    started_at: float
    peak_rate: float
    ended_at: float | None = None

    @property
    def active(self) -> bool:
        """Whether the episode is still open."""
        return self.ended_at is None


@dataclass(frozen=True, slots=True)
class EmergingSignal:
    """A first-seen strategy firing while its region's volume ramps up."""

    alert: Alert
    region_rate: float


@dataclass(slots=True)
class RegionStormState:
    """One region's complete R4 state, detached for plane migration.

    Everything the detector keys by this region (or by ``(strategy,
    region)``): the ring-counter rate window, the open storm episode if
    one is in flight, the novelty recency map, the region's lifetime
    episode/emerging counts, and its ingested-event count (the novelty
    warmup position a standalone detector derives ``in_warmup`` from).
    """

    region: str
    bucket_seconds: float
    #: Ring-counter state (``None`` when the region never built one).
    counts: list[int] | None
    total: int
    head: int | None
    #: Open episode, if the region is mid-flood at export time.
    episode_started_at: float | None
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

    All detector state is keyed by region (rate counters, episodes) or by
    ``(strategy, region)`` (novelty), so the detector partitions cleanly
    along region boundaries: one instance per execution plane is exact as
    long as every alert of a region reaches the same instance.  Instances
    that split a region's alerts would be wrong — each would see a
    diluted rate against the flood threshold.  The one global
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
        require_positive(novelty_horizon, "novelty_horizon")
        require_positive(warmup_alerts, "warmup_alerts")
        self._threshold = int(flood_hourly_threshold)
        self._bucket_seconds = float(bucket_seconds)
        self._horizon = float(novelty_horizon)
        self._warmup = int(warmup_alerts)
        self._counters: dict[str, RingCounter] = {}
        self._active: dict[str, StormEpisode] = {}
        self._last_seen: dict[tuple[str, str], float] = {}
        self._last_sweep_at: float | None = None
        self._ingested = 0
        # Per-region slices of the lifetime counters, so a region's
        # whole detection history can migrate with it (plane scale-out).
        self._episodes_by_region: dict[str, int] = {}
        self._emerging_by_region: dict[str, int] = {}
        self._ingested_by_region: dict[str, int] = {}
        # Exact lifetime counters plus bounded recent-detection windows:
        # on an unbounded stream, full detection lists would grow forever.
        self.episode_count = 0
        self.emerging_count = 0
        self.episodes: deque[StormEpisode] = deque(maxlen=256)
        self.emerging: deque[EmergingSignal] = deque(maxlen=1024)

    def ingest(self, alert: Alert) -> None:
        """Advance the counters with one unblocked alert.

        Delegates to :meth:`ingest_batch` so the episode and novelty
        logic exists exactly once — the batch path is event-for-event
        equivalent, including the warmup derivation.
        """
        self.ingest_batch([alert])

    def ingest_batch(self, alerts: list[Alert], in_warmup: int | None = None) -> None:
        """Advance the counters with one in-order micro-batch.

        Event-for-event equivalent to :meth:`ingest`, but run-compressed:
        consecutive same-region events share one counter/episode lookup
        and one :meth:`RingCounter.add_run` bucket pass — on a plane that
        owns whole regions, a flood is one long run.

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
        counters = self._counters
        active = self._active
        last_seen = self._last_seen
        times = [alert.occurred_at for alert in alerts]
        rates: list[float] = []
        ingested_by_region = self._ingested_by_region
        episodes_by_region = self._episodes_by_region
        emerging_by_region = self._emerging_by_region
        index = 0
        while index < n:
            region = alerts[index].region
            stop = index + 1
            while stop < n and alerts[stop].region == region:
                stop += 1
            ingested_by_region[region] = (
                ingested_by_region.get(region, 0) + stop - index
            )
            counter = counters.get(region)
            if counter is None:
                buckets = max(int(HOUR / self._bucket_seconds), 1)
                counter = RingCounter(self._bucket_seconds, buckets)
                counters[region] = counter
            del rates[:]
            counter.add_run(times, index, stop, rates)
            episode = active.get(region)
            for position in range(index, stop):
                alert = alerts[position]
                rate = rates[position - index]
                occurred_at = times[position]
                if episode is None:
                    if rate >= threshold:
                        episode = StormEpisode(
                            region=region, started_at=occurred_at, peak_rate=rate,
                        )
                        active[region] = episode
                        self.episode_count += 1
                        episodes_by_region[region] = (
                            episodes_by_region.get(region, 0) + 1
                        )
                        self.episodes.append(episode)
                else:
                    if rate > episode.peak_rate:
                        episode.peak_rate = rate
                    if rate < half_threshold:
                        episode.ended_at = occurred_at
                        del active[region]
                        episode = None
                key = (alert.strategy_id, region)
                last = last_seen.get(key)
                last_seen[key] = occurred_at
                if position < in_warmup:
                    continue
                if (last is None or occurred_at - last > horizon) and (
                    quarter_threshold <= rate < threshold
                ):
                    self.emerging_count += 1
                    emerging_by_region[region] = (
                        emerging_by_region.get(region, 0) + 1
                    )
                    self.emerging.append(EmergingSignal(alert=alert, region_rate=rate))
            index = stop
        if n > in_warmup:
            self._sweep(times[-1])

    def finish(self, at: float) -> None:
        """Close any episodes still open at end of stream."""
        for episode in self._active.values():
            episode.ended_at = at
        self._active.clear()

    # ------------------------------------------------------------------
    # plane migration
    # ------------------------------------------------------------------
    def export_region(self, region: str) -> RegionStormState:
        """Detach one region's whole R4 state (plane migration).

        All of it is removed from this instance: the rate window, the
        open episode, the novelty recency entries, and the region's
        slice of the lifetime episode/emerging/ingested counts — so the
        exporting detector's counts reflect only the regions it still
        owns, and :meth:`adopt_region` restores them on the new owner
        without loss or double counting.  The bounded ``episodes``/
        ``emerging`` recency deques are observability extras interleaved
        across regions and do not migrate; the exact counters do.
        """
        counter = self._counters.pop(region, None)
        if counter is not None:
            bucket_seconds, counts, total, head = counter.export_state()
        else:
            bucket_seconds = self._bucket_seconds
            counts, total, head = None, 0, None
        episode = self._active.pop(region, None)
        last_seen: dict[str, float] = {}
        for key in [k for k in self._last_seen if k[1] == region]:
            last_seen[key[0]] = self._last_seen.pop(key)
        episode_count = self._episodes_by_region.pop(region, 0)
        emerging_count = self._emerging_by_region.pop(region, 0)
        ingested = self._ingested_by_region.pop(region, 0)
        self.episode_count -= episode_count
        self.emerging_count -= emerging_count
        self._ingested -= ingested
        return RegionStormState(
            region=region,
            bucket_seconds=bucket_seconds,
            counts=counts,
            total=total,
            head=head,
            episode_started_at=episode.started_at if episode is not None else None,
            episode_peak_rate=episode.peak_rate if episode is not None else 0.0,
            last_seen=last_seen,
            episode_count=episode_count,
            emerging_count=emerging_count,
            ingested=ingested,
        )

    def adopt_region(self, state: RegionStormState) -> None:
        """Install a region's R4 state exported from another detector."""
        region = state.region
        if region in self._counters or region in self._active:
            raise ValueError(f"region {region!r} already owned by this detector")
        if state.counts is not None:
            self._counters[region] = RingCounter.restore(
                state.bucket_seconds, state.counts, state.total, state.head,
            )
        if state.episode_started_at is not None:
            # The episode continues on the new owner; it was already
            # counted (and its count migrated), so only the live object
            # is rebuilt — not re-counted, not re-appended to the deque.
            self._active[region] = StormEpisode(
                region=region,
                started_at=state.episode_started_at,
                peak_rate=state.episode_peak_rate,
            )
        for strategy, seen_at in state.last_seen.items():
            self._last_seen[(strategy, region)] = seen_at
        if state.episode_count:
            self._episodes_by_region[region] = state.episode_count
            self.episode_count += state.episode_count
        if state.emerging_count:
            self._emerging_by_region[region] = state.emerging_count
            self.emerging_count += state.emerging_count
        if state.ingested:
            self._ingested_by_region[region] = state.ingested
            self._ingested += state.ingested

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sweep(self, now: float) -> None:
        """Bound the recency map: forget keys quiet past the horizon.

        Time-gated: a sweep can only evict keys older than the horizon,
        so once one ran, rerunning before a quarter-horizon has elapsed
        cannot free anything new — without the gate, a key population
        that stays above the size floor would make every ingest O(keys).
        """
        if len(self._last_seen) < 4096:
            return
        if self._last_sweep_at is not None and now - self._last_sweep_at < self._horizon / 4:
            return
        self._last_sweep_at = now
        self._last_seen = {
            key: seen
            for key, seen in self._last_seen.items()
            if now - seen <= self._horizon
        }
