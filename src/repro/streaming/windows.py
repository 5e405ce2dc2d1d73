"""Bounded sliding-window primitives for the streaming processors.

Everything here is O(1) memory in stream length: a time-bucketed ring
counter (the algorithm of the R4 rate window, which
:class:`~repro.streaming.storm.OnlineStormDetector` inlines into its
per-region pass), and a fixed-capacity reservoir for latency
percentiles.  No structure in this module ever grows with the number of
events ingested.
"""

from __future__ import annotations

import math

from repro.common.validation import require_positive

__all__ = ["RingCounter", "LatencyReservoir"]


class RingCounter:
    """Event counts over a sliding time window of ``n_buckets`` buckets.

    Advancing to a new bucket zeroes every bucket skipped since the last
    event, so sparse streams cost O(buckets skipped), never O(elapsed
    time).  ``total()`` is maintained incrementally.
    """

    def __init__(self, bucket_seconds: float = 60.0, n_buckets: int = 60) -> None:
        require_positive(bucket_seconds, "bucket_seconds")
        require_positive(n_buckets, "n_buckets")
        self._bucket_seconds = float(bucket_seconds)
        self._n = int(n_buckets)
        self._counts = [0] * self._n
        self._total = 0
        self._head: int | None = None  # absolute bucket index of the newest bucket

    @property
    def window_seconds(self) -> float:
        """The span the counter covers."""
        return self._bucket_seconds * self._n

    def _bucket_of(self, time: float) -> int:
        return int(math.floor(time / self._bucket_seconds))

    def add(self, time: float, count: int = 1) -> None:
        """Count ``count`` events at ``time`` (non-decreasing times)."""
        bucket = self._bucket_of(time)
        if self._head is None:
            self._head = bucket
        elif bucket > self._head:
            steps = min(bucket - self._head, self._n)
            for offset in range(1, steps + 1):
                slot = (self._head + offset) % self._n
                self._total -= self._counts[slot]
                self._counts[slot] = 0
            self._head = bucket
        elif bucket < self._head - self._n + 1:
            return  # older than the window: nothing to record
        self._counts[bucket % self._n] += count
        self._total += count

    def total(self, now: float | None = None) -> int:
        """Events within the window ending at ``now`` (default: newest seen)."""
        if self._head is None:
            return 0
        if now is not None:
            bucket = self._bucket_of(now)
            if bucket > self._head:
                # Expire buckets that fell out of the window without mutating.
                expired = min(bucket - self._head, self._n)
                stale = sum(
                    self._counts[(self._head + offset) % self._n]
                    for offset in range(1, expired + 1)
                )
                return self._total - stale
        return self._total

    def rate_per_hour(self, now: float | None = None) -> float:
        """Current windowed count scaled to an hourly rate."""
        return self.total(now) * 3600.0 / self.window_seconds


class LatencyReservoir:
    """Fixed-capacity sample of per-event latencies.

    Keeps running count/sum exactly and a bounded sample for percentile
    estimates; once full, new observations overwrite round-robin so the
    sample tracks the recent regime.
    """

    def __init__(self, capacity: int = 8192) -> None:
        require_positive(capacity, "capacity")
        self._capacity = int(capacity)
        self._samples: list[float] = []
        self._cursor = 0
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        self.count += 1
        self.total += seconds
        self._sample(seconds)

    def observe_batch(self, total_seconds: float, events: int) -> None:
        """Record a flush cycle of ``events`` taking ``total_seconds``.

        The count and the exact mean cover every event; the percentile
        sample receives one entry — the cycle's per-event mean — so
        quantiles report amortised per-event latency rather than the
        cycle wall time.
        """
        if events <= 0:
            return
        self.count += events
        self.total += total_seconds
        self._sample(total_seconds / events)

    def _sample(self, seconds: float) -> None:
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self._capacity

    @property
    def mean(self) -> float:
        """Exact mean over every observation."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the retained sample."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]
