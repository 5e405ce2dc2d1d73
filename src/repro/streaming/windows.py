"""Bounded latency sampling for the streaming gateway's statistics.

:class:`LatencyReservoir` is O(1) memory in stream length: a
fixed-capacity reservoir for latency percentiles that never grows with
the number of events ingested.
"""

from __future__ import annotations

from repro.common.validation import require_positive

__all__ = ["LatencyReservoir"]


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
