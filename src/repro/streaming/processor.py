"""The plane's stream processor: R1 blocking + R2 dedup.

Every :class:`~repro.streaming.plane.RegionPlane` owns one processor,
which runs the volume-reducing reactions inline over the plane's whole
in-order sub-stream:

* **R1** — every event is tested against the blocking rules
  (:class:`~repro.core.mitigation.blocking.AlertBlocker` is already an
  O(rules-per-strategy) point lookup, so the batch component streams
  as-is);
* **R2** — survivors feed the :class:`OnlineAggregator`'s session
  windows; closed :class:`~repro.streaming.dedup.OpenSession` objects
  are the processor's output, handed to the plane as they are.

Correlation (R3) and storm detection (R4) live beside it on the plane:
regions are independent for both reactions, so a plane-local
:class:`OnlineCorrelator` over the closed sessions' representatives and a
plane-local ``OnlineStormDetector`` over the raw sub-stream are exact.
"""

from __future__ import annotations

from repro.alerting.alert import Alert
from repro.core.mitigation.blocking import AlertBlocker
from repro.streaming.dedup import OnlineAggregator, OpenSession

__all__ = ["StreamProcessor"]


class StreamProcessor:
    """One plane's incremental R1/R2 chain."""

    def __init__(
        self,
        blocker: AlertBlocker,
        aggregation_window: float = 900.0,
        keep_ids: bool = True,
    ) -> None:
        self._blocker = blocker
        self._aggregator = OnlineAggregator(aggregation_window, keep_ids)

    @property
    def open_sessions(self) -> int:
        """In-flight aggregation sessions."""
        return self._aggregator.open_sessions

    def open_representatives(self) -> list[Alert]:
        """Open sessions' representatives (the correlator's ``pending``)."""
        return self._aggregator.open_representatives()

    def ingest_batch(
        self,
        alerts: list[Alert],
        blocked_by_region: dict[str, int],
    ) -> tuple[int, list[OpenSession]]:
        """Process one micro-batch.

        Returns ``(blocked_count, closed sessions)``.  R1 blocks strategies
        with an unconditional rule on one set probe and skips the rule scan
        for strategies no rule targets; R2 folds the survivors grouped by key.
        ``blocked_by_region`` accumulates the per-region blocked counts
        (one dict increment per *blocked* alert only) — the owning
        plane's per-region accounting, which checkpoints carry.
        """
        ruled = self._blocker.ruled_strategies
        unconditional = self._blocker.unconditional_strategies
        is_blocked = self._blocker.is_blocked
        blocked = 0
        if ruled:
            survivors = []
            append = survivors.append
            for alert in alerts:
                strategy = alert.strategy_id
                if strategy in unconditional or (
                    strategy in ruled and is_blocked(alert)
                ):
                    blocked += 1
                    region = alert.region
                    blocked_by_region[region] = (
                        blocked_by_region.get(region, 0) + 1
                    )
                else:
                    append(alert)
        else:
            survivors = alerts
        return blocked, self._aggregator.ingest_batch(survivors)

    def sessions_by_region(self) -> dict[str, list[OpenSession]]:
        """Open R2 sessions per region, read-only (checkpointing)."""
        return self._aggregator.sessions_by_region()

    def adopt(self, sessions: list[OpenSession]) -> None:
        """Install R2 sessions unpacked from a checkpoint (restore)."""
        self._aggregator.adopt(sessions)

    def drain(self) -> list[OpenSession]:
        """Close all open aggregation sessions at end of stream."""
        return self._aggregator.drain()
