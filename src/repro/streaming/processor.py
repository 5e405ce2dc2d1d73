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
        self, alerts: list[Alert],
    ) -> tuple[int, list[OpenSession]]:
        """One micro-batch; returns ``(blocked, closed sessions)``.

        R1 keeps the survivors in one comprehension (a second pass through
        the rule scan only for conditional rules) and R2 folds them
        grouped by key.
        """
        blocker = self._blocker
        ruled = blocker.ruled_strategies
        if not ruled:
            return 0, self._aggregator.ingest_batch(alerts)
        unconditional = blocker.unconditional_strategies
        survivors = [
            alert for alert in alerts if alert.strategy_id not in unconditional
        ]
        if len(ruled) > len(unconditional):
            is_blocked = blocker.is_blocked
            survivors = [
                alert for alert in survivors
                if alert.strategy_id not in ruled or not is_blocked(alert)
            ]
        return (
            len(alerts) - len(survivors),
            self._aggregator.ingest_batch(survivors),
        )

    def sessions(self) -> list[OpenSession]:
        """Open R2 sessions in key order, read-only (checkpointing)."""
        return self._aggregator.sessions()

    def adopt(self, sessions: list[OpenSession]) -> None:
        """Install R2 sessions unpacked from a checkpoint (restore)."""
        self._aggregator.adopt(sessions)

    def drain(self) -> list[OpenSession]:
        """Close all open aggregation sessions at end of stream."""
        return self._aggregator.drain()
