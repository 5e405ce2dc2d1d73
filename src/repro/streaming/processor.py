"""The per-shard stream processor: R1 blocking + R2 dedup.

Each shard owns the alerts of its slice of the ``(service, title
template)`` key space and runs the volume-reducing reactions inline:

* **R1** — every event is tested against the blocking rules
  (:class:`~repro.core.mitigation.blocking.AlertBlocker` is already an
  O(rules-per-strategy) point lookup, so the batch component streams
  as-is);
* **R2** — survivors feed the :class:`OnlineAggregator`'s session
  windows; closed sessions surface as ``AggregatedAlert`` emissions.

Correlation (R3) and storm detection (R4) deliberately do *not* live
here: cascades cross services (so shard-local clustering would split
them) and flood rates are per region (so per-shard counters would dilute
them).  They live one level up, on the owning
:class:`~repro.streaming.plane.RegionPlane` — regions are independent
for both reactions, so a plane-local :class:`OnlineCorrelator` over the
plane's merged shard emissions and a plane-local ``OnlineStormDetector``
over its raw in-order sub-stream are exact.  Keeping shard state free of
shared detectors is also what lets the backends run planes truly
concurrently: a processor touches nothing outside itself.
"""

from __future__ import annotations

from repro.alerting.alert import Alert
from repro.core.mitigation.aggregation import AggregatedAlert
from repro.core.mitigation.blocking import AlertBlocker
from repro.streaming.dedup import OnlineAggregator, OpenSession

__all__ = ["StreamProcessor"]


class StreamProcessor:
    """One shard's incremental reaction chain."""

    def __init__(
        self,
        shard_id: int,
        blocker: AlertBlocker,
        aggregation_window: float = 900.0,
    ) -> None:
        self.shard_id = shard_id
        self._blocker = blocker
        self._aggregator = OnlineAggregator(aggregation_window)
        self.seen = 0
        self.blocked = 0
        self.emitted = 0

    @property
    def open_sessions(self) -> int:
        """In-flight aggregation sessions on this shard."""
        return self._aggregator.open_sessions

    def min_open_first(self) -> float | None:
        """Earliest open-session start (feeds the correlator's horizon)."""
        return self._aggregator.min_open_first()

    def ingest_batch(
        self,
        alerts: list[Alert],
        blocked_by_region: dict[str, int] | None = None,
    ) -> tuple[int, list[AggregatedAlert]]:
        """Process one micro-batch.

        Returns ``(blocked_count, emitted)``.  R1 skips the rule scan for
        strategies no rule targets; R2 folds the survivors grouped by key.
        ``blocked_by_region``, when given, accumulates the per-region
        blocked counts (one dict increment per *blocked* alert only) —
        the owning plane's migration-grade accounting.
        """
        ruled = self._blocker.ruled_strategies
        is_blocked = self._blocker.is_blocked
        blocked = 0
        if ruled:
            survivors = []
            append = survivors.append
            for alert in alerts:
                if alert.strategy_id in ruled and is_blocked(alert):
                    blocked += 1
                    if blocked_by_region is not None:
                        region = alert.region
                        blocked_by_region[region] = (
                            blocked_by_region.get(region, 0) + 1
                        )
                else:
                    append(alert)
        else:
            survivors = alerts
        emitted = self._aggregator.ingest_batch(survivors)
        self.seen += len(alerts)
        self.blocked += blocked
        self.emitted += len(emitted)
        return blocked, emitted

    def export_sessions(self) -> list[OpenSession]:
        """Hand over every open R2 session (shard rebalancing)."""
        return self._aggregator.export_sessions()

    def export_region(self, region: str) -> list[OpenSession]:
        """Hand over one region's open R2 sessions (plane migration)."""
        return self._aggregator.export_region(region)

    def adopt_sessions(self, sessions: list[OpenSession]) -> None:
        """Install R2 sessions migrated from another shard."""
        self._aggregator.adopt(sessions)

    def drain(self) -> list[AggregatedAlert]:
        """Flush all open aggregation state at end of stream."""
        emitted = self._aggregator.drain()
        self.emitted += len(emitted)
        return emitted
