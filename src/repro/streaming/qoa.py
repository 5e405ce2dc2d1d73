"""Streaming QoA: per-strategy quality scored live from gateway counters.

The batch QoA path (:mod:`repro.core.qoa`) needs a *finished* trace —
incident windows, lifecycle quantiles, processing times.  A gateway that
runs forever never has one, so this module scores what the reaction
chain itself observes, incrementally, from the same per-flush
observation rows that feed the rule learner (the gateway folds them
from each flush's pre-R1 batches and the planes' R2 close counts,
:func:`~repro.streaming.learning.flush_observations`):

* **coverage** — the share of a strategy's alerts that survive R1
  blocking.  A strategy whose alerts are mostly rule-blocked is, by the
  OCEs' own configured judgement, mostly noise.
* **actionability** — one minus the transient share: short-lived
  auto-cleared alerts (the paper's A4) resolve themselves before anyone
  could act.
* **distinctness** — R2 aggregates emitted per surviving alert: the
  inverse-redundancy proxy.  A strategy whose hundred alerts collapse
  into two session groups carries two alerts' worth of information
  (the paper's A5 in volume terms).

All three are ratios of *lifetime counters*, so the streaming scores are
exact at any point in the stream — and at drain they equal the same
ratios computed batch-wise from the finished trace
(:func:`measure_stream_qoa`) to within floating-point division, the
tolerance ``tests/streaming/test_differential.py`` documents and
asserts.  With rule learning enabled the two legitimately diverge
(different rules block different alerts); that divergence is one of the
differential harness's reported metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alerting.alert import Alert
from repro.core.antipatterns.base import DetectorThresholds
from repro.core.mitigation.aggregation import AlertAggregator
from repro.core.mitigation.blocking import AlertBlocker

__all__ = ["StreamQoA", "StreamQoAScorer", "measure_stream_qoa"]

#: Tolerance within which streaming scores match the batch-side ratios
#: at drain (pure float-division noise; the counters are identical).
QOA_DRAIN_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class StreamQoA:
    """Counter-derived quality of one strategy's alerts, all in [0, 1]."""

    strategy_id: str
    seen: int
    blocked: int
    transient: int
    groups: int

    @property
    def coverage(self) -> float:
        """Share of alerts surviving R1 (1.0 = nothing rule-blocked)."""
        return (self.seen - self.blocked) / self.seen if self.seen else 1.0

    @property
    def actionability(self) -> float:
        """1 - transient share (A4-style self-resolving alerts score low)."""
        return 1.0 - self.transient / self.seen if self.seen else 1.0

    @property
    def distinctness(self) -> float:
        """Aggregate groups per surviving alert (inverse redundancy)."""
        passed = self.seen - self.blocked
        if passed <= 0:
            return 1.0
        return min(self.groups / passed, 1.0)

    @property
    def overall(self) -> float:
        """Unweighted mean of the three criteria."""
        return (self.coverage + self.actionability + self.distinctness) / 3.0

    def as_dict(self) -> dict[str, float]:
        """The scores plus raw counters as one plain dict (snapshots)."""
        return {
            "seen": self.seen,
            "blocked": self.blocked,
            "transient": self.transient,
            "groups": self.groups,
            "coverage": self.coverage,
            "actionability": self.actionability,
            "distinctness": self.distinctness,
            "overall": self.overall,
        }


class StreamQoAScorer:
    """Accumulates per-strategy QoA counters from flush observation rows."""

    def __init__(self) -> None:
        # strategy -> [seen, blocked, transient, groups]
        self._counters: dict[str, list[int]] = {}

    def observe(self, observations: list[tuple]) -> None:
        """Fold one flush cycle's observation rows."""
        counters = self._counters
        for strategy_id, _region, _service, seen, blocked, transient, groups in observations:
            row = counters.get(strategy_id)
            if row is None:
                counters[strategy_id] = [seen, blocked, transient, groups]
            else:
                row[0] += seen
                row[1] += blocked
                row[2] += transient
                row[3] += groups

    @property
    def strategies(self) -> int:
        """Number of strategies observed so far."""
        return len(self._counters)

    def export_state(self) -> dict:
        """The lifetime counters as a JSON-safe dict (checkpointing)."""
        return {
            "counters": {
                strategy_id: list(row)
                for strategy_id, row in self._counters.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Adopt counters captured by :meth:`export_state` (exact)."""
        self._counters = {
            str(strategy_id): [int(value) for value in row]
            for strategy_id, row in state["counters"].items()
        }

    def score(self, strategy_id: str) -> StreamQoA | None:
        """The current scores of one strategy (``None`` if unseen)."""
        row = self._counters.get(strategy_id)
        if row is None:
            return None
        return StreamQoA(strategy_id, *row)

    def scores(self, min_alerts: int = 1) -> dict[str, StreamQoA]:
        """Scores of every strategy with at least ``min_alerts`` seen."""
        return {
            strategy_id: StreamQoA(strategy_id, *row)
            for strategy_id, row in sorted(self._counters.items())
            if row[0] >= min_alerts
        }

    def snapshot(self, min_alerts: int = 1) -> dict[str, dict[str, float]]:
        """All scores as plain dicts (``GatewayStats.snapshot`` payload)."""
        return {
            strategy_id: qoa.as_dict()
            for strategy_id, qoa in self.scores(min_alerts).items()
        }


def measure_stream_qoa(
    alerts: list[Alert],
    blocker: AlertBlocker,
    aggregation_window: float = 900.0,
    thresholds: DetectorThresholds | None = None,
) -> dict[str, StreamQoA]:
    """The batch counterpart: identical counters from a finished trace.

    Runs the batch R1 blocker and R2 aggregator over ``alerts`` and
    derives the same four per-strategy counters the streaming scorer
    accumulates.  With a static rule set the streaming scores at drain
    equal these to within :data:`QOA_DRAIN_TOLERANCE` — the batch-vs-
    stream QoA leg of the differential harness.
    """
    thresholds = thresholds or DetectorThresholds()
    threshold = thresholds.intermittent_threshold
    counters: dict[str, list[int]] = {}
    survivors: list[Alert] = []
    for alert in alerts:
        row = counters.setdefault(alert.strategy_id, [0, 0, 0, 0])
        row[0] += 1
        if alert.is_transient(threshold):
            row[2] += 1
        if blocker.is_blocked(alert):
            row[1] += 1
        else:
            survivors.append(alert)
    for aggregate in AlertAggregator(aggregation_window).aggregate(survivors):
        counters[aggregate.strategy_id][3] += 1
    return {
        strategy_id: StreamQoA(strategy_id, *row)
        for strategy_id, row in sorted(counters.items())
    }
