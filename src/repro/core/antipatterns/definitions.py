"""A3 definition hygiene: stale and duplicate strategy definitions.

The paper's A3 ("improperly configured alert rules") covers more than
infra-metric rules: rule books accrete *stale* definitions that have not
fired in weeks (nobody would notice if they were deleted — or worse,
broken) and *duplicate* definitions — several strategies of one service
carrying the same title and description, so one fault pages the OCE many
times under different strategy ids.

Both judgements need only what the alert stream itself reveals — when
each strategy last fired and what text it carries — so the same pure
function serves two callers:

* :class:`DefinitionHygieneDetector` derives the records from a finished
  :class:`~repro.workload.trace.AlertTrace` (batch);
* :class:`~repro.streaming.detectors.StreamingDetectorSuite` derives
  them from the strategy catalog it accumulates flush by flush
  (online).

Because both paths funnel through :func:`definition_findings`, the
online-vs-batch differential test compares *data paths*, not two
re-implementations of the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.timeutil import DAY
from repro.core.antipatterns.base import AntiPatternFinding, DetectorThresholds
from repro.workload.trace import AlertTrace

__all__ = [
    "DefinitionRecord",
    "definition_findings",
    "DefinitionHygieneDetector",
]


@dataclass(frozen=True, slots=True)
class DefinitionRecord:
    """What the stream reveals about one strategy's definition."""

    strategy_id: str
    service: str
    title: str
    description: str
    #: Event time of the strategy's most recent alert.
    last_seen: float


def _text_key(record: DefinitionRecord) -> tuple[str, str, str]:
    """Normalised duplicate-detection key (case/whitespace insensitive)."""
    return (
        record.service,
        " ".join(record.title.lower().split()),
        " ".join(record.description.lower().split()),
    )


def definition_findings(
    records: list[DefinitionRecord],
    trace_end: float,
    thresholds: DetectorThresholds | None = None,
) -> list[AntiPatternFinding]:
    """A3 stale/duplicate findings over a set of definition records.

    Deterministic: findings come out stale-first, then duplicates, each
    group ordered by strategy id, regardless of input order.
    """
    thresholds = thresholds or DetectorThresholds()
    ordered = sorted(records, key=lambda record: record.strategy_id)
    findings: list[AntiPatternFinding] = []

    stale_after = thresholds.stale_after
    for record in ordered:
        gap = trace_end - record.last_seen
        if gap <= stale_after:
            continue
        findings.append(AntiPatternFinding(
            pattern="A3",
            subject=record.strategy_id,
            score=min(1.0, 0.5 + gap / (4.0 * stale_after)),
            evidence=(
                f"definition stale: last alert {gap / DAY:.1f}d before "
                f"stream end (threshold {stale_after / DAY:.1f}d)"
            ),
            details={"kind": "stale", "gap_seconds": gap},
        ))

    groups: dict[tuple[str, str, str], list[DefinitionRecord]] = {}
    for record in ordered:
        groups.setdefault(_text_key(record), []).append(record)
    for key in sorted(groups):
        group = groups[key]
        if len(group) < thresholds.duplicate_min_strategies:
            continue
        peers = [record.strategy_id for record in group]
        for record in group:
            others = [sid for sid in peers if sid != record.strategy_id]
            findings.append(AntiPatternFinding(
                pattern="A3",
                subject=record.strategy_id,
                score=min(1.0, 0.4 + 0.2 * len(group)),
                evidence=(
                    f"definition duplicates {len(others)} other "
                    f"strategy(ies) of service {record.service!r}: "
                    f"{', '.join(others)}"
                ),
                details={"kind": "duplicate", "peers": others},
            ))
    return findings


class DefinitionHygieneDetector:
    """A3 (definition hygiene) over a finished trace — batch side.

    Judges only strategies that actually fired: a strategy with zero
    alerts in the trace has no ``last_seen`` the stream could ever know,
    and the streaming side (which learns definitions *from* alerts) can
    by construction never see it.  Keeping the batch side to the same
    evidence is what makes online-vs-batch parity meaningful.
    """

    pattern = "A3"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()

    @staticmethod
    def records_of(trace: AlertTrace) -> tuple[list[DefinitionRecord], float]:
        """Definition records plus the trace-end watermark."""
        last_seen: dict[str, float] = {}
        trace_end = 0.0
        for sid, alerts in trace.by_strategy().items():
            last = max(alert.occurred_at for alert in alerts)
            last_seen[sid] = last
            trace_end = max(trace_end, last)
        records = [
            DefinitionRecord(
                strategy_id=sid,
                service=trace.strategies[sid].service,
                title=trace.strategies[sid].title,
                description=trace.strategies[sid].description,
                last_seen=last,
            )
            for sid, last in sorted(last_seen.items())
        ]
        return records, trace_end

    def detect(self, trace: AlertTrace) -> list[AntiPatternFinding]:
        """Flag stale and duplicate definitions among firing strategies."""
        records, trace_end = self.records_of(trace)
        return definition_findings(records, trace_end, self._thresholds)
