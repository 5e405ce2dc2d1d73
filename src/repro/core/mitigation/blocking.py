"""R1 — rule-based alert blocking (paper §III-C [R1]).

"When OCEs find that transient alerts, toggling alerts, and repeating
alerts provide no information about service anomaly, they can treat these
alerts as noise and block them with alert blocking rules."

The blocker holds explicit rules — exactly what OCEs configure — and the
convenience constructor derives those rules from A4/A5 detector findings,
closing the loop the paper describes.  Rules can be scoped to a whole
strategy or to one (strategy, region) pair, and can expire, modelling the
"when to invalidate these rules" problem §IV raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.core.antipatterns.base import AntiPatternFinding
from repro.workload.trace import AlertTrace

__all__ = ["BlockingRule", "AlertBlocker", "rule_to_dict", "rule_from_dict"]


def rule_to_dict(rule: "BlockingRule") -> dict:
    """A JSON-safe row for one rule (checkpoint/journal serialisation)."""
    return {
        "strategy_id": rule.strategy_id,
        "region": rule.region,
        "reason": rule.reason,
        "expires_at": rule.expires_at,
    }


def rule_from_dict(row: dict) -> "BlockingRule":
    """Rebuild a rule from :func:`rule_to_dict` output (exact round trip)."""
    return BlockingRule(
        strategy_id=row["strategy_id"],
        region=row.get("region"),
        reason=row.get("reason", ""),
        expires_at=row.get("expires_at"),
    )


@dataclass(frozen=True, slots=True)
class BlockingRule:
    """Block alerts of one strategy, optionally in one region only."""

    strategy_id: str
    region: str | None = None
    reason: str = ""
    expires_at: float | None = None

    def __post_init__(self) -> None:
        if not self.strategy_id:
            raise ValidationError("strategy_id must be non-empty")

    def matches(self, alert: Alert) -> bool:
        """Whether this rule blocks ``alert``."""
        if alert.strategy_id != self.strategy_id:
            return False
        if self.region is not None and alert.region != self.region:
            return False
        if self.expires_at is not None and alert.occurred_at >= self.expires_at:
            return False
        return True


class AlertBlocker:
    """Applies a set of blocking rules to alert streams."""

    def __init__(self, rules: Iterable[BlockingRule] = ()) -> None:
        self._rules = list(rules)
        self._by_strategy: dict[str, list[BlockingRule]] = {}
        # Strategies blocked outright: at least one rule with no region
        # scope and no expiry.  The common shape (every rule derived from
        # A4/A5 findings is unconditional), and it turns the per-event
        # hot-path test into a single set membership.
        self._unconditional: set[str] = set()
        #: (ruled, unconditional) frozen until the table changes.
        self._views: tuple[frozenset[str], frozenset[str]] | None = None
        for rule in self._rules:
            self._index(rule)

    def _index(self, rule: BlockingRule) -> None:
        self._views = None
        self._by_strategy.setdefault(rule.strategy_id, []).append(rule)
        if rule.region is None and rule.expires_at is None:
            self._unconditional.add(rule.strategy_id)

    @classmethod
    def from_findings(
        cls,
        findings: Iterable[AntiPatternFinding],
        patterns: tuple[str, ...] = ("A4", "A5"),
        expires_at: float | None = None,
    ) -> "AlertBlocker":
        """Build strategy-scoped rules from detector findings.

        Only strategy-subject findings of noise patterns (default A4/A5)
        become rules — the reaction the paper describes.
        """
        rules = []
        seen: set[str] = set()
        for finding in findings:
            if finding.pattern not in patterns:
                continue
            if finding.subject in seen:
                continue
            seen.add(finding.subject)
            rules.append(BlockingRule(
                strategy_id=finding.subject,
                reason=f"{finding.pattern}: {finding.evidence}",
                expires_at=expires_at,
            ))
        return cls(rules)

    @property
    def rules(self) -> list[BlockingRule]:
        """The configured rules (copy)."""
        return list(self._rules)

    def add(self, rule: BlockingRule) -> None:
        """Register an additional rule."""
        self._rules.append(rule)
        self._index(rule)

    def add_rules(self, rules: Iterable[BlockingRule]) -> None:
        """Register several additional rules."""
        for rule in rules:
            self.add(rule)

    def remove_rule(self, rule: BlockingRule) -> bool:
        """Remove one specific rule (field equality); returns success.

        The online learner retires *its own* rules this way — a
        strategy may also carry operator-configured rules, which must
        survive the learned rule's expiry or demotion.
        """
        rules = self._by_strategy.get(rule.strategy_id)
        if not rules or rule not in rules:
            return False
        rules.remove(rule)
        self._rules.remove(rule)
        self._views = None
        if not rules:
            del self._by_strategy[rule.strategy_id]
        if rule.region is None and rule.expires_at is None and not any(
            r.region is None and r.expires_at is None for r in rules
        ):
            self._unconditional.discard(rule.strategy_id)
        return True

    def remove_strategy(self, strategy_id: str) -> int:
        """Drop every rule targeting ``strategy_id``; returns the count.

        This is the retirement half of the online rule life cycle: the
        streaming learner promotes rules with a TTL and *removes* them on
        expiry or precision decay.  Removing an already-expired rule is
        accounting-neutral — :meth:`BlockingRule.matches` stops blocking
        at ``expires_at`` regardless — but keeps the rule table (and the
        per-event scan) from growing without bound.
        """
        dropped = self._by_strategy.pop(strategy_id, None)
        if not dropped:
            return 0
        self._rules = [r for r in self._rules if r.strategy_id != strategy_id]
        self._unconditional.discard(strategy_id)
        self._views = None
        return len(dropped)

    @property
    def ruled_strategies(self) -> frozenset[str]:
        """Strategies at least one rule targets.

        The streaming hot loop tests every event against the rules; most
        strategies have none, and membership here lets callers skip the
        per-rule scan entirely for them.
        """
        return self._frozen()[0]

    @property
    def unconditional_strategies(self) -> frozenset[str]:
        """Strategies blocked outright, whatever the alert's region or time.

        A subset of :attr:`ruled_strategies`: membership here decides
        :meth:`is_blocked` without a call, the streaming R1 fast path.
        """
        return self._frozen()[1]

    def _frozen(self) -> tuple[frozenset[str], frozenset[str]]:
        if self._views is None:
            self._views = frozenset(self._by_strategy), frozenset(self._unconditional)
        return self._views

    def is_blocked(self, alert: Alert) -> bool:
        """Whether any rule blocks ``alert``."""
        strategy = alert.strategy_id
        if strategy in self._unconditional:
            return True
        rules = self._by_strategy.get(strategy)
        if not rules:
            return False
        for rule in rules:
            if rule.matches(alert):
                return True
        return False

    def apply(self, trace: AlertTrace) -> tuple[AlertTrace, list[Alert]]:
        """Split a trace into (passed, blocked), one rule test per alert."""
        passed, blocked = [], []
        for alert in trace.alerts:
            (blocked if self.is_blocked(alert) else passed).append(alert)
        return replace(trace, alerts=passed, label=f"{trace.label}+R1"), blocked

    def reduction(self, trace: AlertTrace) -> float:
        """Fraction of the trace's alerts the rules remove."""
        if not trace.alerts:
            return 0.0
        blocked = sum(1 for a in trace.alerts if self.is_blocked(a))
        return blocked / len(trace.alerts)
