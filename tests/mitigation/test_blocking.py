"""Tests for R1 alert blocking."""

import pytest

from repro.common.errors import ValidationError
from repro.core.antipatterns.base import AntiPatternFinding
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.workload.trace import AlertTrace
from tests.antipatterns.test_collective import make_alert


@pytest.fixture()
def trace():
    trace = AlertTrace()
    trace.extend_alerts([
        make_alert("a-1", 100.0, strategy_id="s-noise"),
        make_alert("a-2", 200.0, strategy_id="s-noise", region="region-B"),
        make_alert("a-3", 300.0, strategy_id="s-signal"),
    ])
    return trace


class TestBlockingRule:
    def test_strategy_scope(self):
        rule = BlockingRule(strategy_id="s-noise")
        assert rule.matches(make_alert("x", 0.0, strategy_id="s-noise"))
        assert not rule.matches(make_alert("x", 0.0, strategy_id="s-other"))

    def test_region_scope(self):
        rule = BlockingRule(strategy_id="s-noise", region="region-A")
        assert rule.matches(make_alert("x", 0.0, strategy_id="s-noise"))
        assert not rule.matches(
            make_alert("x", 0.0, strategy_id="s-noise", region="region-B")
        )

    def test_expiry(self):
        rule = BlockingRule(strategy_id="s-noise", expires_at=1000.0)
        assert rule.matches(make_alert("x", 500.0, strategy_id="s-noise"))
        assert not rule.matches(make_alert("x", 1500.0, strategy_id="s-noise"))

    def test_empty_strategy_rejected(self):
        with pytest.raises(ValidationError):
            BlockingRule(strategy_id="")


class TestBlocker:
    def test_apply_partitions(self, trace):
        blocker = AlertBlocker([BlockingRule(strategy_id="s-noise")])
        passed, blocked = blocker.apply(trace)
        assert len(blocked) == 2
        assert len(passed) == 1
        assert passed.alerts[0].strategy_id == "s-signal"

    def test_reduction(self, trace):
        blocker = AlertBlocker([BlockingRule(strategy_id="s-noise")])
        assert blocker.reduction(trace) == pytest.approx(2 / 3)

    def test_empty_trace_reduction(self):
        assert AlertBlocker().reduction(AlertTrace()) == 0.0

    def test_from_findings_noise_patterns_only(self):
        findings = [
            AntiPatternFinding("A4", "s-flappy", 0.9, "transient"),
            AntiPatternFinding("A5", "s-repeaty", 0.9, "repeats"),
            AntiPatternFinding("A1", "s-vague", 0.9, "vague title"),
        ]
        blocker = AlertBlocker.from_findings(findings)
        blocked_strategies = {rule.strategy_id for rule in blocker.rules}
        assert blocked_strategies == {"s-flappy", "s-repeaty"}

    def test_from_findings_deduplicates(self):
        findings = [
            AntiPatternFinding("A4", "s-1", 0.9, "a"),
            AntiPatternFinding("A5", "s-1", 0.9, "b"),
        ]
        assert len(AlertBlocker.from_findings(findings).rules) == 1

    def test_from_findings_carries_reason(self):
        findings = [AntiPatternFinding("A4", "s-1", 0.9, "transient share 80%")]
        rule = AlertBlocker.from_findings(findings).rules[0]
        assert "A4" in rule.reason

    def test_add_rule(self, trace):
        blocker = AlertBlocker()
        blocker.add(BlockingRule(strategy_id="s-signal"))
        assert blocker.is_blocked(trace.alerts[2])

    def test_apply_splits_as_the_two_pass_form(self):
        trace = AlertTrace(seed=7, label="t")
        trace.extend_alerts([
            make_alert(f"a-{index}", 100.0 * index,
                       strategy_id=f"s-{index % 4}",
                       region=("region-A", "region-B")[index % 3 == 0])
            for index in range(24)
        ])
        blocker = AlertBlocker([
            BlockingRule(strategy_id="s-0"),
            BlockingRule(strategy_id="s-1", region="region-B"),
            BlockingRule(strategy_id="s-2", expires_at=1200.0),
        ])
        passed, blocked = blocker.apply(trace)
        assert blocked == [a for a in trace.alerts if blocker.is_blocked(a)]
        assert passed.alerts == [
            a for a in trace.alerts if not blocker.is_blocked(a)
        ]
        assert 0 < len(blocked) < len(trace.alerts)
        assert passed.label == "t+R1" and passed.seed == 7

    def test_strategy_views_follow_the_rule_table(self):
        blocker = AlertBlocker([BlockingRule(strategy_id="s-1", region="r")])
        assert blocker.ruled_strategies is blocker.ruled_strategies
        assert blocker.unconditional_strategies == frozenset()
        blocker.add(BlockingRule(strategy_id="s-2"))
        assert blocker.ruled_strategies == {"s-1", "s-2"}
        assert blocker.unconditional_strategies == {"s-2"}
        blocker.remove_rule(BlockingRule(strategy_id="s-2"))
        assert blocker.ruled_strategies == {"s-1"}
        assert blocker.unconditional_strategies == frozenset()
        blocker.add_rules([BlockingRule(strategy_id="s-3")])
        blocker.remove_strategy("s-1")
        assert blocker.ruled_strategies == blocker.unconditional_strategies == {"s-3"}
