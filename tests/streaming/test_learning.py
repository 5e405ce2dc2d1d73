"""Unit tests for the online rule learner and the streaming QoA scorer.

The differential harness and the property suite cover the end-to-end
behaviour; these tests pin the component-level life cycle — promotion,
renewal, demotion, expiry — with hand-built observation rows, plus the
gateway's per-flush fold into those rows, the wire round-trip for rule
deltas and the QoA arithmetic.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.streaming import AlertGateway, LearnerConfig, OnlineRuleLearner
from repro.streaming.learning import (
    RuleEvent,
    _KeyWindow,
    flush_observations,
    rule_set_divergence,
)
from repro.streaming.qoa import StreamQoA, StreamQoAScorer, measure_stream_qoa
from repro.topology.graph import DependencyGraph

from tests.streaming.conftest import make_alert

CONFIG = LearnerConfig(
    window_seconds=600.0, min_alerts=10, transient_fraction=0.5,
    repeat_count=20, rule_ttl=1200.0, demote_fraction=0.2,
)


def obs(strategy, region="region-A", seen=0, blocked=0, transient=0, groups=0,
        service="svc"):
    return (strategy, region, service, seen, blocked, transient, groups)


class TestLearnerLifecycle:
    def test_a4_evidence_promotes_with_ttl(self):
        learner = OnlineRuleLearner(CONFIG)
        delta = learner.observe([obs("s-flap", seen=12, transient=10)], 100.0, 12)
        assert [r.strategy_id for r in delta.added] == ["s-flap"]
        (rule,) = delta.added
        assert rule.expires_at == pytest.approx(100.0 + CONFIG.rule_ttl)
        assert learner.events[0].kind == "promote"
        assert learner.events[0].at_input == 12

    def test_a5_evidence_promotes_per_region_volume(self):
        learner = OnlineRuleLearner(CONFIG)
        # 12 alerts in one region + 12 in another: strategy volume is 24
        # but no single region reaches repeat_count=20 -> no promotion.
        delta = learner.observe(
            [obs("s-rep", "region-A", seen=12), obs("s-rep", "region-B", seen=12)],
            100.0, 24,
        )
        assert not delta.added
        # One region crossing the threshold promotes.
        delta = learner.observe([obs("s-rep", "region-A", seen=20)], 200.0, 44)
        assert [r.strategy_id for r in delta.added] == ["s-rep"]

    def test_sustained_evidence_renews_the_expiry(self):
        learner = OnlineRuleLearner(CONFIG)
        first = learner.observe([obs("s-flap", seen=12, transient=12)], 100.0, 12)
        delta = learner.observe([obs("s-flap", seen=12, transient=12)], 400.0, 24)
        assert delta.removed == first.added  # the exact old rule retires
        assert delta.added[0].expires_at == pytest.approx(400.0 + CONFIG.rule_ttl)
        assert learner.renewed == 1
        assert learner.active_rules == 1

    def test_quiet_strategy_expires_at_ttl(self):
        learner = OnlineRuleLearner(CONFIG)
        learner.observe([obs("s-flap", seen=12, transient=12)], 100.0, 12)
        # Far-future observation of a different strategy: the window
        # empties and the TTL has elapsed.
        delta = learner.observe([obs("s-other", seen=1)], 5000.0, 13)
        assert [r.strategy_id for r in delta.removed] == ["s-flap"]
        assert not delta.added
        assert learner.expired == 1
        assert learner.active_rules == 0

    def test_clean_but_chatty_strategy_demotes_early(self):
        learner = OnlineRuleLearner(CONFIG)
        learner.observe([obs("s-flap", seen=12, transient=12)], 100.0, 12)
        # Still alerting well above min_alerts, but spread thin across
        # regions with zero transients: no signal anywhere near
        # promotion grade, so the rule now blocks real alerts -> demote
        # before the TTL would run out.
        delta = learner.observe(
            [obs("s-flap", region, seen=3, transient=0)
             for region in ("region-A", "region-B", "region-C", "region-D")],
            800.0, 24,
        )
        assert [r.strategy_id for r in delta.removed] == ["s-flap"]
        assert learner.demoted == 1
        assert learner.events[-1].kind == "demote"

    def test_single_region_volume_is_never_demoted_below_the_a5_floor(self):
        """A strategy still repeating in one region at half promotion
        grade keeps its rule until the evidence actually fades (the TTL
        handles the ambiguous middle ground)."""
        learner = OnlineRuleLearner(CONFIG)
        learner.observe([obs("s-flap", seen=12, transient=12)], 100.0, 12)
        delta = learner.observe([obs("s-flap", seen=15, transient=0)], 800.0, 27)
        assert not delta.removed
        assert learner.demoted == 0
        assert learner.active_rules == 1

    def test_finish_expires_everything(self):
        learner = OnlineRuleLearner(CONFIG)
        learner.observe([obs("s-flap", seen=12, transient=12)], 100.0, 12)
        delta = learner.finish(150.0, 12)
        assert [r.strategy_id for r in delta.removed] == ["s-flap"]
        assert learner.active_rules == 0
        assert learner.events[-1].reason == "stream drained"

    def test_rule_event_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            RuleEvent(kind="invent", strategy_id="s", at_input=0,
                      at_time=0.0, expires_at=None)

    def test_divergence_edge_cases(self):
        assert rule_set_divergence(set(), set())["precision"] == 1.0
        assert rule_set_divergence(set(), set())["recall"] == 1.0
        # No promotions = no false positives (vacuous precision), but
        # recall correctly reports everything was missed.
        assert rule_set_divergence(set(), {"s"})["precision"] == 1.0
        assert rule_set_divergence(set(), {"s"})["recall"] == 0.0
        metrics = rule_set_divergence({"a", "b"}, {"b", "c"})
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(0.5)


class TestKeyWindowPrune:
    """Entries need not arrive in time order; a prune still drops exactly
    the pre-horizon ones, and one with nothing expired changes nothing."""

    def test_out_of_order_entries_are_pruned_exactly(self):
        window = _KeyWindow()
        for entry in ((300.0, 5, 1), (100.0, 3, 3), (500.0, 2, 0), (200.0, 4, 2)):
            window.add(*entry)
        window.prune(250.0)
        assert window.entries == [(300.0, 5, 1), (500.0, 2, 0)]
        assert (window.seen, window.transient) == (7, 1)
        window.add(150.0, 1, 1)  # late: below the horizon just pruned
        window.add(600.0, 1, 0)
        window.prune(250.0)
        assert window.entries == [(300.0, 5, 1), (500.0, 2, 0), (600.0, 1, 0)]
        assert (window.seen, window.transient) == (8, 1)
        window.prune(550.0)
        assert window.entries == [(600.0, 1, 0)]
        assert (window.seen, window.transient) == (1, 0)
        window.prune(700.0)
        assert (window.entries, window.seen, window.transient) == ([], 0, 0)

    def test_restored_out_of_order_window_is_pruned_exactly(self):
        learner = OnlineRuleLearner(CONFIG)
        learner.observe([obs("s-a", seen=3)], 100.0, 3)
        state = learner.export_state()
        state["windows"] = {"s-a": {"region-A": [[500.0, 2, 0], [100.0, 3, 1], [450.0, 4, 0]]}}
        restored = OnlineRuleLearner(CONFIG)
        restored.restore_state(json.loads(json.dumps(state)))
        restored.observe([], 700.0, 3)  # horizon 100.0: nothing expires
        assert restored.export_state()["windows"] == state["windows"]
        restored.observe([], 800.0, 3)  # horizon 200.0: only the 100.0 entry
        window = restored._windows["s-a"]["region-A"]
        assert window.entries == [(500.0, 2, 0), (450.0, 4, 0)]
        assert (window.seen, window.transient) == (6, 0)


class TestBlockerRuleRetirement:
    def test_remove_rule_spares_other_rules_of_the_strategy(self):
        configured = BlockingRule(strategy_id="s-1", reason="operator")
        learned = BlockingRule(strategy_id="s-1", reason="learned A4",
                               expires_at=500.0)
        blocker = AlertBlocker([configured, learned])
        assert blocker.remove_rule(learned) is True
        assert blocker.remove_rule(learned) is False
        assert blocker.rules == [configured]
        # The unconditional fast path must survive: the configured rule
        # still blocks everywhere, at any time.
        assert blocker.is_blocked(make_alert(1000.0, strategy_id="s-1"))

    def test_remove_rule_recomputes_the_unconditional_fast_path(self):
        unconditional = BlockingRule(strategy_id="s-1")
        scoped = BlockingRule(strategy_id="s-1", region="region-A")
        blocker = AlertBlocker([unconditional, scoped])
        assert blocker.unconditional_strategies == {"s-1"}
        blocker.remove_rule(unconditional)
        assert blocker.unconditional_strategies == frozenset()
        assert blocker.is_blocked(make_alert(0.0, strategy_id="s-1"))
        assert not blocker.is_blocked(
            make_alert(0.0, strategy_id="s-1", region="region-B")
        )

    def test_learned_retirement_never_unblocks_a_configured_strategy(self):
        """Regression: a strategy with an operator-configured rule that
        the learner *also* promotes must stay blocked after the learned
        rule retires (renewal, expiry, and drain all remove only the
        learner's own rule objects)."""
        configured = BlockingRule(strategy_id="s-noisy", reason="operator")
        blocker = AlertBlocker([configured])
        graph = DependencyGraph()
        graph.add_microservice("m-1", service="svc")
        gateway = AlertGateway(
            graph, blocker=blocker, learn_rules=True, flush_size=8,
            learner_config=LearnerConfig(min_alerts=5, repeat_count=8,
                                         window_seconds=600.0,
                                         rule_ttl=300.0),
            retain_artifacts=False,
        )
        # Noisy burst (promotes + renews), long quiet gap (expires the
        # learned rule mid-stream), then more events of the strategy.
        alerts = [
            make_alert(index * 10.0, strategy_id="s-noisy", cleared_after=20.0)
            for index in range(40)
        ] + [
            make_alert(50_000.0 + index * 10.0, strategy_id="s-noisy")
            for index in range(16)
        ]
        gateway.ingest_batch(alerts)
        stats = gateway.drain()
        assert stats.rules_promoted >= 1
        assert stats.rules_expired >= 1
        # Every single alert was blocked by the configured rule.
        assert stats.blocked_alerts == len(alerts)
        assert blocker.rules == [configured]

    def test_remove_strategy_drops_all_its_rules(self):
        blocker = AlertBlocker([
            BlockingRule(strategy_id="s-1"),
            BlockingRule(strategy_id="s-1", region="region-A"),
            BlockingRule(strategy_id="s-2"),
        ])
        assert blocker.remove_strategy("s-1") == 2
        assert blocker.remove_strategy("s-1") == 0
        assert {r.strategy_id for r in blocker.rules} == {"s-2"}
        assert not blocker.is_blocked(make_alert(0.0, strategy_id="s-1"))
        assert blocker.is_blocked(make_alert(0.0, strategy_id="s-2"))

    def test_remove_strategy_clears_the_unconditional_fast_path(self):
        blocker = AlertBlocker([BlockingRule(strategy_id="s-1")])
        blocker.remove_strategy("s-1")
        assert "s-1" not in blocker.ruled_strategies
        assert "s-1" not in blocker.unconditional_strategies
        blocker.add(BlockingRule(strategy_id="s-1", expires_at=100.0))
        assert "s-1" not in blocker.unconditional_strategies
        assert blocker.is_blocked(make_alert(50.0, strategy_id="s-1"))
        assert not blocker.is_blocked(make_alert(150.0, strategy_id="s-1"))


class TestStreamQoA:
    def test_scorer_accumulates_across_flushes(self):
        scorer = StreamQoAScorer()
        scorer.observe([obs("s-1", seen=10, blocked=2, transient=4, groups=1)])
        scorer.observe([obs("s-1", "region-B", seen=10, blocked=0, transient=0,
                            groups=3)])
        qoa = scorer.score("s-1")
        assert qoa == StreamQoA("s-1", 20, 2, 4, 4)
        assert qoa.coverage == pytest.approx(18 / 20)
        assert qoa.actionability == pytest.approx(16 / 20)
        assert qoa.distinctness == pytest.approx(4 / 18)
        assert scorer.score("missing") is None

    def test_degenerate_counters_stay_in_bounds(self):
        everything_blocked = StreamQoA("s", 10, 10, 10, 0)
        assert everything_blocked.coverage == 0.0
        assert everything_blocked.distinctness == 1.0  # vacuous: none passed
        unseen = StreamQoA("s", 0, 0, 0, 0)
        assert unseen.overall == 1.0

    def test_batch_counterpart_matches_hand_counts(self):
        alerts = [
            make_alert(0.0, strategy_id="s-1", cleared_after=30.0),    # transient
            make_alert(10.0, strategy_id="s-1", cleared_after=3000.0),
            make_alert(5000.0, strategy_id="s-1", cleared_after=3000.0),
            make_alert(20.0, strategy_id="s-2", cleared_after=None),
        ]
        blocker = AlertBlocker([BlockingRule(strategy_id="s-2")])
        scores = measure_stream_qoa(alerts, blocker, aggregation_window=900.0)
        assert scores["s-1"] == StreamQoA("s-1", 3, 0, 1, 2)
        assert scores["s-2"] == StreamQoA("s-2", 1, 1, 0, 0)


class TestGatewayLearningPaths:
    def _graph(self):
        graph = DependencyGraph()
        graph.add_microservice("m-1", service="svc")
        return graph

    def test_per_event_ingest_learns_too(self):
        """flush_size=1: a learning step per event, rules effective from
        the next event on."""
        gateway = AlertGateway(
            self._graph(), blocker=AlertBlocker(), learn_rules=True,
            learner_config=LearnerConfig(min_alerts=5, repeat_count=8,
                                         window_seconds=600.0),
            retain_artifacts=False,
        )
        for index in range(40):
            gateway.ingest_batch([make_alert(index * 10.0, strategy_id="s-noisy",
                                             cleared_after=20.0)])
        stats = gateway.drain()
        assert stats.rules_promoted >= 1
        assert stats.blocked_alerts > 0
        assert stats.input_alerts == 40

    def test_learning_restores_the_callers_blocker_at_drain(self):
        configured = BlockingRule(strategy_id="s-static", reason="mine")
        blocker = AlertBlocker([configured])
        gateway = AlertGateway(
            self._graph(), blocker=blocker, learn_rules=True, flush_size=8,
            learner_config=LearnerConfig(min_alerts=5, repeat_count=8,
                                         window_seconds=600.0),
            retain_artifacts=False,
        )
        gateway.ingest_batch([
            make_alert(index * 10.0, strategy_id="s-noisy", cleared_after=20.0)
            for index in range(40)
        ])
        stats = gateway.drain()
        assert stats.rules_promoted >= 1
        assert blocker.rules == [configured]

    def test_snapshot_surfaces_learner_and_qoa(self):
        gateway = AlertGateway(
            self._graph(), learn_rules=True, enable_qoa=True, flush_size=8,
            retain_artifacts=False,
        )
        gateway.ingest_batch([
            make_alert(index * 10.0, strategy_id="s-1") for index in range(20)
        ])
        gateway.flush()
        payload = gateway.stats.snapshot()
        assert payload["learner"]["enabled"] is True
        stats = gateway.drain()
        assert stats.snapshot()["qoa"]["s-1"]["seen"] == 20
        assert "learned R1 rules" in stats.render()


class TestFlushObservations:
    """The gateway-side fold of one flush into observation rows."""

    def test_rows_follow_planes_then_first_seen_then_close_order(self):
        blocker = AlertBlocker([BlockingRule(strategy_id="s-b")])
        plane_0 = [
            make_alert(0.0, strategy_id="s-b", service="first"),
            make_alert(1.0, strategy_id="s-a", cleared_after=30.0),
            make_alert(2.0, strategy_id="s-b", service="second",
                       cleared_after=None),
        ]
        plane_1 = [make_alert(3.0, strategy_id="s-a", region="region-B")]
        rows = flush_observations(
            [
                (plane_0, {("s-z", "region-A"): 1, ("s-a", "region-A"): 2,
                           ("s-y", "region-A"): 1}),
                (plane_1, {}),
                ((), {("s-x", "region-C"): 3}),
            ],
            blocker, intermittent_threshold=60.0,
        )
        assert rows == [
            # Batch keys first-seen, with the first alert's service.
            ("s-b", "region-A", "first", 2, 2, 0, 0),
            ("s-a", "region-A", "service-1", 1, 0, 1, 2),
            # Then the keys that only closed a session, in close order.
            ("s-z", "region-A", "", 0, 0, 0, 1),
            ("s-y", "region-A", "", 0, 0, 0, 1),
            ("s-a", "region-B", "service-1", 1, 0, 0, 0),
            ("s-x", "region-C", "", 0, 0, 0, 3),
        ]

    @pytest.mark.parametrize("n_planes", [1, 2])
    def test_a_close_without_alerts_still_reaches_learner_and_qoa(
        self, n_planes,
    ):
        """Flush 2 closes s-b's R2 session although s-b has no alert in
        it: the close-only row gives s-b's window the flush watermark's
        ``(watermark, 0, 0)`` entry and QoA its group.  Both regions
        appear in every flush, region-A first, so at 1 and 2 planes the
        rows, and so the states, match in insertion order too."""
        flushes = [
            [make_alert(0.0, strategy_id="s-a"),
             make_alert(5.0, strategy_id="s-b", region="region-B",
                        cleared_after=30.0),
             make_alert(10.0, strategy_id="s-b", region="region-B",
                        cleared_after=None)],
            [make_alert(2000.0, strategy_id="s-a"),
             make_alert(2000.0, strategy_id="s-c", region="region-B")],
            [make_alert(2100.0, strategy_id="s-a"),
             make_alert(2100.0, strategy_id="s-c", region="region-B")],
        ]

        def states(planes):
            gateway = AlertGateway(
                DependencyGraph(), blocker=AlertBlocker(), n_planes=planes,
                flush_size=64, aggregation_window=300.0,
                learn_rules=True, learner_config=LearnerConfig(adaptive=True),
                enable_qoa=True, retain_artifacts=False,
            )
            captured = []
            for batch in flushes:
                gateway.ingest_batch(batch)
                gateway.flush()
                captured.append((
                    gateway.learner.export_state(),
                    gateway.qoa.export_state(),
                ))
            gateway.drain()
            captured.append((
                gateway.learner.export_state(), gateway.qoa.export_state(),
            ))
            return captured

        captured = states(n_planes)
        learner, qoa = captured[1]
        assert learner["windows"]["s-b"]["region-B"] == [
            [10.0, 2, 1], [2000.0, 0, 0],
        ]
        assert qoa["counters"]["s-b"] == [2, 0, 1, 1]
        # s-a closed in the same flush, with an alert of its own.
        assert learner["windows"]["s-a"]["region-A"][-1] == [2000.0, 1, 1]
        assert qoa["counters"]["s-a"] == [2, 0, 2, 1]
        reference = captured if n_planes == 1 else states(1)
        for (learner, qoa), (flat_learner, flat_qoa) in zip(captured, reference):
            assert json.dumps(learner) == json.dumps(flat_learner)
            assert json.dumps(qoa) == json.dumps(flat_qoa)


def test_learner_evidence_is_plane_attribution_invariant():
    """The same observation rows, attributed to different plane splits,
    produce identical learned timelines — nothing lost, nothing double-
    counted, whichever plane's batch holds a key."""
    config = LearnerConfig(window_seconds=600.0, min_alerts=5,
                           repeat_count=8, rule_ttl=600.0)
    rows = [
        ("s-noise", "region-A", "svc", 6, 0, 4, 1),
        ("s-noise", "region-B", "svc", 5, 0, 3, 1),
        ("s-api", "region-A", "svc", 3, 0, 0, 1),
    ]
    one_plane = OnlineRuleLearner(config)
    for step in range(4):
        one_plane.observe(list(rows), 100.0 * (step + 1), 20 * (step + 1))
    split = OnlineRuleLearner(config)
    for step in range(4):
        # Same rows, reported by different planes in a different
        # concatenation order.
        split.observe(list(reversed(rows)), 100.0 * (step + 1), 20 * (step + 1))
    assert one_plane.events == split.events
    assert one_plane.counters() == split.counters()
