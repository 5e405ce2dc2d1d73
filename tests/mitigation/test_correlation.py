"""Tests for R3 alert correlation."""

import pytest

from repro.common.errors import ValidationError
from repro.core.mitigation.correlation import (
    CorrelationAnalyzer,
    DependencyRuleBook,
    rulebook_from_ground_truth,
)
from repro.topology.graph import DependencyGraph
from tests.antipatterns.test_collective import make_alert


@pytest.fixture()
def graph():
    graph = DependencyGraph()
    for name in ("top", "mid", "root", "island"):
        graph.add_microservice(name)
    graph.add_dependency("top", "mid")
    graph.add_dependency("mid", "root")
    return graph


class TestRuleBook:
    def test_related_either_direction(self):
        book = DependencyRuleBook()
        book.add("s-root", "s-derived")
        assert book.partners("s-root") == {"s-derived"}
        assert book.partners("s-derived") == {"s-root"}
        assert not book.partners("s-other")

    def test_self_rule_rejected(self):
        with pytest.raises(ValidationError):
            DependencyRuleBook().add("s-1", "s-1")

    def test_len_and_pairs(self):
        book = DependencyRuleBook()
        book.add("a", "b")
        book.add("a", "b")
        assert len(book) == 1
        assert book.pairs() == {("a", "b")}


class TestTopologyCorrelation:
    def test_cascade_clustered_with_root(self, graph):
        alerts = [
            make_alert("a-1", 100.0, strategy_id="s-r", micro="root", service="svc-c"),
            make_alert("a-2", 200.0, strategy_id="s-m", micro="mid", service="svc-b"),
            make_alert("a-3", 300.0, strategy_id="s-t", micro="top", service="svc-a"),
        ]
        clusters = CorrelationAnalyzer(graph).correlate(alerts)
        assert len(clusters) == 1
        cluster = clusters[0]
        assert cluster.size == 3
        assert cluster.root_microservice == "root"
        assert cluster.root_alert.alert_id == "a-1"

    def test_unrelated_island_stays_separate(self, graph):
        alerts = [
            make_alert("a-1", 100.0, micro="root"),
            make_alert("a-2", 150.0, micro="island", strategy_id="s-i"),
        ]
        clusters = CorrelationAnalyzer(graph).correlate(alerts)
        assert len(clusters) == 2

    def test_time_window_respected(self, graph):
        alerts = [
            make_alert("a-1", 100.0, micro="root"),
            make_alert("a-2", 100_000.0, micro="mid", strategy_id="s-m"),
        ]
        clusters = CorrelationAnalyzer(graph, time_window=900.0).correlate(alerts)
        assert len(clusters) == 2

    def test_regions_never_correlated(self, graph):
        alerts = [
            make_alert("a-1", 100.0, micro="root", region="region-A"),
            make_alert("a-2", 150.0, micro="mid", region="region-B", strategy_id="s-m"),
        ]
        assert len(CorrelationAnalyzer(graph).correlate(alerts)) == 2

    def test_topology_disabled(self, graph):
        alerts = [
            make_alert("a-1", 100.0, micro="root"),
            make_alert("a-2", 150.0, micro="mid", strategy_id="s-m"),
        ]
        analyzer = CorrelationAnalyzer(graph, use_topology=False)
        assert len(analyzer.correlate(alerts)) == 2


class TestRuleCorrelation:
    def test_rule_links_without_topology(self, graph):
        book = DependencyRuleBook()
        book.add("s-r", "s-i")
        alerts = [
            make_alert("a-1", 100.0, strategy_id="s-r", micro="root"),
            make_alert("a-2", 150.0, strategy_id="s-i", micro="island"),
        ]
        analyzer = CorrelationAnalyzer(graph, rulebook=book, use_topology=False)
        clusters = analyzer.correlate(alerts)
        assert len(clusters) == 1


class TestTransitivity:
    def test_chained_clusters_merge(self, graph):
        # a-1 relates to a-2 (root-mid), a-2 to a-3 (mid-top): one cluster.
        alerts = [
            make_alert("a-1", 0.0, strategy_id="s-r", micro="root"),
            make_alert("a-2", 800.0, strategy_id="s-m", micro="mid"),
            make_alert("a-3", 1600.0, strategy_id="s-t", micro="top"),
        ]
        clusters = CorrelationAnalyzer(graph, time_window=900.0).correlate(alerts)
        assert len(clusters) == 1


class TestGroundTruthRuleBook:
    def test_full_coverage_includes_all_pairs(self, default_trace):
        book = rulebook_from_ground_truth(default_trace, coverage=1.0)
        assert len(book) > 0

    def test_partial_coverage_smaller(self, default_trace):
        full = rulebook_from_ground_truth(default_trace, coverage=1.0)
        partial = rulebook_from_ground_truth(default_trace, coverage=0.4)
        assert len(partial) < len(full)

    def test_zero_coverage_empty(self, default_trace):
        assert len(rulebook_from_ground_truth(default_trace, coverage=0.0)) == 0

    def test_deterministic(self, default_trace):
        a = rulebook_from_ground_truth(default_trace, coverage=0.5, seed=3)
        b = rulebook_from_ground_truth(default_trace, coverage=0.5, seed=3)
        assert a.pairs() == b.pairs()
