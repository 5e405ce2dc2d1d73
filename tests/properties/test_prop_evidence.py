"""Property test: R3's evidence predicate against a brute-force definition.

Two ``(strategy_id, microservice)`` signatures are linked by a rule-book
pair in either direction, or — with topology on — by equal
microservices, or by both nodes being in the graph with a directed path
of at most ``max_hops`` either way.  The reference asks networkx for
shortest paths on a copy of the graph at query time; the analyzer
answers from its per-microservice neighbourhood rows.  Graph and rule
book mutations are interleaved with the queries, so a stale row or a
stale empty-book shortcut shows up as a mismatch.

The partner form the online correlator enumerates — the rule book's
``partners`` of a strategy and the analyzer's ``evidence_microservices``
of a microservice — must name exactly the strategies and microservices
the same reference links, at every query.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.mitigation.correlation import CorrelationAnalyzer, DependencyRuleBook
from repro.topology.graph import DependencyGraph
from tests.streaming.conftest import make_alert

# More names than the graph starts with: some queries name missing nodes.
MICROSERVICES = [f"m{index}" for index in range(8)]
STRATEGIES = [f"s{index}" for index in range(5)]

strategy = st.sampled_from(STRATEGIES)
node_index = st.integers(0, len(MICROSERVICES) - 1)
# A query asks every microservice pair under two drawn strategies.
operations = st.one_of(
    st.tuples(st.just("query"), strategy, strategy),
    st.tuples(st.just("edge"), node_index, node_index),
    st.tuples(st.just("node"), node_index),
    st.tuples(st.just("rule"), strategy, strategy),
)


def _add_edge(graph, i, j):
    """Edges only run from a lower to a higher index, so none closes a
    cycle; an edge naming a missing node is skipped."""
    caller, callee = MICROSERVICES[min(i, j)], MICROSERVICES[max(i, j)]
    if i != j and caller in graph and callee in graph:
        graph.add_dependency(caller, callee)


def _reference(graph, rules, use_topology, max_hops, first, second):
    (strategy_a, micro_a), (strategy_b, micro_b) = first, second
    if (strategy_a, strategy_b) in rules or (strategy_b, strategy_a) in rules:
        return True
    return _topology_reference(graph, use_topology, max_hops, micro_a, micro_b)


def _topology_reference(graph, use_topology, max_hops, micro_a, micro_b):
    if not use_topology:
        return False
    if micro_a == micro_b:
        return True
    network = graph.to_networkx()
    if micro_a not in network or micro_b not in network:
        return False
    for source, target in ((micro_a, micro_b), (micro_b, micro_a)):
        try:
            if nx.shortest_path_length(network, source, target) <= max_hops:
                return True
        except nx.NetworkXNoPath:
            pass
    return False


class TestEvidencePredicate:
    @given(
        present=st.sets(node_index, min_size=4),
        edges=st.lists(st.tuples(node_index, node_index), min_size=4, max_size=24),
        initial_rules=st.lists(st.tuples(strategy, strategy), max_size=3),
        max_hops=st.integers(1, 4),
        use_topology=st.booleans(),
        script=st.lists(operations, min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(
        self, present, edges, initial_rules, max_hops, use_topology, script,
    ):
        graph = DependencyGraph()
        for index in sorted(present):
            graph.add_microservice(MICROSERVICES[index])
        for i, j in edges:
            _add_edge(graph, i, j)
        book = DependencyRuleBook()
        rules = set()
        for source, derived in initial_rules:
            if source != derived:
                book.add(source, derived)
                rules.add((source, derived))
        analyzer = CorrelationAnalyzer(
            graph, rulebook=book, max_hops=max_hops, use_topology=use_topology,
        )
        for operation in script:
            kind = operation[0]
            if kind == "query":
                for micro_a in MICROSERVICES:
                    for micro_b in MICROSERVICES:
                        first = (operation[1], micro_a)
                        second = (operation[2], micro_b)
                        expected = _reference(
                            graph, rules, use_topology, max_hops, first, second,
                        )
                        assert analyzer.signature_evidence(first, second) == expected
                        here, there, elsewhere = (
                            make_alert(0.0, strategy_id=sid, microservice=micro,
                                       region=region)
                            for (sid, micro), region in (
                                (first, "region-A"), (second, "region-A"),
                                (second, "region-B"),
                            )
                        )
                        assert analyzer.pair_evidence(here, there) == expected
                        assert not analyzer.pair_evidence(here, elsewhere)
                for micro_a in MICROSERVICES:
                    assert analyzer.evidence_microservices(micro_a) == {
                        micro_b for micro_b in MICROSERVICES
                        if _topology_reference(
                            graph, use_topology, max_hops, micro_a, micro_b)
                    }
                for strategy_a in STRATEGIES:
                    linked = {
                        strategy_b for strategy_b in STRATEGIES
                        if (strategy_a, strategy_b) in rules
                        or (strategy_b, strategy_a) in rules
                    }
                    assert book.partners(strategy_a) == linked
                    assert analyzer.rule_partners(strategy_a) == linked
            elif kind == "edge":
                _add_edge(graph, operation[1], operation[2])
            elif kind == "node":
                graph.add_microservice(MICROSERVICES[operation[1]])
            elif operation[1] != operation[2]:
                book.add(operation[1], operation[2])
                rules.add((operation[1], operation[2]))
