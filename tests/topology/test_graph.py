"""Tests for the dependency graph."""

import pytest

from repro.common.errors import ValidationError
from repro.topology.graph import DependencyGraph, validate_layering


@pytest.fixture()
def chain():
    """frontend -> middle -> backend."""
    graph = DependencyGraph()
    for name in ("frontend", "middle", "backend"):
        graph.add_microservice(name)
    graph.add_dependency("frontend", "middle")
    graph.add_dependency("middle", "backend")
    return graph


class TestConstruction:
    def test_contains(self, chain):
        assert "middle" in chain
        assert "nope" not in chain

    def test_len_and_edges(self, chain):
        assert len(chain) == 3
        assert chain.edge_count == 2

    def test_self_loop_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.add_dependency("middle", "middle")

    def test_unknown_node_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.add_dependency("frontend", "ghost")

    def test_cycle_rejected_and_rolled_back(self, chain):
        with pytest.raises(ValidationError):
            chain.add_dependency("backend", "frontend")
        # The failed edge must not linger.
        assert chain.edge_count == 2

    def test_empty_name_rejected(self):
        graph = DependencyGraph()
        with pytest.raises(ValidationError):
            graph.add_microservice("")

    def test_attributes_merge(self):
        graph = DependencyGraph()
        graph.add_microservice("a", layer=1)
        graph.add_microservice("a", role="api")
        assert graph.attributes("a") == {"layer": 1, "role": "api"}


class TestQueries:
    def test_dependencies(self, chain):
        assert chain.dependencies("frontend") == ["middle"]
        assert chain.dependencies("backend") == []

    def test_dependents(self, chain):
        assert chain.dependents("backend") == ["middle"]
        assert chain.dependents("frontend") == []

    def test_upstream_impact(self, chain):
        impact = chain.upstream_impact("backend")
        assert impact == {"middle": 1, "frontend": 2}

    def test_upstream_impact_depth_limited(self, chain):
        impact = chain.upstream_impact("backend", max_depth=1)
        assert impact == {"middle": 1}

    def test_downstream_dependencies(self, chain):
        assert chain.downstream_dependencies("frontend") == {"middle": 1, "backend": 2}

    def test_downstream_within_matches_the_uncached_walk(self, chain):
        for name in chain.microservices:
            for depth in (None, 1, 2):
                assert chain.downstream_within(name, depth) == \
                    frozenset(chain.downstream_dependencies(name, depth))
        with pytest.raises(ValidationError):
            chain.downstream_within("ghost")

    def test_mutation_moves_version_and_drops_cached_reach(self, chain):
        before = chain.version
        assert chain.downstream_within("backend") == frozenset()
        assert "backend" not in chain.related_within("frontend", 1)
        chain.add_microservice("store")
        chain.add_dependency("backend", "store")
        chain.add_dependency("frontend", "backend")
        assert chain.version > before
        assert chain.downstream_within("backend") == {"store"}
        assert "backend" in chain.related_within("frontend", 1)

    def test_topological_order(self, chain):
        order = chain.topological_order()
        assert order.index("frontend") < order.index("middle") < order.index("backend")

    def test_shortest_distance(self, chain):
        assert chain.shortest_dependency_distance("frontend", "backend") == 2
        assert chain.shortest_dependency_distance("backend", "frontend") is None

    def test_are_related_either_direction(self, chain):
        assert chain.are_related("backend", "frontend")
        assert chain.are_related("frontend", "backend")

    def test_are_related_depth_bound(self, chain):
        assert not chain.are_related("frontend", "backend", max_depth=1)

    def test_unknown_node_query_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.dependencies("ghost")

    def test_subgraph_services(self, chain):
        service_of = {"frontend": "web", "middle": "web", "backend": "db"}
        collapsed = chain.subgraph_services(service_of)
        assert set(collapsed.nodes) == {"web", "db"}
        assert ("web", "db") in collapsed.edges
        # Intra-service edge collapsed away.
        assert ("web", "web") not in collapsed.edges

    def test_to_networkx_is_copy(self, chain):
        copy = chain.to_networkx()
        copy.remove_node("middle")
        assert "middle" in chain


class TestValidateLayering:
    def test_no_violations_on_descending_chain(self, chain):
        layers = {"frontend": 2, "middle": 1, "backend": 0}
        assert validate_layering(chain, layers) == []

    def test_violation_reported(self, chain):
        layers = {"frontend": 0, "middle": 1, "backend": 2}
        violations = validate_layering(chain, layers)
        assert "frontend -> middle" in violations
