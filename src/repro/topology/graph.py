"""Microservice dependency graph.

Edges point from callers to callees: an edge ``A -> B`` means microservice
``A`` depends on (calls) ``B``.  Anomalies therefore propagate *against*
edge direction — when ``B`` degrades, its dependents ``A`` may degrade
next.  The graph is required to stay acyclic, matching the layered
architecture the generator produces.
"""

from __future__ import annotations

from collections import deque
import networkx as nx

from repro.common.errors import ValidationError

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """An acyclic caller→callee graph over microservice names.

    ``version`` counts mutations (it only ever grows): anything that
    caches answers derived from the graph compares it against the value
    it saw when the cache was filled and drops the cache when it moved.
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self.version = 0
        self._neighbourhoods: dict[tuple[str, int | None], frozenset[str]] = {}
        self._downstream: dict[tuple[str, int | None], frozenset[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_microservice(self, name: str, **attributes: object) -> None:
        """Register a node; repeated calls merge attributes."""
        if not name:
            raise ValidationError("microservice name must be non-empty")
        self._graph.add_node(name, **attributes)
        self._mutated()

    def add_dependency(self, caller: str, callee: str) -> None:
        """Add ``caller -> callee``; rejects self-loops, unknown nodes, and cycles."""
        if caller == callee:
            raise ValidationError(f"self-dependency on {caller!r} is not allowed")
        for node in (caller, callee):
            if node not in self._graph:
                raise ValidationError(f"unknown microservice {node!r}")
        self._graph.add_edge(caller, callee)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(caller, callee)
            raise ValidationError(f"dependency {caller!r} -> {callee!r} would create a cycle")
        self._mutated()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def microservices(self) -> list[str]:
        """All node names, in insertion order."""
        return list(self._graph.nodes)

    @property
    def edge_count(self) -> int:
        """Number of dependency edges."""
        return self._graph.number_of_edges()

    def attributes(self, name: str) -> dict[str, object]:
        """Node attributes supplied at :meth:`add_microservice` time."""
        self._require(name)
        return dict(self._graph.nodes[name])

    def dependencies(self, name: str) -> list[str]:
        """Direct callees of ``name`` (what it depends on)."""
        self._require(name)
        return list(self._graph.successors(name))

    def dependents(self, name: str) -> list[str]:
        """Direct callers of ``name`` (what depends on it)."""
        self._require(name)
        return list(self._graph.predecessors(name))

    def upstream_impact(self, name: str, max_depth: int | None = None) -> dict[str, int]:
        """All transitive dependents of ``name`` with their hop distance.

        This is the blast radius of a failure in ``name``: the
        microservices whose calls (directly or transitively) flow into it.
        ``max_depth`` bounds the traversal; ``None`` means unbounded.
        """
        return self._bfs(name, forward=False, max_depth=max_depth)

    def downstream_dependencies(self, name: str, max_depth: int | None = None) -> dict[str, int]:
        """All transitive callees of ``name`` with hop distance."""
        return self._bfs(name, forward=True, max_depth=max_depth)

    def topological_order(self) -> list[str]:
        """Nodes ordered callers-before-callees."""
        return list(nx.topological_sort(self._graph))

    def shortest_dependency_distance(self, source: str, target: str) -> int | None:
        """Hops from ``source`` to ``target`` along dependency edges, or ``None``."""
        self._require(source)
        self._require(target)
        try:
            return nx.shortest_path_length(self._graph, source, target)
        except nx.NetworkXNoPath:
            return None

    def related_within(self, name: str, max_depth: int | None = None) -> frozenset[str]:
        """All nodes with a dependency path to or from ``name`` within ``max_depth``.

        The neighbourhood is cached per (node, depth) — the correlation
        hot loop asks "are these two related?" for the same nodes over
        and over, and a bounded BFS answers every such query for one node
        at once.  Mutating the graph invalidates the cache.
        """
        self._require(name)
        key = (name, max_depth)
        cached = self._neighbourhoods.get(key)
        if cached is None:
            cached = self.downstream_within(name, max_depth) | \
                frozenset(self._bfs(name, forward=False, max_depth=max_depth))
            self._neighbourhoods[key] = cached
        return cached

    def downstream_within(self, name: str, max_depth: int | None = None) -> frozenset[str]:
        """The nodes :meth:`downstream_dependencies` reaches, cached like
        :meth:`related_within` — cluster finalisation asks for the same
        few nodes' callees once per cluster."""
        key = (name, max_depth)
        cached = self._downstream.get(key)
        if cached is None:
            cached = frozenset(self._bfs(name, forward=True, max_depth=max_depth))
            self._downstream[key] = cached
        return cached

    def are_related(self, first: str, second: str, max_depth: int | None = None) -> bool:
        """Whether a dependency path exists between the two nodes (either way)."""
        self._require(second)
        return first == second or second in self.related_within(first, max_depth)

    def subgraph_services(self, service_of: dict[str, str]) -> nx.DiGraph:
        """Collapse to a service-level graph given a microservice→service map."""
        collapsed = nx.DiGraph()
        for node in self._graph.nodes:
            collapsed.add_node(service_of.get(node, node))
        for caller, callee in self._graph.edges:
            source = service_of.get(caller, caller)
            target = service_of.get(callee, callee)
            if source != target:
                collapsed.add_edge(source, target)
        return collapsed

    def to_networkx(self) -> nx.DiGraph:
        """A defensive copy of the underlying graph."""
        return self._graph.copy()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self.version += 1
        self._neighbourhoods.clear()
        self._downstream.clear()

    def _require(self, name: str) -> None:
        if name not in self._graph:
            raise ValidationError(f"unknown microservice {name!r}")

    def _bfs(self, name: str, forward: bool, max_depth: int | None) -> dict[str, int]:
        self._require(name)
        neighbours = self._graph.successors if forward else self._graph.predecessors
        distances: dict[str, int] = {}
        queue: deque[tuple[str, int]] = deque([(name, 0)])
        while queue:
            node, depth = queue.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            for neighbour in neighbours(node):
                if neighbour not in distances:
                    distances[neighbour] = depth + 1
                    queue.append((neighbour, depth + 1))
        return distances


def validate_layering(graph: DependencyGraph, layer_of: dict[str, int]) -> list[str]:
    """Return edges that violate "callers live in higher-or-equal layers".

    Utility for tests: the generator promises that dependencies never point
    from lower layers up to higher ones.
    """
    violations = []
    for caller in graph.microservices:
        for callee in graph.dependencies(caller):
            if layer_of[caller] < layer_of[callee]:
                violations.append(f"{caller} -> {callee}")
    return violations
