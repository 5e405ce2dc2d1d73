"""R3 — alert correlation analysis (paper §III-C [R3]).

Two exogenous evidence sources, exactly as the paper lists them:

1. *dependencies of alert strategies* — a rule book of (source strategy →
   derived strategy) pairs that OCEs configured by hand.  "They will
   associate all the derived alerts with their source alerts and diagnose
   the source alerts only."
2. *topology of cloud services* — alerts whose microservices are related
   in the dependency graph within a hop bound, and which occur close in
   time, are correlated; following the topological correlation pinpoints
   the root.

Because manual rule books "could not cover all the alert strategies"
(the gap motivating R4), :func:`rulebook_from_ground_truth` builds a
partial book with a configurable coverage fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.common.rng import derive_rng
from repro.common.timeutil import MINUTE
from repro.common.validation import require_fraction, require_positive
from repro.core.antipatterns.collective import infer_cascade_root
from repro.topology.graph import DependencyGraph
from repro.workload.trace import AlertTrace

__all__ = [
    "DependencyRuleBook",
    "AlertCluster",
    "CorrelationAnalyzer",
    "rulebook_from_ground_truth",
]


class DependencyRuleBook:
    """Manually configured strategy-dependency rules."""

    def __init__(self) -> None:
        self._pairs: set[tuple[str, str]] = set()
        # Mutation counter, the same contract as ``DependencyGraph.version``.
        self.version = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def add(self, source_strategy: str, derived_strategy: str) -> None:
        """Record "alerts of ``derived`` are triggered by alerts of ``source``"."""
        if not source_strategy or not derived_strategy:
            raise ValidationError("strategy ids must be non-empty")
        if source_strategy == derived_strategy:
            raise ValidationError("a strategy cannot derive from itself")
        self._pairs.add((source_strategy, derived_strategy))
        self.version += 1

    def related(self, strategy_a: str, strategy_b: str) -> bool:
        """Whether a rule links the two strategies (either direction)."""
        return ((strategy_a, strategy_b) in self._pairs
                or (strategy_b, strategy_a) in self._pairs)

    def pairs(self) -> set[tuple[str, str]]:
        """All configured (source, derived) pairs (copy)."""
        return set(self._pairs)


@dataclass(slots=True)
class AlertCluster:
    """One correlated group with an inferred root."""

    alerts: list[Alert] = field(default_factory=list)
    root_alert: Alert | None = None
    root_microservice: str | None = None
    coverage: float = 0.0

    @property
    def size(self) -> int:
        """Number of member alerts."""
        return len(self.alerts)


class CorrelationAnalyzer:
    """Clusters alerts by rule-book and topological evidence.

    Evidence has one definition, :meth:`signature_evidence`, over the
    two alerts' ``(strategy_id, microservice)`` signatures: a rule-book
    pair (either direction), else — with ``use_topology`` — equal
    microservices or a dependency path of at most ``max_hops`` either
    way.  Two alerts are linked when their regions are equal and their
    signatures are; the batch sweep (:meth:`correlate`) and the online
    correlator (:meth:`pair_evidence`, or the predicate itself on
    interned signatures) both ask it.
    """

    def __init__(
        self,
        graph: DependencyGraph,
        rulebook: DependencyRuleBook | None = None,
        max_hops: int = 4,
        time_window: float = 15 * MINUTE,
        use_topology: bool = True,
    ) -> None:
        require_positive(max_hops, "max_hops")
        require_positive(time_window, "time_window")
        self._graph = graph
        # ``is None``, not truthiness: an empty book is falsy, and rules
        # added to it later must reach this analyzer.
        self._rulebook = rulebook if rulebook is not None else DependencyRuleBook()
        self._max_hops = int(max_hops)
        self._window = float(time_window)
        self._use_topology = use_topology
        # microservice -> graph.related_within(it, max_hops), or None for
        # a node the graph lacks; valid while the graph's version holds.
        self._neighbourhoods: dict[str, frozenset[str] | None] = {}
        self._neighbourhood_version = graph.version

    def correlate(self, alerts: list[Alert]) -> list[AlertCluster]:
        """Cluster ``alerts``; singletons are returned as size-1 clusters."""
        ordered = sorted(alerts, key=lambda a: a.occurred_at)
        n = len(ordered)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        left = 0
        for right in range(n):
            while ordered[right].occurred_at - ordered[left].occurred_at > self._window:
                left += 1
            for other in range(left, right):
                if find(other) == find(right):
                    continue
                if self._evidence(ordered[other], ordered[right]):
                    union(other, right)

        members: dict[int, list[Alert]] = {}
        for index in range(n):
            members.setdefault(find(index), []).append(ordered[index])
        clusters = [self._finalise(group) for group in members.values()]
        clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
        return clusters

    # ------------------------------------------------------------------
    # building blocks (shared with the streaming OnlineCorrelator)
    # ------------------------------------------------------------------
    @property
    def time_window(self) -> float:
        """Seconds within which two alerts may correlate."""
        return self._window

    @property
    def evidence_version(self) -> int:
        """Moves whenever the graph or the rule book is mutated: a caller
        that memoises :meth:`signature_evidence` verdicts drops them then."""
        return self._graph.version + self._rulebook.version

    def pair_evidence(self, first: Alert, second: Alert) -> bool:
        """Whether rule-book or topological evidence links the two alerts
        (equal regions and :meth:`signature_evidence`)."""
        return self._evidence(first, second)

    def signature_evidence(
        self, first: tuple[str, str], second: tuple[str, str],
    ) -> bool:
        """Whether evidence links two ``(strategy_id, microservice)``
        signatures — the one definition every caller shares.

        The rule book is asked only when it holds a rule.  Topology reads
        one neighbourhood row per microservice (``related_within`` at
        ``max_hops``; ``None`` when the node is not in the graph), so a
        new pair of known nodes costs a dict probe and a set probe.
        Rows are dropped when the graph's ``version`` moves.
        """
        rulebook = self._rulebook
        # ``version`` counts rules added and none is ever removed, so 0
        # is an empty book.
        if rulebook.version and rulebook.related(first[0], second[0]):
            return True
        if not self._use_topology:
            return False
        micro_a, micro_b = first[1], second[1]
        if micro_a == micro_b:
            return True
        graph = self._graph
        neighbourhoods = self._neighbourhoods
        if graph.version != self._neighbourhood_version:
            neighbourhoods.clear()
            self._neighbourhood_version = graph.version
        try:
            row = neighbourhoods[micro_a]
        except KeyError:
            row = neighbourhoods[micro_a] = (
                graph.related_within(micro_a, self._max_hops)
                if micro_a in graph else None
            )
        return row is not None and micro_b in row

    def build_cluster(self, alerts: list[Alert]) -> AlertCluster:
        """Finalise one correlated group into an :class:`AlertCluster`."""
        return self._finalise(alerts)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _evidence(self, first: Alert, second: Alert) -> bool:
        return first.region == second.region and self.signature_evidence(
            (first.strategy_id, first.microservice),
            (second.strategy_id, second.microservice),
        )

    def _finalise(self, alerts: list[Alert]) -> AlertCluster:
        alerts.sort(key=lambda a: a.occurred_at)
        cluster = AlertCluster(alerts=alerts)
        earliest: dict[str, float] = {}
        for alert in alerts:
            if alert.microservice in self._graph and alert.microservice not in earliest:
                earliest[alert.microservice] = alert.occurred_at
        inferred = infer_cascade_root(earliest, self._graph, self._max_hops)
        if inferred is None:
            cluster.root_alert = alerts[0]
            cluster.root_microservice = alerts[0].microservice
            cluster.coverage = 1.0 if len(alerts) == 1 else 0.0
            return cluster
        root_micro, coverage = inferred
        cluster.root_microservice = root_micro
        cluster.coverage = coverage
        cluster.root_alert = next(
            (a for a in alerts if a.microservice == root_micro), alerts[0]
        )
        return cluster


def rulebook_from_ground_truth(
    trace: AlertTrace,
    coverage: float = 0.6,
    seed: int = 42,
) -> DependencyRuleBook:
    """A partial rule book derived from the trace's fault parent links.

    Models OCEs having codified only ``coverage`` of the true strategy
    dependencies — the paper is explicit that "manually configured
    dependencies of alert strategies could not cover all the alert
    strategies".
    """
    require_fraction(coverage, "coverage")
    fault_strategies: dict[str, set[str]] = {}
    for alert in trace.alerts:
        if alert.fault_id is not None:
            fault_strategies.setdefault(alert.fault_id, set()).add(alert.strategy_id)
    fault_by_id = {fault.fault_id: fault for fault in trace.faults}
    pairs: set[tuple[str, str]] = set()
    for fault in trace.faults:
        if fault.parent_fault_id is None:
            continue
        parent = fault_by_id.get(fault.parent_fault_id)
        if parent is None:
            continue
        for source in fault_strategies.get(parent.fault_id, ()):
            for derived in fault_strategies.get(fault.fault_id, ()):
                if source != derived:
                    pairs.add((source, derived))
    rng = derive_rng(seed, "rulebook")
    book = DependencyRuleBook()
    for source, derived in sorted(pairs):
        if rng.random() < coverage:
            book.add(source, derived)
    return book
