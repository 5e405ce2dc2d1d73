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
    """Clusters alerts by rule-book and topological evidence."""

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
        self._related_cache: dict[tuple[str, str], bool] = {}
        self._related_version = graph.version

    def correlate(self, alerts: list[Alert]) -> list[AlertCluster]:
        """Cluster ``alerts``; singletons are returned as size-1 clusters."""
        self._drop_stale_cache()
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
        that memoises :meth:`pair_evidence` verdicts drops them then."""
        return self._graph.version + self._rulebook.version

    def pair_evidence(self, first: Alert, second: Alert) -> bool:
        """Whether rule-book or topological evidence links the two alerts."""
        self._drop_stale_cache()
        return self._evidence(first, second)

    def build_cluster(self, alerts: list[Alert]) -> AlertCluster:
        """Finalise one correlated group into an :class:`AlertCluster`."""
        return self._finalise(alerts)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drop_stale_cache(self) -> None:
        # Checked at the public entry points only: nothing mutates the
        # graph from inside a sweep, and ``_related`` is the hot loop.
        if self._graph.version != self._related_version:
            self._related_cache.clear()
            self._related_version = self._graph.version

    def _evidence(self, first: Alert, second: Alert) -> bool:
        if first.region != second.region:
            return False
        if self._rulebook.related(first.strategy_id, second.strategy_id):
            return True
        if not self._use_topology:
            return False
        return self._related(first.microservice, second.microservice)

    def _related(self, micro_a: str, micro_b: str) -> bool:
        if micro_a == micro_b:
            return True
        key = (micro_a, micro_b) if micro_a < micro_b else (micro_b, micro_a)
        cached = self._related_cache.get(key)
        if cached is None:
            if micro_a in self._graph and micro_b in self._graph:
                cached = self._graph.are_related(micro_a, micro_b, self._max_hops)
            else:
                cached = False
            self._related_cache[key] = cached
        return cached

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
