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

from bisect import bisect_left
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

_NO_PARTNERS: frozenset[str] = frozenset()


class DependencyRuleBook:
    """Manually configured strategy-dependency rules."""

    def __init__(self) -> None:
        self._pairs: set[tuple[str, str]] = set()
        # strategy -> every strategy a rule links it to, either direction.
        self._partners: dict[str, set[str]] = {}
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
        self._partners.setdefault(source_strategy, set()).add(derived_strategy)
        self._partners.setdefault(derived_strategy, set()).add(source_strategy)
        self.version += 1

    def partners(self, strategy: str) -> frozenset[str] | set[str]:
        """Every strategy a rule links ``strategy`` to, either direction
        (a live view: do not mutate)."""
        return self._partners.get(strategy, _NO_PARTNERS)

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
    signatures are, and both lie within ``time_window`` of each other.
    The relation is symmetric, and it is written over its partner form —
    a signature's partners are the rule-book :meth:`rule_partners` of its
    strategy and the :meth:`evidence_microservices` of its microservice —
    which the online correlator enumerates once per new signature.

    The batch sweep (:meth:`correlate`) is the oracle the online
    correlator is checked against, so it shares only this definition and
    none of the online correlator's structures.  It walks the alerts in
    time order and keeps, per region and signature, the members seen so
    far.  The first time a signature shows up in a region it asks
    :meth:`signature_evidence` once each way against every signature
    already known there, in the pair sweep's own argument order; an
    alert then joins only the in-window members of its partners, found
    with one ``bisect``.  That costs ``O(S²)`` evidence calls for ``S``
    signatures per region plus one visit per linked in-window pair, not
    one evidence call per in-window pair.
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
        # microservice -> evidence_microservices(it); valid while the
        # graph's version holds.
        self._neighbourhoods: dict[str, frozenset[str]] = {}
        self._neighbourhood_version = graph.version

    def correlate(self, alerts: list[Alert]) -> list[AlertCluster]:
        """Cluster ``alerts``; singletons are returned as size-1 clusters."""
        ordered = sorted(alerts, key=lambda a: a.occurred_at)
        n = len(ordered)
        parent = list(range(n))
        window = self._window
        evidence = self.signature_evidence

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # (region, strategy, microservice) -> (member times, member
        # indices, partners): the members so far in sorted order, and the
        # entries of every signature whose members a new alert of this
        # one unions with — ``evidence(partner, this)`` holds.
        entries: dict[tuple[str, str, str], tuple[list, list, list]] = {}
        # region -> ((strategy, microservice), entry) in first-seen order.
        known: dict[str, list[tuple[tuple[str, str], tuple]]] = {}

        for right, alert in enumerate(ordered):
            key = (alert.region, alert.strategy_id, alert.microservice)
            entry = entries.get(key)
            if entry is None:
                signature = key[1:]
                entry = entries[key] = ([], [], [])
                partners = entry[2]
                region_known = known.setdefault(alert.region, [])
                for other, other_entry in region_known:
                    if evidence(other, signature):
                        partners.append(other_entry)
                    if evidence(signature, other):
                        other_entry[2].append(entry)
                if evidence(signature, signature):
                    partners.append(entry)
                region_known.append((signature, entry))
            times, indices, partners = entry
            at = alert.occurred_at
            # ``right`` has joined nothing yet: only later alerts union
            # with it, and each does so from its own turn.
            root = right
            for other_times, other_indices, _ in partners:
                # Most partners' members have all left the window.
                if not other_times or at - other_times[-1] > window:
                    continue
                start = bisect_left(other_times, at - window)
                # The rounded bound may sit one ulp off the sweep's own
                # test; step onto it.
                while start and at - other_times[start - 1] <= window:
                    start -= 1
                end = len(other_times)
                while start < end and at - other_times[start] > window:
                    start += 1
                for member in other_indices[start:]:
                    joined = find(member)
                    if joined != root:
                        parent[root] = joined
                        root = joined
            times.append(at)
            indices.append(right)

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
        return first.region == second.region and self.signature_evidence(
            (first.strategy_id, first.microservice),
            (second.strategy_id, second.microservice),
        )

    def signature_evidence(
        self, first: tuple[str, str], second: tuple[str, str],
    ) -> bool:
        """Whether evidence links two ``(strategy_id, microservice)``
        signatures — the one definition every caller shares: the second
        is a partner of the first by rule book or by topology."""
        rulebook = self._rulebook
        # ``version`` counts rules added and none is ever removed, so 0
        # is an empty book.
        if rulebook.version and second[0] in rulebook.partners(first[0]):
            return True
        # The cached row when it is current, else the method fills it.
        micros = self._neighbourhoods.get(first[1])
        if micros is None or self._neighbourhood_version != self._graph.version:
            micros = self.evidence_microservices(first[1])
        return second[1] in micros

    def rule_partners(self, strategy: str) -> frozenset[str] | set[str]:
        """Strategies a rule-book pair links to ``strategy``, either
        direction (a live view: do not mutate)."""
        return self._rulebook.partners(strategy)

    def evidence_microservices(self, microservice: str) -> frozenset[str]:
        """Microservices topology links to ``microservice``.

        With ``use_topology``: the microservice itself plus every node
        within ``max_hops`` either way (``related_within``), or only
        itself when the graph lacks it; without, none.  Symmetric, and
        cached per microservice until the graph's ``version`` moves.
        """
        if not self._use_topology:
            return _NO_PARTNERS
        graph = self._graph
        neighbourhoods = self._neighbourhoods
        if graph.version != self._neighbourhood_version:
            neighbourhoods.clear()
            self._neighbourhood_version = graph.version
        row = neighbourhoods.get(microservice)
        if row is None:
            row = neighbourhoods[microservice] = (
                graph.related_within(microservice, self._max_hops) | {microservice}
                if microservice in graph else frozenset((microservice,))
            )
        return row

    def build_cluster(self, alerts: list[Alert]) -> AlertCluster:
        """Finalise one correlated group into an :class:`AlertCluster`."""
        return self._finalise(alerts)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
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
