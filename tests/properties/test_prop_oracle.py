"""Property: the batch R3 oracle's partner sweep equals the pair sweep.

``CorrelationAnalyzer.correlate`` keeps, per region and signature, the
members seen so far and the signatures whose members a new alert may
join; each alert visits only the in-window members of its partners.
The reference below is the sweep it replaced, kept verbatim: it asks
the evidence of every in-window pair.  Over drawn streams — tied
timestamps, gaps of exactly the window and one ulp above it, a window
that is not a binary fraction, several regions, microservices outside
the graph, topology on and off, an empty and a non-empty rule book, and
a one-way evidence relation — both must return the same clusters in the
same order: member ids in order, root alert, root microservice and
coverage.
"""

from __future__ import annotations

import math
import os

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert
from repro.core.mitigation.correlation import (
    AlertCluster,
    CorrelationAnalyzer,
    DependencyRuleBook,
)
from tests.streaming.conftest import make_alert

_REGIONS = ("region-A", "region-B", "region-C")
_STRATEGIES = tuple(f"s-{index}" for index in range(4))
#: Two microservices no graph has: their only topological partner is
#: themselves.
_OFF_GRAPH = ("off-graph-0", "off-graph-1")

#: Deeper and derandomized under the seeded CI profile; explicit here
#: because the per-test @settings would override the profile's count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = 600 if _CHAOS_PROFILE else 150


def naive_correlate(
    analyzer: CorrelationAnalyzer, alerts: list[Alert],
) -> list[AlertCluster]:
    """The pair-by-pair sweep: every in-window pair asks the evidence."""
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
        while ordered[right].occurred_at - ordered[left].occurred_at > analyzer.time_window:
            left += 1
        for other in range(left, right):
            if find(other) == find(right):
                continue
            if analyzer.pair_evidence(ordered[other], ordered[right]):
                union(other, right)

    members: dict[int, list[Alert]] = {}
    for index in range(n):
        members.setdefault(find(index), []).append(ordered[index])
    clusters = [analyzer.build_cluster(group) for group in members.values()]
    clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
    return clusters


def cluster_rows(clusters: list[AlertCluster]) -> list[tuple]:
    """What two sweeps must agree on, cluster by cluster, in order."""
    return [
        (tuple(a.alert_id for a in c.alerts), c.root_alert.alert_id,
         c.root_microservice, c.coverage)
        for c in clusters
    ]


class _OneWay(CorrelationAnalyzer):
    """Evidence that holds one way only: ``(first, second)``'s strategies
    must be a drawn rule pair in that order.  The sweep must record each
    partner in the direction the pair sweep asks."""

    def __init__(self, *args, allowed: frozenset, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._allowed = allowed

    def signature_evidence(self, first, second) -> bool:
        return (first[0], second[0]) in self._allowed


@st.composite
def streams(draw):
    """(analyzer options, alert draws in arrival order)."""
    window = draw(st.sampled_from((900.0, 0.3)))
    anchors = draw(st.lists(
        st.integers(0, 40).map(lambda tick: 100.0 * tick)  # ties are common
        | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(0, 50))  # a drawn length: plain lists skew short
    arrivals = draw(st.lists(
        st.tuples(
            st.sampled_from(anchors),
            st.integers(0, 3),                     # windows past the anchor
            st.sampled_from((-1, 0, 0, 1)),        # ulps off that
            st.sampled_from(_STRATEGIES),
            st.integers(0, 5 + len(_OFF_GRAPH)),   # microservice index
            st.sampled_from(_REGIONS),
        ),
        min_size=n, max_size=n,
    ))
    times = []
    for anchor, windows, ulps, *_ in arrivals:
        at = anchor
        for _ in range(windows):  # so consecutive gaps are the window
            at += window
        if ulps:
            at = math.nextafter(at, math.inf if ulps > 0 else 0.0)
        times.append(at)
    rules = draw(st.sets(
        st.tuples(st.sampled_from(_STRATEGIES), st.sampled_from(_STRATEGIES))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=4,
    ))
    options = {
        "window": window,
        "rules": rules,
        "use_topology": draw(st.booleans()),
        "max_hops": draw(st.integers(1, 3)),
        "one_way": draw(st.booleans()),
    }
    return options, [
        (at, *arrival[3:]) for at, arrival in zip(times, arrivals)
    ]


def _analyzer(options: dict, graph) -> CorrelationAnalyzer:
    rulebook = DependencyRuleBook()
    for source, derived in sorted(options["rules"]):
        rulebook.add(source, derived)
    kwargs = {
        "rulebook": rulebook, "max_hops": options["max_hops"],
        "time_window": options["window"],
        "use_topology": options["use_topology"],
    }
    if options["one_way"]:
        return _OneWay(graph, allowed=frozenset(options["rules"]), **kwargs)
    return CorrelationAnalyzer(graph, **kwargs)


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE)
@given(stream=streams())
def test_partner_sweep_returns_the_pair_sweeps_clusters(stream, small_topology):
    options, arrivals = stream
    graph = small_topology.graph
    micros = sorted(graph.microservices)[:6] + list(_OFF_GRAPH)
    analyzer = _analyzer(options, graph)
    alerts = [
        make_alert(at, strategy_id=strategy, microservice=micros[micro],
                   service=small_topology.service_of.get(micros[micro], "off-graph"),
                   region=region)
        for at, strategy, micro, region in arrivals
    ]
    assert cluster_rows(analyzer.correlate(list(alerts))) == cluster_rows(
        naive_correlate(analyzer, list(alerts))
    )


def test_a_signature_without_self_evidence_never_joins_itself(small_topology):
    """Topology off and no rule: two alerts of one signature, one second
    apart, stay apart in both sweeps; a rule partner still joins them."""
    analyzer = CorrelationAnalyzer(small_topology.graph, use_topology=False)
    assert not analyzer.signature_evidence(("s-0", "m"), ("s-0", "m"))
    alerts = [
        make_alert(0.0, strategy_id="s-0", microservice="m"),
        make_alert(1.0, strategy_id="s-0", microservice="m"),
        make_alert(2.0, strategy_id="s-1", microservice="m"),
    ]
    assert [c.size for c in analyzer.correlate(list(alerts))] == [1, 1, 1]
    rulebook = DependencyRuleBook()
    rulebook.add("s-1", "s-0")
    linked = CorrelationAnalyzer(
        small_topology.graph, rulebook=rulebook, use_topology=False,
    )
    got = linked.correlate(list(alerts))
    assert [c.size for c in got] == [3]
    assert cluster_rows(got) == cluster_rows(naive_correlate(linked, list(alerts)))


def test_both_sweeps_apply_the_exact_window_test_at_the_edge(small_topology):
    """``bisect`` on the rounded bound ``t - window`` can sit one member
    off ``t - t' <= window`` either way; the sweep's own test decides.
    The cases below hit both kinds of disagreement."""
    micro = sorted(small_topology.graph.microservices)[0]
    disagreements = set()
    for window in (900.0, 0.3):
        analyzer = CorrelationAnalyzer(small_topology.graph, time_window=window)
        for base in (0.1, 0.7, 100.0, 300.0):
            edge = base + window
            for early in _ulps_around(base):
                for late in _ulps_around(edge):
                    alerts = [make_alert(early, microservice=micro),
                              make_alert(late, microservice=micro)]
                    joined = late - early <= window
                    if joined == (early < late - window):
                        disagreements.add(joined)
                    got = analyzer.correlate(list(alerts))
                    assert [c.size for c in got] == ([2] if joined else [1, 1])
                    assert cluster_rows(got) == cluster_rows(
                        naive_correlate(analyzer, list(alerts))
                    )
    assert disagreements == {True, False}


def _ulps_around(at: float) -> tuple[float, float, float]:
    return math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)
