"""Property: the online correlator's fast scan is indistinguishable from
a naive one, and evicting what nothing can reach changes no count.

``OnlineCorrelator.add`` answers "same component?" from a quick-find
table and "evidence?" from a per-signature memo.  The reference below
does neither: it visits every retained representative, asks
``pair_evidence`` directly for every in-window same-region pair, and
merges with the same rule (smaller member list into the larger, the
older side winning ties).  Under timestamp ties, out-of-order arrival,
several regions, a random rule book, interleaved finalisation and
restores (capture → adopt into a fresh correlator, which must leave the
captured one unchanged and export the same again; the reference just
carries on), both must emit the same clusters
— member order, root alert, root microservice, coverage — and the batch
sweep must agree on the partition.

Some scenarios also add a rule-book pair or a dependency edge between
arrivals.  They start from a graph of the drawn microservices without
edges, so most such additions link pairs that were apart.  That moves
the analyzer's ``evidence_version`` mid-stream, so the correlator's
evidence rows are rebuilt, and both scans must still agree.  A pair
scanned before its evidence appeared is never revisited by either scan,
so there the batch sweep, which asks the final evidence of every pair,
may merge more: the online partition must refine it.

Finalisation is driven by the ``pending`` contract itself: at a
"finalize" op the watermark is drawn no higher than what was added so
far (and never lower than the last one), and ``pending`` is exactly the
arrivals still to come that are older than it.  A correlator that keeps
no members (the gateway without ``retain_artifacts``) runs alongside and
must close the same number of components at every call.
"""

from __future__ import annotations

import bisect
import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.core.mitigation.correlation import (
    AlertCluster,
    CorrelationAnalyzer,
    DependencyRuleBook,
)
from repro.streaming import correlator as correlator_module
from repro.streaming.correlator import OnlineCorrelator
from repro.topology.graph import DependencyGraph
from tests.streaming.conftest import make_alert

_REGIONS = ("region-A", "region-B", "region-C")
_STRATEGIES = tuple(f"s-{index}" for index in range(4))
_WINDOW = 900.0

#: Under the seeded CI profile (HYPOTHESIS_PROFILE=scale_chaos) the
#: property runs derandomized with a deeper example budget; explicit here
#: because the per-test @settings would override the profile's count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = 600 if _CHAOS_PROFILE else 120


class _NaiveCorrelator:
    """Reference scan: no find structure, no memo."""

    def __init__(self, analyzer: CorrelationAnalyzer) -> None:
        self.analyzer = analyzer
        self.seq = 0
        # Sorted (occurred_at, seq, alert); seq is unique, so the alert
        # itself is never compared.
        self.retained: list[tuple[float, int, Alert]] = []
        # seq -> the member list its whole component shares.
        self.component: dict[int, list[tuple[int, Alert]]] = {}

    def _retain(self, alert: Alert, members: list[tuple[int, Alert]]) -> int:
        seq, self.seq = self.seq, self.seq + 1
        members.append((seq, alert))
        self.component[seq] = members
        bisect.insort(self.retained, (alert.occurred_at, seq, alert))
        return seq

    def add(self, alert: Alert) -> None:
        seq = self._retain(alert, [])
        for time, other_seq, other in list(self.retained):
            if other_seq == seq or other.region != alert.region:
                continue
            if not alert.occurred_at - _WINDOW <= time <= alert.occurred_at + _WINDOW:
                continue
            theirs, mine = self.component[other_seq], self.component[seq]
            if theirs is mine or not self.analyzer.pair_evidence(other, alert):
                continue
            if len(theirs) < len(mine):
                theirs, mine = mine, theirs
            theirs.extend(mine)
            for member_seq, _ in mine:
                self.component[member_seq] = theirs

    def _components(self) -> list[list[tuple[int, Alert]]]:
        """Distinct member lists, in first-retained order."""
        distinct: dict[int, list[tuple[int, Alert]]] = {}
        for _, seq, _ in self.retained:
            members = self.component[seq]
            distinct.setdefault(id(members), members)
        return list(distinct.values())

    def finalize(
        self, safe_before: float | None = None, pending: tuple[Alert, ...] = (),
    ) -> list[AlertCluster]:
        def reachable(members: list[tuple[int, Alert]]) -> bool:
            return any(
                other.region == alert.region
                and other.occurred_at - _WINDOW <= alert.occurred_at
                <= other.occurred_at + _WINDOW
                for _, alert in members for other in pending
            )

        ready = [
            members for members in self._components()
            if safe_before is None
            or (max(alert.occurred_at for _, alert in members) < safe_before
                and not reachable(members))
        ]
        for members in ready:
            for seq, _ in members:
                del self.component[seq]
        self.retained = [item for item in self.retained if item[1] in self.component]
        return [self.analyzer.build_cluster([alert for _, alert in members])
                for members in ready]


def _internals(correlator: OnlineCorrelator) -> tuple:
    """Every piece of a correlator's live state, copied: what a capture
    must leave as it found it (sequence numbers and sweep memory too)."""
    return (
        correlator._seq,
        dict(correlator._alerts),
        {region: (list(times), list(items))
         for region, (times, items) in correlator._timelines.items()},
        dict(correlator._parent),
        {root: list(seqs) for root, seqs in correlator._members.items()},
        dict(correlator._max_time),
        dict(correlator._swept),
    )


def _emitted(clusters: list[AlertCluster]) -> list[tuple]:
    return sorted(
        (tuple(a.alert_id for a in c.alerts), c.root_alert.alert_id,
         c.root_microservice, c.coverage)
        for c in clusters
    )


@st.composite
def scenarios(draw):
    """(rule pairs, alert draws in arrival order, one op per arrival).

    An op carries a drawn watermark tick, used by "finalize" only, and
    two indices: the strategies of a "rule" op or the microservices of
    an "edge" op.  Only evolving scenarios draw those two kinds."""
    rules = draw(st.sets(
        st.tuples(st.sampled_from(_STRATEGIES), st.sampled_from(_STRATEGIES))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=4,
    ))
    n = draw(st.integers(0, 60))  # a drawn length: plain lists skew short
    arrivals = draw(st.lists(
        st.tuples(
            st.integers(0, 40),                    # x 100 s: ties are common
            st.sampled_from(_STRATEGIES),
            st.integers(0, 5),                     # microservice index
            st.sampled_from(_REGIONS),
        ),
        min_size=n, max_size=n,
    ))  # drawn order is arrival order: timestamps go back and forth
    kinds = ("none", "none", "finalize", "restore")
    evolving = draw(st.booleans())
    if evolving:
        kinds += ("rule", "edge")
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(0, 40),
            st.integers(0, 5),
            st.integers(0, 5),
        ),
        min_size=n, max_size=n,
    ))
    return rules, arrivals, ops, evolving


class TestOnlineCorrelatorAgainstNaiveScan:
    @settings(max_examples=_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE)
    @given(scenario=scenarios(), min_sweep=st.sampled_from((1, 3, 64)))
    def test_same_clusters_as_naive_scan_and_batch_partition(
        self, scenario, min_sweep, small_topology,
    ):
        with mock.patch.object(correlator_module, "_MIN_SWEEP", min_sweep):
            self._check(scenario, small_topology)

    @staticmethod
    def _check(scenario, small_topology):
        rules, arrivals, ops, evolving = scenario
        rulebook = DependencyRuleBook()
        for source, derived in sorted(rules):
            rulebook.add(source, derived)
        # Few microservices and strategies, so the same signature pair
        # recurs with and without a rule behind it.
        micros = sorted(small_topology.graph.microservices)[:6]
        graph = small_topology.graph
        if evolving:
            graph = DependencyGraph()
            for micro in micros:
                graph.add_microservice(micro)
        analyzer = CorrelationAnalyzer(graph, rulebook=rulebook,
                                       max_hops=2, time_window=_WINDOW)
        alerts = [
            make_alert(100.0 * tick, strategy_id=strategy, microservice=micros[micro],
                       service=small_topology.service_of[micros[micro]], region=region)
            for tick, strategy, micro, region in arrivals
        ]
        online, naive = OnlineCorrelator(analyzer), _NaiveCorrelator(analyzer)
        evicting = OnlineCorrelator(analyzer, keep_members=False)
        got: list[AlertCluster] = []
        want: list[AlertCluster] = []
        counted = 0
        added_max = watermark = float("-inf")
        mutated = False
        for index, (alert, (op, tick, first, second)) in enumerate(zip(alerts, ops)):
            online.add(alert)
            naive.add(alert)
            evicting.add(alert)
            added_max = max(added_max, alert.occurred_at)
            if op == "finalize":
                watermark = max(watermark, min(100.0 * tick, added_max))
                pending = tuple(
                    a for a in alerts[index + 1:] if a.occurred_at < watermark
                )
                closed, clusters = online.finalize_ready(watermark, pending)
                assert closed == len(clusters)
                got += clusters
                want += naive.finalize(watermark - _WINDOW, pending)
                assert evicting.finalize_ready(watermark, pending) == (closed, [])
                counted += closed
            elif op == "restore":
                fresh = OnlineCorrelator(analyzer)
                fresh_evicting = OnlineCorrelator(analyzer, keep_members=False)
                for source, target in ((online, fresh), (evicting, fresh_evicting)):
                    before = _internals(source)
                    captured = source.export()
                    assert _internals(source) == before
                    target.adopt(*captured)
                    assert target.export() == captured
                    assert target.retained == source.retained
                    assert target.active_components == source.active_components
                online, evicting = fresh, fresh_evicting
            elif op == "rule":
                count = len(_STRATEGIES)
                source, derived = _STRATEGIES[first % count], _STRATEGIES[second % count]
                if source != derived:
                    rulebook.add(source, derived)
                    mutated = True
            elif op == "edge":
                try:
                    graph.add_dependency(micros[first], micros[second])
                    mutated = True
                except ValidationError:  # a self-loop or a cycle
                    pass
            assert evicting.retained <= online.retained
            assert evicting.active_components == online.active_components
        closed, clusters = online.drain()
        got += clusters
        want += naive.finalize()
        assert evicting.drain() == (closed, [])
        counted += closed
        assert _emitted(got) == _emitted(want)
        batch = analyzer.correlate(list(alerts))
        online_partition = sorted(sorted(a.alert_id for a in c.alerts) for c in got)
        batch_partition = sorted(sorted(a.alert_id for a in c.alerts) for c in batch)
        if not mutated:
            assert online_partition == batch_partition
            assert counted == len(batch)
        else:
            component_of = {
                alert_id: index
                for index, members in enumerate(batch_partition)
                for alert_id in members
            }
            assert all(
                len({component_of[alert_id] for alert_id in members}) == 1
                for members in online_partition
            )
