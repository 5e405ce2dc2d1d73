"""Online correlation: exact batch parity and safe finalisation."""

import random
from dataclasses import replace

import pytest

from repro.core.mitigation.correlation import CorrelationAnalyzer, DependencyRuleBook
from repro.streaming import correlator as correlator_module
from repro.streaming.correlator import OnlineCorrelator
from repro.topology.graph import DependencyGraph
from tests.streaming.conftest import make_alert


@pytest.fixture(scope="module")
def analyzer(small_topology):
    rulebook = DependencyRuleBook()
    rulebook.add("s-source", "s-derived")
    return CorrelationAnalyzer(small_topology.graph, rulebook=rulebook,
                               max_hops=4, time_window=900.0)


def _cluster_signature(cluster):
    return (
        tuple(sorted(a.alert_id for a in cluster.alerts)),
        cluster.root_microservice,
    )


def _graph_stream(topology):
    """Representatives spread across related/unrelated nodes and times."""
    micros = sorted(topology.graph.microservices)
    service_of = topology.service_of
    alerts = []
    time = 0.0
    for index, micro in enumerate(micros):
        alerts.append(make_alert(
            time,
            strategy_id=f"s-{index}",
            microservice=micro,
            service=service_of[micro],
            region="region-A" if index % 3 else "region-B",
        ))
        time += 200.0 if index % 4 else 2000.0  # some gaps break the window
    # Rule-book pair in the same region, topologically unrelated or not.
    alerts.append(make_alert(time + 10.0, strategy_id="s-source",
                             microservice=micros[0], service=service_of[micros[0]]))
    alerts.append(make_alert(time + 20.0, strategy_id="s-derived",
                             microservice=micros[-1], service=service_of[micros[-1]]))
    alerts.sort(key=lambda a: a.occurred_at)
    return alerts


class TestBatchParity:
    def test_components_match_batch(self, analyzer, small_topology):
        alerts = _graph_stream(small_topology)
        batch = analyzer.correlate(list(alerts))
        online = OnlineCorrelator(analyzer)
        for alert in alerts:
            online.add(alert)
        _, clusters = online.drain()
        assert sorted(map(_cluster_signature, clusters)) == \
            sorted(map(_cluster_signature, batch))

    def test_insertion_order_does_not_matter(self, analyzer, small_topology):
        alerts = _graph_stream(small_topology)
        forward = OnlineCorrelator(analyzer)
        for alert in alerts:
            forward.add(alert)
        shuffled = OnlineCorrelator(analyzer)
        for alert in reversed(alerts):
            shuffled.add(alert)
        assert sorted(map(_cluster_signature, forward.drain()[1])) == \
            sorted(map(_cluster_signature, shuffled.drain()[1]))


class TestFinalisation:
    def test_safe_components_finalize_early(self, analyzer):
        online = OnlineCorrelator(analyzer)
        online.add(make_alert(0.0, strategy_id="s-source"))
        online.add(make_alert(100.0, strategy_id="s-derived"))
        # Watermark far past the window, nothing pending: safe to close.
        closed, clusters = online.finalize_ready(watermark=10_000.0, pending=[])
        assert closed == 1
        assert [c.size for c in clusters] == [2]
        assert online.retained == 0

    def test_open_session_blocks_finalisation(self, analyzer):
        online = OnlineCorrelator(analyzer)
        online.add(make_alert(0.0, strategy_id="s-source"))
        # An open session's representative at t=200 could still be
        # emitted within the window of the retained entry.
        pending = [make_alert(200.0, strategy_id="s-derived")]
        assert online.finalize_ready(watermark=10_000.0, pending=pending) == (0, [])
        assert online.retained == 1
        # A pending representative of another region cannot reach it.
        elsewhere = [make_alert(200.0, strategy_id="s-derived", region="region-B")]
        closed, _ = online.finalize_ready(watermark=10_000.0, pending=elsewhere)
        assert closed == 1

    def test_old_pending_representative_pins_only_its_window(self, analyzer):
        """A session that never closes pins the members within one window
        of its representative; everything else behind the watermark is
        finalised or, without kept members, evicted."""
        for keep in (True, False):
            online = OnlineCorrelator(analyzer, keep_members=keep)
            online.add(make_alert(0.0, strategy_id="s-source"))           # pinned
            online.add(make_alert(5_000.0, strategy_id="s-source"))       # alone
            online.add(make_alert(20_000.0, strategy_id="s-source"))      # linked
            online.add(make_alert(20_500.0, strategy_id="s-derived"))     # linked
            online.add(make_alert(30_000.0, strategy_id="s-derived"))     # recent
            pending = [make_alert(600.0, strategy_id="s-derived")]
            closed, clusters = online.finalize_ready(watermark=30_000.0, pending=pending)
            assert closed == 2
            if keep:
                assert sorted(c.size for c in clusters) == [1, 2]
            else:
                assert clusters == []
            assert online.active_components == 2
            assert sorted(a.occurred_at for a in online._alerts.values()) == [0.0, 30_000.0]

    def test_evicted_members_leave_the_open_component(self, analyzer, monkeypatch):
        """A long component whose old members nothing can reach keeps only
        its reachable tail; merges and the drained count are unchanged."""
        monkeypatch.setattr(correlator_module, "_MIN_SWEEP", 1)
        chain = [
            make_alert(300.0 * index, strategy_id=("s-source", "s-derived")[index % 2])
            for index in range(40)
        ]
        online = OnlineCorrelator(analyzer, keep_members=False)
        for alert in chain:
            online.add(alert)
        pending = make_alert(3_000.0, strategy_id="s-source")
        closed, _ = online.finalize_ready(watermark=11_700.0, pending=[pending])
        assert closed == 0
        assert online.active_components == 1
        # Within one window of the watermark (10 800 .. 11 700) or of the
        # pending representative (2 100 .. 3 900).
        assert sorted(a.occurred_at for a in online._alerts.values()) == [
            *(300.0 * index for index in range(7, 14)),
            *(300.0 * index for index in range(36, 40)),
        ]
        online.add(pending)
        online.add(make_alert(12_000.0, strategy_id="s-source"))
        assert online.active_components == 1
        assert online.drain() == (1, [])

    def test_capture_changes_nothing_and_restores_onto_a_fresh_correlator(
        self, analyzer, monkeypatch,
    ):
        """``export`` is a pure read — sequence numbers and the sweep
        memory included — and adopting what it read into a fresh
        correlator (the restore path) exports the same again and drains
        to the same count."""
        monkeypatch.setattr(correlator_module, "_MIN_SWEEP", 1)
        chain = [
            make_alert(300.0 * index, strategy_id=("s-source", "s-derived")[index % 2])
            for index in range(40)
        ]
        online = OnlineCorrelator(analyzer, keep_members=False)
        for alert in chain:
            online.add(alert)
        online.add(make_alert(11_500.0, strategy_id="s-other", region="region-B"))
        pending = make_alert(3_000.0, strategy_id="s-source")
        online.finalize_ready(watermark=11_700.0, pending=[pending])
        assert online._swept

        def internals():
            return (
                online._seq, dict(online._alerts), dict(online._parent),
                {root: list(seqs) for root, seqs in online._members.items()},
                dict(online._max_time), dict(online._swept),
                {region: (list(times), list(items))
                 for region, (times, items) in online._timelines.items()},
            )

        before = internals()
        captured = online.export()
        assert internals() == before
        components, ties, swept = captured
        assert [len(members) for members, _ in components] == [
            online.retained - 1, 1]
        assert components[1][0][0].region == "region-B"
        assert ties == [] and swept == online._swept
        restored = OnlineCorrelator(analyzer, keep_members=False)
        restored.adopt(*captured)
        assert restored.export() == captured
        for correlator in (online, restored):
            correlator.add(pending)
            correlator.add(make_alert(12_000.0, strategy_id="s-source"))
            assert correlator.drain() == (2, [])

    def test_restore_keeps_timeline_ties_and_component_order(self):
        """Members with equal times keep their timeline order, and
        components their creation order, whatever sequence numbers the
        capturing correlator held.  Here component A (``a``, created
        first) and component B (``b1``, ``b2``) tie at t=100 with ``a``
        first; a new member linked to both scans ``a`` first, so B's
        member list ends ``a``, ``new``.  Numbering B's members first,
        as a per-region capture did, scanned ``b2`` first and ended it
        ``new``, ``a``.  At t=99 ``c2`` precedes ``c1`` on the timeline
        but ``c1`` joined the older component D, so the capture lists
        that tie."""
        rulebook = DependencyRuleBook()
        for source, derived in (("s-b", "s-y"), ("s-a", "s-x"), ("s-y", "s-x"),
                                ("s-d", "s-c")):
            rulebook.add(source, derived)
        analyzer = CorrelationAnalyzer(DependencyGraph(), rulebook=rulebook,
                                       max_hops=2, time_window=900.0)
        online = OnlineCorrelator(analyzer)
        # Distinct off-graph microservices: evidence is the rules only.
        a, b1, b2 = (make_alert(100.0, strategy_id="s-a", microservice="m-a"),
                     make_alert(50.0, strategy_id="s-b", microservice="m-b1"),
                     make_alert(100.0, strategy_id="s-y", microservice="m-b2"))
        d, c2, c1 = (make_alert(10.0, strategy_id="s-d", microservice="m-d"),
                     make_alert(99.0, strategy_id="s-e", microservice="m-c2"),
                     make_alert(99.0, strategy_id="s-c", microservice="m-c1"))
        for alert in (a, b1, b2, d, c2, c1):
            online.add(alert)
        captured = online.export()
        components, ties, _ = captured
        assert [members for members, _ in components] == [
            [a], [b1, b2], [d, c1], [c2]]
        assert ties == [[5, 4]]
        restored = OnlineCorrelator(analyzer)
        restored._seq = 1_000  # a correlator that already numbered others
        restored.adopt(*captured)
        assert restored.export() == captured
        new = make_alert(110.0, strategy_id="s-x", microservice="m-new")
        for correlator in (online, restored):
            correlator.add(new)
            assert correlator.export()[0][0] == ([b1, b2, a, new], 110.0)
        assert restored.export() == online.export()
        assert online.drain() == restored.drain()

    def test_early_finalisation_preserves_parity(self, analyzer, small_topology):
        alerts = _graph_stream(small_topology)
        batch = analyzer.correlate(list(alerts))
        online = OnlineCorrelator(analyzer)
        clusters = []
        for alert in alerts:
            online.add(alert)
            # Aggressively finalise between events, as the gateway does.
            clusters += online.finalize_ready(watermark=alert.occurred_at, pending=[])[1]
        clusters += online.drain()[1]
        assert sorted(map(_cluster_signature, clusters)) == \
            sorted(map(_cluster_signature, batch))

    def test_drain_empties_state(self, analyzer):
        online = OnlineCorrelator(analyzer)
        online.add(make_alert(0.0))
        online.drain()
        assert online.retained == 0
        assert online.active_components == 0


def _multi_region_storm(topology, n_alerts=600, seed=11):
    """A fixed dense storm: 3 regions, two strategies per microservice."""
    rng = random.Random(seed)
    micros = sorted(topology.graph.microservices)
    alerts = []
    for _ in range(n_alerts):
        micro = rng.choice(micros)
        alerts.append(make_alert(
            float(rng.randrange(0, 6000, 20)),
            strategy_id=f"s-{micro}-{rng.randrange(2)}",
            microservice=micro,
            service=topology.service_of[micro],
            region=rng.choice(("region-A", "region-B", "region-C")),
        ))
    return alerts


class TestEvidenceMemo:
    def test_rows_are_complete_from_interning(self, small_topology):
        micros = sorted(small_topology.graph.microservices)
        rulebook = DependencyRuleBook()
        for source, derived in zip(micros, micros[3:]):
            rulebook.add(f"s-{source}-0", f"s-{derived}-1")
        analyzer = CorrelationAnalyzer(small_topology.graph, rulebook=rulebook,
                                       max_hops=2, time_window=900.0)
        alerts = _multi_region_storm(small_topology)
        calls = 0
        signature_evidence = analyzer.signature_evidence

        def counting(first, second):
            nonlocal calls
            calls += 1
            return signature_evidence(first, second)

        analyzer.signature_evidence = counting
        online = OnlineCorrelator(analyzer)
        for alert in alerts:
            online.add(alert)
        assert calls == 0  # the scan reads rows only
        interned = online._signatures
        assert len(interned) > 1
        for first, i in interned.items():
            row = online._verdicts[i]
            for second, j in interned.items():
                byte = row[j] if j < len(row) else 0
                assert byte == signature_evidence(first, second), (first, second)
        _, clusters = online.drain()
        assert sorted(map(_cluster_signature, clusters)) == \
            sorted(map(_cluster_signature, analyzer.correlate(list(alerts))))

    def test_memo_is_bounded_on_a_stream_that_churns_strategy_ids(
        self, small_topology, monkeypatch,
    ):
        micros = sorted(small_topology.graph.microservices)
        alerts = [
            # Bursts of 8 a window apart, so components keep finalising.
            make_alert(120.0 * index + 5000.0 * (index // 8), strategy_id=f"s-{index}",
                       microservice=micros[index % len(micros)],
                       service=small_topology.service_of[micros[index % len(micros)]])
            for index in range(400)
        ]
        analyzer = CorrelationAnalyzer(small_topology.graph, max_hops=2, time_window=900.0)

        def run(observe):
            online = OnlineCorrelator(analyzer)
            clusters = []
            for alert in alerts:
                online.add(alert)
                clusters += online.finalize_ready(watermark=alert.occurred_at, pending=[])[1]
                observe(len(online._signatures))
            clusters += online.drain()[1]
            return [
                ([a.alert_id for a in c.alerts], c.root_alert.alert_id, c.coverage)
                for c in clusters
            ]

        uncapped_sizes, capped_sizes = [], []
        uncapped = run(uncapped_sizes.append)
        monkeypatch.setattr(correlator_module, "_MAX_SIGNATURES", 32)
        capped = run(capped_sizes.append)
        assert max(uncapped_sizes) == len(alerts)  # the stream does churn
        assert max(capped_sizes) <= 32
        assert capped == uncapped


class TestStaleEvidence:
    """Mutating the graph or the rule book after construction must reach
    both the batch analyzer's cache and the online memo."""

    @staticmethod
    def _graph():
        graph = DependencyGraph()
        for name in ("front", "back", "island"):
            graph.add_microservice(name)
        return graph

    def _flips(self, analyzer, first, second, mutate):
        """``first``/``second`` are unlinked until ``mutate()`` runs."""
        online = OnlineCorrelator(analyzer)
        online.add(first)
        online.add(second)  # memoises "no" for the signature pair
        assert not analyzer.pair_evidence(first, second)
        assert len(analyzer.correlate([first, second])) == 2
        assert online.active_components == 2
        mutate()
        assert analyzer.pair_evidence(first, second)
        later = [replace(first, alert_id="later-1", occurred_at=first.occurred_at + 50.0),
                 replace(second, alert_id="later-2", occurred_at=second.occurred_at + 50.0)]
        for alert in later:
            online.add(alert)
        batch = analyzer.correlate([first, second, *later])
        assert len(batch) == 1
        assert sorted(map(_cluster_signature, online.drain()[1])) == \
            sorted(map(_cluster_signature, batch))

    def test_new_dependency_edge_flips_batch_and_online(self):
        graph = self._graph()
        analyzer = CorrelationAnalyzer(graph, max_hops=2, time_window=900.0)
        self._flips(
            analyzer,
            make_alert(0.0, strategy_id="s-front", microservice="front"),
            make_alert(10.0, strategy_id="s-back", microservice="back"),
            lambda: graph.add_dependency("front", "back"),
        )

    def test_new_rule_flips_batch_and_online(self):
        rulebook = DependencyRuleBook()  # empty, hence falsy, at construction
        analyzer = CorrelationAnalyzer(self._graph(), rulebook=rulebook,
                                       max_hops=2, time_window=900.0)
        self._flips(
            analyzer,
            make_alert(0.0, strategy_id="s-front", microservice="front"),
            make_alert(10.0, strategy_id="s-island", microservice="island"),
            lambda: rulebook.add("s-front", "s-island"),
        )

    def test_new_microservice_is_seen(self):
        graph = self._graph()
        analyzer = CorrelationAnalyzer(graph, max_hops=2, time_window=900.0)
        first = make_alert(0.0, strategy_id="s-front", microservice="front")
        second = make_alert(10.0, strategy_id="s-new", microservice="new")
        assert not analyzer.pair_evidence(first, second)  # unknown node: cached "no"
        graph.add_microservice("new")
        graph.add_dependency("new", "front")
        assert analyzer.pair_evidence(first, second)


class TestFinalizeTouchesOnlyShrunkRegions:
    def test_other_regions_timelines_are_left_alone(self, analyzer):
        online = OnlineCorrelator(analyzer)
        online.add(make_alert(0.0, region="region-A"))
        online.add(make_alert(5_000.0, region="region-B"))
        untouched = online._timelines["region-B"]
        closed, clusters = online.finalize_ready(watermark=5_000.0, pending=[])
        assert closed == 1
        assert [c.alerts[0].region for c in clusters] == ["region-A"]
        assert online._timelines == {"region-B": untouched}
        assert online._timelines["region-B"] is untouched  # not rebuilt
