"""Property fuzz: checkpoint round-trips survive hostile state shapes.

Hypothesis drives gateway state into the corners the deterministic
matrix does not reach — unicode region names (the wire format and the
file format must agree on encodings), live TTL'd blocking rules
(expiry state must continue ticking identically after restore), and
deep correlator components built over multi-hop dependency chains —
then asserts the continued run is indistinguishable from one that was
never checkpointed.  A second property pins capture invisibility: a
capture only reads each plane's state, so a gateway that
captured must carry on — and capture again, byte for byte — exactly
like one that never did; a deterministic storm case pins the bytes at
every barrier.  A third fuzzes corruption positions: no damaged
snapshot may ever decode.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.serving import decode_checkpoint, encode_checkpoint, restore_gateway
from repro.serving.checkpoint import (
    CheckpointError,
    ChecksumError,
    checkpoint_of_gateway,
)
from repro.streaming import AlertGateway
from repro.topology.generator import TopologyConfig, generate_topology
from repro.workload import StormConfig, build_multi_region_storm

from tests.streaming.conftest import aggregate_row, make_alert
from tests.streaming.test_golden_trace import golden_graph

pytestmark = pytest.mark.scale_chaos

#: Region names exercising every encoding hazard at once: combining
#: characters, non-BMP, RTL, plain ASCII.
REGIONS = ("region-A", "région-β", "東京-1",
           "zone-Ώ", "\U0001f30d-west")

#: The golden graph's two call chains; walking them builds multi-hop
#: correlator components.
MICROS = ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6")
STRATEGIES = ("s-api", "s-cache", "s-db", "s-noise", "s-flaky")


def _trace(shape: list[tuple[int, int, int]]) -> list:
    """Ordered alerts from (strategy, region, gap-seconds) triples."""
    alerts = []
    t = 0.0
    for index, (strategy, region, gap) in enumerate(shape):
        t += gap
        alerts.append(make_alert(
            occurred_at=t,
            strategy_id=STRATEGIES[strategy % len(STRATEGIES)],
            region=REGIONS[region % len(REGIONS)],
            microservice=MICROS[index % len(MICROS)],
            cleared_after=30.0 if index % 3 == 0 else 900.0,
        ))
    return alerts


def _ttl_blocker() -> AlertBlocker:
    """Rules with live TTLs: one expires mid-trace, one never does."""
    return AlertBlocker([
        BlockingRule(strategy_id="s-noise", reason="fuzz: permanent"),
        BlockingRule(strategy_id="s-flaky", region=REGIONS[1],
                     reason="fuzz: expiring", expires_at=400.0),
        BlockingRule(strategy_id="s-cache", reason="fuzz: expiring late",
                     expires_at=100_000.0),
    ])


def _fingerprint(gateway: AlertGateway) -> tuple:
    stats = gateway.stats
    return (
        stats.input_alerts, stats.blocked_alerts, stats.aggregates_emitted,
        stats.clusters_finalized, stats.storm_episodes, stats.emerging_flags,
        stats.late_events, stats.watermark,
    )


shape_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(STRATEGIES) - 1),
        st.integers(min_value=0, max_value=len(REGIONS) - 1),
        st.integers(min_value=0, max_value=120),
    ),
    min_size=8, max_size=80,
)


class TestRoundTripFuzz:
    @settings(max_examples=25, deadline=None)
    @given(shape=shape_strategy, tail=shape_strategy, n_planes=st.sampled_from([1, 3]))
    def test_restored_continuation_is_indistinguishable(
        self, shape, tail, n_planes,
    ):
        head = _trace(shape)
        continuation = _trace(
            [(s, r, g) for s, r, g in tail]
        )
        # Continuation times must not go backwards relative to the head.
        offset = head[-1].occurred_at
        for alert in continuation:
            alert.occurred_at += offset
            if alert.cleared_at is not None:
                alert.cleared_at += offset

        def build():
            return AlertGateway(
                golden_graph(), blocker=_ttl_blocker(), n_planes=n_planes,
                flush_size=1,
            )

        # Reference: the uninterrupted run.
        reference = build()
        reference.ingest_batch(head)
        reference.ingest_batch(continuation)
        reference.drain()
        want = _fingerprint(reference)

        # Checkpointed run: snapshot after the head (flush_size=1 means
        # every batch boundary is a barrier), wire-encode, decode,
        # restore, continue.
        subject = build()
        subject.ingest_batch(head)
        snapshot = checkpoint_of_gateway(subject, seq=1, created_at=0.0)
        decoded = decode_checkpoint(encode_checkpoint(snapshot))
        subject.close()
        assert decoded.config == snapshot.config
        assert decoded.state == snapshot.state
        assert decoded.blobs == snapshot.blobs

        restored = restore_gateway(decoded, golden_graph())
        assert _fingerprint(restored)[:1] == (len(head),)
        restored.ingest_batch(continuation)
        restored.drain()
        assert _fingerprint(restored) == want

    @settings(max_examples=25, deadline=None)
    @given(shape=shape_strategy)
    def test_unicode_rules_and_assignments_survive_exactly(self, shape):
        gateway = AlertGateway(
            golden_graph(), blocker=_ttl_blocker(), n_planes=2, flush_size=1,
        )
        gateway.ingest_batch(_trace(shape))
        snapshot = checkpoint_of_gateway(gateway, seq=1, created_at=0.0)
        decoded = decode_checkpoint(encode_checkpoint(snapshot))
        gateway.close()
        restored = restore_gateway(decoded, golden_graph())
        assert restored._blocker.rules == _ttl_blocker().rules
        assert [r for _, r in decoded.state["assignments"]] == \
               [r for _, r in snapshot.state["assignments"]]
        restored.close()


#: Under the seeded CI profile (HYPOTHESIS_PROFILE=scale_chaos) the
#: capture property runs derandomized with a deeper example budget; the
#: tier-1 default keeps it quick.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = {"serial": 60 if _CHAOS_PROFILE else 20,
             "process": 10 if _CHAOS_PROFILE else 3}


def _strict_clusters(gateway: AlertGateway) -> list[tuple]:
    """Clusters exactly: member order, root alert, root service, coverage."""
    return [
        (tuple(alert.alert_id for alert in cluster.alerts),
         cluster.root_alert.alert_id if cluster.root_alert else None,
         cluster.root_microservice, cluster.coverage)
        for cluster in gateway.clusters
    ]


#: Multi-region shapes with ties: a zero gap puts two events on one
#: timestamp, and the golden graph's chains give R3 multi-hop evidence.
tied_shape_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(STRATEGIES) - 1),
        st.integers(min_value=0, max_value=len(REGIONS) - 1),
        st.sampled_from((0, 0, 5, 40, 300)),
    ),
    min_size=8, max_size=90,
)


@pytest.mark.parametrize("backend,n_planes", [
    ("serial", 1), ("serial", 4), ("process", 4),
])
class TestCaptureInvisibility:
    def test_capturing_run_matches_a_run_that_never_captured(
        self, backend, n_planes,
    ):
        @settings(max_examples=_EXAMPLES[backend], deadline=None,
                  derandomize=_CHAOS_PROFILE)
        @given(data=st.data(), shape=tied_shape_strategy,
               flush_size=st.sampled_from((1, 7, 64)))
        def check(data, shape, flush_size):
            alerts = _trace(shape)
            cuts = data.draw(st.lists(
                st.integers(min_value=1, max_value=len(alerts) - 1),
                max_size=4, unique=True,
            ).map(sorted), label="barriers")
            captures = data.draw(st.lists(
                st.booleans(), min_size=len(cuts), max_size=len(cuts),
            ), label="capture at barrier")
            # Without retained artifacts R3 evicts unreachable members,
            # so its sweep memory is live state a capture must not touch.
            retain = data.draw(st.booleans(), label="retain_artifacts")

            def build():
                return AlertGateway(
                    golden_graph(), blocker=_ttl_blocker(), backend=backend,
                    n_planes=n_planes, n_workers=2, flush_size=flush_size,
                    retain_artifacts=retain,
                )

            reference, capturing = build(), build()
            try:
                # Both runs share every barrier; only one captures there.
                start = 0
                for cut, capture in zip(cuts, captures):
                    for gateway in (reference, capturing):
                        gateway.ingest_batch(alerts[start:cut])
                        gateway.flush()
                    if capture:
                        capturing.checkpoint_state()
                    start = cut
                for gateway in (reference, capturing):
                    gateway.ingest_batch(alerts[start:])
                    gateway.flush()
                # The final shared barrier: byte-identical durable images.
                encoded = [
                    encode_checkpoint(
                        checkpoint_of_gateway(gateway, seq=1, created_at=0.0)
                    )
                    for gateway in (reference, capturing)
                ]
                assert encoded[0] == encoded[1]
                want, got = reference.drain(), capturing.drain()
            finally:
                reference.close()
                capturing.close()
            assert got.export_state() == want.export_state()
            assert [aggregate_row(a) for a in capturing.aggregates] == [
                aggregate_row(a) for a in reference.aggregates
            ]
            assert _strict_clusters(capturing) == _strict_clusters(reference)

        check()


class TestCaptureIsARead:
    def test_barrier_blobs_equal_those_of_a_single_capture_run(self):
        """One storm wave (11 004 alerts) on one plane without retained
        artifacts, captured at every 2nd flush barrier: each capture's
        blobs equal those of a run whose only capture is at that
        barrier.  A capture that mutated the planes (R3's sweep memory,
        its member sequence numbers) would shift later eviction, and
        with it later blobs."""
        topology = generate_topology(TopologyConfig(seed=44))
        alerts = list(build_multi_region_storm(
            StormConfig(seed=44), topology,
        ).iter_ordered())
        assert len(alerts) == 11_004
        flush = 512
        barriers = len(alerts) // flush

        def blobs_at(capture_at: set[int]) -> dict[int, list[bytes]]:
            gateway = AlertGateway(
                topology.graph, n_planes=1, flush_size=flush,
                retain_artifacts=False,
            )
            blobs = {}
            try:
                for barrier in range(1, barriers + 1):
                    gateway.ingest_batch(
                        alerts[(barrier - 1) * flush:barrier * flush]
                    )
                    assert gateway.at_flush_barrier
                    if barrier in capture_at:
                        blobs[barrier] = gateway.checkpoint_state()["blobs"]
            finally:
                gateway.close()
            return blobs

        every = blobs_at(set(range(2, barriers + 1, 2)))
        assert len(every) == 10
        differ = [
            barrier for barrier, blobs in every.items()
            if blobs_at({barrier})[barrier] != blobs
        ]
        assert differ == []


class TestCorruptionFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_no_bit_flip_ever_decodes(self, position, bit):
        snapshot = _CORRUPTION_SNAPSHOT
        encoded = bytearray(_CORRUPTION_ENCODED)
        offset = 4 + int(position * (len(encoded) - 4))  # keep the magic
        encoded[offset] ^= 1 << bit
        with pytest.raises((ChecksumError, CheckpointError)):
            decoded = decode_checkpoint(bytes(encoded))
            # Belt and braces: even if a flip cancelled out (it cannot,
            # with a keyed blake2b digest), state must be unchanged.
            assert decoded.state == snapshot.state

    @settings(max_examples=40, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_no_truncation_ever_decodes(self, fraction):
        encoded = _CORRUPTION_ENCODED
        with pytest.raises((ChecksumError, CheckpointError)):
            decode_checkpoint(encoded[:int(fraction * len(encoded))])


def _build_corruption_fixture():
    gateway = AlertGateway(
        golden_graph(), blocker=_ttl_blocker(), n_planes=2, flush_size=1,
    )
    gateway.ingest_batch(_trace([(i % 5, i % 5, 30) for i in range(40)]))
    snapshot = checkpoint_of_gateway(gateway, seq=1, created_at=0.0)
    gateway.close()
    return snapshot, encode_checkpoint(snapshot)


_CORRUPTION_SNAPSHOT, _CORRUPTION_ENCODED = _build_corruption_fixture()
