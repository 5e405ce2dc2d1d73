"""Round-trip tests for the struct-packed process-backend wire format."""

import pickle
import struct
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.errors import ValidationError
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.correlation import AlertCluster
from repro.streaming import (
    OpenSession,
    PlaneState,
    RegionStormState,
    iter_jsonl_alerts,
    pack_aggregates,
    pack_alerts,
    pack_clusters,
    pack_plane_state,
    unpack_aggregates,
    unpack_alerts,
    unpack_clusters,
    unpack_plane_state,
)
from repro.workload.trace import AlertTrace
from tests.streaming.conftest import make_alert
from tests.streaming.test_golden_trace import (
    TRACE_PATH,
    WINDOW,
    golden_blocker,
    golden_graph,
)


@pytest.fixture(scope="module")
def golden_alerts():
    return list(iter_jsonl_alerts(TRACE_PATH))


class TestAlertRoundTrip:
    def test_empty_batch(self):
        assert unpack_alerts(pack_alerts([])) == []

    def test_golden_trace_round_trips_exactly(self, golden_alerts):
        assert unpack_alerts(pack_alerts(golden_alerts)) == golden_alerts

    def test_optional_fields_survive(self):
        active = make_alert(5.0, cleared_after=None)  # still ACTIVE
        active.fault_id = "fault-0007"
        active.tags = {"team": "edge", "ünïcode": "✓ value"}
        cleared = make_alert(10.0, cleared_after=3.5)
        batch = [active, cleared]
        decoded = unpack_alerts(pack_alerts(batch))
        assert decoded == batch
        assert decoded[0].cleared_at is None
        assert decoded[0].fault_id == "fault-0007"
        assert decoded[0].tags["ünïcode"] == "✓ value"
        assert decoded[1].cleared_at == pytest.approx(13.5)

    def test_dictionary_encoding_beats_pickle_on_repetitive_batches(
        self, golden_alerts
    ):
        packed = pack_alerts(golden_alerts)
        assert len(packed) < len(pickle.dumps(golden_alerts))

    def test_magic_mismatch_rejected(self, golden_alerts):
        blob = pack_alerts(golden_alerts[:3])
        with pytest.raises(ValidationError, match="magic"):
            unpack_aggregates(blob)


_STRING_FIELDS = (
    "alert_id", "strategy_id", "strategy_name", "title", "description",
    "service", "microservice", "region", "datacenter", "channel",
)


def _reference_pack_alerts(alerts) -> bytes:
    """The plain row-major encoder: per alert its ten string fields, then
    its fault id, then its tags, interned in that order."""
    strings: dict[str, int] = {}

    def ref(value):
        return strings.setdefault(value, len(strings))

    u32 = struct.Struct("<I").pack
    columns = [[] for _ in _STRING_FIELDS]
    faults, tags = [], []
    for position, alert in enumerate(alerts):
        for column, name in zip(columns, _STRING_FIELDS):
            column.append(ref(getattr(alert, name)))
        faults.append(0xFFFFFFFF if alert.fault_id is None else ref(alert.fault_id))
        for key, value in alert.tags.items():
            tags.extend((position, ref(key), ref(value)))
    sections = [
        u32(len(alerts)),
        *(array("I", column).tobytes() for column in columns),
        array("I", faults).tobytes(),
        bytes(alert.severity.value for alert in alerts),
        bytes(list(AlertState).index(alert.state) for alert in alerts),
        array("d", [alert.occurred_at for alert in alerts]).tobytes(),
        array("d", [-1.0 if a.cleared_at is None else a.cleared_at for a in alerts]).tobytes(),
        array("I", tags).tobytes(),
    ]
    raw = [value.encode("utf-8") for value in strings]
    return b"".join([
        b"RWA1", u32(len(raw)), *(u32(len(s)) + s for s in raw),
        *(u32(len(s)) + s for s in sections),
    ])


#: A few short strings, unicode included, so fields of different
#: alerts (and different fields of one alert) collide often.
_WORD = st.sampled_from(["a", "b", "ü", "✓ x", "region-A", "s-1"])


@st.composite
def _alert_batches(draw):
    """Batches mixing a few repeated 9-tuples (a strategy's shared
    fields) with unique ones, plus states, fault ids and tags."""
    pool = draw(st.lists(st.tuples(*[_WORD] * 9), min_size=1, max_size=3))
    alerts = []
    for index in range(draw(st.integers(0, 24))):
        shared = draw(st.sampled_from(pool) | st.tuples(*[_WORD] * 9))
        occurred = float(index)
        state = draw(st.sampled_from(list(AlertState)))
        alerts.append(Alert(
            draw(_WORD | st.just(f"id-{index}")), *shared[:4],
            draw(st.sampled_from(list(Severity))), *shared[4:], occurred,
            state, None if state is AlertState.ACTIVE else occurred + 1.5,
            draw(st.none() | _WORD),
            draw(st.dictionaries(_WORD, _WORD, max_size=2)),
        ))
    return alerts


class TestAlertEncoderIdentity:
    """``pack_alerts`` is byte-identical to the row-major reference."""

    @given(_alert_batches())
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_matches_row_major_reference(self, alerts):
        assert pack_alerts(alerts) == _reference_pack_alerts(alerts)

    def test_golden_trace_matches_reference(self, golden_alerts):
        assert pack_alerts(golden_alerts) == _reference_pack_alerts(golden_alerts)


class TestSnapshotRoundTrip:
    @pytest.fixture(scope="class")
    def report(self, golden_alerts):
        trace = AlertTrace(alerts=list(golden_alerts), label="wire", seed=0)
        return MitigationPipeline(
            golden_graph(), aggregation_window=WINDOW, correlation_window=WINDOW,
        ).run(trace, blocker=golden_blocker())

    def test_aggregates_round_trip_exactly(self, report):
        aggregates = report.aggregates
        assert len(aggregates) > 0
        assert unpack_aggregates(pack_aggregates(aggregates)) == aggregates

    def test_empty_aggregates(self):
        assert unpack_aggregates(pack_aggregates([])) == []

    def test_clusters_round_trip(self, report):
        clusters = report.clusters
        assert len(clusters) > 0
        decoded = unpack_clusters(pack_clusters(clusters))
        assert len(decoded) == len(clusters)
        for restored, original in zip(decoded, clusters):
            assert restored.alerts == original.alerts
            assert restored.root_microservice == original.root_microservice
            assert restored.coverage == original.coverage
            # root identity is positional: the restored root must be the
            # same member, not a stray copy
            if original.root_alert is not None:
                assert restored.root_alert == original.root_alert
                assert restored.root_alert is restored.alerts[
                    original.alerts.index(original.root_alert)
                ]

    def test_empty_clusters(self):
        assert unpack_clusters(pack_clusters([])) == []


# ----------------------------------------------------------------------
# plane-state snapshots (one checkpoint blob per plane)
# ----------------------------------------------------------------------
_TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1, max_size=12,
)


def _session(index: int, region: str, strategy: str, title: str,
             n_ids: int) -> OpenSession:
    representative = make_alert(
        occurred_at=100.0 * index,
        strategy_id=strategy,
        region=region,
        title=title,
    )
    return OpenSession(
        strategy_id=strategy,
        region=region,
        first_at=100.0 * index,
        last_at=100.0 * index + 42.0,
        count=n_ids + 1,
        representative=representative,
        alert_ids=[representative.alert_id] + [
            f"id-{index}-{position}" for position in range(n_ids)
        ],
    )


def _plane_state(**fields) -> PlaneState:
    """A record with every field empty unless given."""
    return PlaneState(**{
        "counters": [0, 0, 0, 0], "since_finalize": 0, "sessions": [],
        "components": [], "ties": [], "swept": {}, "storm": [],
        "storm_swept_at": None, **fields,
    })


@st.composite
def _storm_records(draw, region: str):
    has_counter = draw(st.booleans())
    counts = (
        draw(st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=1, max_size=60))
        if has_counter else None
    )
    return RegionStormState(
        region=region,
        bucket_seconds=60.0,
        counts=counts,
        total=sum(counts) if counts else 0,
        head=draw(st.integers(min_value=0, max_value=10**9))
        if has_counter and draw(st.booleans()) else None,
        episode_started_at=draw(st.one_of(
            st.none(),
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
        )),
        episode_peak_rate=draw(st.floats(
            min_value=0, max_value=1e6, allow_nan=False,
        )),
        last_seen={
            strategy: draw(st.floats(
                min_value=0, max_value=1e6, allow_nan=False,
            ))
            for strategy in draw(st.lists(_TEXT, max_size=4, unique=True))
        },
        episode_count=draw(st.integers(min_value=0, max_value=50)),
        emerging_count=draw(st.integers(min_value=0, max_value=50)),
        ingested=draw(st.integers(min_value=0, max_value=10**6)),
    )


@st.composite
def plane_states(draw):
    """Randomized planes: several regions, unicode vocab, deep components."""
    regions = sorted(draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True)))
    strategies = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    sessions = [
        _session(index, draw(st.sampled_from(regions)),
                 draw(st.sampled_from(strategies)),
                 draw(_TEXT), draw(st.integers(min_value=0, max_value=6)))
        for index in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    components = []
    for component in range(draw(st.integers(min_value=0, max_value=3))):
        # "Deep union-find chains": up to a few dozen members per
        # component, all travelling as one contiguous alert block.
        size = draw(st.integers(min_value=1, max_value=24))
        members = [
            make_alert(
                occurred_at=1000.0 * component + 10.0 * position,
                strategy_id=draw(st.sampled_from(strategies)),
                region=draw(st.sampled_from(regions)),
                title=draw(_TEXT),
            )
            for position in range(size)
        ]
        components.append((members, members[-1].occurred_at))
    n_members = sum(len(members) for members, _ in components)
    ties = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=max(n_members - 1, 0)),
                 min_size=2, max_size=4, unique=True),
        max_size=2,
    )) if n_members > 1 else []
    storm_regions = draw(st.lists(st.sampled_from(regions), unique=True))
    return _plane_state(
        counters=[
            draw(st.integers(min_value=0, max_value=10**9)) for _ in range(4)
        ],
        since_finalize=draw(st.integers(min_value=0, max_value=10**6)),
        sessions=sessions,
        components=components,
        ties=ties,
        swept={
            region: draw(st.integers(min_value=0, max_value=10**6))
            for region in draw(st.lists(st.sampled_from(regions), unique=True))
        },
        storm=[draw(_storm_records(region)) for region in sorted(storm_regions)],
        storm_swept_at=draw(st.one_of(
            st.none(), st.floats(min_value=0, max_value=1e6, allow_nan=False),
        )),
    )


def _plane(plane_id: int = 0, retain: bool = True):
    from repro.streaming import PlaneConfig, RegionPlane

    return RegionPlane(plane_id, PlaneConfig(
        graph=golden_graph(), blocker=golden_blocker(),
        rulebook=None, aggregation_window=WINDOW,
        correlation_window=WINDOW, correlation_max_hops=4,
        enable_storm_detection=True, retain_artifacts=retain,
        finalize_every=256,
    ))


class TestPlaneStateRoundTrip:
    def test_empty_plane_state(self):
        state = _plane_state()
        assert unpack_plane_state(pack_plane_state(state)) == state

    def test_unicode_titles_and_regions_survive(self):
        session = _session(0, "région-α", "stratégie-β", "queue ∞ saturée", 3)
        state = _plane_state(
            counters=[7, 1, 2, 1], since_finalize=5, sessions=[session],
            components=[([session.representative], 100.0)],
            swept={"région-α": 1}, storm_swept_at=3600.0,
        )
        assert unpack_plane_state(pack_plane_state(state)) == state

    def test_everything_shares_one_string_table(self):
        """Sessions, R3 members, R4 records and retained artifacts of a
        plane intern into one table: a string they all carry is stored
        once."""
        session = _session(0, "region-Z", "s-shared", "title-once", 0)
        aggregate = session.emit()
        cluster = AlertCluster(
            alerts=[session.representative], root_alert=None,
            root_microservice=None, coverage=0.0,
        )
        state = _plane_state(
            sessions=[session], components=[([session.representative], 0.0)],
            swept={"region-Z": 1},
            storm=[RegionStormState(
                region="region-Z", bucket_seconds=60.0, counts=None,
                total=0, head=None, episode_started_at=None,
                episode_peak_rate=0.0, last_seen={"s-shared": 0.0},
                episode_count=0, emerging_count=0, ingested=1,
            )],
            retained_aggregates=[aggregate], retained_clusters=[cluster],
        )
        blob = pack_plane_state(state)
        for value in (b"region-Z", b"s-shared", b"title-once"):
            assert blob.count(struct.pack("<I", len(value)) + value) == 1
        assert unpack_plane_state(blob) == state

    def test_magic_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="magic"):
            unpack_alerts(pack_plane_state(_plane_state()))

    def test_deterministic_bytes(self):
        state = _plane_state(
            counters=[5, 1, 1, 0],
            sessions=[_session(0, "region-A", "s-api", "latency 42 ms", 2)],
        )
        assert pack_plane_state(state) == pack_plane_state(state)

    @settings(max_examples=50, deadline=None)
    @given(state=plane_states())
    def test_fuzz_round_trip_exactly(self, state):
        assert unpack_plane_state(pack_plane_state(state)) == state

    @pytest.mark.parametrize("n_regions", [2, 400])
    def test_captured_state_restores_onto_a_fresh_plane(self, n_regions):
        """End to end: capture a real plane, unpack and adopt the blob
        into a fresh plane (the exact path a restore takes), and drain
        it to the accounting and artifacts of a plane that never
        captured; the capturing plane drains to them too.  The restored
        plane captures the same bytes, for a plane holding two regions
        and one holding hundreds."""
        def drained(plane):
            report = plane.drain(alerts[-1].occurred_at)
            return (
                report.counters(),
                [a.alert_ids for a in report.retained_aggregates],
                [[a.alert_id for a in c.alerts] for c in report.retained_clusters],
            )

        alerts = [
            make_alert(occurred_at=60.0 * index,
                       strategy_id=f"s-{index % 3}",
                       region=f"region-{index % n_regions:03d}",
                       microservice=("m-1", "m-2")[index % 2])
            for index in range(max(80, 2 * n_regions))
        ]
        source = _plane()
        source.process_batch(alerts, in_warmup=0, watermark=alerts[-1].occurred_at)
        blob = source.pack()
        assert source.pack() == blob
        state = unpack_plane_state(blob)
        assert len(state.storm) == n_regions
        target = _plane(plane_id=1)
        target.adopt(state)
        assert target.pack() == blob
        whole = _plane(plane_id=2)
        whole.process_batch(alerts, in_warmup=0, watermark=alerts[-1].occurred_at)
        want = drained(whole)
        assert want[0]["aggregates"] > 0 and want[1]
        assert drained(source) == want
        assert drained(target) == want
