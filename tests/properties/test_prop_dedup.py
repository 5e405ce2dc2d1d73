"""Property test: the key-grouped R2 fold against a naive per-event model.

Whatever the chunking, by every batch boundary ``OnlineAggregator`` has
emitted exactly what the model has, holds the same open sessions, and
keeps one expiry-heap entry per open session.  Without ``keep_ids`` the
same holds with every id list blanked: sessions hold ``[]``, aggregates
``()``, and counts stay exact.
"""

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.core.mitigation.aggregation import AlertAggregator
from repro.streaming.dedup import OnlineAggregator
from tests.streaming.conftest import aggregate_row

WINDOW = 100.0
# Ties, in-window steps and gaps that straddle the window on both sides.
STEPS = [0.0, 0.0, 1.0, 40.0, 99.0, 100.0, 101.0, 250.0]
REGIONS = ["region-A", "region-B"]


class NaiveAggregator:
    """Per event: close every session whose ``last_at + window < t``,
    then extend or open.  Sessions are ``[first, last, ids, best]``."""

    def __init__(self):
        self.open = {}

    def feed(self, alert):
        at = alert.occurred_at
        due = [k for k, s in self.open.items() if s[1] + WINDOW < at]
        closed = [_row(key, self.open.pop(key)) for key in due]
        key = (alert.strategy_id, alert.region)
        session = self.open.get(key)
        if session is None:
            self.open[key] = [at, at, [alert.alert_id], alert]
        else:
            session[0] = min(session[0], at)
            session[1] = max(session[1], at)
            session[2].append(alert.alert_id)
            session[3] = min(
                session[3], alert,
                key=lambda a: (a.severity.value, a.occurred_at),
            )
        return closed


def _row(key, session):
    """A model session in ``aggregate_row``'s shape."""
    first, last, ids, best = session
    return (*key, len(ids), tuple(ids), best.alert_id, first, last + 1e-9)


def _blank(row):
    """An ``aggregate_row`` as an id-less aggregator emits it."""
    return (*row[:3], (), *row[4:])


def _session_row(session):
    return [
        session.first_at, session.last_at, session.count,
        list(session.alert_ids), session.representative.alert_id,
    ]


def _check_state(online, model, keep_ids):
    assert {
        key: _session_row(session)
        for key, session in online._sessions.items()
    } == {
        key: [first, last, len(ids), ids if keep_ids else [], best.alert_id]
        for key, (first, last, ids, best) in model.open.items()
    }
    # One heap entry per open session, keyed at or below its true expiry.
    assert len(online._expiry) == online.open_sessions
    for due, key in online._expiry:
        assert due <= online._sessions[key].last_at + WINDOW


@st.composite
def chunked_streams(draw, max_jitter):
    """``(chunks, migrate_before)``: a stream over six keys in arrival
    order — event time plus a per-alert delay below ``max_jitter`` — cut
    at arbitrary points, and the chunk index to migrate the state at."""
    n = draw(st.integers(min_value=1, max_value=70))
    now = 0.0
    stamped = []
    for index in range(n):
        now += draw(st.sampled_from(STEPS))
        delay = draw(st.integers(0, max_jitter)) if max_jitter else 0
        stamped.append((now + delay, index, Alert(
            alert_id=f"a-{index}",
            strategy_id=draw(st.sampled_from(["s-1", "s-2", "s-3"])),
            strategy_name="s", title="t", description="d",
            severity=draw(st.sampled_from(list(Severity))),
            service="svc", microservice="m",
            region=draw(st.sampled_from(REGIONS)), datacenter="dc",
            channel="metric", occurred_at=now,
        )))
    alerts = [alert for _, _, alert in sorted(stamped, key=lambda s: s[:2])]
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=12)) | {n})
    chunks = [alerts[a:b] for a, b in zip([0, *cuts], cuts)]
    return chunks, draw(st.integers(0, len(chunks)))


def _run(chunks, migrate_before, keep_ids=True):
    """Feed ``chunks``, checking every boundary; returns all aggregates
    (the model's rows, ids blanked unless ``keep_ids``)."""
    online, model = OnlineAggregator(WINDOW, keep_ids), NaiveAggregator()
    shape = (lambda row: row) if keep_ids else _blank
    got, want = [], []
    for index, chunk in enumerate(chunks):
        if index == migrate_before:
            # Plane migration: region by region into a fresh aggregator.
            target = OnlineAggregator(WINDOW, keep_ids)
            for region in REGIONS:
                target.adopt(online.export_region(region))
                assert len(online._expiry) == online.open_sessions
            online = target
            _check_state(online, model, keep_ids)
        got.extend(aggregate_row(s.emit()) for s in online.ingest_batch(chunk))
        for alert in chunk:
            want.extend(map(shape, model.feed(alert)))
        assert sorted(got) == sorted(want)
        _check_state(online, model, keep_ids)
    got.extend(aggregate_row(s.emit()) for s in online.drain())
    want.extend(shape(_row(key, session)) for key, session in model.open.items())
    assert sorted(got) == sorted(want)
    assert online.open_sessions == 0 and online._expiry == []
    return got


class TestGroupedFold:
    @given(chunked_streams(max_jitter=0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_in_order_stream_matches_model_and_batch(self, case, keep_ids):
        chunks, migrate_before = case
        got = _run(chunks, migrate_before, keep_ids)
        alerts = [alert for chunk in chunks for alert in chunk]
        batch = map(aggregate_row, AlertAggregator(WINDOW).aggregate(alerts))
        assert sorted(got) == sorted(batch if keep_ids else map(_blank, batch))

    @given(chunked_streams(max_jitter=60), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_jittered_stream_matches_model(self, case, keep_ids):
        _run(*case, keep_ids)
