"""Online aggregation: batch parity, eviction, and bounded state."""

from repro.alerting.alert import Severity
from repro.core.mitigation.aggregation import AlertAggregator
from repro.streaming.dedup import OnlineAggregator
from tests.streaming.conftest import aggregate_row, make_alert


def _mixed_stream():
    """Interleaved strategies/regions with window-edge and burst shapes."""
    alerts = []
    for i in range(40):
        alerts.append(make_alert(i * 60.0, strategy_id="s-burst", region="region-A"))
    # Exactly-at-window gap must extend the session (<=, as in batch).
    alerts.append(make_alert(0.0, strategy_id="s-edge", region="region-A"))
    alerts.append(make_alert(900.0, strategy_id="s-edge", region="region-A"))
    # Just-past-window gap must split.
    alerts.append(make_alert(0.0, strategy_id="s-split", region="region-A"))
    alerts.append(make_alert(900.1, strategy_id="s-split", region="region-A"))
    # Same strategy, different region: independent sessions.
    alerts.append(make_alert(100.0, strategy_id="s-burst", region="region-B"))
    # Severity tie-breaking for the representative.
    alerts.append(make_alert(50.0, strategy_id="s-sev", severity=Severity.WARNING))
    alerts.append(make_alert(60.0, strategy_id="s-sev", severity=Severity.CRITICAL))
    alerts.append(make_alert(70.0, strategy_id="s-sev", severity=Severity.CRITICAL))
    alerts.sort(key=lambda a: a.occurred_at)
    return alerts


class TestBatchParity:
    def test_sessions_match_batch_aggregator(self):
        alerts = _mixed_stream()
        batch = AlertAggregator(900.0).aggregate(alerts)
        online = OnlineAggregator(900.0)
        emitted = []
        for alert in alerts:
            emitted.extend(s.emit() for s in online.ingest(alert))
        emitted.extend(s.emit() for s in online.drain())
        assert sorted(map(aggregate_row, emitted)) == sorted(map(aggregate_row, batch))

    def test_representative_prefers_severity_then_time(self):
        online = OnlineAggregator(900.0)
        emitted = []
        for alert in _mixed_stream():
            emitted.extend(s.emit() for s in online.ingest(alert))
        emitted.extend(s.emit() for s in online.drain())
        sev = next(a for a in emitted if a.strategy_id == "s-sev")
        assert sev.severity is Severity.CRITICAL
        assert sev.representative.occurred_at == 60.0  # earliest CRITICAL


class TestEviction:
    def test_idle_sessions_close_when_watermark_passes(self):
        online = OnlineAggregator(900.0)
        online.ingest(make_alert(0.0, strategy_id="s-old"))
        # An unrelated event far later closes the idle session.
        emitted = online.ingest(make_alert(5000.0, strategy_id="s-new"))
        assert [a.strategy_id for a in emitted] == ["s-old"]
        assert online.open_sessions == 1  # only s-new remains

    def test_exact_window_gap_does_not_evict(self):
        online = OnlineAggregator(900.0)
        online.ingest(make_alert(0.0, strategy_id="s-a"))
        emitted = online.ingest(make_alert(900.0, strategy_id="s-b"))
        assert emitted == []  # s-a could still be extended at t=900
        emitted = online.ingest(make_alert(900.0, strategy_id="s-a"))
        assert emitted == []  # and indeed is
        assert online.open_sessions == 2

    def test_open_state_stays_bounded_on_long_stream(self):
        online = OnlineAggregator(900.0)
        for i in range(5000):
            online.ingest(make_alert(i * 30.0, strategy_id=f"s-{i % 10}"))
        # 10 keys all active within the window: exactly 10 open sessions.
        assert online.open_sessions == 10

    def test_open_representatives_track_open_sessions(self):
        online = OnlineAggregator(900.0)
        assert online.open_representatives() == []
        first = make_alert(100.0, strategy_id="s-a")
        online.ingest(first)
        online.ingest(make_alert(200.0, strategy_id="s-b"))
        online.ingest(make_alert(300.0, strategy_id="s-a"))  # not more severe
        assert sorted(a.occurred_at for a in online.open_representatives()) == [100.0, 200.0]
        # Only a more severe, hence later, alert moves a representative.
        online.ingest(make_alert(400.0, strategy_id="s-a", severity=Severity.CRITICAL))
        assert first not in online.open_representatives()
        assert sorted(a.occurred_at for a in online.open_representatives()) == [200.0, 400.0]
        online.drain()
        assert online.open_representatives() == []


class TestBatchIngestion:
    def test_ingest_batch_matches_per_event_path(self):
        alerts = _mixed_stream()
        per_event = OnlineAggregator(900.0)
        a = []
        for alert in alerts:
            a.extend(s.emit() for s in per_event.ingest(alert))
        a.extend(s.emit() for s in per_event.drain())
        batched = OnlineAggregator(900.0)
        b = [s.emit() for s in batched.ingest_batch(alerts)]
        b.extend(s.emit() for s in batched.drain())
        assert sorted(map(aggregate_row, a)) == sorted(map(aggregate_row, b))

    def test_ingest_batch_splits_runs_on_window_gaps(self):
        online = OnlineAggregator(900.0)
        run = [
            make_alert(0.0, strategy_id="s-run"),
            make_alert(100.0, strategy_id="s-run"),
            make_alert(1500.0, strategy_id="s-run"),  # gap > window: new session
        ]
        emitted = online.ingest_batch(run)
        assert len(emitted) == 1
        assert emitted[0].count == 2
        assert online.open_sessions == 1

    def test_ingest_batch_arbitrary_chunking_is_equivalent(self):
        alerts = _mixed_stream()
        whole = OnlineAggregator(900.0)
        a = [s.emit() for s in whole.ingest_batch(alerts)]
        a.extend(s.emit() for s in whole.drain())
        chunked = OnlineAggregator(900.0)
        b = []
        for start in range(0, len(alerts), 7):
            b.extend(s.emit() for s in chunked.ingest_batch(alerts[start:start + 7]))
        b.extend(s.emit() for s in chunked.drain())
        assert sorted(map(aggregate_row, a)) == sorted(map(aggregate_row, b))


class _CountingDict(dict):
    """A ``_sessions`` table that counts its lookups."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


class TestPinnedWork:
    def test_batch_probes_sessions_once_per_key_not_per_alert(self):
        online = OnlineAggregator(900.0)
        online._sessions = table = _CountingDict()
        # 300 alerts, 10 strategies strictly interleaved: no two
        # consecutive alerts share a key.
        first = [make_alert(float(i), strategy_id=f"s-{i % 10}") for i in range(300)]
        assert online.ingest_batch(first) == []
        assert table.probes == 10
        # Half the keys return past the window: one probe each, the close
        # happens in the fold.  The sweep then meets every key's entry,
        # all keyed at the session's first alert: the returning half is
        # re-keyed (5), the idle half re-keyed and then closed (2 x 5).
        table.probes = 0
        second = [
            make_alert(2000.0 + i, strategy_id=f"s-{i % 5}") for i in range(150)
        ]
        closed = online.ingest_batch(second)
        assert len(closed) == 10
        assert table.probes == 5 + 5 + 2 * 5

    def test_expiry_heap_holds_one_entry_per_open_session(self):
        online = OnlineAggregator(900.0)
        for i in range(10_000):
            online.ingest(make_alert(i * 30.0, strategy_id="s-hot"))
            assert len(online._expiry) == online.open_sessions == 1
        # A split reuses the key's entry rather than pushing a second.
        online.ingest_batch([
            make_alert(400_000.0, strategy_id="s-hot"),
            make_alert(500_000.0, strategy_id="s-hot"),
        ])
        assert len(online._expiry) == online.open_sessions == 1

    def test_export_region_leaves_no_tombstones(self):
        online = OnlineAggregator(900.0)
        online.ingest_batch([
            make_alert(float(i), strategy_id=f"s-{i}", region=f"region-{'AB'[i % 2]}")
            for i in range(8)
        ])
        moved = online.export_region("region-A")
        assert len(moved) == 4
        assert len(online._expiry) == online.open_sessions == 4
        assert online.ingest(make_alert(5000.0, strategy_id="s-late")) != []
        assert len(online._expiry) == online.open_sessions == 1


class TestSessionMigration:
    def test_export_then_adopt_round_trips(self):
        source = OnlineAggregator(900.0)
        source.ingest(make_alert(100.0, strategy_id="s-a"))
        source.ingest(make_alert(200.0, strategy_id="s-b"))
        sessions = source.export_region("region-A")
        assert source.open_sessions == 0
        assert [s.strategy_id for s in sessions] == ["s-a", "s-b"]
        target = OnlineAggregator(900.0)
        target.adopt(sessions)
        assert target.open_sessions == 2
        assert sorted(a.occurred_at for a in target.open_representatives()) == [100.0, 200.0]
        # The migrated session keeps extending as if nothing happened.
        emitted = target.ingest(make_alert(500.0, strategy_id="s-a"))
        assert emitted == []
        final = target.drain()
        assert {(a.strategy_id, a.count) for a in final} == {("s-a", 2), ("s-b", 1)}

    def test_adopt_into_an_id_less_aggregator_drops_ids_keeps_count(self):
        source = OnlineAggregator(900.0)
        source.ingest_batch([make_alert(t, strategy_id="s-a") for t in (100.0, 200.0)])
        [session] = source.export_region("region-A")
        assert len(session.alert_ids) == session.count == 2
        target = OnlineAggregator(900.0, keep_ids=False)
        target.adopt([session])
        assert session.alert_ids == [] and session.count == 2
        target.ingest(make_alert(300.0, strategy_id="s-a"))
        [aggregate] = [s.emit() for s in target.drain()]
        assert aggregate.alert_ids == () and aggregate.count == 3

    def test_adopt_rejects_duplicate_keys(self):
        import pytest

        from repro.common.errors import ValidationError

        source = OnlineAggregator(900.0)
        source.ingest(make_alert(100.0, strategy_id="s-a"))
        sessions = source.export_region("region-A")
        target = OnlineAggregator(900.0)
        target.ingest(make_alert(50.0, strategy_id="s-a"))
        with pytest.raises(ValidationError):
            target.adopt(sessions)
