"""StreamingDetectorSuite: batch folding, verdicts, checkpoint exactness.

The differential harness proves online-vs-batch parity end to end; these
tests pin the suite's own contracts — deterministic folding of flush
batches, the A2 evidence gates, storm-hour exclusion, and bit-exact
state round trips through the gateway's checkpoint path.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import pytest

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.errors import ValidationError
from repro.common.timeutil import HOUR
from repro.core.antipatterns.base import DetectorThresholds
from repro.streaming import AlertGateway, StreamingDetectorSuite
from repro.streaming.detectors import STORM_HOUR_THRESHOLD
from tests.streaming.conftest import make_alert

_ids = itertools.count()


def _alert(sid, at, region="region-A",
           title="database-api-01: failed to commit changes",
           description=None, severity=Severity.MINOR, service="svc",
           alert_id=None, duration=900.0, manual=False, transient=False):
    """One cleared alert: auto-cleared inside the A4 cut-off when
    ``transient``, else steady (cleared ``duration`` later, by hand when
    ``manual``)."""
    alert = Alert(
        alert_id=alert_id or f"{sid}-{next(_ids):06d}",
        strategy_id=sid,
        strategy_name=f"{sid}-name",
        title=title,
        description=description if description is not None else f"details for {sid}",
        severity=severity,
        service=service,
        microservice=f"{service}-micro",
        region=region,
        datacenter=f"{region}-dc1",
        channel="metric",
        occurred_at=at,
    )
    if transient:
        alert.clear(at + 60.0, manual=False)
    else:
        alert.clear(at + duration, manual=manual)
    return alert


def _bucket(sid, region="region-A", bucket=0, count=4, transient=0,
            manual=0, duration=900.0, times=None, **meta):
    """``count`` alerts of one (strategy, region, hour) stat row: the
    first ``transient`` transient, the next ``manual`` cleared by hand,
    the rest auto-cleared ``duration`` after they fire."""
    if times is None:
        times = [bucket * HOUR + 900.0 * i for i in range(count)]
    return [
        _alert(sid, at, region=region, duration=duration,
               transient=i < transient,
               manual=transient <= i < transient + manual, **meta)
        for i, at in enumerate(times)
    ]


class TestFolding:
    def test_repeat_window_below_one_hour_is_rejected(self):
        with pytest.raises(ValidationError):
            StreamingDetectorSuite(DetectorThresholds(repeat_window=HOUR / 2))

    def test_first_seen_metadata_wins_across_digests(self):
        suite = StreamingDetectorSuite()
        suite.observe([[
            _alert("s-1", 100.0, title="late title", alert_id="alert-b"),
            _alert("s-1", 200.0, title="late title"),
        ]])
        suite.observe([[
            _alert("s-1", 50.0, title="early title", alert_id="alert-a"),
            _alert("s-1", 150.0, title="early title"),
        ]])
        [[sid, first_at, first_id, title, *_rest, last_at]] = \
            suite.export_state()["catalog"]
        assert (sid, first_at, first_id, title) == \
            ("s-1", 50.0, "alert-a", "early title")
        assert last_at == 200.0

    def test_fold_order_does_not_matter(self):
        # Both flushes open at t=0, so the sketch's windows start at the
        # same time either way, and the last fold's watermark closes
        # every window: the sketch state must match too.  The two
        # first-seen candidates tie on time, so the alert id decides.
        flushes = [
            [[_alert("s-1", 0.0, region="region-B", alert_id="alert-b")]
             + _bucket("s-1", bucket=0)],
            [[_alert("s-1", 0.0, region="region-C", alert_id="alert-a")]
             + _bucket("s-1", bucket=0) + _bucket("s-1", bucket=3)],
        ]
        forward, backward = StreamingDetectorSuite(), StreamingDetectorSuite()
        for suite, order in ((forward, flushes), (backward, flushes[::-1])):
            suite.observe(order[0])
            suite.observe(order[1], watermark=10 * HOUR)
        assert forward.export_state() == backward.export_state()

    def test_bucket_times_are_capped_at_the_repeat_count(self):
        cap = DetectorThresholds().repeat_window_count
        suite = StreamingDetectorSuite()
        first = tuple(float(i) for i in range(5))
        second = tuple(100.0 + i for i in range(6))
        suite.observe([_bucket("s-1", count=5, times=first)])
        suite.observe([_bucket("s-1", count=6, times=second)])
        [[_sid, _region, _bucket_id, count, *_mid, times]] = \
            suite.export_state()["stats"]
        assert count == 11
        assert len(times) == cap
        assert times == list(first + second)[:cap]

    def test_stats_export_equals_a_flat_sorted_reference(self):
        # Flushes whose alerts interleave sids, regions and buckets out
        # of order and revisit keys, split into per-region batches the
        # way planes hand them over; the nested fold must export the
        # rows a flat (sid, region, bucket) map would, in sorted order,
        # with each flush's partial sums merged once.
        thresholds = DetectorThresholds()
        cap = thresholds.repeat_window_count
        regions = ("region-B", "region-A", "region-C")
        flushes = []
        for flush in range(5):
            alerts = []
            for index in range(12):
                count = 1 + (index + flush) % 4
                alerts += _bucket(
                    f"s-{(index * 7 + flush) % 4}",
                    region=regions[index % 3],
                    bucket=(index * 5 + flush * 3) % 9, count=count,
                    transient=index % 2, manual=flush % 2,
                    duration=600.0 + flush + index / 3,
                )
            flushes.append([
                [alert for alert in alerts if alert.region == region]
                for region in sorted(regions)
            ])
        reference: dict[tuple, list] = {}
        for batches in flushes:
            partial: dict[tuple, list] = {}
            for alert in itertools.chain.from_iterable(batches):
                at = alert.occurred_at
                row = partial.setdefault(
                    (alert.strategy_id, alert.region, int(at // HOUR)),
                    [0, 0, 0, 0, 0.0, []],
                )
                row[0] += 1
                if alert.is_transient(thresholds.intermittent_threshold):
                    row[1] += 1
                else:
                    row[2] += alert.state is AlertState.CLEARED_MANUAL
                    row[3] += 1
                    row[4] += alert.cleared_at - at
                row[5].append(at)
            for key, part in partial.items():
                row = reference.setdefault(key, [0, 0, 0, 0, 0.0, []])
                for slot in range(5):
                    row[slot] += part[slot]
                row[5] = (row[5] + part[5])[:cap]
        suite = StreamingDetectorSuite()
        for batches in flushes:
            suite.observe(batches)
        assert suite.export_state()["stats"] == [
            [*key, *row] for key, row in sorted(reference.items())
        ]
        assert suite.summary()["stat_rows"] == len(reference)


def _severity_fixture():
    """3 low-impact WARNING + 3 high-impact CRITICAL + one WARNING
    misfit carrying CRITICAL-class impact."""
    alerts = []
    specs = (
        [(f"s-low-{i}", Severity.WARNING, 0, 900.0) for i in range(3)]
        + [(f"s-high-{i}", Severity.CRITICAL, 4, 7200.0) for i in range(3)]
        + [("s-misfit", Severity.WARNING, 4, 7200.0)]
    )
    for sid, severity, manual, duration in specs:
        # Three sparse hour buckets: 12 steady alerts, never more than
        # 4 events inside any repeat window (buckets 10h apart).
        for bucket in (0, 10, 20):
            alerts += _bucket(
                sid, bucket=bucket, count=4, manual=manual,
                duration=duration, severity=severity,
            )
    return alerts


def _resummed_storm_hours(suite):
    """Storm hours re-summed from scratch over every stat row."""
    totals: dict[tuple[str, int], int] = {}
    for rows in suite._stats.values():
        for key, row in rows.items():
            totals[key] = totals.get(key, 0) + row[0]
    return {key for key, count in totals.items() if count > STORM_HOUR_THRESHOLD}


class TestSeverityFindings:
    def test_misfit_is_the_only_a2_finding(self):
        suite = StreamingDetectorSuite()
        suite.observe([_severity_fixture()])
        findings = suite.findings()["A2"]
        assert [f.subject for f in findings] == ["s-misfit"]
        assert "understated" in findings[0].evidence

    def test_storm_hours_suppress_their_evidence(self):
        # Flood-level volume in (bucket 0, region-A) drops that hour for
        # every strategy: each falls to 8 steady alerts, below the
        # severity_min_alerts gate, so no A2 verdicts remain — the same
        # flood exclusion the batch detector applies.
        alerts = _severity_fixture() + _bucket(
            "s-flood", bucket=0, count=150, severity=Severity.WARNING,
            times=[20.0 * i for i in range(150)],
        )
        suite = StreamingDetectorSuite()
        suite.observe([alerts])
        assert suite.findings()["A2"] == []

    def test_storm_hour_totals_survive_a_restore_inside_the_hour(self):
        # (region-A, bucket 0) holds the fixture's 28 alerts plus 70
        # flood alerts before the restore and 80 after: a storm only
        # once both halves are summed.  (region-B, bucket 5) is a storm
        # before the restore already.
        flood = _bucket("s-flood", bucket=0, count=150,
                        severity=Severity.WARNING,
                        times=[20.0 * i for i in range(150)])
        before = _severity_fixture() + flood[:70] + _bucket(
            "s-flood-b", region="region-B", bucket=5, count=120,
            times=[5 * HOUR + 20.0 * i for i in range(120)],
        )
        straight = StreamingDetectorSuite()
        for batch in (before, flood[70:]):
            straight.observe([batch])
        first = StreamingDetectorSuite()
        first.observe([before])
        assert first._storm_hours() == {("region-B", 5)}
        assert [f.subject for f in first.findings()["A2"]] == ["s-misfit"]
        resumed = StreamingDetectorSuite()
        resumed.restore_state(first.export_state())
        assert resumed._storm_hours() == _resummed_storm_hours(resumed)
        resumed.observe([flood[70:]])
        assert resumed._storm_hours() == _resummed_storm_hours(resumed) \
            == {("region-A", 0), ("region-B", 5)}
        assert resumed.findings() == straight.findings()
        assert resumed.findings()["A2"] == []
        assert resumed.export_state() == straight.export_state()

    def test_repeat_dominated_strategies_are_gated(self):
        # Hand the misfit one full bucket: cap-many events inside an
        # hour is proof of a repeat-sized run, which gates it out.
        cap = DetectorThresholds().repeat_window_count
        alerts = _severity_fixture() + _bucket(
            "s-misfit", bucket=30, count=cap, duration=7200.0,
            severity=Severity.WARNING,
            times=[30 * HOUR + float(i) for i in range(cap)],
        )
        suite = StreamingDetectorSuite()
        suite.observe([alerts])
        assert suite.findings()["A2"] == []


class TestTitleAndDefinitionFindings:
    def test_vague_title_is_flagged(self):
        suite = StreamingDetectorSuite()
        suite.observe([[
            _alert("s-vague", 0.0, title="Instance x is abnormal",
                   description="something seems off"),
            _alert("s-clear", 0.0),
        ]])
        findings = suite.findings()["A1"]
        assert [f.subject for f in findings] == ["s-vague"]
        assert "clarity" in findings[0].evidence

    def test_stale_and_duplicate_definitions_are_flagged(self):
        thresholds = DetectorThresholds()
        later = 2 * thresholds.stale_after
        suite = StreamingDetectorSuite()
        suite.observe([[
            _alert("s-stale", 0.0, description="stale one"),
            _alert("s-dup-1", later, title="disk full",
                   description="same text"),
            _alert("s-dup-2", later, title="disk full",
                   description="same text"),
        ]])
        findings = suite.findings()["A3"]
        kinds = {(f.subject, f.details["kind"]) for f in findings}
        assert kinds == {("s-stale", "stale"),
                         ("s-dup-1", "duplicate"), ("s-dup-2", "duplicate")}

    def test_summary_counts_match_findings(self):
        suite = StreamingDetectorSuite()
        suite.observe([[
            _alert("s-vague", 0.0, title="Instance x is abnormal",
                   description="hmm"),
        ]])
        summary = suite.summary()
        assert summary["strategies"] == 1
        assert summary["findings"] == {
            pattern: len(items) for pattern, items in suite.findings().items()
        }


class TestStateRoundTrip:
    def test_export_restore_is_bit_exact(self):
        # The watermark closes the first 15 sketch windows and leaves
        # the rest buffered, so history, flags and buffer all travel.
        suite = StreamingDetectorSuite()
        suite.observe([_severity_fixture()], watermark=15 * HOUR)
        clone = StreamingDetectorSuite()
        clone.restore_state(suite.export_state())
        assert clone.export_state() == suite.export_state()
        assert clone.summary() == suite.summary()

    def test_a_refused_restore_leaves_the_suite_unchanged(self):
        source = StreamingDetectorSuite()
        source.observe([_severity_fixture()], watermark=15 * HOUR)
        state = source.export_state()
        assert len(state["catalog"]) == 7
        state["sketch"]["history"].append(math.nan)
        suite = StreamingDetectorSuite()
        suite.observe([[_alert("s-only", 0.0)]], watermark=HOUR)
        before = json.dumps(suite.export_state(), sort_keys=True)
        with pytest.raises(ValidationError):
            suite.restore_state(state)
        assert json.dumps(suite.export_state(), sort_keys=True) == before


class TestGatewayIntegration:
    @pytest.fixture(scope="class")
    def storm_alerts(self, storm_trace):
        trace, topology = storm_trace
        return list(trace.iter_ordered()), topology

    def _gateway(self, topology, **kwargs):
        kwargs.setdefault("flush_size", 64)
        return AlertGateway(topology.graph, detect_antipatterns=True, **kwargs)

    def test_verdicts_are_plane_count_invariant(self, storm_alerts):
        alerts, topology = storm_alerts
        states, detections = [], []
        for n_planes in (1, 4):
            gateway = self._gateway(topology, n_planes=n_planes)
            gateway.ingest_batch(alerts)
            stats = gateway.drain()
            states.append(gateway.detectors.export_state())
            detections.append(stats.detection)
            gateway.close()
        assert states[0] == states[1]
        assert detections[0] == detections[1]
        assert detections[0]["strategies"] > 0

    def test_checkpoint_restore_continue_matches_straight_run(self, storm_alerts):
        alerts, topology = storm_alerts
        straight = self._gateway(topology, n_planes=2)
        straight.ingest_batch(alerts)
        reference = straight.drain().detection
        reference_state = straight.detectors.export_state()
        straight.close()

        cut = (len(alerts) // 2 // 64) * 64  # land on a flush barrier
        first = self._gateway(topology, n_planes=2)
        first.ingest_batch(alerts[:cut])
        state = first.checkpoint_state()
        config = first.checkpoint_config()
        first.close()

        revived = self._gateway(topology, n_planes=2)
        assert revived.checkpoint_config() == config
        revived.adopt_checkpoint(state)
        revived.ingest_batch(alerts[cut:])
        stats = revived.drain()
        assert revived.detectors.export_state() == reference_state
        assert stats.detection == reference
        revived.close()

    def test_far_future_event_time_does_not_stall_detection(self, topology):
        gateway = self._gateway(topology)
        began = time.perf_counter()
        gateway.ingest_batch([make_alert(0.0), make_alert(1e18)])
        gateway.flush()
        stats = gateway.drain()
        assert time.perf_counter() - began < 1.0
        assert stats.detection["strategies"] == 1
        gateway.close()

    def test_adopting_detector_state_without_detectors_is_refused(
            self, storm_alerts):
        alerts, topology = storm_alerts
        source = self._gateway(topology, n_planes=1)
        source.ingest_batch(alerts[:128])
        state = source.checkpoint_state()
        source.close()
        plain = AlertGateway(topology.graph, flush_size=64)
        with pytest.raises(ValidationError):
            plain.adopt_checkpoint(state)
        plain.close()
