"""StreamingDetectorSuite: batch folding, verdicts, checkpoint exactness.

The differential harness proves online-vs-batch parity end to end; these
tests pin the suite's own contracts — deterministic folding of flush
batches, the final-hour A2 fold and its late-alert rule, the A2
evidence gates, storm-hour exclusion, and bit-exact state round trips
through the gateway's checkpoint path.
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
            suite.export_state()["open"]
        assert count == 11
        assert len(times) == cap
        assert times == list(first + second)[:cap]

    def test_open_rows_and_folded_totals_equal_a_flat_reference(self):
        # Flushes whose alerts interleave sids, regions and buckets out
        # of order and revisit keys, split into per-region batches the
        # way planes hand them over.  Without a watermark nothing folds,
        # so the open rows must export the rows a flat (sid, region,
        # bucket) map summed in stream order would, in (bucket, sid,
        # region) order; a watermark past the last hour then folds every
        # row below it into per-(sid, region) totals, added in hour
        # order, and keeps the last hour open.
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
        for alert in itertools.chain.from_iterable(
                itertools.chain.from_iterable(flushes)):
            at = alert.occurred_at
            row = reference.setdefault(
                (int(at // HOUR), alert.strategy_id, alert.region),
                [0, 0, 0, 0, 0.0, []],
            )
            row[0] += 1
            if alert.is_transient(thresholds.intermittent_threshold):
                row[1] += 1
            else:
                row[2] += alert.state is AlertState.CLEARED_MANUAL
                row[3] += 1
                row[4] += alert.cleared_at - at
            if len(row[5]) < cap:
                row[5].append(at)
        suite = StreamingDetectorSuite()
        for batches in flushes:
            suite.observe(batches)
        assert suite.export_state()["open"] == [
            [sid, region, bucket, *row]
            for (bucket, sid, region), row in sorted(reference.items())
        ]
        summary = suite.summary()
        assert (summary["open_rows"], summary["folded_keys"]) == \
            (len(reference), 0)
        last = max(bucket for bucket, _sid, _region in reference)
        totals: dict[tuple, list] = {}
        for (bucket, sid, region), row in sorted(reference.items()):
            if bucket < last:
                held = totals.setdefault((sid, region), [0, 0, 0, 0, 0.0])
                for slot in range(5):
                    held[slot] += row[slot]
        suite.observe([], watermark=(last + 1) * HOUR)
        state = suite.export_state()
        assert state["final_hour"] == last
        assert state["open"] == [
            [sid, region, bucket, *row]
            for (bucket, sid, region), row in sorted(reference.items())
            if bucket == last
        ]
        assert [row[:-1] for row in state["folded"]] == [
            [*key, *held] for key, held in sorted(totals.items())
        ]
        assert suite.summary()["folded_keys"] == len(totals)


class TestFinalHourFold:
    def test_an_hour_folds_once_a_later_hour_below_the_watermark_holds_rows(self):
        suite = StreamingDetectorSuite()
        suite.observe([_bucket("s-1", bucket=0) + _bucket("s-1", bucket=2)],
                      watermark=2 * HOUR + 1.0)
        # Hour 2 is the watermark's own: nothing below it holds rows
        # after hour 0, so hour 0 stays open.
        assert suite.export_state()["final_hour"] == 0
        suite.observe([_bucket("s-1", bucket=3)], watermark=3 * HOUR + 1.0)
        state = suite.export_state()
        assert state["final_hour"] == 2
        assert [row[2] for row in state["open"]] == [2, 3]
        assert state["folded"] == \
            [["s-1", "region-A", 4, 0, 0, 4, 3600.0, [0.0, 900.0, 1800.0, 2700.0]]]
        # A watermark further on folds nothing until a later hour holds
        # rows below it.
        suite.observe([], watermark=9 * HOUR)
        assert suite.export_state()["final_hour"] == 3
        suite.observe([], watermark=10 * HOUR)
        assert suite.export_state()["final_hour"] == 3

    def test_a_storm_hour_is_dropped_at_the_fold(self):
        suite = StreamingDetectorSuite()
        flood = _bucket("s-flood", count=STORM_HOUR_THRESHOLD + 1,
                        times=[10.0 * i for i in range(STORM_HOUR_THRESHOLD + 1)])
        suite.observe([_bucket("s-1", bucket=0) + flood
                       + _bucket("s-1", region="region-B", bucket=0)])
        _fold_below(suite, 1)
        state = suite.export_state()
        assert [row[2] for row in state["open"]] == [1]
        assert [row[:3] for row in state["folded"]] == [["s-1", "region-B", 4]]

    def test_a_run_across_hours_sets_the_sticky_flag(self):
        # Four alerts late in hour 0 and four early in hour 1: no hour
        # holds the cap, but the eight fit inside one repeat window.
        cap = DetectorThresholds().repeat_window_count
        half = cap // 2
        times = ([HOUR - 100.0 * (half - i) for i in range(half)]
                 + [HOUR + 100.0 * i for i in range(cap - half)])
        suite = StreamingDetectorSuite()
        suite.observe([_bucket("s-1", count=cap, times=times)])
        _fold_below(suite, 1)
        assert suite.export_state()["repeating"] == []
        assert _retained(suite) == [["s-1", "region-A", times[:half]]]
        _fold_below(suite, 2)
        assert suite.export_state()["repeating"] == ["s-1"]
        assert _retained(suite) == []

    def test_retained_times_stop_at_the_repeat_window(self):
        times = [0.0, 2 * HOUR - 1.0, 3 * HOUR + 10.0]
        suite = StreamingDetectorSuite()
        suite.observe([[_alert("s-1", at) for at in times[:2]]])
        _fold_below(suite, 2)
        # The next hour starts at 2h, within the 3h window of both times.
        assert _retained(suite) == [["s-1", "region-A", times[:2]]]
        suite.observe([[_alert("s-1", times[2])]])
        _fold_below(suite, 4)
        # Folding hour 3 prunes against 4h: 4h - 0.0 > 3h drops the
        # first time, 4h - (2h - 1) <= 3h keeps the second.
        assert _retained(suite) == [["s-1", "region-A", times[1:]]]
        # Times wait for their key's next row: folding it drops every
        # time that row's next hour could not pair with.
        _fold_below(suite, 7)
        assert _retained(suite) == [["s-1", "region-A", times[1:]]]
        suite.observe([[_alert("s-1", 7 * HOUR + 5.0)]])
        _fold_below(suite, 8)
        assert _retained(suite) == [["s-1", "region-A", [7 * HOUR + 5.0]]]

    def test_a_late_alert_skips_a2_but_reaches_the_catalog_and_sketch(self):
        suite = StreamingDetectorSuite()
        suite.observe([_bucket("s-1", bucket=0) + _bucket("s-1", bucket=2)
                       + _bucket("s-1", bucket=3)],
                      watermark=3 * HOUR + 1.0)
        before = suite.export_state()
        assert before["final_hour"] == 2
        late = _alert("s-late", HOUR + 5.0, title="late title")
        # An hour behind the watermark, but in an open hour: counted.
        behind = _alert("s-1", 2 * HOUR + 5.0)
        on_time = _alert("s-1", 3 * HOUR + 7.0)
        suite.observe([[late, behind, on_time]], watermark=3 * HOUR + 7.0)
        state = suite.export_state()
        assert suite.summary()["a2_late"] == 1
        assert state["folded"] == before["folded"]
        assert [row[:4] for row in state["open"]] == \
            [["s-1", "region-A", 2, 5], ["s-1", "region-A", 3, 5]]
        assert "s-late" in {row[0] for row in state["catalog"]}
        assert "s-late" in {row[1] for row in state["sketch"]["buffer"]}
        # The late alert's hour stays final, whatever the next barrier.
        suite.observe([[_alert("s-1", HOUR)]])
        assert suite.summary()["a2_late"] == 2

    def test_a_lone_far_future_alert_does_not_finalise_the_present(self):
        # One alert at 1e12 pins the watermark for the rest of the
        # stream; the fold keeps following the hours that hold rows, so
        # A2 still counts every later alert and equals a suite that
        # never folds.
        alerts = sorted(_severity_fixture(), key=lambda alert: alert.occurred_at)
        alerts.insert(5, _alert("s-far", 1e12))
        suite, unfolded = StreamingDetectorSuite(), StreamingDetectorSuite()
        watermark = -math.inf
        for start in range(0, len(alerts), 7):
            flush = alerts[start:start + 7]
            watermark = max(watermark, *(alert.occurred_at for alert in flush))
            suite.observe([flush], watermark=watermark)
        unfolded.observe([alerts])
        state = suite.export_state()
        assert state["a2_late"] == 0
        assert state["final_hour"] == 20
        assert [row[2] for row in state["open"]][-1] == int(1e12 // HOUR)
        assert suite._proxies() == unfolded._proxies()
        assert suite.findings() == unfolded.findings()
        assert [f.subject for f in suite.findings()["A2"]] == ["s-misfit"]


def _fold_below(suite, hour):
    """Fold every open hour below ``hour``: one alert of an unrelated
    strategy makes ``hour`` the newest open hour under the watermark's."""
    suite.observe([[_alert("s-clock", hour * HOUR, region="region-Z")]],
                  watermark=(hour + 1) * HOUR)


def _retained(suite):
    """``[sid, region, times]`` of every folded key retaining times,
    ``_fold_below``'s clock strategy aside."""
    return [row[:2] + row[-1:] for row in suite.export_state()["folded"]
            if row[-1] and row[0] != "s-clock"]


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


def _open_storm_hours(suite):
    """Storm (region, hour) keys among the suite's open rows."""
    totals: dict[tuple[str, int], int] = {}
    for _sid, region, bucket, count, *_rest in suite.export_state()["open"]:
        totals[region, bucket] = totals.get((region, bucket), 0) + count
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
        assert _open_storm_hours(first) == {("region-B", 5)}
        assert [f.subject for f in first.findings()["A2"]] == ["s-misfit"]
        resumed = StreamingDetectorSuite()
        resumed.restore_state(first.export_state())
        resumed.observe([flood[70:]])
        assert _open_storm_hours(resumed) == {("region-A", 0), ("region-B", 5)}
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

    @pytest.mark.parametrize("corrupt", [
        lambda state: state.pop("final_hour"),
        lambda state: state["catalog"][0].pop(),
        lambda state: state["catalog"][0].__setitem__(5, 9),
        lambda state: state["open"][0].__setitem__(3, "many"),
        lambda state: state["open"][0].__setitem__(4, -1),
        lambda state: state["open"][0][-1].append(math.inf),
        lambda state: state["open"].append(["s-ghost", "region-A", 30, 1, 0,
                                            0, 0, 0.0, [0.0]]),
        lambda state: state["open"].append(["s-low-0", "region-A", 3, 1, 0,
                                            0, 0, 0.0, [3 * HOUR]]),
        lambda state: state["folded"][0].__setitem__(-1, math.nan),
        lambda state: state["folded"][0].pop(),
        lambda state: state["folded"][0].pop(),
        lambda state: state["folded"][0].__setitem__(-1, [2.0, 1.0]),
        lambda state: state["open"][0].__setitem__(-1, []),
        lambda state: state.__setitem__("repeating", 5),
        lambda state: state.__setitem__("a2_late", -1),
        lambda state: state["sketch"]["flags"].append(
            ["s", "not-a-float", 1.0, 2]),
    ])
    def test_a_hostile_state_is_refused_and_changes_nothing(self, corrupt):
        source = StreamingDetectorSuite()
        source.observe([_severity_fixture()], watermark=11 * HOUR)
        state = json.loads(json.dumps(source.export_state()))
        assert state["open"] and state["folded"][0][-1]
        corrupt(state)
        suite = StreamingDetectorSuite()
        suite.observe([[_alert("s-only", 0.0)]], watermark=2 * HOUR)
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
