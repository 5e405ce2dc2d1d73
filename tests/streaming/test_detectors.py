"""StreamingDetectorSuite: digest folding, verdicts, checkpoint exactness.

The differential harness proves online-vs-batch parity end to end; these
tests pin the suite's own contracts — deterministic digest folding, the
A2 evidence gates, storm-hour exclusion, and bit-exact state round trips
through the gateway's checkpoint path.
"""

from __future__ import annotations

import time

import pytest

from repro.alerting.alert import Severity
from repro.common.errors import ValidationError
from repro.common.timeutil import HOUR
from repro.core.antipatterns.base import DetectorThresholds
from repro.streaming import AlertGateway, StreamingDetectorSuite
from tests.streaming.conftest import make_alert


def _catalog_row(sid, title="database-api-01: failed to commit changes",
                 description=None, severity=Severity.MINOR, service="svc",
                 first_at=0.0, first_id=None, last_at=1000.0):
    return (
        sid, first_at, first_id or f"{sid}-a0", title,
        description if description is not None else f"details for {sid}",
        int(severity), service, last_at,
    )


def _stat_row(sid, region="region-A", bucket=0, count=4, transient=0,
              manual=0, cleared=4, duration_sum=240.0, times=None):
    if times is None:
        times = tuple(bucket * HOUR + 900.0 * i for i in range(count))
    return (sid, region, bucket, count, transient, manual, cleared,
            duration_sum, tuple(times))


def _digest(catalog=(), stats=(), docs=(), doc_rows=()):
    return (list(catalog), list(stats), list(docs), list(doc_rows))


class TestFolding:
    def test_repeat_window_below_one_hour_is_rejected(self):
        with pytest.raises(ValidationError):
            StreamingDetectorSuite(DetectorThresholds(repeat_window=HOUR / 2))

    def test_first_seen_metadata_wins_across_digests(self):
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=[_catalog_row(
            "s-1", title="late title", first_at=100.0, first_id="alert-b",
            last_at=200.0,
        )]))
        suite.observe(_digest(catalog=[_catalog_row(
            "s-1", title="early title", first_at=50.0, first_id="alert-a",
            last_at=150.0,
        )]))
        [[sid, first_at, first_id, title, *_rest, last_at]] = \
            suite.export_state()["catalog"]
        assert (sid, first_at, first_id, title) == \
            ("s-1", 50.0, "alert-a", "early title")
        assert last_at == 200.0

    def test_fold_order_does_not_matter(self):
        digests = [
            _digest(catalog=[_catalog_row("s-1", first_at=100.0,
                                          first_id="alert-b")],
                    stats=[_stat_row("s-1", bucket=0)]),
            _digest(catalog=[_catalog_row("s-1", first_at=50.0,
                                          first_id="alert-a")],
                    stats=[_stat_row("s-1", bucket=0), _stat_row("s-1", bucket=3)]),
        ]
        forward, backward = StreamingDetectorSuite(), StreamingDetectorSuite()
        for digest in digests:
            forward.observe(digest)
        for digest in reversed(digests):
            backward.observe(digest)
        assert forward.export_state() == backward.export_state()

    def test_bucket_times_are_capped_at_the_repeat_count(self):
        cap = DetectorThresholds().repeat_window_count
        suite = StreamingDetectorSuite()
        first = tuple(float(i) for i in range(5))
        second = tuple(100.0 + i for i in range(6))
        suite.observe(_digest(stats=[_stat_row(
            "s-1", count=5, cleared=5, times=first)]))
        suite.observe(_digest(stats=[_stat_row(
            "s-1", count=6, cleared=6, times=second)]))
        [[_sid, _region, _bucket, count, *_mid, times]] = \
            suite.export_state()["stats"]
        assert count == 11
        assert len(times) == cap
        assert times == list(first + second)[:cap]

    def test_stats_export_equals_a_flat_sorted_reference(self):
        # Digests whose rows interleave sids, regions and buckets out of
        # order and revisit keys; the nested fold must export the rows
        # a flat (sid, region, bucket) map would, in sorted order.
        cap = DetectorThresholds().repeat_window_count
        digests = []
        for flush in range(5):
            rows = []
            for index in range(12):
                sid = f"s-{(index * 7 + flush) % 4}"
                region = ("region-B", "region-A", "region-C")[index % 3]
                bucket = (index * 5 + flush * 3) % 9
                count = 1 + (index + flush) % 4
                rows.append(_stat_row(
                    sid, region=region, bucket=bucket, count=count,
                    transient=index % 2, manual=flush % 2, cleared=count,
                    duration_sum=count * (60.0 + flush + index / 3),
                ))
            digests.append(_digest(
                catalog=[_catalog_row(f"s-{index}") for index in range(4)],
                stats=rows,
            ))
        reference: dict[tuple, list] = {}
        for digest in digests:
            for sid, region, bucket, *counters, times in digest[1]:
                row = reference.setdefault(
                    (sid, region, bucket), [0, 0, 0, 0, 0.0, []],
                )
                for slot, value in enumerate(counters):
                    row[slot] += value
                row[5] = (row[5] + list(times))[:cap]
        suite = StreamingDetectorSuite()
        for digest in digests:
            suite.observe(digest)
        assert suite.export_state()["stats"] == [
            [*key, *row] for key, row in sorted(reference.items())
        ]
        assert suite.summary()["stat_rows"] == len(reference)


def _severity_fixture():
    """3 low-impact WARNING + 3 high-impact CRITICAL + one WARNING
    misfit carrying CRITICAL-class impact."""
    catalog, stats = [], []
    specs = (
        [(f"s-low-{i}", Severity.WARNING, 0, 60.0) for i in range(3)]
        + [(f"s-high-{i}", Severity.CRITICAL, 4, 7200.0) for i in range(3)]
        + [("s-misfit", Severity.WARNING, 4, 7200.0)]
    )
    for sid, severity, manual, duration in specs:
        catalog.append(_catalog_row(sid, severity=severity))
        # Three sparse hour buckets: 12 steady alerts, never more than
        # 4 events inside any repeat window (buckets 10h apart).
        for bucket in (0, 10, 20):
            stats.append(_stat_row(
                sid, bucket=bucket, count=4, transient=0, manual=manual,
                cleared=4, duration_sum=4 * duration,
            ))
    return catalog, stats


class TestSeverityFindings:
    def test_misfit_is_the_only_a2_finding(self):
        catalog, stats = _severity_fixture()
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=catalog, stats=stats))
        findings = suite.findings()["A2"]
        assert [f.subject for f in findings] == ["s-misfit"]
        assert "understated" in findings[0].evidence

    def test_storm_hours_suppress_their_evidence(self):
        # Flood-level volume in (bucket 0, region-A) drops that hour for
        # every strategy: each falls to 8 steady alerts, below the
        # severity_min_alerts gate, so no A2 verdicts remain — the same
        # flood exclusion the batch detector applies.
        catalog, stats = _severity_fixture()
        catalog.append(_catalog_row("s-flood", severity=Severity.WARNING))
        stats.append(_stat_row(
            "s-flood", bucket=0, count=150, transient=0, manual=0,
            cleared=150, duration_sum=150 * 60.0,
            times=tuple(float(i) for i in range(8)),
        ))
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=catalog, stats=stats))
        assert suite.findings()["A2"] == []

    def test_repeat_dominated_strategies_are_gated(self):
        catalog, stats = _severity_fixture()
        # Hand the misfit one full bucket: cap-many events inside an
        # hour is proof of a repeat-sized run, which gates it out.
        cap = DetectorThresholds().repeat_window_count
        stats.append(_stat_row(
            "s-misfit", bucket=30, count=cap, cleared=cap,
            duration_sum=cap * 7200.0,
            times=tuple(30 * HOUR + float(i) for i in range(cap)),
        ))
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=catalog, stats=stats))
        assert suite.findings()["A2"] == []


class TestTitleAndDefinitionFindings:
    def test_vague_title_is_flagged(self):
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=[
            _catalog_row("s-vague", title="Instance x is abnormal",
                         description="something seems off"),
            _catalog_row("s-clear"),
        ]))
        findings = suite.findings()["A1"]
        assert [f.subject for f in findings] == ["s-vague"]
        assert "clarity" in findings[0].evidence

    def test_stale_and_duplicate_definitions_are_flagged(self):
        thresholds = DetectorThresholds()
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=[
            _catalog_row("s-stale", description="stale one", last_at=0.0),
            _catalog_row("s-dup-1", title="disk full", description="same text",
                         last_at=2 * thresholds.stale_after),
            _catalog_row("s-dup-2", title="disk full", description="same text",
                         last_at=2 * thresholds.stale_after),
        ]))
        findings = suite.findings()["A3"]
        kinds = {(f.subject, f.details["kind"]) for f in findings}
        assert kinds == {("s-stale", "stale"),
                         ("s-dup-1", "duplicate"), ("s-dup-2", "duplicate")}

    def test_summary_counts_match_findings(self):
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=[
            _catalog_row("s-vague", title="Instance x is abnormal",
                         description="hmm"),
        ]))
        summary = suite.summary()
        assert summary["strategies"] == 1
        assert summary["findings"] == {
            pattern: len(items) for pattern, items in suite.findings().items()
        }


class TestStateRoundTrip:
    def test_export_restore_is_bit_exact(self):
        catalog, stats = _severity_fixture()
        docs = [((1, 5, 9), (2, 1, 1)), ((3,), (4,))]
        doc_rows = [(10.0, "s-low-0", 0), (20.0, "s-misfit", 1)]
        suite = StreamingDetectorSuite()
        suite.observe(_digest(catalog=catalog, stats=stats, docs=docs,
                              doc_rows=doc_rows), watermark=20.0)
        clone = StreamingDetectorSuite()
        clone.restore_state(suite.export_state())
        assert clone.export_state() == suite.export_state()
        assert clone.summary() == suite.summary()


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
