"""Detector state written before A2 folded its final hours.

``tests/data/legacy_detection`` holds a snapshot and a journalled tail
of a seeded trace through a ``detect_antipatterns=True`` service,
written by a checkout whose detector suite kept one ``stats`` row per
(strategy, region, hour) (regenerate it with
``tests/serving/legacy_detection_fixture.py``, whose docstring has the
recipe), plus that checkout's findings at the crash and after an
uninterrupted drain.  The current code must read the legacy rows into
open hours, fold them at the next barrier, restore to the writer's
findings and drain to the uninterrupted run's.  A1 and A3 must match
byte for byte; A2 verdicts exactly and impact proxies to 1e-9 (the fold
adds duration sums in another order).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.common.timeutil import HOUR
from repro.serving import CheckpointLoader
from repro.streaming import StreamingDetectorSuite
from repro.streaming.detectors import STORM_HOUR_THRESHOLD

from tests.serving.legacy_detection_fixture import (
    CRASH_AT,
    SNAPSHOT_AT,
    THRESHOLDS,
    findings_payload,
    load_tail,
    service,
)

LEGACY_DIR = Path(__file__).resolve().parents[1] / "data" / "legacy_detection"


@pytest.fixture
def legacy_copy(tmp_path) -> Path:
    """A scratch copy: a restore writes new journal parts into its dir."""
    return shutil.copytree(LEGACY_DIR, tmp_path / "service")


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads((LEGACY_DIR / "expected.json").read_text())


def _assert_same_findings(findings, want: dict) -> None:
    got = json.loads(json.dumps(findings_payload(findings)))
    assert got["A1"] == want["A1"]
    assert got["A3"] == want["A3"]
    assert [(row[0], row[2], row[3]["nearest"]) for row in got["A2"]] == \
        [(row[0], row[2], row[3]["nearest"]) for row in want["A2"]]
    for ours, theirs in zip(got["A2"], want["A2"]):
        assert ours[3]["proxy"] == pytest.approx(theirs[3]["proxy"], abs=1e-9)


def test_fixture_holds_per_hour_stats_rows(expected):
    checkpoint = CheckpointLoader(LEGACY_DIR).latest()
    assert checkpoint.input_alerts == SNAPSHOT_AT
    detectors = checkpoint.state["detectors"]
    assert "open" not in detectors
    volume: dict[tuple[str, int], int] = {}
    for _sid, region, bucket, count, *_rest in detectors["stats"]:
        volume[region, bucket] = volume.get((region, bucket), 0) + count
    # Many hours, one of them a storm: the fold has rows to drop.
    assert len(volume) > 24
    assert max(volume.values()) > STORM_HOUR_THRESHOLD
    for findings in expected.values():
        assert all(findings[pattern] for pattern in ("A1", "A2", "A3"))
    # A version-1 directory: one blob per region, two of them on plane
    # 0, which a restore adds into that plane one after the other.
    assert [plane for plane, _blob in checkpoint.blobs] == [0, 1, 0]


def test_legacy_rows_open_and_fold_at_the_next_barrier():
    checkpoint = CheckpointLoader(LEGACY_DIR).latest()
    legacy = checkpoint.state["detectors"]
    suite = StreamingDetectorSuite(THRESHOLDS)
    suite.restore_state(legacy)
    state = suite.export_state()
    assert (state["final_hour"], state["folded"]) == (0, [])
    assert sorted(row[:3] for row in state["open"]) == \
        sorted(row[:3] for row in legacy["stats"])
    before = suite.findings()
    suite.observe([], watermark=checkpoint.watermark)
    state = suite.export_state()
    # Every hour below the newest one under the watermark's own folds.
    current = int(checkpoint.watermark // HOUR)
    final_hour = max(row[2] for row in legacy["stats"] if row[2] < current)
    assert state["final_hour"] == final_hour
    assert state["folded"]
    assert {row[2] for row in state["open"]} == {
        row[2] for row in legacy["stats"] if row[2] >= final_hour
    }
    assert suite.summary()["folded_keys"] == len(state["folded"])
    _assert_same_findings(suite.findings(), findings_payload(before))


def test_restore_continues_to_the_writers_findings(legacy_copy, expected):
    revived = service(legacy_copy)
    assert revived.start() == "restored"
    assert revived.input_alerts == CRASH_AT
    assert revived.replayed_events == CRASH_AT - SNAPSHOT_AT
    suite = revived.gateway.detectors
    _assert_same_findings(suite.findings(), expected["at_crash"])
    # The replayed barriers folded every legacy row below their hour.
    state = suite.export_state()
    assert state["folded"]
    assert min(row[2] for row in state["open"]) >= state["final_hour"]
    revived.ingest(load_tail(LEGACY_DIR))
    revived.stop(drain=True)
    _assert_same_findings(suite.findings(), expected["drained"])
    assert suite.summary()["a2_late"] == 0
