"""A service directory written before the shard layer was removed.

``tests/data/legacy_service`` holds a snapshot and a journalled tail of
the golden trace, written by a checkout that still split each plane's
keys across four consistent-hash shards (regenerate it with
``tests/serving/legacy_service_fixture.py``, whose docstring has the
recipe).  It carries every legacy shape at once: a configuration record
with ``n_shards``, stats with ``rebalances``, and plane blobs ending in
strategy → shard pin sections.  Its record and stats also carry the
keys of the process fleet's retired in-place recovery
(``worker_recovery``, ``worker_checkpoint_every``, ``worker_deaths``,
``worker_recoveries``).  The current code must restore it,
continue the stream and drain to the golden counts, and render it in the
operator views — also after a second crash, when its epoch holds the
legacy ``RCJ1`` journal part next to an ``RCJ2`` part the current code
wrote.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.serving import CheckpointLoader, journal_files
from repro.streaming.wire import pack_plane_state, unpack_plane_state

from tests.serving.legacy_service_fixture import CRASH_AT, SNAPSHOT_AT, service
from tests.streaming.test_golden_trace import (
    EXPECTED_PATH,
    _load_alerts,
    _stats_payload,
)

LEGACY_DIR = Path(__file__).resolve().parents[1] / "data" / "legacy_service"


@pytest.fixture
def legacy_copy(tmp_path) -> Path:
    """A scratch copy: a restore writes new journal parts into its dir."""
    return shutil.copytree(LEGACY_DIR, tmp_path / "service")


def test_fixture_carries_every_legacy_shape():
    checkpoint = CheckpointLoader(LEGACY_DIR).latest()
    assert checkpoint.input_alerts == SNAPSHOT_AT
    assert checkpoint.config["n_shards"] == 4
    assert "rebalances" in checkpoint.state["stats"]
    assert {"worker_recovery", "worker_checkpoint_every"} <= set(checkpoint.config)
    assert {"worker_deaths", "worker_recoveries"} <= set(checkpoint.state["stats"])
    assert checkpoint.blobs
    for _plane, _region, blob in checkpoint.blobs:
        # Re-packing drops the trailing pin sections.
        assert len(pack_plane_state(unpack_plane_state(blob))) < len(blob)


def test_legacy_directory_restores_and_drains_to_golden_counts(legacy_copy):
    expected = json.loads(EXPECTED_PATH.read_text())
    alerts = _load_alerts()
    revived = service(legacy_copy)
    assert revived.start() == "restored"
    assert revived.input_alerts == CRASH_AT
    assert revived.replayed_events == CRASH_AT - SNAPSHOT_AT
    revived.ingest(alerts[CRASH_AT:])
    stats = revived.stop(drain=True)
    assert _stats_payload(stats) == expected["counts"]


def test_mixed_format_epoch_restores_and_drains_to_golden_counts(legacy_copy):
    expected = json.loads(EXPECTED_PATH.read_text())
    alerts = _load_alerts()
    second_crash = CRASH_AT + (len(alerts) - CRASH_AT) // 2
    revived = service(legacy_copy)
    assert revived.start() == "restored"
    for at in range(CRASH_AT, second_crash, 24):
        revived.ingest(alerts[at:min(at + 24, second_crash)])
    revived.abort()
    assert [
        (epoch, part, path.read_bytes()[:4])
        for epoch, part, path in journal_files(legacy_copy)
    ] == [(1, 0, b"RCJ1"), (1, 1, b"RCJ2")]
    again = service(legacy_copy)
    assert again.start() == "restored"
    assert again.input_alerts == second_crash
    assert again.replayed_events == second_crash - SNAPSHOT_AT
    again.ingest(alerts[second_crash:])
    stats = again.stop(drain=True)
    assert _stats_payload(stats) == expected["counts"]


@pytest.mark.parametrize("view", ["report", "planes"])
def test_ops_views_render_the_legacy_directory(legacy_copy, view, capsys):
    assert main(["ops", "--data-dir", str(legacy_copy), "--view", view]) == 0
    out = capsys.readouterr().out
    assert "checkpoint epoch 1" in out
    assert "plane 1 [region-A]" in out
