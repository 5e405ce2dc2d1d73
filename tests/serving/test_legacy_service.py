"""A service directory written before the shard layer was removed.

``tests/data/legacy_service`` holds a snapshot and a journalled tail of
the golden trace, written by a checkout that still split each plane's
keys across four consistent-hash shards (regenerate it with
``tests/serving/legacy_service_fixture.py``, whose docstring has the
recipe).  It carries every legacy shape at once: a configuration record
with ``n_shards``, stats with ``rebalances``, and a version-1 directory
of per-region blobs ending in strategy → shard pin sections.  Its record
and stats also carry the keys of the process fleet's retired in-place
recovery (``worker_recovery``, ``worker_checkpoint_every``,
``worker_deaths``, ``worker_recoveries``).  The current code must
restore it, continue the stream and drain to the golden counts, and
render it in the operator views — also after a second crash, when its epoch holds the
legacy ``RCJ1`` journal part next to an ``RCJ2`` part the current code
wrote.  A last test covers the keys checkpoints carried while planes
could be rescaled at runtime.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.mitigation.blocking import AlertBlocker
from repro.serving import (
    CheckpointLoader,
    decode_checkpoint,
    encode_checkpoint,
    journal_files,
    restore_gateway,
)
from repro.serving.checkpoint import checkpoint_of_gateway
from repro.streaming.wire import pack_plane_state, unpack_plane_state

from tests.serving.conftest import make_gateway
from tests.serving.legacy_service_fixture import CRASH_AT, SNAPSHOT_AT, service
from tests.streaming.multiregion import counts
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
    assert [plane for plane, _blob in checkpoint.blobs] == [0, 1]
    for _plane, blob in checkpoint.blobs:
        # One per-region blob each (version 1), ending in the pin
        # sections, which decode skips.
        assert blob[:4] == b"RWP1"
        state = unpack_plane_state(blob)
        assert len(state.storm) == 1 and state.since_finalize == 0
        # Re-packed, the record is a plane blob of the current format.
        assert unpack_plane_state(pack_plane_state(state)) == state


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


def test_checkpoint_with_live_replaning_keys_still_restores(
    serving_graph, storm_alerts,
):
    """Checkpoints written while planes could be rescaled at runtime
    carry ``stats.plane_scales``, ``stats.scales`` and
    ``learner.scale_positions``.  A restore ignores them and continues to
    the same drained accounting and learned-rule timeline."""
    options = dict(flush_size=64, learn_rules=True, enable_qoa=True,
                   blocker=AlertBlocker())
    reference = make_gateway(serving_graph, **options)
    reference.ingest_batch(storm_alerts)
    want_stats = reference.drain()
    assert reference.learner.events, "the trace must teach the learner rules"

    # A multiple of flush_size: the cut is a natural barrier, so the
    # subject's flush schedule is the reference's.
    cut = 256
    subject = make_gateway(serving_graph, **options)
    subject.ingest_batch(storm_alerts[:cut])
    assert subject.at_flush_barrier
    snapshot = checkpoint_of_gateway(subject, seq=1, created_at=0.0)
    subject.close()
    snapshot.state["stats"]["plane_scales"] = 2
    snapshot.state["stats"]["scales"] = [
        {"at_input": 64, "from_planes": 1, "to_planes": 3, "moved_regions": 2},
        {"at_input": 128, "from_planes": 3, "to_planes": 2, "moved_regions": 1},
    ]
    snapshot.state["learner"]["scale_positions"] = [64, 128]

    restored = restore_gateway(
        decode_checkpoint(encode_checkpoint(snapshot)), serving_graph,
    )
    restored.ingest_batch(storm_alerts[cut:])
    got_stats = restored.drain()
    assert counts(got_stats) == counts(want_stats)
    assert got_stats.planes == want_stats.planes
    assert got_stats.qoa == want_stats.qoa
    assert restored.learner.events == reference.learner.events
    assert restored.learner.counters() == reference.learner.counters()
