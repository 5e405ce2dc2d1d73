"""Write the legacy service directory ``tests/data/legacy_service``.

The directory pins restore compatibility with service directories
written while every plane still split its keys across a consistent-hash
shard ring: the golden trace through a ``journal_mode="batch"`` service
(``n_planes=2``, the then-default four shards per plane), a snapshot
mid-stream, a journalled tail, then a simulated crash (``abort``).  It
must be written by a checkout from before the shard layer was removed
(commit 98b46b5), because only that code records the legacy shapes:

    git clone <repo> old && git -C old checkout 98b46b5
    cd old && PYTHONPATH=src:<repo> \\
        python <repo>/tests/serving/legacy_service_fixture.py \\
        <repo>/tests/data/legacy_service

``test_legacy_service.py`` restores it under the current code.  Its
journal part is therefore ``RCJ1`` (one string table per record), the
format that checkout wrote; the current code reads ``RCJ1`` but writes
``RCJ2``, so a restore adds ``RCJ2`` parts next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.serving import AlertGatewayService

from tests.streaming.test_golden_trace import (
    WINDOW,
    _load_alerts,
    golden_blocker,
    golden_graph,
)

#: Service options shared by the writer and the restoring test.
OPTIONS = dict(
    n_planes=2, flush_size=16, journal_mode="batch", checkpoint_every=100_000,
    aggregation_window=WINDOW, correlation_window=WINDOW,
)
#: Events covered by the snapshot, and events the journal tail adds.
SNAPSHOT_AT = 128
CRASH_AT = 200


def service(data_dir: Path) -> AlertGatewayService:
    """The fixture's service, as both sides build it."""
    return AlertGatewayService(
        golden_graph(), data_dir, blocker=golden_blocker(), **OPTIONS,
    )


def write(data_dir: Path) -> None:
    alerts = _load_alerts()
    writer = service(data_dir)
    writer.start()
    writer.ingest(alerts[:SNAPSHOT_AT])
    writer.checkpoint(force=True)
    writer.ingest(alerts[SNAPSHOT_AT:CRASH_AT])
    writer.abort()


if __name__ == "__main__":
    write(Path(sys.argv[1]))
