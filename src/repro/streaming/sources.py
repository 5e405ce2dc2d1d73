"""Alert sources for the gateway: traces, JSONL files, merged streams.

A source is just an iterator of :class:`~repro.alerting.alert.Alert` in
occurrence order (for in-memory traces that is
:meth:`~repro.workload.trace.AlertTrace.iter_ordered`).  JSONL reading
is lazy — one line decoded per event — so a multi-gigabyte alert log
streams through the gateway with constant memory, which is the point of
the subsystem.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterable, Iterator

from repro.alerting.alert import Alert
from repro.io.jsonl import read_jsonl
from repro.io.traces import alert_from_dict

__all__ = ["iter_jsonl_alerts", "merge_ordered"]


def iter_jsonl_alerts(path: str | Path) -> Iterator[Alert]:
    """Lazily decode one alert per line from an ``alerts.jsonl`` file."""
    for record in read_jsonl(path):
        yield alert_from_dict(record)


def merge_ordered(*sources: Iterable[Alert]) -> Iterator[Alert]:
    """Merge several time-ordered sources into one time-ordered stream.

    Models multiple regions/collectors feeding one gateway; each input
    must itself be ordered by ``occurred_at``.
    """
    return heapq.merge(*sources, key=lambda alert: alert.occurred_at)
