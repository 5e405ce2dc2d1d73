"""Property: the RCJ2 journal decodes exactly what its writer committed.

``JournalWriter`` writes each distinct nine-string strategy row once per
file and refers to it by index after that; its row table advances only
when ``commit`` serialises a record, and every file starts empty.  Over
drawn batches — non-ASCII and empty strings, ``cleared_at=None``, fault
ids, tags, every ``Severity`` and ``AlertState``, and a strategy whose
title changes mid-file — fed through lazy and batch writers with
``commit``, ``discard_pending``, ``close`` and ``abandon`` at drawn
points (each close or abandon starts the next part file), every
committed record must decode field for field equal to its input, and
nothing else may decode.

On one written file, a cut at every byte offset must return exactly the
complete records before it, and a flipped byte anywhere in a complete
record's CRC or payload must raise ``JournalError``.  (A flipped
*length* field can make the last record look torn, which the reader
rightly treats as a crash mid-append.)  The cuts and flips decode in
memory through ``decode_journal``; one torn file per example still goes
through ``read_journal``'s path.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, AlertState, Severity
from repro.io.traces import alert_to_dict
from repro.serving.journal import (
    JournalError,
    JournalWriter,
    ROW_FIELDS,
    decode_journal,
    journal_path,
    read_journal,
)

#: Deeper and derandomized under the seeded CI profile; explicit here
#: because the per-test @settings would override the profile's count.
_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = 300 if _CHAOS_PROFILE else 60
_BYTE_EXAMPLES = 100 if _CHAOS_PROFILE else 20

#: Any text but lone surrogates (not encodable as UTF-8), empty included.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=5,
)
_TIMES = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False,
)


@st.composite
def alerts(draw, rows: list[tuple[str, ...]]) -> Alert:
    row = draw(st.sampled_from(rows))
    occurred_at = draw(_TIMES)
    cleared_after = draw(st.none() | st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False,
    ))
    return Alert(
        draw(_TEXT), *row[:4], draw(st.sampled_from(Severity)), *row[4:],
        occurred_at,
        state=draw(st.sampled_from(AlertState)),
        cleared_at=None if cleared_after is None else occurred_at + cleared_after,
        fault_id=draw(st.none() | _TEXT),
        tags=draw(st.dictionaries(_TEXT, _TEXT, max_size=2)),
    )


@st.composite
def sessions(draw, max_ops: int = 12, max_batch: int = 5):
    """Writer options plus a schedule of journal operations."""
    rows = draw(st.lists(
        st.tuples(*[_TEXT] * len(ROW_FIELDS)), min_size=1, max_size=3,
    ))
    # The same strategy retitled: a second row that only later batches use.
    retitled = rows[0][:2] + (rows[0][2] + "′",) + rows[0][3:]
    ops = []
    n_ops = draw(st.integers(1, max_ops))
    for step in range(n_ops):
        kind = draw(st.sampled_from(
            ("append",) * 4 + ("commit", "discard", "close", "abandon"),
        ))
        if kind == "append":
            pool = rows + [retitled] if step >= n_ops // 2 else rows
            ops.append(("append", draw(st.lists(
                alerts(pool), min_size=0, max_size=max_batch,
            ))))
        else:
            ops.append((kind, None))
    return {
        "lazy": draw(st.booleans()),
        "max_pending_events": draw(st.integers(1, 12)),
        "ops": ops,
    }


def _dicts(records) -> list:
    return [
        (start, [alert_to_dict(alert) for alert in batch])
        for start, batch in records
    ]


def _play(directory: Path, session) -> list[list]:
    """Run the schedule; returns the committed records of every part."""
    options = {
        "lazy": session["lazy"],
        "max_pending_events": session["max_pending_events"],
    }
    files: list[list] = [[]]
    writer = JournalWriter(directory, epoch=0, part=0, **options)
    pending: list = []
    start = 0

    def commit() -> None:
        files[-1].extend(pending)
        pending.clear()

    for kind, batch in session["ops"]:
        if kind == "append":
            writer.append(start, batch)
            pending.append((start, batch))
            start += len(batch)
            if not session["lazy"] or sum(
                len(alerts) for _, alerts in pending
            ) >= session["max_pending_events"]:
                commit()
        elif kind == "commit":
            writer.commit()
            commit()
        elif kind == "discard":
            writer.discard_pending()
            pending.clear()
        else:
            if kind == "close":
                writer.close()
                commit()
            else:
                writer.abandon()
                pending.clear()
            files.append([])
            writer = JournalWriter(
                directory, epoch=0, part=len(files) - 1, **options,
            )
    writer.close()
    commit()
    return files


@settings(max_examples=_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE)
@given(session=sessions())
def test_every_committed_record_decodes_field_for_field(session):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        files = _play(directory, session)
        for part, expected in enumerate(files):
            header, records = read_journal(journal_path(directory, 0, part))
            assert header == {"version": 2, "epoch": 0, "part": part}
            assert _dicts(records) == _dicts(expected)


def _record_spans(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """The header's end and each record's ``(start, end)`` byte span."""
    offset = 8 + struct.unpack_from(">I", data, 4)[0]
    header_end = offset
    spans = []
    while offset < len(data):
        end = offset + 8 + struct.unpack_from(">I", data, offset)[0]
        spans.append((offset, end))
        offset = end
    return header_end, spans


@st.composite
def files(draw) -> list[list[Alert]]:
    """One to three batches over one small pool of strategy rows."""
    rows = draw(st.lists(
        st.tuples(*[_TEXT] * len(ROW_FIELDS)), min_size=1, max_size=2,
    ))
    return draw(st.lists(
        st.lists(alerts(rows), max_size=3), min_size=1, max_size=3,
    ))


@settings(
    max_examples=_BYTE_EXAMPLES, deadline=None, derandomize=_CHAOS_PROFILE,
)
@given(batches=files(), mask=st.integers(1, 255))
def test_cuts_return_complete_records_and_flips_raise(batches, mask):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        committed = []
        with JournalWriter(directory, epoch=0) as writer:
            start = 0
            for batch in batches:
                writer.append(start, batch)
                committed.append((start, batch))
                start += len(batch)
        data = writer.path.read_bytes()
        expected = _dicts(committed)
        header_end, spans = _record_spans(data)
        assert len(spans) == len(batches)
        # One torn file on disk keeps the path reader covered; every cut
        # and flip below decodes in memory.
        probe = directory / "probe.rcj"
        probe.write_bytes(data[:-1])
        assert _dicts(read_journal(probe)[1]) == expected[:-1]
        for cut in range(len(data) + 1):
            if cut < header_end:
                try:
                    decode_journal(data[:cut])
                except JournalError:
                    continue
                raise AssertionError(f"cut {cut} inside the header decoded")
            complete = sum(end <= cut for _, end in spans)
            assert _dicts(decode_journal(data[:cut])[1]) == expected[:complete]
        for record_start, record_end in spans:
            for at in range(record_start + 4, record_end):
                flipped = bytearray(data)
                flipped[at] ^= mask
                try:
                    decode_journal(bytes(flipped))
                except JournalError:
                    continue
                raise AssertionError(f"flipped byte {at} decoded")
