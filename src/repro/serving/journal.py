"""The event journal: length-prefixed, CRC'd ingest records.

Snapshots are periodic; the journal closes the gap between the last
snapshot and the crash.  Every ingest batch is appended *before* the
gateway processes it (write-ahead), so after a crash the journal is
always at or ahead of the restored snapshot, never behind — replaying
the tail reproduces exactly the events the dead process had accepted.

File layout (``RCJ2``)::

    RCJ2 | u32 header length | header JSON          (epoch metadata)
    u32 payload length | u32 crc32 | payload        (record, repeated)

A record's payload is ``u64 start index`` (the gateway's
``input_alerts`` when the batch was accepted) followed by the record
body, so replay can slice out exactly the alerts a restored snapshot
has not yet seen.  Nine of an alert's ten strings are fixed by its
strategy — every field but ``alert_id`` (:data:`ROW_FIELDS`) — so the
body writes each distinct nine-string *row* once per file and refers to
it by index after that.  Body layout, little-endian (the columns are
native ``array`` bytes, so like the wire format it assumes a
little-endian host)::

    u32 alerts | u32 new rows | u32 row-block bytes | u32 id-block bytes
    u32 × 9·new rows   UTF-8 byte length of each new row string
    row block          the new rows' strings, concatenated
    u32 × alerts       UTF-8 byte length of each alert id
    id block           the alert ids, concatenated
    u32 × alerts       row reference per alert
    u8 × alerts        severity value
    u8 × alerts        state (``AlertState`` declaration order)
    f64 × alerts       occurred_at
    f64 × alerts       cleared_at (−1 for ``None``)
    JSON (the rest)    ``[[index, fault_id, tags], ...]`` for the alerts
                       that carry a fault id or tags; empty when none do

The row table is scoped to one file: every file (epoch or part) starts
empty and a record's new rows are appended to it in order, so each
file decodes on its own and the reader carries the table from record
to record.  The key is all nine fields, not the strategy id, so a
strategy whose title changes mid-file simply gets a second row.  The
writer's table advances only when :meth:`JournalWriter.commit`
serialises a record, so a discarded or abandoned lazy buffer never
leaves a reference to a row that was not written.

``RCJ1`` files — each record one
:func:`~repro.streaming.wire.pack_alerts` batch with its own string
table — are still read, never written: a service directory from before
``RCJ2`` restores, and its newer parts are ``RCJ2``.

Corruption semantics are asymmetric on purpose:

* a **truncated final record** is the expected signature of a crash
  mid-append — the reader stops cleanly before it and returns every
  complete record;
* a **complete record whose CRC fails**, a CRC-valid record whose body
  does not decode, or garbage mid-file, means the log itself is damaged
  — the reader raises :class:`JournalError` rather than silently
  dropping acknowledged events.

The writer has three durability tiers.  Serialising an alert batch
costs about a third of what the gateway spends *processing* it (the
``benchmarks/e2e`` ledger, seed 44, reference-normalised on a 2-core
VM: ``journal.append_us_per_alert`` ≈ 1.1 µs on ``storm_durable`` —
≈ 1.9 µs with ``RCJ1``'s per-record string tables — against ≈ 2.9 µs
of CPU per alert on ``storm_serial``), so eager journalling is a
throughput decision, not a default:

* ``lazy=True`` — :meth:`~JournalWriter.append` only buffers the batch
  reference; serialisation and file IO happen at :meth:`commit` time
  (a graceful close, or an explicit flush point).  When a snapshot is
  taken, every buffered record is already covered by it and is
  *discarded unserialised* — the steady-state journal cost is a list
  append.  A hard kill loses the uncommitted tail, bounded by the
  checkpoint cadence — the Flink-style tier: durability comes from the
  snapshot, the journal covers graceful pauses.
* ``lazy=False, sync=False`` — every append is serialised and flushed
  to the OS: survives process death, not host death.
* ``sync=True`` — every commit is also ``fsync``'d: survives host
  death.

Journal files are per *epoch* (the snapshot they follow) and *part*
(incremented on every recovery, so a restarted service never appends to
a file whose tail it would first have to repair).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from array import array
from itertools import accumulate, repeat
from operator import attrgetter
from pathlib import Path

from repro.alerting.alert import Alert, AlertState, Severity
from repro.serving.checkpoint import CheckpointError
from repro.streaming.wire import unpack_alerts

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "ROW_FIELDS",
    "JournalError",
    "JournalWriter",
    "journal_path",
    "journal_files",
    "read_journal",
    "decode_journal",
]

JOURNAL_MAGIC = b"RCJ2"
JOURNAL_VERSION = 2
#: Every format the reader accepts: magic → the header's version.
_VERSION_OF_MAGIC = {b"RCJ1": 1, JOURNAL_MAGIC: JOURNAL_VERSION}

#: The nine fields an alert shares with its strategy, in row order.
ROW_FIELDS = (
    "strategy_id", "strategy_name", "title", "description", "service",
    "microservice", "region", "datacenter", "channel",
)
_ROW_OF = attrgetter(*ROW_FIELDS)
_ALERT_ID = attrgetter("alert_id")
_SEVERITY = attrgetter("severity")
_STATE = attrgetter("state")
_OCCURRED = attrgetter("occurred_at")
_CLEARED = attrgetter("cleared_at")
_FAULT = attrgetter("fault_id")
_TAGS = attrgetter("tags")

#: Severity is stored by value (an ``IntEnum``), state by position.
_SEVERITIES = tuple(sorted(Severity, key=lambda s: s.value))
_STATES = tuple(AlertState)
#: f64 sentinel for "not cleared" (real clear times are >= occurred_at >= 0).
_NO_TIME = -1.0

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: alerts, new rows, row-block bytes, id-block bytes.
_BODY_HEAD = struct.Struct("<IIII")


class JournalError(CheckpointError):
    """A journal file is structurally damaged (not merely truncated)."""


def journal_path(directory: str | Path, epoch: int, part: int) -> Path:
    """The canonical journal file path for one (epoch, part)."""
    return Path(directory) / f"journal-{epoch:08d}-{part:04d}.rcj"


def journal_files(directory: str | Path) -> list[tuple[int, int, Path]]:
    """All journal files as ``(epoch, part, path)``, replay order."""
    found: list[tuple[int, int, Path]] = []
    for path in Path(directory).glob("journal-*-*.rcj"):
        stem = path.stem  # journal-EEEEEEEE-PPPP
        try:
            _, epoch_text, part_text = stem.split("-")
            found.append((int(epoch_text), int(part_text), path))
        except ValueError:
            continue
    found.sort(key=lambda row: (row[0], row[1]))
    return found


def _pack_strings(strings: list[str]) -> tuple[bytes, bytes]:
    """``(u32 UTF-8 byte lengths, concatenated block)`` of ``strings``."""
    text = "".join(strings)
    block = text.encode("utf-8")
    if len(block) == len(text):  # all ASCII: byte length == str length
        lengths = array("I", map(len, strings))
    else:
        lengths = array("I", [len(value.encode("utf-8")) for value in strings])
    return lengths.tobytes(), block


def _unpack_strings(lengths: array, block: bytes) -> list[str]:
    """Split ``block`` back into the strings whose byte ``lengths`` it holds."""
    ends = list(accumulate(lengths))
    if (ends[-1] if ends else 0) != len(block):
        raise JournalError(
            f"string lengths sum to {ends[-1] if ends else 0}, "
            f"block holds {len(block)} bytes"
        )
    starts = [0, *ends[:-1]]
    text = block.decode("utf-8")
    if len(text) == len(block):  # all ASCII: slice the decoded text
        return [text[start:end] for start, end in zip(starts, ends)]
    return [str(block[start:end], "utf-8") for start, end in zip(starts, ends)]


def _encode_body(alerts: list[Alert], rows: dict[tuple, int]) -> bytes:
    """One record body; appends the rows it introduces to ``rows``."""
    refs = list(map(rows.get, map(_ROW_OF, alerts), repeat(-1)))
    fresh: list[str] = []
    if -1 in refs:
        for position, ref in enumerate(refs):
            if ref < 0:
                key = _ROW_OF(alerts[position])
                ref = rows.get(key, -1)
                if ref < 0:
                    ref = rows[key] = len(rows)
                    fresh.extend(key)
                refs[position] = ref
    row_lengths, row_block = _pack_strings(fresh)
    id_lengths, id_block = _pack_strings(list(map(_ALERT_ID, alerts)))
    sparse = b""
    if list(map(_FAULT, alerts)).count(None) != len(alerts) or any(
        map(_TAGS, alerts)
    ):
        sparse = json.dumps(
            [
                [index, alert.fault_id, alert.tags]
                for index, alert in enumerate(alerts)
                if alert.fault_id is not None or alert.tags
            ],
            ensure_ascii=False, separators=(",", ":"),
        ).encode("utf-8")
    state_index = _STATES.index  # identity scan; Enum.__hash__ is Python
    return b"".join((
        _BODY_HEAD.pack(
            len(alerts), len(fresh) // len(ROW_FIELDS),
            len(row_block), len(id_block),
        ),
        row_lengths, row_block, id_lengths, id_block,
        array("I", refs).tobytes(),
        # Severity is an IntEnum: bytes() takes its int value in C.
        bytes(map(_SEVERITY, alerts)),
        bytes(map(state_index, map(_STATE, alerts))),
        array("d", map(_OCCURRED, alerts)).tobytes(),
        array("d", [
            _NO_TIME if cleared is None else cleared
            for cleared in map(_CLEARED, alerts)
        ]).tobytes(),
        sparse,
    ))


def _decode_body(body: bytes, table: list[tuple]) -> list[Alert]:
    """Decode one record body; appends its new rows to ``table``."""
    if len(body) < _BODY_HEAD.size:
        raise JournalError("record body is shorter than its header")
    count, n_rows, row_bytes, id_bytes = _BODY_HEAD.unpack_from(body, 0)
    n_strings = n_rows * len(ROW_FIELDS)
    offset = _BODY_HEAD.size
    if len(body) < offset + 4 * n_strings + row_bytes + id_bytes + 26 * count:
        raise JournalError("record body is shorter than its columns")

    def take(size: int) -> bytes:
        nonlocal offset
        offset += size
        return body[offset - size:offset]

    def column(typecode: str, size: int) -> array:
        values = array(typecode)
        values.frombytes(take(size * values.itemsize))
        return values

    row_lengths = column("I", n_strings)
    strings = _unpack_strings(row_lengths, take(row_bytes))
    table.extend(zip(*[iter(strings)] * len(ROW_FIELDS)))
    id_lengths = column("I", count)
    ids = _unpack_strings(id_lengths, take(id_bytes))
    refs = column("I", count)
    if refs and max(refs) >= len(table):
        raise JournalError(
            f"row reference {max(refs)} past the {len(table)}-row table"
        )
    severities = take(count)
    states = take(count)
    occurred = column("d", count)
    cleared = column("d", count)
    alerts: list[Alert] = []
    append = alerts.append
    for alert_id, ref, severity, state, occurred_at, cleared_at in zip(
        ids, refs, severities, states, occurred, cleared,
    ):
        (strategy_id, strategy_name, title, description, service,
         microservice, region, datacenter, channel) = table[ref]
        # Positional in dataclass field order: no keyword dict per alert.
        append(Alert(
            alert_id, strategy_id, strategy_name, title, description,
            _SEVERITIES[severity], service, microservice, region,
            datacenter, channel, occurred_at, _STATES[state],
            None if cleared_at == _NO_TIME else cleared_at,
        ))
    if offset < len(body):
        for index, fault_id, tag_map in json.loads(body[offset:]):
            if not (0 <= index < count and isinstance(tag_map, dict)
                    and (fault_id is None or isinstance(fault_id, str))):
                raise JournalError(f"malformed sparse entry for alert {index}")
            alerts[index].fault_id = fault_id
            alerts[index].tags = tag_map
    return alerts


class JournalWriter:
    """Appends write-ahead ingest records to one journal file.

    ``lazy`` buffers appended batches in memory until :meth:`commit`
    (or close); the buffer is bounded by ``max_pending_events`` —
    crossing it forces a commit, so the loss window of a hard kill
    stays bounded even if no snapshot ever fires.
    """

    def __init__(
        self,
        directory: str | Path,
        epoch: int,
        part: int = 0,
        sync: bool = False,
        lazy: bool = False,
        max_pending_events: int = 65536,
    ) -> None:
        self.path = journal_path(directory, epoch, part)
        self.epoch = int(epoch)
        self.part = int(part)
        #: fsync every commit — maximum durability, noticeable cost; off
        #: by default (flush-to-OS still survives process death, just
        #: not host death).
        self.sync = bool(sync)
        #: buffer appends and serialise only at commit points (see the
        #: module docstring's durability tiers).
        self.lazy = bool(lazy)
        self.max_pending_events = int(max_pending_events)
        self.records = 0
        self.records_written = 0
        self._pending: list[tuple[int, list[Alert]]] = []
        self._pending_events = 0
        #: The file's row table: row → index, as far as commits wrote it.
        self._rows: dict[tuple, int] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({
            "version": JOURNAL_VERSION,
            "epoch": self.epoch,
            "part": self.part,
        }).encode("utf-8")
        self._handle = open(self.path, "xb")
        self._handle.write(JOURNAL_MAGIC + _U32.pack(len(header)) + header)
        self._handle.flush()

    @property
    def pending_events(self) -> int:
        """Events accepted but not yet committed to the file."""
        return self._pending_events

    def append(self, start_index: int, alerts: list[Alert]) -> None:
        """Accept one ingest batch (call *before* ingesting it)."""
        self._pending.append((int(start_index), alerts))
        self._pending_events += len(alerts)
        self.records += 1
        if not self.lazy or self._pending_events >= self.max_pending_events:
            self.commit()

    def commit(self) -> int:
        """Serialise and write every pending record; returns the count."""
        if not self._pending:
            return 0
        chunks = []
        written_rows = len(self._rows)
        try:
            for start_index, alerts in self._pending:
                payload = _U64.pack(start_index) + _encode_body(
                    alerts, self._rows,
                )
                chunks.append(_U32.pack(len(payload)))
                chunks.append(_U32.pack(zlib.crc32(payload) & 0xFFFFFFFF))
                chunks.append(payload)
            self._handle.write(b"".join(chunks))
        except BaseException:
            # Unwritten rows must not be referenced by a later record.
            while len(self._rows) > written_rows:
                self._rows.popitem()
            raise
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        committed = len(self._pending)
        self.records_written += committed
        self._pending.clear()
        self._pending_events = 0
        return committed

    def discard_pending(self) -> int:
        """Drop the uncommitted buffer (a snapshot now covers it)."""
        dropped = len(self._pending)
        self._pending.clear()
        self._pending_events = 0
        return dropped

    def close(self) -> None:
        """Commit the tail and close (graceful-shutdown path)."""
        if not self._handle.closed:
            self.commit()
            self._handle.flush()
            if self.sync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    def abandon(self) -> None:
        """Close *without* committing — the crash-simulation path.

        The file keeps exactly what earlier commits flushed to the OS,
        which is what a real ``kill -9`` would have left behind; the
        in-memory pending buffer is lost, as it would be.
        """
        self._pending.clear()
        self._pending_events = 0
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str | Path) -> tuple[dict, list[tuple[int, list[Alert]]]]:
    """Read one journal file: ``(header, [(start_index, alerts), ...])``.

    :func:`decode_journal` over the file's bytes; its errors name
    ``path``.
    """
    return decode_journal(Path(path).read_bytes(), name=str(path))


def decode_journal(
    data: bytes, name: str = "<journal>",
) -> tuple[dict, list[tuple[int, list[Alert]]]]:
    """Decode one journal file's bytes: ``(header, [(start_index, alerts), ...])``.

    Reads ``RCJ2`` and the older ``RCJ1``.  Tolerates a cleanly-truncated
    tail (crash mid-append); raises :class:`JournalError` on bad magic,
    header damage, a CRC mismatch of any *complete* record, or a
    CRC-valid record whose body does not decode.  Every message starts
    with ``name``.
    """
    version = _VERSION_OF_MAGIC.get(data[:4])
    if version is None:
        raise JournalError(
            f"{name}: not a journal file (magic {data[:4]!r})"
        )
    offset = 4
    if len(data) < offset + _U32.size:
        raise JournalError(f"{name}: header length truncated")
    (header_len,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    if len(data) < offset + header_len:
        raise JournalError(f"{name}: header truncated")
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"{name}: header damaged: {exc}") from exc
    if not isinstance(header, dict):
        raise JournalError(f"{name}: header is not a JSON object")
    if header.get("version") != version:
        raise JournalError(
            f"{name}: unsupported journal version {header.get('version')} "
            f"under magic {data[:4]!r}"
        )
    offset += header_len
    table: list[tuple] = []
    records: list[tuple[int, list[Alert]]] = []
    while offset < len(data):
        if len(data) - offset < 2 * _U32.size:
            break  # torn record header: crash mid-append, stop cleanly
        (length,) = _U32.unpack_from(data, offset)
        (crc,) = _U32.unpack_from(data, offset + _U32.size)
        start = offset + 2 * _U32.size
        if len(data) - start < length:
            break  # torn payload: crash mid-append, stop cleanly
        payload = data[start:start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise JournalError(
                f"{name}: CRC mismatch on complete record at byte {offset}; "
                f"the journal is corrupt (not merely truncated)"
            )
        if length < _U64.size:
            raise JournalError(
                f"{name}: record at byte {offset} too short for a start index"
            )
        (start_index,) = _U64.unpack_from(payload, 0)
        body = payload[_U64.size:]
        try:
            alerts = (
                _decode_body(body, table) if version == JOURNAL_VERSION
                else unpack_alerts(body)
            )
        except JournalError as exc:
            raise JournalError(
                f"{name}: record at byte {offset}: {exc}"
            ) from exc
        except (ValueError, struct.error, IndexError, TypeError) as exc:
            # ValidationError (wrong inner magic, impossible times) and
            # UnicodeDecodeError are ValueErrors.
            raise JournalError(
                f"{name}: record at byte {offset} does not decode: {exc!r}"
            ) from exc
        records.append((int(start_index), alerts))
        offset = start + length
    return header, records
