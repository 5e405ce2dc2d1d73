"""The event journal: length-prefixed, CRC'd ingest records.

Snapshots are periodic; the journal closes the gap between the last
snapshot and the crash.  Every ingest batch is appended *before* the
gateway processes it (write-ahead), so after a crash the journal is
always at or ahead of the restored snapshot, never behind — replaying
the tail reproduces exactly the events the dead process had accepted.

File layout::

    RCJ1 | u32 header length | header JSON          (epoch metadata)
    u32 payload length | u32 crc32 | payload        (record, repeated)

A record's payload is ``u64 start index`` (the gateway's
``input_alerts`` when the batch was accepted) followed by the batch
wire-packed with :func:`~repro.streaming.wire.pack_alerts`.  Records
are self-describing, so replay can slice out exactly the alerts a
restored snapshot has not yet seen.

Corruption semantics are asymmetric on purpose:

* a **truncated final record** is the expected signature of a crash
  mid-append — the reader stops cleanly before it and returns every
  complete record;
* a **complete record whose CRC fails**, or garbage mid-file, means the
  log itself is damaged — the reader raises :class:`JournalError`
  rather than silently dropping acknowledged events.

The writer has three durability tiers.  Serialising an alert batch costs
about half of what the gateway spends *processing* it (the
``benchmarks/e2e`` ledger, seed 44, reference-normalised on a 2-core
VM: ``journal.append_us_per_alert`` ≈ 1.8 µs on ``storm_durable``
against ≈ 3.9 µs of CPU per alert on ``storm_serial``), so eager
journalling is a throughput decision, not a default:

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
from pathlib import Path

from repro.alerting.alert import Alert
from repro.serving.checkpoint import CheckpointError
from repro.streaming.wire import pack_alerts, unpack_alerts

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalWriter",
    "journal_path",
    "journal_files",
    "read_journal",
]

JOURNAL_MAGIC = b"RCJ1"
JOURNAL_VERSION = 1

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


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
        for start_index, alerts in self._pending:
            payload = _U64.pack(start_index) + pack_alerts(alerts)
            chunks.append(_U32.pack(len(payload)))
            chunks.append(_U32.pack(zlib.crc32(payload) & 0xFFFFFFFF))
            chunks.append(payload)
        self._handle.write(b"".join(chunks))
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

    Tolerates a cleanly-truncated tail (crash mid-append); raises
    :class:`JournalError` on bad magic, header damage, or a CRC mismatch
    of any *complete* record.
    """
    data = Path(path).read_bytes()
    if not data.startswith(JOURNAL_MAGIC):
        raise JournalError(
            f"{path}: not a journal file (magic {data[:4]!r})"
        )
    offset = len(JOURNAL_MAGIC)
    if len(data) < offset + _U32.size:
        raise JournalError(f"{path}: header length truncated")
    (header_len,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    if len(data) < offset + header_len:
        raise JournalError(f"{path}: header truncated")
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"{path}: header damaged: {exc}") from exc
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: unsupported journal version {header.get('version')}"
        )
    offset += header_len
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
                f"{path}: CRC mismatch on complete record at byte {offset}; "
                f"the journal is corrupt (not merely truncated)"
            )
        if length < _U64.size:
            raise JournalError(
                f"{path}: record at byte {offset} too short for a start index"
            )
        (start_index,) = _U64.unpack_from(payload, 0)
        records.append((int(start_index), unpack_alerts(payload[_U64.size:])))
        offset = start + length
    return header, records
