"""Durable gateway checkpoints: versioned, checksummed snapshot files.

A snapshot is one self-describing file::

    RCK1 | u32 header length | header JSON | plane blobs | blake2b-16

The JSON header carries everything JSON-safe the gateway captured —
router assignments, the full R1 rule table, learner windows/timeline,
QoA counters, stats — plus the gateway's construction-time configuration
and a blob directory ``[plane, length]`` (header ``version`` 2).  The
binary tail is one wire-packed state per plane
(:func:`~repro.streaming.wire.pack_plane_state` blobs), concatenated in
directory order.  The trailing 16-byte ``blake2b`` digest covers every
byte before it.  Version 1 files, whose directory rows are ``[plane,
region, length]`` with one blob per region, still decode: their blobs
come back as ``(plane, blob)`` rows, several per plane, and each is
added into its plane on restore.

Loading is strict by construction: the digest is verified over the raw
bytes *before a single field is parsed*, so a truncated, flipped, or
half-written file raises :class:`ChecksumError` — partial state can
never load.  Durability of the write side comes from the classic
write-to-temp / fsync / atomic-rename dance in :class:`CheckpointWriter`;
a crash mid-write leaves the previous snapshot untouched.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.common.errors import ReproError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "ChecksumError",
    "GatewayCheckpoint",
    "checkpoint_of_gateway",
    "encode_checkpoint",
    "decode_checkpoint",
    "CheckpointWriter",
    "CheckpointLoader",
]

CHECKPOINT_MAGIC = b"RCK1"
CHECKPOINT_VERSION = 2
#: Header versions this build decodes: 1 had a per-region blob directory.
_READABLE_VERSIONS = (1, 2)

#: blake2b digest size of the file trailer.
_DIGEST_SIZE = 16
_U32 = struct.Struct(">I")


class CheckpointError(ReproError):
    """A snapshot file is unusable (bad magic, version, or structure)."""


class ChecksumError(CheckpointError):
    """A snapshot file failed integrity verification (corrupt/truncated)."""


@dataclass(slots=True)
class GatewayCheckpoint:
    """One durable capture of a running gateway.

    ``state`` is exactly the dict
    :meth:`~repro.streaming.gateway.AlertGateway.checkpoint_state`
    produced, minus its raw ``blobs`` (held separately so the JSON
    header stays pure text); ``config`` is
    :meth:`~repro.streaming.gateway.AlertGateway.checkpoint_config`.
    """

    seq: int
    created_at: float
    config: dict
    state: dict
    #: ``(plane, packed bytes)``, planes ascending (a version-1 file
    #: holds one row per region, in its first-seen region order).
    blobs: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def input_alerts(self) -> int:
        """Stream position of this capture (events ingested)."""
        return int(self.state["stats"]["input_alerts"])

    @property
    def watermark(self) -> float | None:
        """Event-time watermark of this capture."""
        return self.state["stats"]["watermark"]

    def restore_state(self) -> dict:
        """The gateway-facing state dict (blobs re-attached)."""
        state = dict(self.state)
        state["planes"] = [plane for plane, _ in self.blobs]
        state["blobs"] = [blob for _, blob in self.blobs]
        return state


def checkpoint_of_gateway(gateway, seq: int, created_at: float | None = None) -> GatewayCheckpoint:
    """Capture ``gateway`` (at a flush barrier) as a checkpoint object."""
    state = gateway.checkpoint_state()
    blobs = list(zip(state.pop("planes"), state.pop("blobs")))
    return GatewayCheckpoint(
        seq=int(seq),
        created_at=time.time() if created_at is None else float(created_at),
        config=gateway.checkpoint_config(),
        state=state,
        blobs=blobs,
    )


def encode_checkpoint(checkpoint: GatewayCheckpoint) -> bytes:
    """Serialise a checkpoint to its durable byte form."""
    directory = [[plane, len(blob)] for plane, blob in checkpoint.blobs]
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "seq": checkpoint.seq,
        "created_at": checkpoint.created_at,
        "config": checkpoint.config,
        "state": checkpoint.state,
        "blobs": directory,
    }, ensure_ascii=False).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, _U32.pack(len(header)), header]
    parts.extend(blob for _, blob in checkpoint.blobs)
    body = b"".join(parts)
    return body + blake2b(body, digest_size=_DIGEST_SIZE).digest()


def decode_checkpoint(data: bytes) -> GatewayCheckpoint:
    """Parse durable bytes back into a checkpoint — integrity first.

    The digest is verified over the raw bytes before anything is
    parsed; any mismatch (corruption, truncation, a foreign file of the
    right magic) raises :class:`ChecksumError` and nothing partial is
    ever returned.
    """
    if len(data) < len(CHECKPOINT_MAGIC) + _U32.size + _DIGEST_SIZE:
        raise ChecksumError(
            f"checkpoint truncated: {len(data)} byte(s) is shorter than "
            f"the minimum frame"
        )
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"not a checkpoint file (magic {data[:4]!r}, "
            f"expected {CHECKPOINT_MAGIC!r})"
        )
    body, digest = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
    expected = blake2b(body, digest_size=_DIGEST_SIZE).digest()
    if digest != expected:
        raise ChecksumError(
            "checkpoint checksum mismatch: the file is corrupt or "
            "truncated; refusing to load partial state"
        )
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    header = json.loads(body[offset:offset + header_len].decode("utf-8"))
    if header["version"] not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {header['version']} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    offset += header_len
    blobs: list[tuple[int, bytes]] = []
    for row in header["blobs"]:
        # Version 1 rows are [plane, region, length]: the region goes.
        plane, length = row[0], row[-1]
        blobs.append((int(plane), body[offset:offset + length]))
        offset += length
    if offset != len(body):
        raise CheckpointError(
            f"checkpoint blob directory inconsistent: {len(body) - offset} "
            f"unaccounted byte(s)"
        )
    return GatewayCheckpoint(
        seq=int(header["seq"]),
        created_at=float(header["created_at"]),
        config=header["config"],
        state=header["state"],
        blobs=blobs,
    )


def _snapshot_path(directory: Path, seq: int) -> Path:
    return directory / f"checkpoint-{seq:08d}.rck"


def _snapshot_seq(path: Path) -> int:
    """The sequence number a snapshot filename encodes.

    Ordering snapshots by *name* silently breaks once a sequence number
    outgrows its zero padding (``checkpoint-100000000`` sorts before
    ``checkpoint-99999999``), and the header's ``created_at`` wall stamp
    is no better — a backward clock step can make a newer snapshot look
    older.  The sequence number is the only monotone truth; filenames a
    foreign process dropped into the directory sort oldest (and a real
    load would reject them anyway).
    """
    try:
        return int(path.stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


class CheckpointWriter:
    """Writes snapshots atomically and prunes history.

    ``retain`` bounds disk usage: after each successful write, only the
    newest ``retain`` snapshot files survive (the matching journals are
    the service's concern — it knows which epochs a fallback restore
    still needs).

    ``sync`` fsyncs the temp file before the atomic rename (host-death
    durability); without it the bytes are flushed to the OS only, which
    still survives process death and costs an order of magnitude less
    per snapshot.  Either way a crash mid-write leaves the previous
    snapshot untouched, and the trailing digest rejects a file the
    rename published before its blocks hit the platter.
    """

    def __init__(
        self, directory: str | Path, retain: int = 3, sync: bool = True,
    ) -> None:
        if retain < 1:
            raise CheckpointError("retain must be at least 1")
        self.directory = Path(directory)
        self.retain = int(retain)
        self.sync = bool(sync)
        self.directory.mkdir(parents=True, exist_ok=True)

    def write(self, checkpoint: GatewayCheckpoint) -> Path:
        """Durably persist one snapshot; returns its final path."""
        final = _snapshot_path(self.directory, checkpoint.seq)
        temp = final.with_suffix(".rck.tmp")
        data = encode_checkpoint(checkpoint)
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        os.replace(temp, final)
        self._prune()
        return final

    def _prune(self) -> None:
        snapshots = sorted(
            self.directory.glob("checkpoint-*.rck"),
            key=lambda path: (_snapshot_seq(path), path.name),
        )
        for stale in snapshots[:-self.retain]:
            stale.unlink(missing_ok=True)


class CheckpointLoader:
    """Finds and strictly loads snapshots from a service directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def paths(self) -> list[Path]:
        """Snapshot files, oldest first by *sequence number*.

        The ``created_at`` wall stamp is informational only — sequence
        numbers are the monotone ordering a restore must trust.
        """
        return sorted(
            self.directory.glob("checkpoint-*.rck"),
            key=lambda path: (_snapshot_seq(path), path.name),
        )

    def load(self, path: str | Path) -> GatewayCheckpoint:
        """Strictly load one snapshot (raises on any integrity failure)."""
        return decode_checkpoint(Path(path).read_bytes())

    def latest(self) -> GatewayCheckpoint | None:
        """The newest snapshot that verifies, or ``None``.

        Corrupt newer files are *skipped* (recovery falls back to the
        last good snapshot — its journal tail still covers the gap), but
        never partially loaded; if every snapshot is corrupt the last
        failure propagates so the damage is loud.
        """
        paths = self.paths()
        error: CheckpointError | None = None
        for path in reversed(paths):
            try:
                return self.load(path)
            except CheckpointError as exc:
                error = exc
        if error is not None:
            raise error
        return None
