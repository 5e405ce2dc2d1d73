"""The RCK1 checkpoint container: round-trip, corruption, retention.

The durability contract under test: a checkpoint either decodes to
exactly what was written, or fails loudly — a damaged file must never
yield partial state, because a gateway restored from partial state
would silently diverge from its own history forever after.
"""

from __future__ import annotations

import json
import struct
from hashlib import blake2b

import pytest

from repro.serving.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointLoader,
    CheckpointWriter,
    ChecksumError,
    GatewayCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
)


def _sample_checkpoint(seq: int = 1) -> GatewayCheckpoint:
    return GatewayCheckpoint(
        seq=seq,
        created_at=1_700_000_000.0 + seq,
        config={"backend": "serial", "n_planes": 2, "flush_size": 64},
        state={
            "assignments": [["region-A", 0], ["région-β", 1]],
            "rules": [{"strategy_id": "s-noise", "region": None,
                       "reason": "r", "expires_at": None}],
            "stats": {"input_alerts": 128, "watermark": 2560.0},
            "learner": None,
            "qoa": None,
            "last_flush_watermark": 2560.0,
        },
        blobs=[(0, b"\x00\x01plane-zero"), (1, b"")],
    )


def _framed(header: dict, blobs: list[bytes]) -> bytes:
    """A container with a hand-written header: magic, header, blobs,
    digest — how an older build laid out the same file."""
    raw = json.dumps(header, ensure_ascii=False).encode("utf-8")
    body = b"".join([CHECKPOINT_MAGIC, struct.pack(">I", len(raw)), raw, *blobs])
    return body + blake2b(body, digest_size=16).digest()


class TestEncodeDecode:
    def test_round_trip_is_exact(self):
        original = _sample_checkpoint()
        decoded = decode_checkpoint(encode_checkpoint(original))
        assert decoded.seq == original.seq
        assert decoded.created_at == original.created_at
        assert decoded.config == original.config
        assert decoded.state == original.state
        assert decoded.blobs == original.blobs

    def test_restore_state_reattaches_blobs(self):
        decoded = decode_checkpoint(encode_checkpoint(_sample_checkpoint()))
        state = decoded.restore_state()
        assert state["planes"] == [0, 1]
        assert state["blobs"] == [b"\x00\x01plane-zero", b""]

    def test_the_directory_lists_one_plane_and_length_per_blob(self):
        data = encode_checkpoint(_sample_checkpoint())
        (length,) = struct.unpack_from(">I", data, 4)
        header = json.loads(data[8:8 + length])
        assert header["version"] == CHECKPOINT_VERSION == 2
        assert header["blobs"] == [[0, 12], [1, 0]]
        assert "planes" not in header["state"] and "blobs" not in header["state"]

    def test_a_version_1_per_region_directory_still_decodes(self):
        """Version 1 wrote one blob per (plane, region): its rows come
        back as ``(plane, blob)``, several per plane, in file order."""
        original = _sample_checkpoint()
        blobs = [b"region-A blob", b"r\xc3\xa9gion-\xce\xb2 blob", b"plane-one"]
        data = _framed({
            "version": 1, "seq": 1, "created_at": original.created_at,
            "config": original.config, "state": original.state,
            "blobs": [[0, "region-A", len(blobs[0])],
                      [0, "r\xc3\xa9gion-\xce\xb2", len(blobs[1])],
                      [1, "region-C", len(blobs[2])]],
        }, blobs)
        decoded = decode_checkpoint(data)
        assert decoded.blobs == [(0, blobs[0]), (0, blobs[1]), (1, blobs[2])]
        assert decoded.state == original.state
        state = decoded.restore_state()
        assert state["planes"] == [0, 0, 1] and state["blobs"] == blobs

    def test_an_unknown_version_is_refused(self):
        original = _sample_checkpoint()
        data = _framed({
            "version": 3, "seq": 1, "created_at": 0.0, "config": {},
            "state": original.state, "blobs": [],
        }, [])
        with pytest.raises(CheckpointError, match="version 3"):
            decode_checkpoint(data)

    def test_properties(self):
        checkpoint = _sample_checkpoint()
        assert checkpoint.input_alerts == 128
        assert checkpoint.watermark == 2560.0

    def test_bad_magic_is_not_a_checkpoint(self):
        data = encode_checkpoint(_sample_checkpoint())
        with pytest.raises(CheckpointError):
            decode_checkpoint(b"NOPE" + data[4:])
        assert data.startswith(CHECKPOINT_MAGIC)

    def test_every_bit_flip_fails_the_checksum(self):
        """Flip one bit at a spread of offsets: decode must always raise,
        never return an object built from damaged bytes."""
        data = bytearray(encode_checkpoint(_sample_checkpoint()))
        for offset in range(4, len(data), max(len(data) // 40, 1)):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0x40
            with pytest.raises((ChecksumError, CheckpointError)):
                decode_checkpoint(bytes(corrupt))

    def test_every_truncation_fails_loudly(self):
        data = encode_checkpoint(_sample_checkpoint())
        for cut in range(0, len(data), max(len(data) // 25, 1)):
            with pytest.raises((ChecksumError, CheckpointError)):
                decode_checkpoint(data[:cut])

    def test_appended_garbage_fails_the_checksum(self):
        data = encode_checkpoint(_sample_checkpoint())
        with pytest.raises(ChecksumError):
            decode_checkpoint(data + b"\x00")


class TestWriterLoader:
    def test_write_then_latest(self, tmp_path):
        writer = CheckpointWriter(tmp_path)
        path = writer.write(_sample_checkpoint(seq=1))
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp")), "temp file left behind"
        loaded = CheckpointLoader(tmp_path).latest()
        assert loaded is not None and loaded.seq == 1

    def test_retention_prunes_oldest(self, tmp_path):
        writer = CheckpointWriter(tmp_path, retain=2)
        for seq in (1, 2, 3, 4):
            writer.write(_sample_checkpoint(seq=seq))
        names = sorted(p.name for p in CheckpointLoader(tmp_path).paths())
        assert names == ["checkpoint-00000003.rck", "checkpoint-00000004.rck"]

    def test_latest_skips_corrupt_newer_snapshot(self, tmp_path):
        writer = CheckpointWriter(tmp_path)
        writer.write(_sample_checkpoint(seq=1))
        newest = writer.write(_sample_checkpoint(seq=2))
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        loaded = CheckpointLoader(tmp_path).latest()
        assert loaded is not None and loaded.seq == 1

    def test_latest_raises_when_all_snapshots_corrupt(self, tmp_path):
        writer = CheckpointWriter(tmp_path)
        path = writer.write(_sample_checkpoint(seq=1))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises((ChecksumError, CheckpointError)):
            CheckpointLoader(tmp_path).latest()

    def test_latest_on_empty_directory_is_none(self, tmp_path):
        assert CheckpointLoader(tmp_path).latest() is None
        assert CheckpointLoader(tmp_path / "missing").latest() is None

    def test_ordering_is_numeric_not_lexicographic(self, tmp_path):
        """Regression: snapshots were ordered by filename, so once the
        sequence outgrew the zero-padding width (seq 100000000 sorts
        before 99999999 as a string), ``latest`` restored a stale
        snapshot and retention pruned the newest one."""
        writer = CheckpointWriter(tmp_path, retain=2)
        for seq in (99_999_999, 100_000_000, 100_000_001):
            writer.write(_sample_checkpoint(seq=seq))
        loaded = CheckpointLoader(tmp_path).latest()
        assert loaded is not None and loaded.seq == 100_000_001
        kept = sorted(
            int(p.stem.rsplit("-", 1)[1])
            for p in CheckpointLoader(tmp_path).paths()
        )
        assert kept == [100_000_000, 100_000_001]

    def test_retention_and_latest_agree_across_the_padding_edge(self, tmp_path):
        writer = CheckpointWriter(tmp_path, retain=3)
        for seq in (9, 10, 11, 12):
            writer.write(_sample_checkpoint(seq=seq))
        assert CheckpointLoader(tmp_path).latest().seq == 12
        kept = sorted(
            int(p.stem.rsplit("-", 1)[1])
            for p in CheckpointLoader(tmp_path).paths()
        )
        assert kept == [10, 11, 12]
