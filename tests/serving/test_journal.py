"""The event journal: round-trip, RCJ1 reads and corruption handling.

The write-ahead log's contract is asymmetric on purpose: a torn tail is
the normal signature of a crash mid-append and must be tolerated (every
complete record returned); damage to a *complete* record means
acknowledged events would be lost, so the reader must raise instead of
silently dropping them.  That includes a record whose CRC matches but
whose body does not decode: hostile bytes raise :class:`JournalError`,
never another exception.
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from pathlib import Path

import pytest

from repro.io.traces import alert_to_dict
from repro.serving.journal import (
    JournalError,
    JournalWriter,
    ROW_FIELDS,
    decode_journal,
    journal_files,
    journal_path,
    read_journal,
)

from tests.serving.legacy_service_fixture import CRASH_AT, SNAPSHOT_AT
from tests.streaming.conftest import make_alert
from tests.streaming.test_golden_trace import _load_alerts

LEGACY_JOURNAL = (
    Path(__file__).resolve().parents[1]
    / "data" / "legacy_service" / "journal-00000001-0000.rcj"
)
#: alerts, new rows, row-block bytes, id-block bytes (the RCJ2 body head).
BODY_HEAD = struct.Struct("<IIII")


def _batch(start: float, count: int, region: str = "region-A"):
    return [
        make_alert(occurred_at=start + index * 5.0, region=region,
                   strategy_id=f"s-{index % 3}")
        for index in range(count)
    ]


class TestRoundTrip:
    def test_multi_record_round_trip(self, tmp_path):
        batches = [(0, _batch(0.0, 4)), (4, _batch(20.0, 3)),
                   (7, _batch(35.0, 5, region="région-β"))]
        with JournalWriter(tmp_path, epoch=3, part=1) as writer:
            for start_index, alerts in batches:
                writer.append(start_index, alerts)
        header, records = read_journal(journal_path(tmp_path, 3, 1))
        assert header == {"version": 2, "epoch": 3, "part": 1}
        assert [(start, [a.alert_id for a in alerts])
                for start, alerts in records] == \
               [(start, [a.alert_id for a in alerts])
                for start, alerts in batches]

    def test_every_field_round_trips(self, tmp_path):
        first = _batch(0.0, 4, region="région-β")
        first[0].fault_id = "fault-7"
        first[1].tags = {"clé": "valeur", "": ""}
        first[2].cleared_at = None
        second = _batch(20.0, 3)
        second[1].title = "retitled mid-file: ☂"
        second[2].alert_id = ""
        with JournalWriter(tmp_path, epoch=0) as writer:
            writer.append(0, first)
            writer.append(4, second)
        _, records = read_journal(writer.path)
        assert [[alert_to_dict(a) for a in alerts] for _, alerts in records] \
            == [[alert_to_dict(a) for a in batch] for batch in (first, second)]

    def test_rows_are_written_once_per_file(self, tmp_path):
        batch = _batch(0.0, 6)
        for epoch in (0, 1):
            with JournalWriter(tmp_path, epoch=epoch) as writer:
                writer.append(0, batch)
                writer.append(6, batch)
        bodies = []
        for _epoch, _part, path in journal_files(tmp_path):
            data = path.read_bytes()
            offset = 8 + int.from_bytes(data[4:8], "big")
            while offset < len(data):
                length = int.from_bytes(data[offset:offset + 4], "big")
                bodies.append(data[offset + 16:offset + 8 + length])
                offset += 8 + length
        # Three strategies, one row each: written by each file's first
        # record only, so every file decodes on its own.
        assert [BODY_HEAD.unpack_from(body)[1] for body in bodies] == \
               [3, 0, 3, 0]

    def test_discarded_records_leave_no_row_behind(self, tmp_path):
        writer = JournalWriter(tmp_path, epoch=0, lazy=True)
        writer.append(0, _batch(0.0, 2, region="region-Z"))
        writer.discard_pending()
        writer.append(2, _batch(10.0, 2, region="region-Z"))
        writer.close()
        _, records = read_journal(writer.path)
        assert [(start, [a.region for a in alerts])
                for start, alerts in records] == [(2, ["region-Z"] * 2)]

    def test_empty_journal_is_valid(self, tmp_path):
        JournalWriter(tmp_path, epoch=0).close()
        header, records = read_journal(journal_path(tmp_path, 0, 0))
        assert header["epoch"] == 0
        assert records == []

    def test_writer_refuses_to_overwrite(self, tmp_path):
        JournalWriter(tmp_path, epoch=0).close()
        with pytest.raises(FileExistsError):
            JournalWriter(tmp_path, epoch=0)

    def test_journal_files_sorted_by_epoch_then_part(self, tmp_path):
        for epoch, part in ((2, 0), (0, 1), (0, 0), (1, 0)):
            JournalWriter(tmp_path, epoch=epoch, part=part).close()
        assert [(e, p) for e, p, _ in journal_files(tmp_path)] == \
               [(0, 0), (0, 1), (1, 0), (2, 0)]


    def test_a_failed_commit_leaves_no_row_behind(self, tmp_path):
        writer = JournalWriter(tmp_path, epoch=0, lazy=True)
        good = _batch(0.0, 2, region="region-Z")
        writer.append(0, good)
        writer.append(2, [make_alert(10.0, region="\ud800")])  # no UTF-8
        with pytest.raises(UnicodeEncodeError):
            writer.commit()
        writer.discard_pending()
        writer.append(0, good)
        writer.close()
        _, records = read_journal(writer.path)
        assert [(start, len(alerts)) for start, alerts in records] == [(0, 2)]


class TestLazyCommit:
    def test_lazy_appends_stay_in_memory_until_commit(self, tmp_path):
        writer = JournalWriter(tmp_path, epoch=0, lazy=True)
        header_size = writer.path.stat().st_size
        writer.append(0, _batch(0.0, 4))
        writer.append(4, _batch(20.0, 3))
        assert writer.pending_events == 7
        assert writer.records == 2 and writer.records_written == 0
        assert writer.path.stat().st_size == header_size, (
            "lazy appends must not serialise or touch the file"
        )
        assert writer.commit() == 2
        assert writer.pending_events == 0 and writer.records_written == 2
        writer.close()
        _, records = read_journal(writer.path)
        assert [(start, len(alerts)) for start, alerts in records] == \
               [(0, 4), (4, 3)]

    def test_close_commits_the_tail(self, tmp_path):
        with JournalWriter(tmp_path, epoch=0, lazy=True) as writer:
            writer.append(0, _batch(0.0, 5))
        _, records = read_journal(journal_path(tmp_path, 0, 0))
        assert [(start, len(alerts)) for start, alerts in records] == [(0, 5)]

    def test_abandon_loses_the_uncommitted_tail_only(self, tmp_path):
        writer = JournalWriter(tmp_path, epoch=0, lazy=True)
        writer.append(0, _batch(0.0, 4))
        writer.commit()
        writer.append(4, _batch(20.0, 3))  # never committed
        writer.abandon()
        _, records = read_journal(writer.path)
        assert [(start, len(alerts)) for start, alerts in records] == [(0, 4)]

    def test_discard_pending_drops_covered_records(self, tmp_path):
        writer = JournalWriter(tmp_path, epoch=0, lazy=True)
        writer.append(0, _batch(0.0, 4))
        assert writer.discard_pending() == 1
        writer.close()
        _, records = read_journal(writer.path)
        assert records == []

    def test_pending_bound_forces_a_commit(self, tmp_path):
        writer = JournalWriter(
            tmp_path, epoch=0, lazy=True, max_pending_events=6,
        )
        writer.append(0, _batch(0.0, 4))
        assert writer.records_written == 0
        writer.append(4, _batch(20.0, 4))  # 8 >= 6: loss window bounded
        assert writer.records_written == 2 and writer.pending_events == 0
        writer.abandon()
        _, records = read_journal(writer.path)
        assert len(records) == 2


class TestCorruption:
    def _written(self, tmp_path):
        with JournalWriter(tmp_path, epoch=0) as writer:
            writer.append(0, _batch(0.0, 4))
            writer.append(4, _batch(20.0, 4))
        return journal_path(tmp_path, 0, 0)

    def test_torn_tail_returns_complete_prefix(self, tmp_path):
        path = self._written(tmp_path)
        data = path.read_bytes()
        # Cut into the middle of the second record: one complete record
        # plus a torn one — the torn one is dropped, cleanly.
        for cut in (len(data) - 1, len(data) - 10, len(data) - 50):
            path.write_bytes(data[:cut])
            _, records = read_journal(path)
            assert len(records) in (1, 2)
            assert records[0][0] == 0 and len(records[0][1]) == 4

    def test_mid_file_corruption_raises(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip a byte inside the FIRST record's payload: it is complete,
        # so a CRC mismatch is damage, not truncation.
        header_len = int.from_bytes(data[4:8], "big")
        first_payload = 4 + 4 + header_len + 8  # magic+len+header+record hdr
        data[first_payload + 10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC mismatch"):
            read_journal(path)

    def test_errors_name_the_path_or_the_given_name(self, tmp_path):
        path = self._written(tmp_path)
        data = b"JUNK" + path.read_bytes()[4:]
        path.write_bytes(data)
        with pytest.raises(JournalError, match=f"^{re.escape(str(path))}: "):
            read_journal(path)
        with pytest.raises(JournalError, match="^probe: not a journal"):
            decode_journal(data, name="probe")

    def test_bad_magic_raises(self, tmp_path):
        path = self._written(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"JUNK" + data[4:])
        with pytest.raises(JournalError, match="not a journal"):
            read_journal(path)

    def test_damaged_header_raises(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        data[9] ^= 0xFF  # inside the header JSON
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            read_journal(path)


class TestLegacyRCJ1:
    def test_legacy_journal_decodes_to_the_golden_slice(self):
        header, records = read_journal(LEGACY_JOURNAL)
        assert LEGACY_JOURNAL.read_bytes()[:4] == b"RCJ1"
        assert header["version"] == 1
        assert [(start, len(alerts)) for start, alerts in records] == \
               [(SNAPSHOT_AT, CRASH_AT - SNAPSHOT_AT)]
        golden = _load_alerts()[SNAPSHOT_AT:CRASH_AT]
        assert [alert_to_dict(alert) for alert in records[0][1]] == \
               [alert_to_dict(alert) for alert in golden]


def _frame(payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload))
            + struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF) + payload)


def _journal_file(path: Path, magic: bytes, header: bytes,
                  bodies: list[bytes]) -> Path:
    """A journal with CRC-valid records around arbitrary ``bodies``."""
    path.write_bytes(
        magic + struct.pack(">I", len(header)) + header
        + b"".join(_frame(struct.pack(">Q", 0) + body) for body in bodies)
    )
    return path


def _rcj2_body(tmp_path) -> tuple[bytes, bytes]:
    """``(header bytes, body)`` of a one-record RCJ2 journal."""
    with JournalWriter(tmp_path / "src", epoch=0) as writer:
        writer.append(0, _batch(0.0, 4))
    data = writer.path.read_bytes()
    header_len = int.from_bytes(data[4:8], "big")
    record = data[8 + header_len:]
    return data[8:8 + header_len], record[8 + 8:]


def _columns(body: bytes) -> dict[str, int]:
    """Byte offsets of the id-length and row-reference columns."""
    count, n_rows, row_bytes, id_bytes = BODY_HEAD.unpack_from(body, 0)
    id_lengths = BODY_HEAD.size + 4 * len(ROW_FIELDS) * n_rows + row_bytes
    return {"id_lengths": id_lengths,
            "refs": id_lengths + 4 * count + id_bytes}


class TestHostileBytes:
    def test_header_that_is_not_an_object_raises(self, tmp_path):
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", b"[1]", [])
        with pytest.raises(JournalError, match="not a JSON object"):
            read_journal(path)

    def test_header_version_must_match_the_magic(self, tmp_path):
        header = json.dumps({"version": 1, "epoch": 0, "part": 0}).encode()
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", header, [])
        with pytest.raises(JournalError, match="unsupported journal version"):
            read_journal(path)

    def test_rcj1_record_with_wrong_inner_magic_raises(self, tmp_path):
        header = json.dumps({"version": 1, "epoch": 0, "part": 0}).encode()
        path = _journal_file(
            tmp_path / "j.rcj", b"RCJ1", header, [b"JUNK" + bytes(64)],
        )
        with pytest.raises(JournalError, match="does not decode"):
            read_journal(path)

    def test_rcj1_record_with_short_body_raises(self, tmp_path):
        header = json.dumps({"version": 1, "epoch": 0, "part": 0}).encode()
        path = _journal_file(
            tmp_path / "j.rcj", b"RCJ1", header, [b"RWA1\x00\x00"],
        )
        with pytest.raises(JournalError, match="does not decode"):
            read_journal(path)

    def test_rcj2_untouched_body_decodes(self, tmp_path):
        header, body = _rcj2_body(tmp_path)
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", header, [body])
        _, records = read_journal(path)
        assert [len(alerts) for _, alerts in records] == [4]

    def test_rcj2_row_reference_past_the_table_raises(self, tmp_path):
        header, body = _rcj2_body(tmp_path)
        body = bytearray(body)
        at = _columns(body)["refs"]
        body[at:at + 4] = struct.pack("<I", 999)
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", header, [bytes(body)])
        with pytest.raises(JournalError, match="row reference 999 past"):
            read_journal(path)

    def test_rcj2_id_lengths_that_miss_the_block_raise(self, tmp_path):
        header, body = _rcj2_body(tmp_path)
        body = bytearray(body)
        at = _columns(body)["id_lengths"]
        (length,) = struct.unpack_from("<I", body, at)
        body[at:at + 4] = struct.pack("<I", length + 1)
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", header, [bytes(body)])
        with pytest.raises(JournalError, match="string lengths sum to"):
            read_journal(path)

    @pytest.mark.parametrize("cut", [1, 8, 100])
    def test_rcj2_body_shorter_than_its_columns_raises(self, tmp_path, cut):
        header, body = _rcj2_body(tmp_path)
        path = _journal_file(
            tmp_path / "j.rcj", b"RCJ2", header, [body[:-cut]],
        )
        with pytest.raises(JournalError, match="shorter than its columns"):
            read_journal(path)

    def test_rcj2_body_shorter_than_its_head_raises(self, tmp_path):
        header, _body = _rcj2_body(tmp_path)
        path = _journal_file(tmp_path / "j.rcj", b"RCJ2", header, [bytes(5)])
        with pytest.raises(JournalError, match="shorter than its header"):
            read_journal(path)
