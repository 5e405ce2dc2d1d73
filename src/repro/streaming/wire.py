"""Struct-packed wire encoding for the process plane backend.

The PR-2 process backend pickled whole :class:`~repro.alerting.alert.Alert`
objects per event — the serialisation tax ROADMAP called out.  This
module replaces that with a compact tuple/columnar format:

* a **string table** with dictionary encoding: every distinct string
  (region, service, strategy id, title, ...) is stored once and
  referenced by a fixed-width index — alert streams repeat their
  vocabulary heavily, so the table collapses most of the payload;
* **columnar arrays** for the per-record fields: one ``array`` of u32
  string references per attribute plus packed severity/state bytes and
  f64 timestamps, instead of per-object pickle opcodes;
* shared framing for the payloads that cross the process boundary: raw
  ``Alert`` batches (gateway → worker, every flush), the end-of-run
  aggregate/cluster snapshots (worker → gateway, once at drain when
  artifacts are retained) and the plane-state checkpoint blob (one per
  plane, one string table for everything the plane holds).

Encoding is byte-deterministic for a given input, versioned by a magic
header, and validated by round-trip tests in
``tests/streaming/test_wire.py``.
"""

from __future__ import annotations

import struct
from array import array
from operator import attrgetter
from typing import Sequence

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.errors import ValidationError
from repro.common.timeutil import TimeWindow
from repro.core.mitigation.aggregation import AggregatedAlert
from repro.core.mitigation.correlation import AlertCluster
from repro.streaming.dedup import OpenSession
from repro.streaming.storm import RegionStormState

__all__ = [
    "AlertBatchBuilder",
    "pack_alerts",
    "unpack_alerts",
    "pack_aggregates",
    "unpack_aggregates",
    "pack_clusters",
    "unpack_clusters",
    "pack_plane_state",
    "unpack_plane_state",
]

_MAGIC_ALERTS = b"RWA1"
_MAGIC_AGGREGATES = b"RWG1"
_MAGIC_CLUSTERS = b"RWC1"
_MAGIC_PLANE = b"RWP2"
#: Legacy per-region plane-state blobs (read only).
_MAGIC_REGION = b"RWP1"

#: u32 sentinel for "no string" (optional fields like ``fault_id``).
_NONE_REF = 0xFFFFFFFF
#: f64 sentinel for "not cleared" (real clear times are >= occurred_at >= 0).
_NO_TIME = -1.0

_STATES = tuple(AlertState)
_STATE_INDEX = {state: index for index, state in enumerate(_STATES)}
_SEVERITIES = tuple(sorted(Severity, key=lambda s: s.value))

_HEADER = struct.Struct("<I")


class _Writer:
    """Accumulates length-prefixed sections plus a shared string table."""

    def __init__(self, magic: bytes) -> None:
        self._parts: list[bytes] = [magic]
        self._strings: list[str] = []
        self._index: dict[str, int] = {}

    def ref(self, value: str) -> int:
        """Dictionary-encode one string; returns its table index."""
        index = self._index.get(value)
        if index is None:
            index = len(self._strings)
            self._index[value] = index
            self._strings.append(value)
        return index

    def ref_or_none(self, value: str | None) -> int:
        return _NONE_REF if value is None else self.ref(value)

    def section(self, payload: bytes) -> None:
        """Append one length-prefixed section."""
        self._parts.append(_HEADER.pack(len(payload)))
        self._parts.append(payload)

    def finish(self) -> bytes:
        """Serialise: magic, string table, then the queued sections."""
        pack = _HEADER.pack
        table = [pack(len(self._strings))]
        extend = table.extend
        for value in self._strings:
            raw = value.encode("utf-8")
            extend((pack(len(raw)), raw))
        return b"".join([self._parts[0], b"".join(table), *self._parts[1:]])


class _Reader:
    """Walks the sections written by :class:`_Writer`.

    ``data`` may be any bytes-like buffer — ``bytes`` off a pipe or a
    ``memoryview`` over a shared-memory ring slot.  Sections come back
    as slices of the input, so a memoryview input decodes zero-copy:
    nothing here materialises the payload as ``bytes``.
    """

    def __init__(self, data, magic: bytes) -> None:
        if data[:4] != magic:
            raise ValidationError(
                f"wire payload has magic {bytes(data[:4])!r}, "
                f"expected {magic!r}"
            )
        self._data = data
        self._offset = 4
        count = self._u32()
        self.strings: list[str] = []
        for _ in range(count):
            length = self._u32()
            end = self._offset + length
            self.strings.append(str(data[self._offset:end], "utf-8"))
            self._offset = end

    def _u32(self) -> int:
        value = _HEADER.unpack_from(self._data, self._offset)[0]
        self._offset += 4
        return value

    def section(self) -> bytes:
        length = self._u32()
        end = self._offset + length
        payload = self._data[self._offset:end]
        self._offset = end
        return payload

    def string_or_none(self, ref: int) -> str | None:
        return None if ref == _NONE_REF else self.strings[ref]


def _array_bytes(typecode: str, values: list) -> bytes:
    return array(typecode, values).tobytes()


def _read_array(typecode: str, payload: bytes) -> array:
    values = array(typecode)
    values.frombytes(payload)
    return values


def _write_ragged(writer: _Writer, typecode: str, rows) -> None:
    """Variable-length rows as an offsets section plus one flat array."""
    offsets = [0]
    flat: list = []
    for row in rows:
        flat.extend(row)
        offsets.append(len(flat))
    writer.section(_array_bytes("I", offsets))
    writer.section(_array_bytes(typecode, flat))


def _read_ragged(reader: _Reader, typecode: str) -> list[array]:
    offsets = _read_array("I", reader.section())
    flat = _read_array(typecode, reader.section())
    return [flat[start:end] for start, end in zip(offsets, offsets[1:])]


# ----------------------------------------------------------------------
# alerts
# ----------------------------------------------------------------------
_ALERT_STRING_FIELDS = (
    "alert_id", "strategy_id", "strategy_name", "title", "description",
    "service", "microservice", "region", "datacenter", "channel",
)
#: One C-level tuple fetch per alert instead of ten Python getattrs —
#: this block is the serialisation hot path for worker batches and
#: plane-state snapshots.
_ALERT_STRINGS = attrgetter(*_ALERT_STRING_FIELDS)
#: The nine fields a strategy repeats on every alert it fires (all but
#: ``alert_id``): the per-block memo key.
_SHARED_FIELDS = _ALERT_STRING_FIELDS[1:]
_SHARED_STRINGS = attrgetter(*_SHARED_FIELDS)


def _write_alert_block(writer: _Writer, alerts: Sequence[Alert]) -> None:
    # Interning order is the row-major one — per alert its ten string
    # fields, then fault_id, then tags — so the string table, and every
    # byte, is independent of the memo: a repeated 9-tuple's strings are
    # already in the table.  Interning is inlined (vs writer.ref): this
    # loop runs once per alert on every worker batch and snapshot.
    index_of = writer._index
    strings = writer._strings
    memo: dict[tuple[str, ...], tuple[int, ...]] = {}
    id_refs: list[int] = []
    rows: list[tuple[int, ...]] = []
    fault_refs: list[int] = []
    states: list[int] = []
    tags: list[int] = []  # flat (alert_index, key_ref, value_ref) triples
    state_index = _STATES.index  # identity scan; Enum.__hash__ is Python
    for index, alert in enumerate(alerts):
        value = alert.alert_id
        ref = index_of.get(value)
        if ref is None:
            ref = index_of[value] = len(strings)
            strings.append(value)
        id_refs.append(ref)
        shared = _SHARED_STRINGS(alert)
        refs = memo.get(shared)
        if refs is None:
            fresh = []
            for value in shared:
                ref = index_of.get(value)
                if ref is None:
                    ref = index_of[value] = len(strings)
                    strings.append(value)
                fresh.append(ref)
            refs = memo[shared] = tuple(fresh)
        rows.append(refs)
        value = alert.fault_id
        fault_refs.append(_NONE_REF if value is None else writer.ref(value))
        states.append(state_index(alert.state))
        if alert.tags:
            ref_of = writer.ref
            for key, value in alert.tags.items():
                tags.extend((index, ref_of(key), ref_of(value)))
    # Severity is an IntEnum: bytes() takes its int value in C.
    severities = bytes([alert.severity for alert in alerts])
    occurred = [alert.occurred_at for alert in alerts]
    cleared = [
        _NO_TIME if alert.cleared_at is None else alert.cleared_at
        for alert in alerts
    ]
    writer.section(_HEADER.pack(len(alerts)))
    writer.section(_array_bytes("I", id_refs))
    # Transpose the per-alert ref rows into the nine shared columns.
    for column in zip(*rows) if rows else [()] * len(_SHARED_FIELDS):
        writer.section(_array_bytes("I", column))
    writer.section(_array_bytes("I", fault_refs))
    writer.section(severities)
    writer.section(bytes(states))
    writer.section(_array_bytes("d", occurred))
    writer.section(_array_bytes("d", cleared))
    writer.section(_array_bytes("I", tags))


def _read_alert_block(reader: _Reader) -> list[Alert]:
    count = _HEADER.unpack(reader.section())[0]
    strings = reader.strings
    columns = [_read_array("I", reader.section()) for _ in _ALERT_STRING_FIELDS]
    fault_refs = _read_array("I", reader.section())
    severities = reader.section()
    states = reader.section()
    occurred = _read_array("d", reader.section())
    cleared = _read_array("d", reader.section())
    tag_triples = _read_array("I", reader.section())
    tags_of: dict[int, dict[str, str]] = {}
    for position in range(0, len(tag_triples), 3):
        index, key_ref, value_ref = tag_triples[position:position + 3]
        tags_of.setdefault(index, {})[strings[key_ref]] = strings[value_ref]
    alerts: list[Alert] = []
    append = alerts.append
    ids, strategies, names, titles, descriptions, services, micros, \
        regions, datacenters, channels = columns
    tags_get = tags_of.get
    for index in range(count):
        cleared_at = cleared[index]
        fault_ref = fault_refs[index]
        # Positional in dataclass field order: the decode hot loop skips
        # keyword-dict construction entirely.
        append(Alert(
            strings[ids[index]],
            strings[strategies[index]],
            strings[names[index]],
            strings[titles[index]],
            strings[descriptions[index]],
            _SEVERITIES[severities[index]],
            strings[services[index]],
            strings[micros[index]],
            strings[regions[index]],
            strings[datacenters[index]],
            strings[channels[index]],
            occurred[index],
            _STATES[states[index]],
            None if cleared_at == _NO_TIME else cleared_at,
            None if fault_ref == _NONE_REF else strings[fault_ref],
            tags_get(index) or {},
        ))
    return alerts


class AlertBatchBuilder:
    """Reusable append-only encoder for one alert batch.

    The partitioned ingest lanes encode their per-plane batches *at the
    lane* — one column write per event as it is routed — so the gateway
    never re-walks the batch and the ``process`` backend ships the
    finished bytes straight to its worker.  :meth:`finish` emits exactly
    the bytes :func:`pack_alerts` would produce for the same alerts
    (``unpack_alerts``-compatible, pinned by a byte-identity test) and
    resets the builder for the next batch, so one instance serves a
    lane's whole lifetime without reallocating its interning tables.
    """

    __slots__ = (
        "_strings", "_index", "_columns", "_fault_refs", "_severities",
        "_states", "_occurred", "_cleared", "_tags", "_count",
    )

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._strings: list[str] = []
        self._index: dict[str, int] = {}
        self._columns: list[list[int]] = [[] for _ in _ALERT_STRING_FIELDS]
        self._fault_refs: list[int] = []
        self._severities = bytearray()
        self._states = bytearray()
        self._occurred: list[float] = []
        self._cleared: list[float] = []
        self._tags: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _ref(self, value: str) -> int:
        ref = self._index.get(value)
        if ref is None:
            ref = self._index[value] = len(self._strings)
            self._strings.append(value)
        return ref

    def append(self, alert: Alert) -> None:
        """Encode one alert into the open batch (column writes only)."""
        # Interning order matches _write_alert_block exactly — the ten
        # string fields, then fault_id, then tags, per alert — so the
        # string table (and therefore every byte) comes out identical.
        index_of = self._index
        strings = self._strings
        for column, value in zip(self._columns, _ALERT_STRINGS(alert)):
            ref = index_of.get(value)
            if ref is None:
                ref = index_of[value] = len(strings)
                strings.append(value)
            column.append(ref)
        fault_id = alert.fault_id
        self._fault_refs.append(
            _NONE_REF if fault_id is None else self._ref(fault_id)
        )
        self._severities.append(alert.severity.value)
        self._states.append(_STATE_INDEX[alert.state])
        self._occurred.append(alert.occurred_at)
        cleared_at = alert.cleared_at
        self._cleared.append(_NO_TIME if cleared_at is None else cleared_at)
        if alert.tags:
            ref = self._ref
            for key, value in alert.tags.items():
                self._tags.extend((self._count, ref(key), ref(value)))
        self._count += 1

    def extend(self, alerts: Sequence[Alert]) -> None:
        """Encode a run of alerts in order."""
        append = self.append
        for alert in alerts:
            append(alert)

    def reset(self) -> None:
        """Discard the open batch without emitting it (crash recovery)."""
        self._reset()

    def finish_parts(self) -> list[bytes]:
        """Emit the batch as an ordered list of buffers, then reset.

        The concatenation of the returned parts is byte-identical to
        :meth:`finish` (and therefore to :func:`pack_alerts`).  The
        shared-memory ring transport writes these parts straight into a
        ring slot — skipping the ``b"".join`` that :meth:`finish` pays —
        so the encoded batch is materialised exactly once, in place.
        """
        pack = _HEADER.pack
        table = [pack(len(self._strings))]
        extend = table.extend
        for value in self._strings:
            raw = value.encode("utf-8")
            extend((pack(len(raw)), raw))
        parts = [_MAGIC_ALERTS, b"".join(table)]
        append = parts.append
        sections = [
            pack(self._count),
            *(_array_bytes("I", column) for column in self._columns),
            _array_bytes("I", self._fault_refs),
            bytes(self._severities),
            bytes(self._states),
            _array_bytes("d", self._occurred),
            _array_bytes("d", self._cleared),
            _array_bytes("I", self._tags),
        ]
        for payload in sections:
            append(pack(len(payload)))
            append(payload)
        self._reset()
        return parts

    def finish(self) -> bytes:
        """Emit the batch (``pack_alerts``-identical bytes) and reset."""
        return b"".join(self.finish_parts())


def pack_alerts(alerts: Sequence[Alert]) -> bytes:
    """Encode one in-order alert batch for the worker pipe."""
    writer = _Writer(_MAGIC_ALERTS)
    _write_alert_block(writer, alerts)
    return writer.finish()


def unpack_alerts(data) -> list[Alert]:
    """Decode a batch produced by :func:`pack_alerts`.

    ``data`` is any bytes-like buffer; a ``memoryview`` over a
    shared-memory ring slot decodes without copying the payload.
    """
    return _read_alert_block(_Reader(data, _MAGIC_ALERTS))


# ----------------------------------------------------------------------
# aggregates (R2 snapshots shipped back at drain)
# ----------------------------------------------------------------------
_AGGREGATE_FIXED = struct.Struct("<IIIBddI")


def _write_aggregates(writer: _Writer, aggregates: Sequence[AggregatedAlert]) -> None:
    """Aggregates into ``writer``; representatives share one alert block."""
    _write_alert_block(writer, [a.representative for a in aggregates])
    fixed = bytearray()
    ids: list[list[int]] = []
    for aggregate in aggregates:
        fixed += _AGGREGATE_FIXED.pack(
            writer.ref(aggregate.strategy_id),
            writer.ref(aggregate.strategy_name),
            writer.ref(aggregate.region),
            aggregate.severity.value,
            aggregate.window.start,
            aggregate.window.end,
            aggregate.count,
        )
        ids.append([writer.ref(alert_id) for alert_id in aggregate.alert_ids])
    writer.section(bytes(fixed))
    _write_ragged(writer, "I", ids)


def _read_aggregates(reader: _Reader) -> list[AggregatedAlert]:
    representatives = _read_alert_block(reader)
    fixed = reader.section()
    id_refs = _read_ragged(reader, "I")
    strings = reader.strings
    aggregates: list[AggregatedAlert] = []
    for index, row in enumerate(_AGGREGATE_FIXED.iter_unpack(fixed)):
        strategy_ref, name_ref, region_ref, severity, start, end, count = row
        ids = tuple(strings[ref] for ref in id_refs[index])
        aggregates.append(AggregatedAlert(
            strategy_id=strings[strategy_ref],
            strategy_name=strings[name_ref],
            region=strings[region_ref],
            severity=Severity(severity),
            window=TimeWindow(start, end),
            count=count,
            representative=representatives[index],
            alert_ids=ids,
        ))
    return aggregates


def pack_aggregates(aggregates: Sequence[AggregatedAlert]) -> bytes:
    """Encode an aggregate snapshot; representatives share one alert block."""
    writer = _Writer(_MAGIC_AGGREGATES)
    _write_aggregates(writer, aggregates)
    return writer.finish()


def unpack_aggregates(data: bytes) -> list[AggregatedAlert]:
    """Decode a snapshot produced by :func:`pack_aggregates`."""
    return _read_aggregates(_Reader(data, _MAGIC_AGGREGATES))


# ----------------------------------------------------------------------
# clusters (R3 snapshots shipped back at drain)
# ----------------------------------------------------------------------
_CLUSTER_FIXED = struct.Struct("<iId")


def _write_clusters(writer: _Writer, clusters: Sequence[AlertCluster]) -> None:
    """Clusters into ``writer``; all member alerts share one alert block."""
    members: list[Alert] = []
    rows: list[tuple[int, str | None, float]] = []
    offsets: list[int] = []
    for cluster in clusters:
        offsets.append(len(members))
        root_index = -1
        for position, alert in enumerate(cluster.alerts):
            if alert is cluster.root_alert:
                root_index = position
        rows.append((
            root_index,
            cluster.root_microservice,
            cluster.coverage,
        ))
        members.extend(cluster.alerts)
    offsets.append(len(members))
    _write_alert_block(writer, members)
    fixed = bytearray()
    for root_index, root_micro, coverage in rows:
        fixed += _CLUSTER_FIXED.pack(
            root_index, writer.ref_or_none(root_micro), coverage,
        )
    writer.section(bytes(fixed))
    writer.section(_array_bytes("I", offsets))


def _read_clusters(reader: _Reader) -> list[AlertCluster]:
    members = _read_alert_block(reader)
    fixed = reader.section()
    offsets = _read_array("I", reader.section())
    clusters: list[AlertCluster] = []
    for index, (root_index, micro_ref, coverage) in enumerate(
        _CLUSTER_FIXED.iter_unpack(fixed)
    ):
        alerts = members[offsets[index]:offsets[index + 1]]
        clusters.append(AlertCluster(
            alerts=alerts,
            root_alert=alerts[root_index] if root_index >= 0 else None,
            root_microservice=reader.string_or_none(micro_ref),
            coverage=coverage,
        ))
    return clusters


def pack_clusters(clusters: Sequence[AlertCluster]) -> bytes:
    """Encode a cluster snapshot; all member alerts share one alert block."""
    writer = _Writer(_MAGIC_CLUSTERS)
    _write_clusters(writer, clusters)
    return writer.finish()


def unpack_clusters(data: bytes) -> list[AlertCluster]:
    """Decode a snapshot produced by :func:`pack_clusters`."""
    return _read_clusters(_Reader(data, _MAGIC_CLUSTERS))


# ----------------------------------------------------------------------
# plane-state snapshots (one plane's whole state, for checkpoints)
# ----------------------------------------------------------------------
#: first_at, last_at, count; a session's strategy and region are its
#: representative's.
_SESSION_FIXED = struct.Struct("<ddI")
#: A legacy region blob's session row: strategy and region refs first.
_REGION_SESSION = struct.Struct("<IIddI")
#: bucket_seconds, head, total, episode_started_at, episode_peak_rate,
#: episode_count, emerging_count, ingested.
_STORM_FIXED = struct.Struct("<dqqddqqq")
#: processed, blocked, aggregates, clusters, finalize countdown, R4's
#: last sweep time.
_PLANE_FIXED = struct.Struct("<qqqqqd")
#: Head sentinel for "no bucket yet" (real heads are >= 0); an absent
#: time is ``_NO_TIME`` and absent ring counts are an empty run.
_NO_HEAD = -1

#: A legacy region blob's header flags.
_REGION_FLAG_STORM = 1
_REGION_FLAG_COUNTER = 2
_REGION_FLAG_EPISODE = 4
_REGION_FLAG_HEAD = 8


def _write_sessions(writer: _Writer, sessions) -> None:
    _write_alert_block(writer, [s.representative for s in sessions])
    fixed = bytearray()
    ids: list[list[int]] = []
    index_of = writer._index
    strings = writer._strings
    for session in sessions:
        fixed += _SESSION_FIXED.pack(
            session.first_at, session.last_at, session.count,
        )
        # Inlined interning: alert-id lists dominate the session payload.
        refs = []
        for alert_id in session.alert_ids:
            ref = index_of.get(alert_id)
            if ref is None:
                ref = index_of[alert_id] = len(strings)
                strings.append(alert_id)
            refs.append(ref)
        ids.append(refs)
    writer.section(bytes(fixed))
    _write_ragged(writer, "I", ids)


def _read_sessions(reader: _Reader, row=_SESSION_FIXED) -> list[OpenSession]:
    strings = reader.strings
    representatives = _read_alert_block(reader)
    session_fixed = reader.section()
    ids = _read_ragged(reader, "I")
    return [
        OpenSession(
            representative.strategy_id, representative.region,
            *fields[-3:], representative, [strings[ref] for ref in refs],
        )
        for representative, fields, refs in zip(
            representatives, row.iter_unpack(session_fixed), ids)
    ]


def _write_components(writer: _Writer, components) -> None:
    """R3 components: one alert block, offsets, max times."""
    offsets = [0]
    members: list[Alert] = []
    for component, _ in components:
        members.extend(component)
        offsets.append(len(members))
    _write_alert_block(writer, members)
    writer.section(_array_bytes("I", offsets))
    writer.section(_array_bytes("d", [t for _, t in components]))


def _read_components(reader: _Reader) -> list[tuple[list[Alert], float]]:
    members = _read_alert_block(reader)
    offsets = _read_array("I", reader.section())
    return [
        (members[offsets[index]:offsets[index + 1]], max_time)
        for index, max_time in enumerate(_read_array("d", reader.section()))
    ]


def _storm_record(region: str, row, counts, last_seen) -> RegionStormState:
    """An R4 record from a fixed row with sentinels for absent fields."""
    (bucket_seconds, head, total, started_at, peak_rate,
     episode_count, emerging_count, ingested) = row
    return RegionStormState(
        region, bucket_seconds, list(counts) or None, total,
        None if head == _NO_HEAD else head,
        None if started_at == _NO_TIME else started_at,
        peak_rate, last_seen, episode_count, emerging_count, ingested,
    )


def pack_plane_state(state) -> bytes:
    """Encode one plane's whole state (a checkpoint blob).

    ``state`` is a :class:`~repro.streaming.plane.PlaneState`: the
    plane's lifetime counters and finalize countdown, its open R2
    sessions, R3's open components, ties and sweep memory,
    every R4 region record with the detector's last sweep time, and the
    retained artifacts.  Everything shares one string table and one
    framing.  Byte-deterministic for a given input, like every wire
    payload.
    """
    writer = _Writer(_MAGIC_PLANE)
    swept_at = state.storm_swept_at
    writer.section(_PLANE_FIXED.pack(
        *state.counters, state.since_finalize,
        _NO_TIME if swept_at is None else swept_at,
    ))
    _write_sessions(writer, state.sessions)
    # -- R3: open components, ties, sweep memory -------------------------
    _write_components(writer, state.components)
    _write_ragged(writer, "I", state.ties)
    writer.section(_array_bytes("I", [writer.ref(r) for r in state.swept]))
    writer.section(_array_bytes("q", list(state.swept.values())))
    # -- R4 region records -----------------------------------------------
    storms = state.storm
    writer.section(_array_bytes("I", [writer.ref(s.region) for s in storms]))
    writer.section(b"".join([
        _STORM_FIXED.pack(
            s.bucket_seconds, _NO_HEAD if s.head is None else s.head, s.total,
            _NO_TIME if s.episode_started_at is None else s.episode_started_at,
            s.episode_peak_rate, s.episode_count, s.emerging_count, s.ingested,
        )
        for s in storms
    ]))
    _write_ragged(writer, "q", [s.counts or () for s in storms])
    seen = [sorted(s.last_seen) for s in storms]
    _write_ragged(writer, "I", [[writer.ref(k) for k in row] for row in seen])
    writer.section(_array_bytes("d", [
        s.last_seen[k] for s, row in zip(storms, seen) for k in row
    ]))
    _write_aggregates(writer, state.retained_aggregates)
    _write_clusters(writer, state.retained_clusters)
    return writer.finish()


def unpack_plane_state(data: bytes):
    """Decode a blob produced by :func:`pack_plane_state`.

    A legacy per-region blob (``RWP1``, written while a checkpoint held
    one blob per region) decodes into the same record: its region's
    counter slice, sessions, components and R4 record, a zero
    finalize countdown, no ties, no sweep memory and no sweep time.
    """
    from repro.streaming.plane import PlaneState

    if bytes(data[:4]) == _MAGIC_REGION:
        return _unpack_region_state(data, PlaneState)
    reader = _Reader(data, _MAGIC_PLANE)
    strings = reader.strings
    *counters, since_finalize, swept_at = _PLANE_FIXED.unpack(reader.section())
    sessions = _read_sessions(reader)
    components = _read_components(reader)
    ties = [list(tie) for tie in _read_ragged(reader, "I")]
    swept_refs, swept_counts, region_refs = (
        _read_array(typecode, reader.section()) for typecode in "IqI"
    )
    rows = list(_STORM_FIXED.iter_unpack(reader.section()))
    counts = _read_ragged(reader, "q")
    seen_refs = _read_ragged(reader, "I")
    seen_times = iter(_read_array("d", reader.section()))
    storms = [
        _storm_record(
            strings[ref], rows[index], counts[index],
            {strings[key]: next(seen_times) for key in seen_refs[index]},
        )
        for index, ref in enumerate(region_refs)
    ]
    return PlaneState(
        counters, since_finalize, sessions, components, ties,
        {strings[ref]: count for ref, count in zip(swept_refs, swept_counts)},
        storms, None if swept_at == _NO_TIME else swept_at,
        _read_aggregates(reader), _read_clusters(reader),
    )


def _unpack_region_state(data: bytes, record):
    """Decode a legacy ``RWP1`` per-region blob into a ``record``.

    The rule-table section and, in blobs written while planes were
    sharded, two more sections (strategy → shard pins) follow the
    artifacts; sections are read front to back and trailing bytes are
    never checked, so they are skipped undecoded.
    """
    reader = _Reader(data, _MAGIC_REGION)
    strings = reader.strings
    region_ref, flags, *counters = struct.unpack("<IBqqqq", reader.section())
    sessions = _read_sessions(reader, _REGION_SESSION)
    components = _read_components(reader)
    storms = []
    if flags & _REGION_FLAG_STORM:
        row = list(_STORM_FIXED.unpack(reader.section()))
        if not flags & _REGION_FLAG_HEAD:
            row[1] = _NO_HEAD
        if not flags & _REGION_FLAG_EPISODE:
            row[3] = _NO_TIME
        counts = _read_array("q", reader.section())
        strategy_refs = _read_array("I", reader.section())
        times = _read_array("d", reader.section())
        storms.append(_storm_record(
            strings[region_ref], row,
            counts if flags & _REGION_FLAG_COUNTER else (),
            {strings[ref]: time for ref, time in zip(strategy_refs, times)},
        ))
    return record(
        counters, 0, sessions, components, [], {}, storms, None,
        unpack_aggregates(reader.section()), unpack_clusters(reader.section()),
    )
