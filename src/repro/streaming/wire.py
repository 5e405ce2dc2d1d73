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
* shared framing for the three payloads that cross the process
  boundary: raw ``Alert`` batches (gateway → worker, every flush) and
  the end-of-run aggregate/cluster snapshots (worker → gateway, once at
  drain when artifacts are retained).

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
#: The rule table plane-state blobs still embed, always empty: magic,
#: no strings, one empty section.  Kept so blob bytes stay stable.
_EMPTY_RULES = b"RWR1" + bytes(8)
_MAGIC_PLANE = b"RWP1"

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


def pack_aggregates(aggregates: Sequence[AggregatedAlert]) -> bytes:
    """Encode an aggregate snapshot; representatives share one alert block."""
    writer = _Writer(_MAGIC_AGGREGATES)
    _write_alert_block(writer, [a.representative for a in aggregates])
    fixed = bytearray()
    id_offsets: list[int] = []
    id_refs: list[int] = []
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
        id_offsets.append(len(id_refs))
        id_refs.extend(writer.ref(alert_id) for alert_id in aggregate.alert_ids)
    id_offsets.append(len(id_refs))
    writer.section(bytes(fixed))
    writer.section(_array_bytes("I", id_offsets))
    writer.section(_array_bytes("I", id_refs))
    return writer.finish()


def unpack_aggregates(data: bytes) -> list[AggregatedAlert]:
    """Decode a snapshot produced by :func:`pack_aggregates`."""
    reader = _Reader(data, _MAGIC_AGGREGATES)
    representatives = _read_alert_block(reader)
    fixed = reader.section()
    id_offsets = _read_array("I", reader.section())
    id_refs = _read_array("I", reader.section())
    strings = reader.strings
    aggregates: list[AggregatedAlert] = []
    for index, row in enumerate(_AGGREGATE_FIXED.iter_unpack(fixed)):
        strategy_ref, name_ref, region_ref, severity, start, end, count = row
        ids = tuple(
            strings[ref]
            for ref in id_refs[id_offsets[index]:id_offsets[index + 1]]
        )
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


# ----------------------------------------------------------------------
# clusters (R3 snapshots shipped back at drain)
# ----------------------------------------------------------------------
_CLUSTER_FIXED = struct.Struct("<iId")


def pack_clusters(clusters: Sequence[AlertCluster]) -> bytes:
    """Encode a cluster snapshot; all member alerts share one alert block."""
    writer = _Writer(_MAGIC_CLUSTERS)
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
    return writer.finish()


def unpack_clusters(data: bytes) -> list[AlertCluster]:
    """Decode a snapshot produced by :func:`pack_clusters`."""
    reader = _Reader(data, _MAGIC_CLUSTERS)
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


# ----------------------------------------------------------------------
# plane-state snapshots (one region's whole plane state, for checkpoints)
# ----------------------------------------------------------------------
_SESSION_FIXED = struct.Struct("<IIddI")
#: bucket_seconds, head, total, episode_started_at, episode_peak_rate,
#: episode_count, emerging_count, ingested.
_STORM_FIXED = struct.Struct("<dqqddqqq")

_PLANE_FLAG_STORM = 1
_PLANE_FLAG_COUNTER = 2
_PLANE_FLAG_EPISODE = 4
_PLANE_FLAG_HEAD = 8


def pack_plane_state(state) -> bytes:
    """Encode one region's whole plane state (a checkpoint blob).

    ``state`` is a :class:`~repro.streaming.plane.PlaneRegionState`:
    open R2 sessions, open R3 components (member representatives plus
    union-find grouping), the R4 region state, the region's lifetime
    counter slice and retained artifacts.  Sessions and components share
    the outer string table; the artifact payloads are embedded as their
    own framed blobs so the aggregate/cluster codecs are reused
    verbatim.  The last section is an empty rule table, a constant that
    keeps the layout of blobs written when regions carried their rules.
    Byte-deterministic for a given input, like every wire payload.
    """
    storm = state.storm
    writer = _Writer(_MAGIC_PLANE)
    flags = 0
    if storm is not None:
        flags |= _PLANE_FLAG_STORM
        if storm.counts is not None:
            flags |= _PLANE_FLAG_COUNTER
        if storm.episode_started_at is not None:
            flags |= _PLANE_FLAG_EPISODE
        if storm.head is not None:
            flags |= _PLANE_FLAG_HEAD
    writer.section(struct.pack(
        "<IBqqqq",
        writer.ref(state.region),
        flags,
        *state.counters,
    ))
    # -- open R2 sessions ------------------------------------------------
    _write_alert_block(writer, [s.representative for s in state.sessions])
    fixed = bytearray()
    id_offsets: list[int] = []
    id_refs: list[int] = []
    id_refs_append = id_refs.append
    index_of = writer._index
    strings = writer._strings
    for session in state.sessions:
        fixed += _SESSION_FIXED.pack(
            writer.ref(session.strategy_id),
            writer.ref(session.region),
            session.first_at,
            session.last_at,
            session.count,
        )
        id_offsets.append(len(id_refs))
        # Inlined interning: alert-id lists dominate the session payload.
        for alert_id in session.alert_ids:
            ref = index_of.get(alert_id)
            if ref is None:
                ref = index_of[alert_id] = len(strings)
                strings.append(alert_id)
            id_refs_append(ref)
    id_offsets.append(len(id_refs))
    writer.section(bytes(fixed))
    writer.section(_array_bytes("I", id_offsets))
    writer.section(_array_bytes("I", id_refs))
    # -- open R3 components ---------------------------------------------
    members: list[Alert] = []
    offsets: list[int] = []
    max_times: list[float] = []
    for alerts, max_time in state.components:
        offsets.append(len(members))
        members.extend(alerts)
        max_times.append(max_time)
    offsets.append(len(members))
    _write_alert_block(writer, members)
    writer.section(_array_bytes("I", offsets))
    writer.section(_array_bytes("d", max_times))
    # -- R4 region state -------------------------------------------------
    if storm is not None:
        writer.section(_STORM_FIXED.pack(
            storm.bucket_seconds,
            storm.head if storm.head is not None else 0,
            storm.total,
            storm.episode_started_at
            if storm.episode_started_at is not None else 0.0,
            storm.episode_peak_rate,
            storm.episode_count,
            storm.emerging_count,
            storm.ingested,
        ))
        writer.section(_array_bytes("q", storm.counts or []))
        strategies = sorted(storm.last_seen)
        writer.section(_array_bytes(
            "I", [writer.ref(strategy) for strategy in strategies]
        ))
        writer.section(_array_bytes(
            "d", [storm.last_seen[strategy] for strategy in strategies]
        ))
    # -- embedded artifact blobs ----------------------------------------
    writer.section(pack_aggregates(state.retained_aggregates))
    writer.section(pack_clusters(state.retained_clusters))
    writer.section(_EMPTY_RULES)
    return writer.finish()


def unpack_plane_state(data: bytes):
    """Decode a snapshot produced by :func:`pack_plane_state`.

    The rule-table section is skipped undecoded: planes read the
    gateway's blocker.  Blobs written while planes were sharded end in
    two more sections (strategy → shard pins); sections are read front
    to back and trailing bytes are never checked, so those decode
    unchanged.
    """
    from repro.streaming.dedup import OpenSession
    from repro.streaming.plane import PlaneRegionState
    from repro.streaming.storm import RegionStormState

    reader = _Reader(data, _MAGIC_PLANE)
    strings = reader.strings
    region_ref, flags, *counters = struct.unpack("<IBqqqq", reader.section())
    representatives = _read_alert_block(reader)
    session_fixed = reader.section()
    id_offsets = _read_array("I", reader.section())
    id_refs = _read_array("I", reader.section())
    sessions: list = []
    for index, row in enumerate(_SESSION_FIXED.iter_unpack(session_fixed)):
        strategy_ref, session_region_ref, first_at, last_at, count = row
        sessions.append(OpenSession(
            strategy_id=strings[strategy_ref],
            region=strings[session_region_ref],
            first_at=first_at,
            last_at=last_at,
            count=count,
            representative=representatives[index],
            alert_ids=[
                strings[ref]
                for ref in id_refs[id_offsets[index]:id_offsets[index + 1]]
            ],
        ))
    members = _read_alert_block(reader)
    offsets = _read_array("I", reader.section())
    max_times = _read_array("d", reader.section())
    components = [
        (members[offsets[index]:offsets[index + 1]], max_times[index])
        for index in range(len(max_times))
    ]
    storm = None
    if flags & _PLANE_FLAG_STORM:
        (bucket_seconds, head, total, episode_started_at, episode_peak_rate,
         episode_count, emerging_count, ingested) = _STORM_FIXED.unpack(
            reader.section()
        )
        counts = list(_read_array("q", reader.section()))
        strategy_refs = _read_array("I", reader.section())
        times = _read_array("d", reader.section())
        storm = RegionStormState(
            region=strings[region_ref],
            bucket_seconds=bucket_seconds,
            counts=counts if flags & _PLANE_FLAG_COUNTER else None,
            total=total,
            head=head if flags & _PLANE_FLAG_HEAD else None,
            episode_started_at=(
                episode_started_at if flags & _PLANE_FLAG_EPISODE else None
            ),
            episode_peak_rate=episode_peak_rate,
            last_seen={
                strings[ref]: times[index]
                for index, ref in enumerate(strategy_refs)
            },
            episode_count=episode_count,
            emerging_count=emerging_count,
            ingested=ingested,
        )
    retained_aggregates = unpack_aggregates(reader.section())
    retained_clusters = unpack_clusters(reader.section())
    return PlaneRegionState(
        region=strings[region_ref],
        counters=list(counters),
        sessions=sessions,
        components=components,
        storm=storm,
        retained_aggregates=retained_aggregates,
        retained_clusters=retained_clusters,
    )
