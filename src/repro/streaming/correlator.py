"""Online correlation analysis — the streaming form of R3.

The batch :class:`~repro.core.mitigation.correlation.CorrelationAnalyzer`
sorts all aggregate representatives and union-finds every pair within the
correlation window that shares evidence (rule book or topology).  The
resulting clusters are the connected components of an *evidence graph*:
node = representative, edge = (|Δt| ≤ window AND evidence).  Connected
components do not depend on insertion order, so the online correlator
reaches the identical partition incrementally: each arriving
representative is unioned against every retained representative within
the window, and a component is finalised only once no future
representative can reach it.

What can still arrive.  In an in-order stream a future representative
is either the *current* representative of a still-open R2 session (a
session's representative only ever moves to a later alert: most severe
wins, earliest breaks ties) or an alert at or after the watermark.  The
caller passes the first kind as ``pending``
(:meth:`~repro.streaming.dedup.OnlineAggregator.open_representatives`),
and a component is final when its max time is ``< watermark - window``
and none of its members lies within ``window`` of a pending
representative of its region.  A session that never closes (the paper's
*repeating alert*) therefore pins only the members within one window of
its representative, not the whole stream behind it.  Late events stay
best-effort.

Correlation evidence requires equal regions, so components never span
regions and the correlator partitions cleanly along region boundaries:
each :class:`~repro.streaming.plane.RegionPlane` runs its own instance
over its regions' representatives, with its own sessions as ``pending``.

Keeping members.  With ``keep_members`` (the gateway's
``retain_artifacts``) nothing is dropped early and a finalised component
becomes an :class:`~repro.core.mitigation.correlation.AlertCluster` via
the batch analyzer's :meth:`build_cluster`, which is what makes the
retained artefacts equal :class:`~repro.core.mitigation.pipeline.MitigationReport`'s.
Without it a finalised component is only counted for its region, and a
member that is below ``watermark - window`` and outside every pending
span is evicted while its component stays open: nothing can reach it
any more.  Eviction is amortised: a region is swept only once its
below-horizon prefix has doubled since its last sweep (and holds at
least ``_MIN_SWEEP`` entries), so a pinned band is not re-walked on
every call.  Retention is then bounded by the representatives within
one window of the watermark or of a pending representative, plus an
unswept prefix below ``max(_MIN_SWEEP, 2 x what the last sweep kept)``
per region, not by stream length.  Evidence is delegated to the batch analyzer
(:meth:`signature_evidence`) in both modes, so the component partition,
and with it the end-of-run cluster count, reconciles exactly.

Cost.  R3 is the largest layer of the plane chain: 49 % of the traced
self time on the ``storm_serial`` benchmark workload (seed 44; R1/R2 is
19 %, R4 18 %), ≈ 4.7 reference-normalised µs per aggregate.  Nearly
all of it is the window scan in :meth:`OnlineCorrelator.add`, so a
candidate there costs one dict probe and at most one byte-row probe:

* *Quick-find.*  ``_parent[seq]`` is the component root at all times, not
  a link towards it.  A union already merges the smaller member list into
  the larger; relabelling the moved members at that point (amortised
  O(log n) relabels per entry) is what lets "same component?" be
  ``parent[other] == root`` with no find and no path compression.
* *Evidence memo.*  Inside one region bucket evidence depends only on
  the two ``(strategy_id, microservice)`` signatures: it is the
  analyzer's signature predicate,
  :meth:`~repro.core.mitigation.correlation.CorrelationAnalyzer.signature_evidence`.
  Signatures are interned to small ints, each timeline item carries its
  entry's id, and verdicts live in per-signature byte rows (0 unknown /
  1 no / 2 yes).  A miss asks the predicate with the two interned
  signature keys; it answers from the rule book (when it holds a rule)
  and one neighbourhood row per microservice (``related_within`` at the
  hop bound, dropped when the graph's version moves), so sparse keys,
  whose in-window pairs are almost all new, pay a dict probe and a set
  probe per miss.  A verdict is valid while the regions are equal — true
  of every pair a bucket can offer — and the analyzer's
  ``evidence_version`` (graph and rule-book mutation stamps) has not
  moved.  The memo is derived state: it is never serialised, it is
  rebuilt from the retained entries when the stamp moves or the interned
  count passes its limit, and correctness never depends on a hit.
* *Scan order is kept.*  Candidates are visited in ``(occurred_at, seq)``
  order and a union keeps the older component's root as first argument,
  so member-list order — and with it ``build_cluster``'s stable sort on
  timestamp ties, the chosen ``root_alert`` and what
  :meth:`OnlineCorrelator.export_region` emits — is the order a direct
  pair-by-pair scan produces.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from repro.alerting.alert import Alert
from repro.core.mitigation.correlation import AlertCluster, CorrelationAnalyzer

__all__ = ["OnlineCorrelator"]

# Interned signatures (and with them the verdict rows) are dropped and
# rebuilt from the retained entries past this count, so a stream that
# keeps minting strategy ids cannot grow the memo without bound.
_MAX_SIGNATURES = 2048

# A region's below-horizon prefix is swept once it holds at least this
# many entries and twice what its last sweep kept.
_MIN_SWEEP = 64

_INF = float("inf")


def _pending_spans(
    pending: Iterable[Alert], window: float,
) -> dict[str, tuple[list[float], list[float]]]:
    """Per region, the merged ``[t - window, t + window]`` spans of the
    pending representatives as parallel sorted (starts, ends) lists."""
    times: dict[str, list[float]] = {}
    for alert in pending:
        times.setdefault(alert.region, []).append(alert.occurred_at)
    spans: dict[str, tuple[list[float], list[float]]] = {}
    for region, region_times in times.items():
        region_times.sort()
        starts: list[float] = []
        ends: list[float] = []
        for time in region_times:
            start, end = time - window, time + window
            if ends and start <= ends[-1]:
                ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        spans[region] = (starts, ends)
    return spans


def _pinned(spans: tuple[list[float], list[float]], time: float) -> bool:
    """Whether ``time`` lies inside one of a region's merged spans."""
    starts, ends = spans
    index = bisect.bisect_right(starts, time) - 1
    return index >= 0 and time <= ends[index]


class OnlineCorrelator:
    """Incremental windowed union-find over aggregate representatives."""

    def __init__(
        self,
        analyzer: CorrelationAnalyzer,
        keep_members: bool = True,
    ) -> None:
        """``keep_members=False`` evicts members no future representative
        can reach and finalises components as per-region counts, without
        building their clusters (see the module docstring)."""
        self._analyzer = analyzer
        self._keep = keep_members
        self._window = analyzer.time_window
        self._seq = 0
        self._alerts: dict[int, Alert] = {}
        # Retained representatives bucketed per region, each bucket a
        # sorted (occurred_at, seq, signature id) list: evidence requires
        # equal regions, so candidates in other regions need not be
        # scanned.  ``seq`` is unique, so the id never decides the order.
        self._timelines: dict[str, list[tuple[float, int, int]]] = {}
        # Quick-find: seq -> root seq of its component, always current.
        # The root seq labels the component even once its own entry is
        # evicted; member lists hold retained members only.
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self._max_time: dict[int, float] = {}
        # Evidence memo (see the module docstring): signature -> id, and
        # per id its signature and verdict row.
        self._signatures: dict[tuple[str, str], int] = {}
        self._keys: list[tuple[str, str]] = []
        self._verdicts: list[bytearray] = []
        self._signature_limit = _MAX_SIGNATURES
        self._memo_version = analyzer.evidence_version
        # region -> below-horizon entries its last sweep kept (evicting
        # mode only).
        self._swept: dict[str, int] = {}

    @property
    def active_components(self) -> int:
        """Components still open to future merges."""
        return len(self._members)

    @property
    def retained(self) -> int:
        """Representatives held in memory.  Without ``keep_members``
        these are the ones a future representative can still reach, plus
        a region's not-yet-swept below-horizon prefix."""
        return len(self._alerts)

    def add(self, representative: Alert) -> None:
        """Correlate one newly emitted representative against the window."""
        analyzer = self._analyzer
        if analyzer.evidence_version != self._memo_version:
            self._rebuild_memo()
        key = (representative.strategy_id, representative.microservice)
        signature = self._signatures.get(key)
        if signature is None:
            if len(self._signatures) >= self._signature_limit:
                self._rebuild_memo()
            signature = self._intern(representative)
        keys = self._keys
        verdicts = self._verdicts
        row = verdicts[signature]
        if len(row) < len(verdicts):  # every id met below indexes the row
            row.extend(bytes(len(verdicts) - len(row)))
        seq = self._seq
        self._seq = seq + 1
        time = representative.occurred_at
        parent = self._parent
        members = self._members
        max_time = self._max_time
        self._alerts[seq] = representative
        parent[seq] = root = seq
        members[seq] = [seq]
        max_time[seq] = time
        timeline = self._timelines.setdefault(representative.region, [])
        lo = bisect.bisect_left(timeline, (time - self._window,))
        hi = bisect.bisect_right(timeline, (time + self._window, seq))
        # Check every retained in-window same-region pair exactly as the
        # batch sweep does; a same-component candidate costs one probe.
        for _, other_seq, other_signature in timeline[lo:hi]:
            other_root = parent[other_seq]
            if other_root == root:
                continue
            verdict = row[other_signature]
            if not verdict:
                verdict = 2 if analyzer.signature_evidence(
                    keys[other_signature], key) else 1
                row[other_signature] = verdict
                mirror = verdicts[other_signature]
                if len(mirror) <= signature:
                    mirror.extend(bytes(signature + 1 - len(mirror)))
                mirror[signature] = verdict
            if verdict == 2:
                # Smaller member list into the larger, the candidate's
                # side winning ties; moved members are relabelled so
                # ``parent`` stays the root (quick-find).
                if len(members[other_root]) < len(members[root]):
                    other_root, root = root, other_root
                moved = members.pop(root)
                for member in moved:
                    parent[member] = other_root
                members[other_root].extend(moved)
                moved_max = max_time.pop(root)
                if moved_max > max_time[other_root]:
                    max_time[other_root] = moved_max
                root = other_root
        bisect.insort(timeline, (time, seq, signature))

    def export_region(self, region: str) -> list[tuple[list[Alert], float]]:
        """Extract one region's open components (plane migration).

        Correlation evidence requires equal regions, so a component
        never spans regions and a region's slice of the correlator —
        its timeline plus every component rooted in it — detaches
        cleanly.  Returns ``(member representatives, component max
        event time)`` pairs, components in first-retained order and
        members in union order; :meth:`adopt_region` reconstructs the
        identical union-find state under fresh sequence numbers.  The
        exported state is removed from this instance.
        """
        self._swept.pop(region, None)
        timeline = self._timelines.pop(region, None)
        if not timeline:
            return []
        roots = dict.fromkeys(self._parent[seq] for _, seq, _ in timeline)
        exported: list[tuple[list[Alert], float]] = []
        for root in roots:
            member_seqs = self._members.pop(root)
            max_time = self._max_time.pop(root)
            for seq in member_seqs:
                del self._parent[seq]
            exported.append(([self._alerts.pop(seq) for seq in member_seqs], max_time))
        return exported

    def adopt_region(
        self, region: str, components: list[tuple[list[Alert], float]],
    ) -> None:
        """Install components exported from another correlator.

        Members keep their exported (union) order under fresh sequence
        numbers; future merges behave exactly as if every member had
        been :meth:`add`-ed here, because connected components — and the
        batch analyzer's cluster finalisation — do not depend on
        insertion order.  The evidence memo does not travel: adopted
        members are interned here and their verdicts asked afresh.
        """
        timeline = self._timelines.setdefault(region, [])
        for alerts, max_time in components:
            root_seq: int | None = None
            for alert in alerts:
                seq = self._seq
                self._seq += 1
                self._alerts[seq] = alert
                if root_seq is None:
                    root_seq = seq
                    self._members[seq] = [seq]
                    self._max_time[seq] = max_time
                else:
                    self._members[root_seq].append(seq)
                self._parent[seq] = root_seq
                bisect.insort(timeline, (alert.occurred_at, seq, self._intern(alert)))

    def finalize_ready(
        self, watermark: float, pending: Iterable[Alert],
    ) -> tuple[dict[str, int], list[AlertCluster]]:
        """Close components no future representative can join.

        The contract: every representative still to be added either is
        in ``pending`` or occurs at or after ``watermark``, and
        ``watermark`` never decreases between calls.  Returns the closed
        components counted per region and, with ``keep_members``, their
        clusters (otherwise an empty list).
        """
        safe_before = watermark - self._window
        spans = _pending_spans(pending, self._window)
        alerts = self._alerts
        members = self._members
        ready = []
        for root, max_time in self._max_time.items():
            if max_time >= safe_before:
                continue
            seqs = members[root]
            region_spans = spans.get(alerts[seqs[0]].region)
            if region_spans is None or not any(
                _pinned(region_spans, alerts[seq].occurred_at) for seq in seqs
            ):
                ready.append(root)
        finalized = self._finalize(ready)
        if not self._keep:
            self._evict(safe_before, spans)
        return finalized

    def drain(self) -> tuple[dict[str, int], list[AlertCluster]]:
        """Finalise every remaining component (end of stream)."""
        return self._finalize(list(self._members))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _intern(self, alert: Alert) -> int:
        key = (alert.strategy_id, alert.microservice)
        signature = self._signatures.get(key)
        if signature is None:
            signature = self._signatures[key] = len(self._verdicts)
            self._keys.append(key)
            self._verdicts.append(bytearray())
        return signature

    def _rebuild_memo(self) -> None:
        """Forget every verdict and re-intern what is still retained."""
        self._signatures = {}
        self._keys = []
        self._verdicts = []
        alerts = self._alerts
        for timeline in self._timelines.values():
            timeline[:] = [
                (time, seq, self._intern(alerts[seq])) for time, seq, _ in timeline
            ]
        # Doubling past what the window itself holds keeps a window wider
        # than the constant from rebuilding on every new signature.
        self._signature_limit = max(_MAX_SIGNATURES, 2 * len(self._signatures))
        self._memo_version = self._analyzer.evidence_version

    def _finalize(
        self, roots: list[int],
    ) -> tuple[dict[str, int], list[AlertCluster]]:
        closed: dict[str, int] = {}
        clusters: list[AlertCluster] = []
        closed_seqs: dict[str, set[int]] = {}
        for root in roots:
            member_seqs = self._members.pop(root)
            del self._max_time[root]
            for seq in member_seqs:
                del self._parent[seq]
            alerts = [self._alerts.pop(seq) for seq in member_seqs]
            # A component never spans regions: only its bucket shrinks.
            region = alerts[0].region
            closed[region] = closed.get(region, 0) + 1
            closed_seqs.setdefault(region, set()).update(member_seqs)
            if self._keep:
                clusters.append(self._analyzer.build_cluster(alerts))
        for region, gone in closed_seqs.items():
            kept = [item for item in self._timelines[region] if item[1] not in gone]
            if kept:
                self._timelines[region] = kept
            else:
                del self._timelines[region]
                self._swept.pop(region, None)
        clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
        return closed, clusters

    def _evict(
        self,
        safe_before: float,
        spans: dict[str, tuple[list[float], list[float]]],
    ) -> None:
        """Drop below-horizon members outside every pending span.

        Runs after the ready components are closed, so every component
        left has a member at or above ``safe_before`` or inside a span
        and never loses its last member here.
        """
        alerts = self._alerts
        parent = self._parent
        members = self._members
        swept = self._swept
        for region, timeline in self._timelines.items():
            below = bisect.bisect_left(timeline, (safe_before,))
            if below < max(_MIN_SWEEP, 2 * swept.get(region, 0)):
                continue
            # The prefix splits into pinned runs (one per span, two
            # bisects each) and the gaps between them, which leave.
            kept: list[tuple[float, int, int]] = []
            gone: list[tuple[float, int, int]] = []
            cursor = 0
            for start, end in zip(*spans.get(region, ((), ()))):
                lo = bisect.bisect_left(timeline, (start,), cursor, below)
                hi = bisect.bisect_right(timeline, (end, _INF), lo, below)
                gone += timeline[cursor:lo]
                kept += timeline[lo:hi]
                cursor = hi
            gone += timeline[cursor:below]
            timeline[:below] = kept
            swept[region] = len(kept)
            shrunk: set[int] = set()
            for _, seq, _ in gone:
                del alerts[seq]
                shrunk.add(parent.pop(seq))
            for root in shrunk:
                members[root] = [seq for seq in members[root] if seq in parent]
