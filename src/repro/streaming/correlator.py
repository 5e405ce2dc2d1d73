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
Without it a finalised component is only counted, and a
member that is below ``watermark - window`` and outside every pending
span is evicted while its component stays open: nothing can reach it
any more.  Eviction is amortised: a region is swept only once its
below-horizon prefix has doubled since its last sweep (and holds at
least ``_MIN_SWEEP`` entries), so a pinned band is not re-walked on
every call.  Retention is then bounded by the representatives within
one window of the watermark or of a pending representative, plus an
unswept prefix below ``max(_MIN_SWEEP, 2 x what the last sweep kept)``
per region, not by stream length.  Evidence is the batch analyzer's
(:meth:`signature_evidence`, read here in its partner form) in both
modes, so the component partition, and with it the end-of-run cluster
count, reconciles exactly.

Cost.  R3 is the largest layer of the plane chain: 49 % of the traced
self time on the ``storm_serial`` benchmark workload (seed 44; R1/R2 is
23 %, R4 13 %), ≈ 3.0 reference-normalised µs per aggregate.  Nearly
all of it is the window scan in :meth:`OnlineCorrelator.add`.  On that
stream an add visits 37.7 in-window candidates on average; only 5.4 of
them have evidence, 23.5 are already in the joining component and 0.98
cause a union.  So a candidate without evidence costs one byte probe,
and one with evidence one dict probe more:

* *Quick-find.*  ``_parent[seq]`` is the component root at all times, not
  a link towards it.  A union already merges the smaller member list into
  the larger; relabelling the moved members at that point (amortised
  O(log n) relabels per entry) is what lets "same component?" be
  ``parent[other] == root`` with no find and no path compression.
* *Evidence rows.*  Inside one region bucket evidence depends only on
  the two ``(strategy_id, microservice)`` signatures: it is the
  analyzer's symmetric signature predicate,
  :meth:`~repro.core.mitigation.correlation.CorrelationAnalyzer.signature_evidence`.
  Signatures are interned to small ints, each timeline item carries its
  entry's id, and each id has a byte row (1 evidence, 0 none).  Rows are
  complete from interning: a new id enumerates its partners through the
  predicate's partner form — the ids of every microservice in
  ``evidence_microservices`` and of every strategy in ``rule_partners``
  — and marks the pair in both rows, so the scan never asks the
  predicate.  A row is zero-extended only when an add reads it.  A byte
  is valid while the regions are equal — true of every pair a bucket
  can offer — and the analyzer's ``evidence_version`` (graph and
  rule-book mutation stamps) has not moved.  The rows are derived state:
  never serialised, rebuilt from the retained entries when the stamp
  moves or the interned count passes its limit.
* *Scan order is kept.*  A region's timeline is a sorted list of
  occurred-at floats beside its ``(seq, signature id)`` items, so the
  window is two float bisects and an insert goes after every equal time
  (a new seq is the largest).  Candidates are therefore visited in
  ``(occurred_at, seq)`` order and a union keeps the older component's
  root as first argument, so member-list order — and with it
  ``build_cluster``'s stable sort on timestamp ties, the chosen
  ``root_alert`` and what :meth:`OnlineCorrelator.export` reads —
  is the order a direct pair-by-pair scan produces.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from itertools import chain, groupby
from operator import itemgetter

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.core.mitigation.correlation import AlertCluster, CorrelationAnalyzer

__all__ = ["OnlineCorrelator"]

# Interned signatures (and with them the evidence rows) are dropped and
# rebuilt from the retained entries past this count, so a stream that
# keeps minting strategy ids cannot grow the rows without bound.
_MAX_SIGNATURES = 2048

# A region's below-horizon prefix is swept once it holds at least this
# many entries and twice what its last sweep kept.
_MIN_SWEEP = 64


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
        can reach and finalises components as a count, without
        building their clusters (see the module docstring)."""
        self._analyzer = analyzer
        self._keep = keep_members
        self._window = analyzer.time_window
        self._seq = 0
        self._alerts: dict[int, Alert] = {}
        # Retained representatives bucketed per region, each bucket a
        # (times, items) pair of parallel lists in (occurred_at, seq)
        # order: ``items`` holds (seq, signature id).  Evidence requires
        # equal regions, so candidates in other regions need not be
        # scanned.
        self._timelines: dict[str, tuple[list[float], list[tuple[int, int]]]] = {}
        # Quick-find: seq -> root seq of its component, always current.
        # The root seq labels the component even once its own entry is
        # evicted; member lists hold retained members only.
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self._max_time: dict[int, float] = {}
        # Evidence rows (see the module docstring): signature -> id, per
        # id its row, and the ids per microservice and per strategy that
        # interning a partner enumerates.
        self._signatures: dict[tuple[str, str], int] = {}
        self._verdicts: list[bytearray] = []
        self._by_micro: dict[str, list[int]] = {}
        self._by_strategy: dict[str, list[int]] = {}
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
        if self._analyzer.evidence_version != self._memo_version:
            self._rebuild_memo()
        signature = self._signatures.get(
            (representative.strategy_id, representative.microservice))
        if signature is None:
            if len(self._signatures) >= self._signature_limit:
                self._rebuild_memo()
            signature = self._intern(representative)
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
        timeline = self._timelines.get(representative.region)
        if timeline is None:
            timeline = self._timelines[representative.region] = ([], [])
        times, items = timeline
        window = self._window
        lo = bisect.bisect_left(times, time - window)
        hi = bisect.bisect_right(times, time + window)
        # Check every retained in-window same-region pair exactly as the
        # batch sweep does; a candidate without evidence costs one probe.
        for other_seq, other_signature in items[lo:hi]:
            if not row[other_signature]:
                continue
            other_root = parent[other_seq]
            if other_root == root:
                continue
            # Smaller member list into the larger, the candidate's side
            # winning ties; moved members are relabelled so ``parent``
            # stays the root (quick-find).
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
        # A new seq is the largest, so it goes after every equal time.
        at = bisect.bisect_right(times, time, lo, hi)
        times.insert(at, time)
        items.insert(at, (seq, signature))

    def export(
        self,
    ) -> tuple[list[tuple[list[Alert], float]], list[list[int]], dict[str, int]]:
        """The correlator's whole state, read-only (checkpointing).

        Returns ``(components, ties, swept)``: the open components in
        creation order, each as its member representatives in union
        order plus its max event time; the ties whose timeline order
        :meth:`adopt` could not read off ``components`` (members of one
        region at one time, as positions in the concatenated member
        lists, in timeline order); and the sweep memory.  Sequence
        numbers do not travel: a member's timeline rank and a
        component's creation rank are all that later adds,
        finalisations and sweeps read of them, so :meth:`adopt` on a
        fresh correlator continues exactly like this one, and captures
        the same.
        """
        alerts = self._alerts
        max_time = self._max_time
        members = self._members
        components = [
            ([alerts[seq] for seq in seqs], max_time[root])
            for root, seqs in members.items()
        ]
        ties = []
        position: dict[int, int] = {}
        for region in sorted(self._timelines):
            times, items = self._timelines[region]
            if len(set(times)) == len(times):
                continue  # no two members at one time
            if not position:
                position = {seq: at for at, seq in enumerate(
                    chain.from_iterable(members.values()))}
            for _, run in groupby(zip(times, items), key=itemgetter(0)):
                group = [position[seq] for _, (seq, _) in run]
                if group != sorted(group):
                    ties.append(group)
        return components, ties, dict(sorted(self._swept.items()))

    def adopt(
        self,
        components: list[tuple[list[Alert], float]],
        ties: list[list[int]],
        swept: dict[str, int],
    ) -> None:
        """Install state :meth:`export` read (restore).

        Members take fresh sequence numbers in ``components`` order,
        except that each tie's members share out their numbers in the
        tie's order, and the components take fresh labels after them, so
        timeline ties and finalisation order come out as captured.  (A
        legacy per-region capture carries no ties: sorting by (time, new
        number) then gives what adding its members in order would.)
        Evidence rows do not travel: they are built afresh here.
        """
        base = self._seq
        count = sum(len(members) for members, _ in components)
        self._seq = base + count + len(components)
        seq_of = list(range(base, base + count))
        for tie in ties:
            for position, seq in zip(tie, sorted(seq_of[at] for at in tie)):
                seq_of[position] = seq
        rows: dict[str, list[tuple[float, int, int]]] = {}
        start = 0
        for label, (members, max_time) in enumerate(components, base + count):
            seqs = seq_of[start:start + len(members)]
            start += len(members)
            self._members[label] = seqs
            self._max_time[label] = max_time
            for seq, alert in zip(seqs, members):
                self._parent[seq] = label
                self._alerts[seq] = alert
                rows.setdefault(alert.region, []).append(
                    (alert.occurred_at, seq, self._intern(alert)))
        for region, region_rows in rows.items():
            if region in self._timelines:
                raise ValidationError(f"region {region!r} already correlated")
            region_rows.sort()
            self._timelines[region] = (
                [time for time, _, _ in region_rows],
                [(seq, signature) for _, seq, signature in region_rows],
            )
        self._swept.update(swept)

    def finalize_ready(
        self, watermark: float, pending: Iterable[Alert],
    ) -> tuple[int, list[AlertCluster]]:
        """Close components no future representative can join.

        The contract: every representative still to be added either is
        in ``pending`` or occurs at or after ``watermark``, and
        ``watermark`` never decreases between calls.  Returns the number
        of closed components and, with ``keep_members``, their clusters
        (otherwise an empty list).
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

    def drain(self) -> tuple[int, list[AlertCluster]]:
        """Finalise every remaining component (end of stream)."""
        return self._finalize(list(self._members))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _intern(self, alert: Alert) -> int:
        """The signature id of ``alert``, minting it with a complete row.

        A new id's partners — the ids of every microservice in its
        :meth:`evidence_microservices` and of every strategy in its
        :meth:`rule_partners`, itself included when its own microservice
        qualifies — get a 1 both in its row and, at its index, in theirs.
        Evidence is symmetric, so every row then answers for every id
        interned so far; a byte a row has not grown to yet reads as 0.
        """
        key = (alert.strategy_id, alert.microservice)
        signature = self._signatures.get(key)
        if signature is not None:
            return signature
        strategy, micro = key
        verdicts = self._verdicts
        signature = self._signatures[key] = len(verdicts)
        row = bytearray(signature + 1)
        verdicts.append(row)
        self._by_micro.setdefault(micro, []).append(signature)
        self._by_strategy.setdefault(strategy, []).append(signature)
        analyzer = self._analyzer
        for names, index in (
            (analyzer.evidence_microservices(micro), self._by_micro),
            (analyzer.rule_partners(strategy), self._by_strategy),
        ):
            for name in names:
                for other in index.get(name, ()):
                    row[other] = 1
                    other_row = verdicts[other]
                    if len(other_row) <= signature:
                        other_row.extend(bytes(signature + 1 - len(other_row)))
                    other_row[signature] = 1
        return signature

    def _rebuild_memo(self) -> None:
        """Forget every row and re-intern what is still retained."""
        self._signatures = {}
        self._verdicts = []
        self._by_micro = {}
        self._by_strategy = {}
        alerts = self._alerts
        for _, items in self._timelines.values():
            items[:] = [(seq, self._intern(alerts[seq])) for seq, _ in items]
        # Doubling past what the window itself holds keeps a window wider
        # than the constant from rebuilding on every new signature.
        self._signature_limit = max(_MAX_SIGNATURES, 2 * len(self._signatures))
        self._memo_version = self._analyzer.evidence_version

    def _finalize(self, roots: list[int]) -> tuple[int, list[AlertCluster]]:
        clusters: list[AlertCluster] = []
        closed_seqs: dict[str, set[int]] = {}
        for root in roots:
            member_seqs = self._members.pop(root)
            del self._max_time[root]
            for seq in member_seqs:
                del self._parent[seq]
            alerts = [self._alerts.pop(seq) for seq in member_seqs]
            # A component never spans regions: only its bucket shrinks.
            closed_seqs.setdefault(alerts[0].region, set()).update(member_seqs)
            if self._keep:
                clusters.append(self._analyzer.build_cluster(alerts))
        for region, gone in closed_seqs.items():
            times, items = self._timelines[region]
            keep = [index for index, (seq, _) in enumerate(items) if seq not in gone]
            if keep:
                times[:] = [times[index] for index in keep]
                items[:] = [items[index] for index in keep]
            else:
                del self._timelines[region]
                self._swept.pop(region, None)
        clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
        return len(roots), clusters

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
        for region, (times, items) in self._timelines.items():
            below = bisect.bisect_left(times, safe_before)
            if below < max(_MIN_SWEEP, 2 * swept.get(region, 0)):
                continue
            # The prefix splits into pinned runs (one per span, two
            # bisects each) and the gaps between them, which leave.
            kept: list[tuple[int, int]] = []
            kept_times: list[float] = []
            gone: list[tuple[int, int]] = []
            cursor = 0
            for start, end in zip(*spans.get(region, ((), ()))):
                lo = bisect.bisect_left(times, start, cursor, below)
                hi = bisect.bisect_right(times, end, lo, below)
                gone += items[cursor:lo]
                kept += items[lo:hi]
                kept_times += times[lo:hi]
                cursor = hi
            gone += items[cursor:below]
            items[:below] = kept
            times[:below] = kept_times
            swept[region] = len(kept)
            shrunk: set[int] = set()
            for seq, _ in gone:
                del alerts[seq]
                shrunk.add(parent.pop(seq))
            for root in shrunk:
                members[root] = [seq for seq in members[root] if seq in parent]
