"""Online correlation analysis — the streaming form of R3.

The batch :class:`~repro.core.mitigation.correlation.CorrelationAnalyzer`
sorts all aggregate representatives and union-finds every pair within the
correlation window that shares evidence (rule book or topology).  The
resulting clusters are the connected components of an *evidence graph*:
node = representative, edge = (|Δt| ≤ window AND evidence).  Connected
components do not depend on insertion order, so the online correlator
reaches the identical partition incrementally: each arriving
representative is unioned against every retained representative within
the window, and a component is finalised — turned into an
:class:`~repro.core.mitigation.correlation.AlertCluster` and evicted —
only once the safety horizon proves no future representative can reach
it.

The safety horizon accounts for aggregation latency: a representative
emitted later by a still-open session can carry a timestamp as old as
that session's first alert, so the horizon is
``min(watermark, earliest open-session start) - window``.  Retention is
therefore bounded by the number of representatives inside one
correlation+session horizon, not by stream length.

Correlation evidence requires equal regions, so components never span
regions and the correlator partitions cleanly along region boundaries:
each :class:`~repro.streaming.plane.RegionPlane` runs its own instance
over its regions' representatives.  The horizon then tightens to
``min(gateway watermark, *plane-local* earliest open session) - window``
— any representative that could still reach a plane's component must
come from that plane's own sessions — which lets planes finalise earlier
and independently without changing what is finalised.

Evidence and cluster finalisation are delegated to the batch analyzer
(:meth:`pair_evidence` / :meth:`build_cluster`), which is what makes the
gateway's end-of-run cluster accounting reconcile with
:class:`~repro.core.mitigation.pipeline.MitigationReport` exactly.

Cost.  R3 is the largest layer of the plane chain, and nearly all of it
is the window scan in :meth:`OnlineCorrelator.add`, so a candidate there
costs one dict probe and at most one byte-row probe:

* *Quick-find.*  ``_parent[seq]`` is the component root at all times, not
  a link towards it.  A union already merges the smaller member list into
  the larger; relabelling the moved members at that point (amortised
  O(log n) relabels per entry) is what lets "same component?" be
  ``parent[other] == root`` with no find and no path compression.
* *Evidence memo.*  Inside one region bucket ``pair_evidence(a, b)``
  depends only on the two ``(strategy_id, microservice)`` signatures.
  Signatures are interned to small ints, each timeline item carries its
  entry's id, and verdicts live in per-signature byte rows (0 unknown /
  1 no / 2 yes).  A verdict is valid while the regions are equal — true
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

from repro.alerting.alert import Alert
from repro.core.mitigation.correlation import AlertCluster, CorrelationAnalyzer

__all__ = ["OnlineCorrelator"]

# Interned signatures (and with them the verdict rows) are dropped and
# rebuilt from the retained entries past this count, so a stream that
# keeps minting strategy ids cannot grow the memo without bound.
_MAX_SIGNATURES = 2048


class OnlineCorrelator:
    """Incremental windowed union-find over aggregate representatives."""

    def __init__(
        self,
        analyzer: CorrelationAnalyzer,
        retain_finalized: bool = False,
    ) -> None:
        """``retain_finalized`` keeps every finalised cluster on the
        instance — opt-in only, since on an unbounded stream that list
        grows forever; callers that need the artefacts (the gateway with
        ``retain_artifacts``) collect the return values instead."""
        self._analyzer = analyzer
        self._window = analyzer.time_window
        self._seq = 0
        self._alerts: dict[int, Alert] = {}
        # Retained representatives bucketed per region, each bucket a
        # sorted (occurred_at, seq, signature id) list: evidence requires
        # equal regions, so candidates in other regions need not be
        # scanned.  ``seq`` is unique, so the id never decides the order.
        self._timelines: dict[str, list[tuple[float, int, int]]] = {}
        # Quick-find: seq -> root seq of its component, always current.
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self._max_time: dict[int, float] = {}
        # Evidence memo (see the module docstring).
        self._signatures: dict[tuple[str, str], int] = {}
        self._verdicts: list[bytearray] = []
        self._signature_limit = _MAX_SIGNATURES
        self._memo_version = analyzer.evidence_version
        self._retain_finalized = retain_finalized
        self.finalized: list[AlertCluster] = []
        self.finalized_count = 0

    @property
    def active_components(self) -> int:
        """Components still open to future merges."""
        return len(self._members)

    @property
    def retained(self) -> int:
        """Representatives currently held in memory."""
        return len(self._alerts)

    def add(self, representative: Alert) -> None:
        """Correlate one newly emitted representative against the window."""
        analyzer = self._analyzer
        if analyzer.evidence_version != self._memo_version:
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
        alerts = self._alerts
        parent = self._parent
        members = self._members
        max_time = self._max_time
        alerts[seq] = representative
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
                verdict = 2 if analyzer.pair_evidence(
                    alerts[other_seq], representative) else 1
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

    def finalize_ready(self, watermark: float, min_open_first: float | None) -> list[AlertCluster]:
        """Close components no future representative can join.

        ``watermark`` is the max event time ingested; ``min_open_first``
        the earliest first-alert time among still-open aggregation
        sessions (``None`` when no session is open).  Any future
        representative must carry a timestamp ≥ the smaller of the two.
        """
        horizon = watermark if min_open_first is None else min(watermark, min_open_first)
        safe_before = horizon - self._window
        ready = [
            root for root, max_time in self._max_time.items()
            if max_time < safe_before
        ]
        return self._finalize(ready)

    def drain(self) -> list[AlertCluster]:
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
            self._verdicts.append(bytearray())
        return signature

    def _rebuild_memo(self) -> None:
        """Forget every verdict and re-intern what is still retained."""
        self._signatures = {}
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

    def _finalize(self, roots: list[int]) -> list[AlertCluster]:
        clusters: list[AlertCluster] = []
        evicted: dict[str, set[int]] = {}
        for root in roots:
            member_seqs = self._members.pop(root)
            del self._max_time[root]
            for seq in member_seqs:
                del self._parent[seq]
            alerts = [self._alerts.pop(seq) for seq in member_seqs]
            # A component never spans regions: only its bucket shrinks.
            evicted.setdefault(alerts[0].region, set()).update(member_seqs)
            clusters.append(self._analyzer.build_cluster(alerts))
        for region, gone in evicted.items():
            kept = [item for item in self._timelines[region] if item[1] not in gone]
            if kept:
                self._timelines[region] = kept
            else:
                del self._timelines[region]
        clusters.sort(key=lambda c: (c.alerts[0].occurred_at, -c.size))
        self.finalized_count += len(clusters)
        if self._retain_finalized:
            self.finalized.extend(clusters)
        return clusters
