"""Online duplicate suppression — the streaming form of R2 aggregation.

The batch :class:`~repro.core.mitigation.aggregation.AlertAggregator`
sorts a finished trace and sessionises per ``(strategy, region)``.  The
online aggregator reaches the *identical* partition incrementally: it
keeps one open session per active key, extends it while the gap stays
within the window, and closes it once the watermark proves no future
in-order alert can extend it.  A micro-batch is folded grouped by key:
one session probe per key, one expiry sweep per batch.

Closed sessions are R2's output.  ``ingest_batch`` and ``drain``
return the closed :class:`OpenSession` objects themselves: a
session is never touched again once closed (the next one for its key is
a fresh object with a fresh id list), and it already carries everything
the plane chain reads — ``strategy_id``, ``region``, ``count`` and the
``representative`` R3 correlates.  :meth:`OpenSession.emit` is the one
converter to the frozen
:class:`~repro.core.mitigation.aggregation.AggregatedAlert`, and it runs
only where a caller keeps one: retained artifacts.

Memory is bounded by the number of keys active within one window, never
by stream length: the expiry heap holds exactly one entry per open
session (``len(_expiry) == open_sessions`` after every public call),
and without ``keep_ids`` every session is O(1) — its ``count`` and
representative, no member list.  With ``keep_ids`` (an artifact-
retaining gateway) a session also holds one id per member, so the
paper's *repeating alert*, whose session never closes, grows with the
stream: those ids are the retained artifact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.common.timeutil import TimeWindow
from repro.common.validation import require_positive
from repro.core.mitigation.aggregation import AggregatedAlert

__all__ = ["OpenSession", "OnlineAggregator"]

_NEVER = float("-inf")


@dataclass(slots=True)
class OpenSession:
    """One aggregation session for a ``(strategy, region)`` key: open
    while the aggregator holds it, R2's output once it is returned."""

    strategy_id: str
    region: str
    first_at: float
    last_at: float
    count: int
    representative: Alert
    alert_ids: list[str] = field(default_factory=list)

    def emit(self) -> AggregatedAlert:
        """The finished aggregate record (the edge converter)."""
        return AggregatedAlert(
            strategy_id=self.strategy_id,
            strategy_name=self.representative.strategy_name,
            region=self.region,
            severity=self.representative.severity,
            window=TimeWindow(self.first_at, self.last_at + 1e-9),
            count=self.count,
            representative=self.representative,
            alert_ids=tuple(self.alert_ids),
        )


class OnlineAggregator:
    """Incremental session-window aggregation over a time-ordered stream."""

    def __init__(
        self, window_seconds: float = 900.0, keep_ids: bool = True,
    ) -> None:
        """``keep_ids=False`` folds no member ids: sessions hold ``[]``
        (so their aggregates carry ``alert_ids=()``) and an exact
        ``count``."""
        require_positive(window_seconds, "window_seconds")
        self._window = float(window_seconds)
        self._keep_ids = keep_ids
        self._sessions: dict[tuple[str, str], OpenSession] = {}
        # (expiry, key), exactly one per open session.  The time is a
        # lower bound of ``last_at + window``: an extension leaves it
        # alone and :meth:`_expire` re-keys it when it surfaces.
        self._expiry: list[tuple[float, tuple[str, str]]] = []

    @property
    def window_seconds(self) -> float:
        """Session gap: a larger gap starts a new aggregate."""
        return self._window

    @property
    def open_sessions(self) -> int:
        """Number of in-flight sessions (the bounded working set)."""
        return len(self._sessions)

    def open_representatives(self) -> list[Alert]:
        """The current representative of every open session.

        In an in-order stream a session's representative only ever moves
        to a later alert (most severe wins, earliest breaks ties), so
        these plus alerts at or after the watermark are every
        representative R2 can still emit: the correlator's ``pending``.
        """
        return [session.representative for session in self._sessions.values()]

    def ingest_batch(self, alerts: list[Alert]) -> list[OpenSession]:
        """Feed a micro-batch; returns the sessions it closed.

        The batch is bucketed by ``(strategy, region)`` in first-seen
        order and each key folded once, so a storm that interleaves
        strategies pays one session probe per key, not per alert.  By the
        end of a call exactly the sessions that feeding the same alerts
        one at a time would have closed are closed: a session closes when
        any alert's time passes ``last_at + window``, which within a
        stretch of non-decreasing times is decided by the key's own next
        alert or else by the stretch's last time.  A late alert ends the
        stretch: what precedes it is folded first.
        """
        closed: list[OpenSession] = []
        groups: dict[tuple[str, str], list[Alert]] = {}
        high = _NEVER
        for alert in alerts:
            at = alert.occurred_at
            if at < high:
                self._fold(groups, high, closed)
                groups = {}
            high = at
            key = (alert.strategy_id, alert.region)
            group = groups.get(key)
            if group is None:
                groups[key] = [alert]
            else:
                group.append(alert)
        if groups:
            self._fold(groups, high, closed)
        return closed

    def sessions(self) -> list[OpenSession]:
        """The open sessions in key order (checkpointing).

        Nothing moves: the list holds the live sessions, so a caller
        packs them and never hands them to another aggregator's
        :meth:`adopt`.
        """
        return [session for _, session in sorted(self._sessions.items())]

    def adopt(self, sessions: list[OpenSession]) -> None:
        """Install sessions unpacked from a checkpoint (restore).

        The sessions become this aggregator's live state.  Without
        ``keep_ids`` the ids a session carries (an older checkpoint's,
        or a retaining plane's) are dropped; ``count`` stays.
        """
        for session in sessions:
            key = (session.strategy_id, session.region)
            if key in self._sessions:
                raise ValidationError(f"session for {key} already open")
            if not self._keep_ids and session.alert_ids:
                session.alert_ids = []
            self._sessions[key] = session
            heapq.heappush(self._expiry, (session.last_at + self._window, key))

    def drain(self) -> list[OpenSession]:
        """Close every open session (end of stream), in key order."""
        closed = self.sessions()
        self._sessions.clear()
        self._expiry.clear()
        return closed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fold(
        self,
        groups: dict[tuple[str, str], list[Alert]],
        watermark: float,
        closed: list[OpenSession],
    ) -> None:
        """Fold the per-key groups of one non-decreasing stretch, then expire.

        One ``_sessions`` probe per key; the fields every alert moves
        live in locals across the group.  min/max keep the window valid
        when the stretch starts below the session's ``last_at`` (late
        events, which the gateway processes best-effort).  The
        representative is the batch aggregator's pick: most severe wins
        (``Severity`` is an ``IntEnum``, compared as the int it is),
        earliest breaks ties.
        """
        sessions = self._sessions
        window = self._window
        keep_ids = self._keep_ids
        for key, group in groups.items():
            session = sessions.get(key)
            if session is None:
                # The key's one heap entry; -inf sends the group's first
                # alert down the open-a-session branch.
                heapq.heappush(self._expiry, (group[0].occurred_at + window, key))
                last_at = _NEVER
            else:
                first_at, last_at = session.first_at, session.last_at
                count, alert_ids = session.count, session.alert_ids
                best = session.representative
                best_severity, best_at = best.severity, best.occurred_at
            for alert in group:
                at = alert.occurred_at
                severity = alert.severity
                if at > last_at:
                    if at > last_at + window:
                        # Gap beyond the window: close (the key keeps its
                        # heap entry) and open the next session.
                        if session is not None:
                            session.last_at, session.count = last_at, count
                            closed.append(session)
                        count, alert_ids = 0, []
                        session = sessions[key] = OpenSession(
                            key[0], key[1], at, at, 0, alert, alert_ids,
                        )
                        first_at = best_at = at
                        best_severity = severity
                    last_at = at
                elif at < first_at:
                    first_at = session.first_at = at
                count += 1
                if keep_ids:
                    alert_ids.append(alert.alert_id)
                if severity < best_severity or (
                    severity == best_severity and at < best_at
                ):
                    session.representative = alert
                    best_severity, best_at = severity, at
            session.last_at, session.count = last_at, count
        self._expire(watermark, closed)

    def _expire(self, watermark: float, closed: list[OpenSession]) -> None:
        """Close sessions no in-order event at ``watermark`` can still extend.

        An entry whose session has moved on since it was keyed is put
        back at the session's true expiry instead, so a session that is
        still due is met again in this sweep and closing order is
        ``(true expiry, key)`` — a function of the sessions alone.
        """
        expiry = self._expiry
        sessions = self._sessions
        window = self._window
        while expiry and expiry[0][0] < watermark:
            due, key = expiry[0]
            session = sessions[key]
            actual = session.last_at + window
            if actual != due:
                heapq.heapreplace(expiry, (actual, key))
            else:
                heapq.heappop(expiry)
                del sessions[key]
                closed.append(session)
