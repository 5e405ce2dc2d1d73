"""Online R1 rule learning: streaming A4/A5 detection drives the blocker.

The batch pipeline derives blocking rules once, from a finished trace
(:meth:`~repro.core.mitigation.pipeline.MitigationPipeline.derive_blocker`).
In production the alert population drifts: strategies turn noisy, get
fixed, and turn noisy again — so the rules must be *learned while the
stream runs* and retired when their evidence fades, the "when to
invalidate these rules" problem the paper's §IV raises.

:class:`OnlineRuleLearner` closes that loop at the gateway:

* every flush cycle, the gateway folds the flush's pre-R1 batches into
  **observation rows** (:func:`flush_observations`) — per
  ``(strategy, region)`` counts of alerts seen, R1-blocked, and transient
  (short-lived auto-cleared) events, computed over the *pre-blocking*
  stream so the learner's evidence is independent of its own rules;
* the learner folds the rows into per-key sliding windows and runs the
  streaming analogues of the A4 (transient/toggling) and A5 (repeating)
  noise detectors over them;
* strategies crossing a promotion threshold become live
  :class:`~repro.core.mitigation.blocking.BlockingRule` entries with a
  TTL (``expires_at = watermark + ttl``); every flush the evidence
  persists, the rule is **renewed** (its expiry pushed out), so a rule
  stays live exactly as long as its noise does, plus one TTL;
* rules whose strategy goes *clean* while still under observation are
  **demoted** (removed before expiry — precision decay); rules whose
  strategy merely goes quiet age out at their ``expires_at``.

The learner emits a :class:`RuleDelta` per flush; the gateway ships it
to the execution backend, which applies it to every plane's blocker
before the next flush — so the rule a flush learns first blocks alerts
in the flush after it, at the identical stream position on every
backend.  Every promotion/renewal/demotion/expiry is recorded as a
:class:`RuleEvent` with its stream position (``at_input``), which makes
the whole learned timeline replayable: applying the recorded deltas to a
plain batch :class:`AlertBlocker` at the recorded positions reproduces
the gateway's blocked count exactly (the property
``tests/properties/test_prop_learning.py`` pins down).

Renewal is unconditional (every flush with evidence), which is what
makes rule lifetime *monotone in TTL*: a rule is live at time ``t`` iff
some evidence flush ``d <= t`` exists with ``t < d + ttl`` and no
demotion signal in between — so a larger TTL can only grow the set of
blocked alerts, never shrink it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from repro.alerting.alert import Alert
from repro.common.errors import ValidationError
from repro.common.validation import require_fraction, require_positive
from repro.core.mitigation.blocking import (
    AlertBlocker,
    BlockingRule,
    rule_from_dict,
    rule_to_dict,
)

__all__ = [
    "LearnerConfig",
    "Observation",
    "flush_observations",
    "RuleEvent",
    "RuleDelta",
    "OnlineRuleLearner",
    "rule_set_divergence",
]

#: One observation row:
#: ``(strategy_id, region, service, seen, blocked, transient, groups)``
#: — counts over one plane's flush batch, ``seen``/``transient``
#: measured *before* R1, ``groups`` the R2 sessions the flush closed;
#: ``service`` keys the adaptive per-(service, region) threshold
#: baselines.
Observation = tuple[str, str, str, int, int, int, int]


def flush_observations(
    planes: Iterable[tuple[Sequence[Alert], dict[tuple[str, str], int] | None]],
    blocker: AlertBlocker,
    intermittent_threshold: float,
) -> list[Observation]:
    """The observation rows of one flush, folded from its pre-R1 batches.

    ``planes`` pairs each reporting plane's batch with the R2 closes its
    report counted (``PlaneReport.groups``), in plane order.  A plane's
    rows are its batch keys in first-seen order, each carrying the
    service of its first alert, then the keys that only closed a
    session, in close order, with ``seen = 0`` (their service is never
    read).  The blocked count re-tests ``blocker``, which must still be
    the table R1 used — rule deltas land only between flushes — and
    skips the scan for unruled strategies, mirroring R1's fast path.
    """
    ruled = blocker.ruled_strategies
    is_blocked = blocker.is_blocked
    rows: list[Observation] = []
    for alerts, groups in planes:
        groups = groups or {}
        # key -> [service, seen, blocked, transient]
        digest: dict[tuple[str, str], list] = {}
        for alert in alerts:
            strategy = alert.strategy_id
            key = (strategy, alert.region)
            row = digest.get(key)
            if row is None:
                digest[key] = row = [alert.service, 0, 0, 0]
            row[1] += 1
            if strategy in ruled and is_blocked(alert):
                row[2] += 1
            if alert.is_transient(intermittent_threshold):
                row[3] += 1
        for key, (service, seen, blocked, transient) in digest.items():
            rows.append((*key, service, seen, blocked, transient, groups.get(key, 0)))
        for key, count in groups.items():
            if key not in digest:
                rows.append((*key, "", 0, 0, 0, count))
    return rows


@dataclass(frozen=True, slots=True)
class LearnerConfig:
    """Thresholds of the streaming A4/A5 noise detectors.

    The promotion thresholds are deliberately *stricter* than the batch
    detectors' (:class:`~repro.core.antipatterns.base.DetectorThresholds`
    flags transient share >= 0.30 and 8-alert repeats): the online
    learner judges a sliding window, not a finished trace, so it trades
    recall for precision — the differential harness holds it to >= 0.9
    precision against the batch-derived rule set on stationary noise.
    """

    #: Sliding observation window (seconds of event time).
    window_seconds: float = 3600.0
    #: Minimum window volume before a strategy is judged at all.
    min_alerts: int = 20
    #: A4 promotion: transient share of the strategy's window volume.
    transient_fraction: float = 0.5
    #: A5 promotion: alerts of one (strategy, region) within the window.
    repeat_count: int = 30
    #: Rule time-to-live (event-time seconds past the promoting flush).
    rule_ttl: float = 4 * 3600.0
    #: Demotion: a live rule's strategy whose noisy-evidence score falls
    #: below this *fraction of promotion grade* — while still producing
    #: ``min_alerts``, so the verdict is evidence-of-clean, not absence
    #: of data — is retired before its TTL.  A strategy still repeating
    #: in one region scores at least ``min_alerts / repeat_count``, so
    #: ambiguous single-region volume is left to TTL expiry instead.
    demote_fraction: float = 0.2
    #: Per-(service, region) adaptive promotion thresholds.  When on,
    #: the learner tracks an EWMA baseline of each cell's transient
    #: share and repeat rate; cells whose baseline noise is high get
    #: their effective ``min_alerts`` / ``transient_fraction`` /
    #: ``repeat_count`` interpolated from the global values down toward
    #: the floors below, so chronic noise promotes earlier while quiet
    #: cells keep the strict global thresholds.  Off by default: the
    #: static judgment (and its golden timelines) is bit-unchanged.
    adaptive: bool = False
    #: EWMA step applied to a cell baseline per observing flush.
    baseline_decay: float = 0.5
    #: Hard floors the adaptive interpolation can never cross — the
    #: global-config guardrails that keep low-volume strategies in a
    #: noisy cell (a clean service sharing a region with a flapper)
    #: from being promoted on ambient evidence alone.
    min_alerts_floor: int = 8
    transient_fraction_floor: float = 0.3
    repeat_count_floor: int = 12

    def __post_init__(self) -> None:
        require_positive(self.window_seconds, "window_seconds")
        require_positive(self.min_alerts, "min_alerts")
        require_fraction(self.transient_fraction, "transient_fraction")
        require_positive(self.repeat_count, "repeat_count")
        require_positive(self.rule_ttl, "rule_ttl")
        require_fraction(self.demote_fraction, "demote_fraction")
        require_fraction(self.baseline_decay, "baseline_decay")
        require_positive(self.min_alerts_floor, "min_alerts_floor")
        require_fraction(self.transient_fraction_floor, "transient_fraction_floor")
        require_positive(self.repeat_count_floor, "repeat_count_floor")
        if self.adaptive:
            if self.min_alerts_floor > self.min_alerts:
                raise ValidationError("min_alerts_floor must not exceed min_alerts")
            if self.transient_fraction_floor > self.transient_fraction:
                raise ValidationError(
                    "transient_fraction_floor must not exceed transient_fraction"
                )
            if self.repeat_count_floor > self.repeat_count:
                raise ValidationError(
                    "repeat_count_floor must not exceed repeat_count"
                )


@dataclass(frozen=True, slots=True)
class RuleEvent:
    """One entry of the learned-rule timeline (the reviewable audit log)."""

    kind: str                     # promote | renew | demote | expire
    strategy_id: str
    at_input: int                 # gateway input_alerts when the delta applied
    at_time: float                # watermark at the learning flush
    expires_at: float | None      # rule expiry after this event (None = gone)
    reason: str = ""

    _KINDS = ("promote", "renew", "demote", "expire")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValidationError(f"kind must be one of {self._KINDS}, got {self.kind!r}")


@dataclass(slots=True)
class RuleDelta:
    """Rule-table changes of one learning step (shipped to the planes).

    ``removed`` holds the learner's *exact* retiring rule objects, not
    strategy ids: a strategy may also carry operator-configured rules,
    which must survive a learned rule's renewal, demotion, or expiry.
    """

    added: list[BlockingRule] = field(default_factory=list)
    removed: list[BlockingRule] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def apply_to(self, blocker: AlertBlocker) -> None:
        """Apply this delta to a blocker (removals first: renew = replace)."""
        for rule in self.removed:
            blocker.remove_rule(rule)
        blocker.add_rules(self.added)


_ENTRY_TIME = itemgetter(0)


@dataclass(slots=True)
class _KeyWindow:
    """Sliding per-(strategy, region) counters: (time, seen, transient)."""

    entries: list[tuple[float, int, int]] = field(default_factory=list)
    seen: int = 0
    transient: int = 0
    #: The earliest entry time, so a prune with nothing expired is one
    #: compare.
    oldest: float = math.inf
    #: Whether ``entries`` are in time order, so the expired ones are a
    #: prefix.
    ordered: bool = True

    def add(self, at: float, seen: int, transient: int) -> None:
        entries = self.entries
        if entries and at < entries[-1][0]:
            self.ordered = False
        entries.append((at, seen, transient))
        self.seen += seen
        self.transient += transient
        if at < self.oldest:
            self.oldest = at

    def prune(self, horizon: float) -> None:
        """Drop every entry before ``horizon``, wherever it sits.

        Entries arrive in watermark order on the live flush path, and
        then the expired ones are a prefix.  Nothing guarantees that in
        general (late out-of-order folds, hand-built windows in tests),
        so out of order every entry is tested — a positional cutoff that
        stops at the first in-window entry would strand stale pre-horizon
        counts forever, silently inflating A4/A5 evidence.
        """
        if self.oldest >= horizon:
            return
        entries = self.entries
        if self.ordered:
            cut = bisect_left(entries, horizon, key=_ENTRY_TIME)
            for _, seen, transient in entries[:cut]:
                self.seen -= seen
                self.transient -= transient
            del entries[:cut]
            self.oldest = entries[0][0] if entries else math.inf
            return
        kept = [entry for entry in entries if entry[0] >= horizon]
        self.seen = sum(entry[1] for entry in kept)
        self.transient = sum(entry[2] for entry in kept)
        self.oldest = min((entry[0] for entry in kept), default=math.inf)
        self.entries = kept


class OnlineRuleLearner:
    """Sliding-window A4/A5 detection promoting live R1 blocking rules."""

    def __init__(self, config: LearnerConfig | None = None) -> None:
        self.config = config or LearnerConfig()
        #: strategy -> region -> sliding window.  Strategy-major so one
        #: strategy's evidence is an O(its regions) lookup, and emptied
        #: windows are evicted, bounding memory to keys active within
        #: one window on the unbounded stream.
        self._windows: dict[str, dict[str, _KeyWindow]] = {}
        #: Live learned rules by strategy (the learner's intended table).
        self._live: dict[str, BlockingRule] = {}
        self.events: list[RuleEvent] = []
        self.promoted = 0
        self.renewed = 0
        self.demoted = 0
        self.expired = 0
        #: Every strategy ever promoted (the differential harness compares
        #: this set against the batch-derived rule set).
        self.ever_promoted: set[str] = set()
        #: Adaptive-threshold state (``config.adaptive``): per-(service,
        #: region) EWMA baselines ``[transient_share, repeat_rate]`` and
        #: the service each strategy last reported under.
        self._baselines: dict[tuple[str, str], list[float]] = {}
        self._service_of: dict[str, str] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active_rules(self) -> int:
        """Number of live learned rules."""
        return len(self._live)

    def counters(self) -> dict[str, int]:
        """Lifetime learner accounting (feeds ``GatewayStats``)."""
        return {
            "rules_promoted": self.promoted,
            "rules_renewed": self.renewed,
            "rules_demoted": self.demoted,
            "rules_expired": self.expired,
            "rules_active": self.active_rules,
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """The learner's complete dynamic state, JSON-safe (checkpointing).

        Everything a restored learner needs to continue judging at the
        identical stream positions: sliding windows (totals are
        recomputed from the entries), live rules, the full event
        timeline, lifetime counters, and the promotion history.
        The configuration is *not* included — it is construction-time,
        like the gateway's own topology.
        """
        return {
            "windows": {
                strategy_id: {
                    region: [list(entry) for entry in window.entries]
                    for region, window in regions.items()
                }
                for strategy_id, regions in self._windows.items()
            },
            "live": [
                [strategy_id, rule_to_dict(self._live[strategy_id])]
                for strategy_id in sorted(self._live)
            ],
            "events": [
                [e.kind, e.strategy_id, e.at_input, e.at_time, e.expires_at,
                 e.reason]
                for e in self.events
            ],
            "promoted": self.promoted,
            "renewed": self.renewed,
            "demoted": self.demoted,
            "expired": self.expired,
            "ever_promoted": sorted(self.ever_promoted),
            "baselines": [
                [service, region, values[0], values[1]]
                for (service, region), values in sorted(self._baselines.items())
            ],
            "service_of": [
                [strategy_id, self._service_of[strategy_id]]
                for strategy_id in sorted(self._service_of)
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Adopt state captured by :meth:`export_state` (exact round trip).

        Keys an older checkpoint carries that this learner no longer
        reads (the stream positions of live plane-count changes) are
        ignored.
        """
        windows: dict[str, dict[str, _KeyWindow]] = {}
        for strategy_id, regions in state["windows"].items():
            restored: dict[str, _KeyWindow] = {}
            for region, entries in regions.items():
                window = _KeyWindow()
                for at, seen, transient in entries:
                    window.add(float(at), int(seen), int(transient))
                restored[str(region)] = window
            windows[str(strategy_id)] = restored
        self._windows = windows
        self._live = {
            str(strategy_id): rule_from_dict(row)
            for strategy_id, row in state["live"]
        }
        self.events = [
            RuleEvent(
                kind=kind, strategy_id=strategy_id, at_input=int(at_input),
                at_time=float(at_time),
                expires_at=None if expires_at is None else float(expires_at),
                reason=reason,
            )
            for kind, strategy_id, at_input, at_time, expires_at, reason
            in state["events"]
        ]
        self.promoted = int(state["promoted"])
        self.renewed = int(state["renewed"])
        self.demoted = int(state["demoted"])
        self.expired = int(state["expired"])
        self.ever_promoted = set(state["ever_promoted"])
        # Absent from pre-adaptive checkpoints.
        self._baselines = {
            (str(service), str(region)): [float(share), float(rate)]
            for service, region, share, rate in state.get("baselines", [])
        }
        self._service_of = {
            str(strategy_id): str(service)
            for strategy_id, service in state.get("service_of", [])
        }

    # ------------------------------------------------------------------
    # the learning step
    # ------------------------------------------------------------------
    def observe(
        self,
        observations: list[Observation],
        watermark: float | None,
        at_input: int,
    ) -> RuleDelta:
        """Fold one flush cycle's observation rows; return the rule delta.

        ``observations`` must arrive in a deterministic order (as
        :func:`flush_observations` builds them: planes in plane order,
        batch keys in first-seen order) — the learner itself judges keys
        sorted, so the emitted delta is identical on every backend.
        ``at_input`` is the gateway's input count at this flush boundary,
        recorded on every event so the timeline is replayable.
        """
        if watermark is None:
            return RuleDelta()
        config = self.config
        adaptive = config.adaptive
        windows = self._windows
        touched: set[str] = set()
        cells: dict[tuple[str, str], list] = {}
        for strategy_id, region, service, seen, _blocked, transient, _groups in observations:
            regions = windows.get(strategy_id)
            if regions is None:
                windows[strategy_id] = regions = {}
            window = regions.get(region)
            if window is None:
                regions[region] = window = _KeyWindow()
            window.add(watermark, seen, transient)
            touched.add(strategy_id)
            if adaptive and seen:
                self._service_of[strategy_id] = service
                cell = cells.get((service, region))
                if cell is None:
                    cells[(service, region)] = [seen, transient, seen]
                else:
                    cell[0] += seen
                    cell[1] += transient
                    if seen > cell[2]:
                        cell[2] = seen
        if cells:
            self._update_baselines(cells)
        horizon = watermark - config.window_seconds
        for strategy_id in list(windows):
            regions = windows[strategy_id]
            for region in list(regions):
                window = regions[region]
                window.prune(horizon)
                if not window.entries:
                    del regions[region]
            if not regions:
                del windows[strategy_id]

        delta = RuleDelta()
        # Judge every strategy with a live rule plus everything touched
        # this flush — sorted, so event order is deterministic.
        for strategy_id in sorted(touched | set(self._live)):
            self._judge(strategy_id, watermark, at_input, delta)
        return delta

    def finish(self, watermark: float | None, at_input: int) -> RuleDelta:
        """Expire every live rule at end of stream (drain bookkeeping)."""
        delta = RuleDelta()
        for strategy_id in sorted(self._live):
            rule = self._live.pop(strategy_id)
            self.expired += 1
            delta.removed.append(rule)
            self.events.append(RuleEvent(
                kind="expire", strategy_id=strategy_id, at_input=at_input,
                at_time=watermark if watermark is not None else rule.expires_at or 0.0,
                expires_at=None, reason="stream drained",
            ))
        return delta

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _update_baselines(self, cells: dict[tuple[str, str], list]) -> None:
        """Fold one flush's per-(service, region) totals into the EWMAs.

        ``cells`` maps a cell to ``[seen, transient, peak strategy
        seen]`` over the flush batch.  The first observation seeds the
        baseline directly (no zero-warmup lag); later flushes move it by
        ``baseline_decay`` — deterministic because each cell's sequence
        of folds is fixed by the flush schedule, not by dict order.
        """
        decay = self.config.baseline_decay
        repeat_count = self.config.repeat_count
        baselines = self._baselines
        for cell, (seen, transient, peak) in cells.items():
            share = transient / seen
            rate = min(1.0, peak / repeat_count)
            values = baselines.get(cell)
            if values is None:
                baselines[cell] = [share, rate]
            else:
                values[0] += decay * (share - values[0])
                values[1] += decay * (rate - values[1])

    def _cell_thresholds(self, cell: tuple[str, str]) -> tuple[float, float, float]:
        """Effective (min_alerts, transient_fraction, repeat_count).

        The cell's baseline noise — its EWMA transient share over the
        global A4 fraction, or its EWMA repeat rate, whichever is louder,
        capped at 1 — interpolates each threshold from the global value
        (noise 0) down to its floor (noise 1).  Unseen cells judge with
        the global thresholds exactly.
        """
        config = self.config
        values = self._baselines.get(cell)
        if values is None:
            return (
                float(config.min_alerts),
                config.transient_fraction,
                float(config.repeat_count),
            )
        noise = min(1.0, max(values[0] / config.transient_fraction, values[1]))
        return (
            config.min_alerts - noise * (config.min_alerts - config.min_alerts_floor),
            config.transient_fraction
            - noise * (config.transient_fraction - config.transient_fraction_floor),
            config.repeat_count
            - noise * (config.repeat_count - config.repeat_count_floor),
        )

    def _evidence(
        self, strategy_id: str,
    ) -> tuple[float, int, float, tuple[bool, float, int]]:
        """(noisy score, window volume, volume gate, evidence detail).

        The score is the max of the A4 signal (transient share) and the
        A5 signal (peak per-region window count over the repeat
        threshold), both in [0, ~]; >= 1.0 means a promotion threshold
        was crossed.  Computed purely from pre-R1 observations, so it is
        independent of the learner's own rules (and of their TTL).

        With ``config.adaptive`` the thresholds come from the strategy's
        dominant (service, region) cell — global values scaled toward
        the configured floors by the cell's EWMA noise baseline — and
        the returned volume gate is the cell's effective ``min_alerts``
        (the static global otherwise).  The detail — whether A4 leads,
        the transient share, the peak region count — becomes text only
        when a rule is promoted or renewed (:func:`_evidence_text`).
        """
        config = self.config
        seen = 0
        transient = 0
        peak_region = 0
        dominant_region: str | None = None
        for region in sorted(self._windows.get(strategy_id, ())):
            window = self._windows[strategy_id][region]
            seen += window.seen
            transient += window.transient
            if window.seen > peak_region:
                peak_region = window.seen
                dominant_region = region
        if seen == 0:
            return 0.0, 0, float(config.min_alerts), (True, 0.0, 0)
        if config.adaptive and dominant_region is not None:
            cell = (self._service_of.get(strategy_id, ""), dominant_region)
            min_alerts, transient_fraction, repeat_count = (
                self._cell_thresholds(cell)
            )
        else:
            min_alerts = float(config.min_alerts)
            transient_fraction = config.transient_fraction
            repeat_count = float(config.repeat_count)
        transient_share = transient / seen
        a4 = transient_share / transient_fraction
        a5 = peak_region / repeat_count
        return max(a4, a5), seen, min_alerts, (a4 >= a5, transient_share, peak_region)

    def _judge(
        self, strategy_id: str, watermark: float, at_input: int, delta: RuleDelta,
    ) -> None:
        config = self.config
        live = self._live.get(strategy_id)
        score, seen, volume_gate, detail = self._evidence(strategy_id)
        # The demotion gate below stays at the global ``min_alerts``
        # regardless of adaptation: retiring a rule needs evidence-of-
        # clean at full volume, not a noise-scaled shortcut.
        noisy = seen >= volume_gate and score >= 1.0

        if live is not None and live.expires_at is not None and (
            live.expires_at <= watermark
        ) and not noisy:
            # Aged out: the strategy went quiet and the TTL ran down.
            del self._live[strategy_id]
            self.expired += 1
            delta.removed.append(live)
            self.events.append(RuleEvent(
                kind="expire", strategy_id=strategy_id, at_input=at_input,
                at_time=watermark, expires_at=None,
                reason=f"TTL elapsed at {live.expires_at:.0f}",
            ))
            return

        if noisy:
            evidence = _evidence_text(seen, *detail)
            rule = BlockingRule(
                strategy_id=strategy_id,
                reason=f"learned {evidence}",
                expires_at=watermark + config.rule_ttl,
            )
            if live is None:
                self._live[strategy_id] = rule
                self.promoted += 1
                self.ever_promoted.add(strategy_id)
                delta.added.append(rule)
                self.events.append(RuleEvent(
                    kind="promote", strategy_id=strategy_id, at_input=at_input,
                    at_time=watermark, expires_at=rule.expires_at,
                    reason=evidence,
                ))
            else:
                # Unconditional renewal: expiry tracks the latest evidence,
                # which is what keeps rule lifetime monotone in TTL.
                self._live[strategy_id] = rule
                self.renewed += 1
                delta.removed.append(live)
                delta.added.append(rule)
                self.events.append(RuleEvent(
                    kind="renew", strategy_id=strategy_id, at_input=at_input,
                    at_time=watermark, expires_at=rule.expires_at,
                    reason=evidence,
                ))
            return

        if live is not None and seen >= config.min_alerts and (
            score < config.demote_fraction
        ):
            # Precision decay: the strategy is alerting plenty but the
            # noise evidence is gone — blocking it now drops real signal.
            del self._live[strategy_id]
            self.demoted += 1
            delta.removed.append(live)
            self.events.append(RuleEvent(
                kind="demote", strategy_id=strategy_id, at_input=at_input,
                at_time=watermark, expires_at=None,
                reason=f"noise score {score:.2f} below "
                       f"{config.demote_fraction} on {seen} window alerts",
            ))


def _evidence_text(
    seen: int, a4_leads: bool, transient_share: float, peak_region: int,
) -> str:
    """The reason a promoted or renewed rule records."""
    if a4_leads:
        return f"A4: transient share {transient_share:.0%} of {seen} in window"
    return f"A5: {peak_region} alerts of one region in window"


def rule_set_divergence(
    learned: set[str], batch: set[str],
) -> dict[str, float]:
    """Precision/recall of the learned strategy set against the batch set.

    The differential harness's headline numbers: precision is the share
    of online-promoted strategies the batch detectors would also flag;
    recall is the share of batch-flagged strategies the online learner
    found.
    """
    # Vacuous precision: no promotions means no false positives.
    precision = len(learned & batch) / len(learned) if learned else 1.0
    recall = 1.0 if not batch else len(learned & batch) / len(batch)
    return {
        "learned_rules": float(len(learned)),
        "batch_rules": float(len(batch)),
        "agreeing_rules": float(len(learned & batch)),
        "precision": precision,
        "recall": recall,
    }
