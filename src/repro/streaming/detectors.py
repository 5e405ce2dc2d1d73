"""Online anti-pattern detection: A1-A3 and sketch-R4 at the barriers.

The batch detectors (:mod:`repro.core.antipatterns`) need a *finished*
trace.  This module closes that gap for the definition-level
anti-patterns the stream itself reveals: at each flush barrier the
gateway hands :meth:`StreamingDetectorSuite.observe` the flush's
pre-R1 alert batches, one per plane in plane order, and the suite folds
them straight into its strategy catalog, its A2 lifecycle statistics
and the R4 sketch, then advances the sketch once per flush — so no
verdict depends on the plane count.  It can answer at any barrier:

* **A1 (unclear title)** — the :class:`~repro.core.antipatterns.text.
  TitleQualityScorer` over the catalog's title/description, the same
  scorer and cutoff the batch detector applies to strategy metadata;
* **A2 (misconfigured severity)** — the batch detector's impact-proxy
  pipeline rebuilt from lifecycle counters, without a row per alert.
  An alert lands in its hour's open row for its (strategy, region),
  ``[count, transient, steady_manual, steady_cleared,
  steady_duration_sum, times]``, whose ``times`` keep the row's first
  ``repeat_window_count`` event times.  An hour is *final* once a later
  hour holds rows and the barrier's watermark is in a later hour still:
  each barrier folds, in hour order, every open hour below the newest
  open hour under the watermark's own, and drops its rows.  So the fold
  trails the stream by at least an hour, and a lone far-future alert
  (its hour is then the watermark's own) cannot finalise the hours the
  stream is still in.  A storm hour (its region's summed volume above
  the same >100 rule) is dropped whole; any other hour adds each row
  into its (strategy, region)'s totals.
  The repeat-window check runs at that fold and sets a **sticky
  per-strategy flag**: a row at ``repeat_window_count`` is itself a
  repeat-sized run (the cap many events inside one hour <=
  ``repeat_window``; the suite requires ``repeat_window >= 1h``), and
  otherwise the row's times are merged behind the times the key
  retained and every window ending at one of them is scanned with the
  batch rule's exact ``t_j - t_i > repeat_window`` test — a run that
  ends in an earlier hour was scanned when that hour folded, and fewer
  than ``repeat_window_count`` times cannot hold one.  The
  **retained-times horizon** is the start of the next hour: the fold
  keeps a time ``t`` only while ``next_start - t <= repeat_window``,
  and since float subtraction is monotone no later time can pair with
  a dropped one (the fold's upper bound is too late a horizon: hours
  folded later in the same pass, and the open hours, can still pair
  with such a time).  A key's times are pruned when its
  next row folds, so a key holds fewer than ``repeat_window_count`` of
  them, and a key's retained times depend on its own rows only — never
  on the order of an hour's keys.  Verdicts read the folded totals plus
  the open rows, whose repeat check runs over the retained times the
  same way, so detection state is bounded by the (strategy, region)
  pairs instead of growing with the stream.  An alert whose hour was
  already final when its barrier began is left out of A2 and counted
  (``a2_late``); the catalog, A1/A3 and the sketch still see it.  So
  A2 is exact, and independent of where the barriers fall, on in-order
  streams, on streams whose alerts arrive less than an hour behind the
  watermark, and on in-order streams with one far-future alert — not
  beyond: an alert more than an hour late may be left out, and so is
  every alert behind the present once far-future alerts hold two hours;
* **A3 (stale/duplicate definition)** — the shared
  :func:`~repro.core.antipatterns.definitions.definition_findings`
  rule over catalog-derived records;
* **R4 (emerging alerts)** — the LDA-free
  :class:`~repro.ml.sketch.SketchWindowScorer`, advanced by the
  gateway's event-time watermark and closed at drain.

Because A1/A3 funnel through the exact batch code and A2 reconstructs
the batch statistics (float summation order is the only difference:
duration sums add per (strategy, region) in hour order, then region by
region), ``tests/streaming/test_differential.py`` can assert
online-vs-batch verdict parity on golden traces; the suite's full
dynamic state exports JSON-safe for the serving checkpoints.  A state
written before the final-hour fold, with one ``stats`` row per
(strategy, region, hour), restores into open hours that the next
barrier folds.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.errors import ValidationError
from repro.common.timeutil import HOUR
from repro.core.antipatterns.base import AntiPatternFinding, DetectorThresholds
from repro.core.antipatterns.definitions import DefinitionRecord, definition_findings
from repro.core.antipatterns.text import TitleQualityScorer
from repro.ml.sketch import (
    DEFAULT_SKETCH_BUCKETS,
    SketchWindowScorer,
    alert_document,
    hash_document,
)

__all__ = ["STORM_HOUR_THRESHOLD", "StreamingDetectorSuite"]

#: Same flood-volume cut as :func:`~repro.core.antipatterns.base.
#: storm_hour_keys` — an (hour, region) bucket above this is a storm.
STORM_HOUR_THRESHOLD = 100

_COUNT = itemgetter(0)


class StreamingDetectorSuite:
    """Folds each flush's alert batches into online A1-A3/R4 verdicts."""

    def __init__(
        self,
        thresholds: DetectorThresholds | None = None,
        sketch_buckets: int = DEFAULT_SKETCH_BUCKETS,
        sketch_smoothing: float = 0.5,
        window_seconds: float = 1 * HOUR,
        warmup_windows: int = 6,
        novelty_quantile: float = 0.99,
        min_novelty_gap: float = 1.0,
    ) -> None:
        self._thresholds = thresholds or DetectorThresholds()
        if self._thresholds.repeat_window < HOUR:
            raise ValidationError(
                "streaming A2 needs repeat_window >= one hour: a full "
                "hour bucket is its proof of a repeat-sized run"
            )
        self._scorer = TitleQualityScorer()
        #: sid -> [first_at, first_alert_id, title, description,
        #: severity_int, service, last_at]
        self._catalog: dict[str, list] = {}
        #: hour bucket -> {(sid, region): [count, transient,
        #: steady_manual, steady_cleared, steady_duration_sum, times]}
        #: for every hour not yet final.
        self._open: dict[int, dict[tuple[str, str], list]] = {}
        #: Hour buckets below this one are final: folded and dropped.
        self._final_hour = 0
        #: (sid, region) -> [count, transient, steady_manual,
        #: steady_cleared, steady_duration_sum, times] over the final
        #: non-storm hours, added in hour order; ``times`` are the sorted
        #: final event times the next hour could still pair with inside
        #: ``repeat_window``.
        self._folded: dict[tuple[str, str], list] = {}
        #: sids whose final hours hold a repeat-sized run (sticky).
        self._repeating: set[str] = set()
        #: Alerts left out of A2: their hour was final at their barrier.
        self._a2_late = 0
        #: sid -> (name, title, description, microservice, service,
        #: hashed (ids, counts)): re-tokenising every alert would
        #: dominate the fold; a text change re-hashes (derived, so not
        #: checkpointed).
        self._doc_cache: dict[str, tuple] = {}
        self._sketch_options = dict(
            n_buckets=sketch_buckets,
            smoothing=sketch_smoothing,
            window_seconds=window_seconds,
            warmup_windows=warmup_windows,
            novelty_quantile=novelty_quantile,
            min_novelty_gap=min_novelty_gap,
        )
        self.sketch = SketchWindowScorer(**self._sketch_options)

    # ------------------------------------------------------------------
    # ingestion (flush/drain barriers)
    # ------------------------------------------------------------------
    def observe(
        self, batches: list[list[Alert]], watermark: float | None = None,
    ) -> None:
        """Fold one flush's pre-R1 batches; advance the R4 watermark once.

        ``batches`` are the flush's per-plane alert lists in plane order.
        Each alert adds straight into its open A2 row: a region belongs to
        one plane, so every row sums its alerts in stream order at any
        plane count and flush size.  Then every hour that is final (see
        the module docstring) is folded.  The sketch closes windows only
        after every plane's documents are buffered, so no document can
        arrive for a window an earlier plane already closed.
        """
        thresholds = self._thresholds
        cap = thresholds.repeat_window_count
        threshold = thresholds.intermittent_threshold
        n_buckets = self.sketch.sketch.n_buckets
        cache = self._doc_cache
        hour = HOUR
        manual_state = AlertState.CLEARED_MANUAL
        auto_state = AlertState.CLEARED_AUTO
        open_hours = self._open
        final_hour = self._final_hour
        late = 0
        # The open rows of the hour the previous alert fell in (None for
        # a final hour): in-order streams change hour rarely.
        row_hour, rows = None, None
        # One dict probe per alert: sid -> [first-seen alert, latest
        # occurred_at, cached doc, doc-table entry].
        per_sid: dict[str, list] = {}
        docs: list[tuple] = []
        doc_rows: list[tuple] = []
        for alerts in batches:
            for alert in alerts:
                sid = alert.strategy_id
                at = alert.occurred_at
                srec = per_sid.get(sid)
                if srec is None:
                    per_sid[sid] = srec = [alert, at, cache.get(sid), None]
                else:
                    # First-seen metadata: smallest (event time, id) wins.
                    held = srec[0]
                    if at < held.occurred_at or (
                        at == held.occurred_at and alert.alert_id < held.alert_id
                    ):
                        srec[0] = alert
                    if at > srec[1]:
                        srec[1] = at
                bucket = int(at // hour)
                if bucket != row_hour:
                    row_hour = bucket
                    if bucket < final_hour:
                        rows = None
                    else:
                        rows = open_hours.get(bucket)
                        if rows is None:
                            rows = open_hours[bucket] = {}
                if rows is None:
                    late += 1
                else:
                    key = (sid, alert.region)
                    row = rows.get(key)
                    if row is None:
                        rows[key] = row = [1, 0, 0, 0, 0.0, [at]]
                    else:
                        row[0] += 1
                        if len(row[5]) < cap:
                            row[5].append(at)
                    state = alert.state
                    cleared = alert.cleared_at
                    # ``Alert.is_transient``, inlined for the hot loop.
                    if (
                        state is auto_state
                        and cleared is not None
                        and cleared - at < threshold
                    ):
                        row[1] += 1
                    else:
                        # Steady-alert lifecycle evidence (the A2 impact
                        # proxy).
                        if state is manual_state:
                            row[2] += 1
                        if cleared is not None:
                            row[3] += 1
                            row[4] += cleared - at
                cached = srec[2]
                if (
                    cached is None
                    or cached[0] != alert.strategy_name
                    or cached[1] != alert.title
                    or cached[2] != alert.description
                    or cached[3] != alert.microservice
                    or cached[4] != alert.service
                ):
                    cached = (
                        alert.strategy_name, alert.title, alert.description,
                        alert.microservice, alert.service,
                        hash_document(alert_document(alert), n_buckets),
                    )
                    cache[sid] = srec[2] = cached
                content = cached[5]
                if not content[0]:
                    continue
                # Repeats of a strategy's unchanged document share one
                # docs-table entry, so the sketch interns each entry once.
                entry = srec[3]
                if entry is None or entry[0] is not content:
                    srec[3] = entry = (content, len(docs))
                    docs.append(content)
                doc_rows.append((at, sid, entry[1]))
        self._a2_late += late
        catalog = self._catalog
        for sid, (first, last_at, _doc, _entry) in per_sid.items():
            row = catalog.get(sid)
            if row is None:
                catalog[sid] = [
                    first.occurred_at, first.alert_id, first.title,
                    first.description, first.severity.value, first.service,
                    last_at,
                ]
            else:
                # First-seen metadata wins deterministically: smallest
                # (event time, alert id) across every flush.
                if (first.occurred_at, first.alert_id) < (row[0], row[1]):
                    row[0], row[1] = first.occurred_at, first.alert_id
                    row[2], row[3] = first.title, first.description
                    row[4], row[5] = first.severity.value, first.service
                if last_at > row[6]:
                    row[6] = last_at
        if watermark is not None:
            # Fold below the newest hour that holds rows under the
            # watermark's own hour: the fold trails the stream by an hour,
            # and a lone far-future alert cannot finalise the present.
            current = int(watermark // hour)
            target = max(
                (bucket for bucket in open_hours if bucket < current),
                default=final_hour,
            )
            if target > final_hour:
                self._fold(target)
        self.sketch.add_rows(docs, doc_rows)
        self.sketch.advance(watermark)

    def _fold(self, final_hour: int) -> None:
        """Fold every open hour below ``final_hour``, in hour order."""
        thresholds = self._thresholds
        cap = thresholds.repeat_window_count
        window = thresholds.repeat_window
        folded, repeating = self._folded, self._repeating
        open_hours = self._open
        for bucket in sorted(b for b in open_hours if b < final_hour):
            rows = open_hours.pop(bucket)
            storms = _storm_regions(rows)
            start = bucket * HOUR
            next_start = start + HOUR
            for key, row in rows.items():
                if storms and key[1] in storms:
                    continue
                count = row[0]
                totals = folded.get(key)
                if totals is None:
                    # The dropped row becomes the key's totals, and its
                    # times (all inside this hour) the retained ones.
                    folded[key] = totals = row
                    held = None
                else:
                    totals[0] += count
                    totals[1] += row[1]
                    totals[2] += row[2]
                    totals[3] += row[3]
                    totals[4] += row[4]
                    held = totals[5]
                # Each key's retained times depend on its own rows only,
                # so the order of an hour's keys cannot change them.
                if count >= cap:
                    repeating.add(key[0])
                    totals[5] = []
                    continue
                times = row[5]
                if count > 1:
                    times.sort()
                # Held times all too old for this hour pair with nothing.
                if not held or start - held[-1] > window:
                    totals[5] = times
                    continue
                if len(held) + count >= cap and _has_run(
                    held + times, len(held), cap, window,
                ):
                    repeating.add(key[0])
                    totals[5] = []
                    continue
                # Keep what the next hour can still pair with.
                keep = 0
                while keep < len(held) and next_start - held[keep] > window:
                    keep += 1
                del held[:keep]
                held += times
        self._final_hour = final_hour

    def finish(self, watermark: float | None = None) -> None:
        """End of stream: close the R4 sketch's final partial window."""
        self.sketch.advance(watermark)
        self.sketch.finish()

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def strategies(self) -> int:
        """Number of distinct strategies the stream has revealed."""
        return len(self._catalog)

    @property
    def stream_end(self) -> float:
        """Latest alert event time the stream has carried."""
        if not self._catalog:
            return 0.0
        return max(row[6] for row in self._catalog.values())

    def findings(self) -> dict[str, list[AntiPatternFinding]]:
        """Current A1-A3 findings, recomputed from the folded state."""
        return {
            "A1": self._title_findings(),
            "A2": self._severity_findings(),
            "A3": self._definition_findings(),
        }

    def _title_findings(self) -> list[AntiPatternFinding]:
        """A1 over the catalog — the batch detector's exact rule."""
        cutoff = self._thresholds.unclear_title_cutoff
        findings = []
        for sid in sorted(self._catalog):
            row = self._catalog[sid]
            clarity = self._scorer.clarity(row[2], row[3])
            if clarity < cutoff:
                findings.append(AntiPatternFinding(
                    pattern="A1",
                    subject=sid,
                    score=min(1.0, (cutoff - clarity) / cutoff + 0.2),
                    evidence=f"estimated clarity {clarity:.2f} < {cutoff} "
                             f"for title {row[2]!r}",
                    details={"clarity": clarity},
                ))
        return findings

    def _definition_findings(self) -> list[AntiPatternFinding]:
        """A3 over catalog-derived records — the shared batch rule."""
        records = [
            DefinitionRecord(
                strategy_id=sid,
                service=row[5],
                title=row[2],
                description=row[3],
                last_seen=row[6],
            )
            for sid, row in sorted(self._catalog.items())
        ]
        return definition_findings(records, self.stream_end, self._thresholds)

    def _proxies(self) -> dict[str, float]:
        """sid -> A2 impact proxy, from the folded totals plus the open
        rows, for every sid the evidence gates let through."""
        thresholds = self._thresholds
        # sid -> region -> [folded totals or None, open non-storm rows in
        # hour order].
        evidence: dict[str, dict[str, list]] = {}
        for (sid, region), totals in self._folded.items():
            evidence.setdefault(sid, {})[region] = [totals, []]
        for bucket in sorted(self._open):
            rows = self._open[bucket]
            storms = _storm_regions(rows)
            for (sid, region), row in rows.items():
                if region not in storms:
                    regions = evidence.setdefault(sid, {})
                    held = regions.get(region)
                    if held is None:
                        held = regions[region] = [None, []]
                    held[1].append(row)
        proxies: dict[str, float] = {}
        for sid in sorted(evidence):
            regions = evidence[sid]
            total = transient = manual = cleared = 0
            duration_sum = 0.0
            for region in sorted(regions):
                totals, rows = regions[region]
                region_duration = 0.0
                if totals is not None:
                    total += totals[0]
                    transient += totals[1]
                    manual += totals[2]
                    cleared += totals[3]
                    region_duration = totals[4]
                for row in rows:
                    total += row[0]
                    transient += row[1]
                    manual += row[2]
                    cleared += row[3]
                    region_duration += row[4]
                duration_sum += region_duration
            if not total:
                continue
            if transient / total >= thresholds.transient_fraction:
                continue
            if sid in self._repeating or _open_repeats(
                regions.values(), thresholds,
            ):
                continue
            steady = total - transient
            if steady < thresholds.severity_min_alerts:
                continue
            manual_share = manual / steady
            mean_duration = duration_sum / cleared if cleared else 0.0
            proxies[sid] = (
                0.60 * manual_share + 0.40 * min(mean_duration / 7200.0, 1.0)
            )
        return proxies

    def _severity_findings(self) -> list[AntiPatternFinding]:
        """A2: the batch rule's class centers over :meth:`_proxies`."""
        thresholds = self._thresholds
        proxies = self._proxies()
        if not proxies:
            return []
        by_class: dict[Severity, list[float]] = {}
        for sid, proxy in proxies.items():
            severity = Severity(self._catalog[sid][4])
            by_class.setdefault(severity, []).append(proxy)
        centers = {
            severity: float(np.median(values))
            for severity, values in by_class.items()
            if len(values) >= 3
        }
        if len(centers) < 2:
            return []
        findings = []
        for sid, proxy in proxies.items():
            configured = Severity(self._catalog[sid][4])
            if configured not in centers:
                continue
            own_distance = abs(proxy - centers[configured])
            nearest = min(centers, key=lambda sev: abs(proxy - centers[sev]))
            if nearest is configured:
                continue
            margin = own_distance - abs(proxy - centers[nearest])
            if margin <= thresholds.severity_class_margin:
                continue
            if own_distance < thresholds.severity_min_distance:
                continue
            direction = (
                "overstated" if nearest.value > configured.value
                else "understated"
            )
            findings.append(AntiPatternFinding(
                pattern="A2",
                subject=sid,
                score=min(1.0, 0.5 + margin),
                evidence=(
                    f"configured {configured.label} but impact proxy "
                    f"{proxy:.2f} matches {nearest.label} "
                    f"(center {centers[nearest]:.2f}); "
                    f"severity {direction}"
                ),
                details={
                    "proxy": proxy,
                    "nearest": nearest.label,
                    "margin": margin,
                },
            ))
        return findings

    # ------------------------------------------------------------------
    # snapshots and checkpointing
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact counters plus current finding counts (ops views)."""
        findings = self.findings()
        return {
            "strategies": self.strategies,
            "open_rows": sum(len(rows) for rows in self._open.values()),
            "folded_keys": len(self._folded),
            "a2_late": self._a2_late,
            "emerging": len(self.sketch.flags),
            "findings": {
                pattern: len(items) for pattern, items in findings.items()
            },
        }

    def export_state(self) -> dict:
        """Complete dynamic state, JSON-safe (checkpointing)."""
        return {
            "catalog": [
                [sid, *row] for sid, row in sorted(self._catalog.items())
            ],
            "final_hour": self._final_hour,
            "open": [
                [sid, region, bucket, *row[:5], list(row[5])]
                for bucket, rows in sorted(self._open.items())
                for (sid, region), row in sorted(rows.items())
            ],
            "folded": [
                [sid, region, *totals[:5], list(totals[5])]
                for (sid, region), totals in sorted(self._folded.items())
            ],
            "repeating": sorted(self._repeating),
            "a2_late": self._a2_late,
            "sketch": self.sketch.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt state captured by :meth:`export_state` (exact).

        A state from before the final-hour fold holds one ``stats`` row
        per (strategy, region, hour) and nothing folded: its rows become
        open hours, which the next barrier folds.  A refused state raises
        :class:`ValidationError` and leaves the suite as it was.
        """
        try:
            parsed = self._parse_state(state)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed detector state: {exc!r}") from exc
        (self._catalog, self._final_hour, self._open, self._folded,
         self._repeating, self._a2_late, self.sketch) = parsed

    def _parse_state(self, state: dict) -> tuple:
        """Every field of :meth:`restore_state`'s state, as locals."""
        catalog = {
            str(sid): [
                float(first_at), str(first_id), str(title),
                str(description), Severity(int(severity)).value,
                str(service), float(last_at),
            ]
            for sid, first_at, first_id, title, description, severity,
                service, last_at in state["catalog"]
        }
        legacy = "open" not in state
        final_hour = 0 if legacy else int(state["final_hour"])
        open_hours: dict[int, dict[tuple[str, str], list]] = {}
        for (sid, region, bucket, *counts, times) in state[
            "stats" if legacy else "open"
        ]:
            bucket = int(bucket)
            if bucket < final_hour:
                raise ValidationError(
                    f"A2 open hour {bucket} is below final hour {final_hour}"
                )
            row = [*_counters(counts), _times(times, ordered=False)]
            if (
                not row[5] or len(row[5]) > row[0]
                or any(at // HOUR != bucket for at in row[5])
            ):
                raise ValidationError(f"A2 row {row!r} is not a fold's")
            open_hours.setdefault(bucket, {})[(str(sid), str(region))] = row
        if legacy:
            folded, repeating, late = {}, set(), 0
        else:
            folded = {
                (str(sid), str(region)): [
                    *_counters(counts), _times(times, ordered=True),
                ]
                for sid, region, *counts, times in state["folded"]
            }
            repeating = {str(sid) for sid in state["repeating"]}
            late = int(state["a2_late"])
            if late < 0:
                raise ValidationError(f"detector a2_late {late} is negative")
        unknown = {
            sid for keys in (folded, *open_hours.values()) for sid, _ in keys
        } - catalog.keys()
        if unknown:
            raise ValidationError(
                f"A2 rows for strategies outside the catalog: {sorted(unknown)[:5]}"
            )
        sketch = SketchWindowScorer(**self._sketch_options)
        sketch.restore_state(state["sketch"])
        return catalog, final_hour, open_hours, folded, repeating, late, sketch


def _storm_regions(rows: dict[tuple[str, str], list]) -> set[str]:
    """Regions whose summed volume over one hour's rows is a storm."""
    if sum(map(_COUNT, rows.values())) <= STORM_HOUR_THRESHOLD:
        return set()
    volume: dict[str, int] = {}
    for (_sid, region), row in rows.items():
        volume[region] = volume.get(region, 0) + row[0]
    return {
        region for region, count in volume.items()
        if count > STORM_HOUR_THRESHOLD
    }


def _open_repeats(evidence, thresholds: DetectorThresholds) -> bool:
    """The fold's repeat check over one sid's ``[totals, open rows]``
    per region: the open rows' times behind the retained ones."""
    cap = thresholds.repeat_window_count
    for totals, rows in evidence:
        if not rows:
            continue
        if any(row[0] >= cap for row in rows):
            return True
        held = totals[5] if totals is not None else []
        times = held + sorted(at for row in rows for at in row[5])
        if len(times) >= cap and _has_run(
            times, len(held), cap, thresholds.repeat_window,
        ):
            return True
    return False


def _has_run(times: list[float], first: int, cap: int, window: float) -> bool:
    """Whether a window ending at one of ``times[first:]`` holds ``cap``
    times within ``window`` (``times`` sorted) — the batch rule's exact
    ``t_j - t_i > window`` sliding test."""
    left = 0
    for right in range(max(first, cap - 1), len(times)):
        while times[right] - times[left] > window:
            left += 1
        if right - left + 1 >= cap:
            return True
    return False


def _counters(values: list) -> list:
    """``[count, transient, manual, cleared, duration_sum]``, or refuse."""
    count, transient, manual, cleared, duration_sum = values
    counts = [int(count), int(transient), int(manual), int(cleared)]
    duration_sum = float(duration_sum)
    if min(counts) < 0 or not math.isfinite(duration_sum):
        raise ValidationError(f"A2 counters {values!r} are not a fold's")
    return [*counts, duration_sum]


def _times(values: list, ordered: bool) -> list[float]:
    """A2 event times (sorted when ``ordered``), or refuse."""
    times = [float(at) for at in values]
    if not all(map(math.isfinite, times)) or (
        ordered and times != sorted(times)
    ):
        raise ValidationError(f"A2 event times {values!r} are not a fold's")
    return times
