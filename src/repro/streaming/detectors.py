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
  pipeline reconstructed from per-(strategy, region, hour) counters:
  storm hours excluded by the same >100 volume rule (each (region,
  hour)'s volume is kept as a running total by the fold), transient- and
  repeat-dominated strategies excluded by the same gates, class centers
  from the same medians.  The repeat-window check stays *exact* because
  each hour bucket either retains every raw event time (when it holds
  fewer than ``repeat_window_count``) or is itself proof of a
  repeat-sized run (``repeat_window_count`` events within one hour
  always fit inside ``repeat_window``; the suite requires
  ``repeat_window >= 1h`` for this argument to hold);
* **A3 (stale/duplicate definition)** — the shared
  :func:`~repro.core.antipatterns.definitions.definition_findings`
  rule over catalog-derived records;
* **R4 (emerging alerts)** — the LDA-free
  :class:`~repro.ml.sketch.SketchWindowScorer`, advanced by the
  gateway's event-time watermark and closed at drain.

Because A1/A3 funnel through the exact batch code and A2 reconstructs
the batch statistics (float summation order is the only difference),
``tests/streaming/test_differential.py`` can assert online-vs-batch
verdict parity on golden traces; the suite's full dynamic state exports
JSON-safe for the serving checkpoints.
"""

from __future__ import annotations

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
        #: sid -> {(region, hour bucket): [count, transient,
        #: steady_manual, steady_cleared, steady_duration_sum, times]} —
        #: nested per sid, so every ordered pass sorts the few hundred
        #: sids and then each sid's own few keys instead of one flat
        #: (sid, region, bucket) index.
        self._stats: dict[str, dict[tuple[str, int], list]] = {}
        #: (region, hour bucket) -> alert count over every sid, the A2
        #: storm-hour volume (derived: kept by the merge, not checkpointed).
        self._hour_totals: dict[tuple[str, int], int] = {}
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
        Their A2 rows are summed per (strategy, region, hour) over the
        flush first and merged into the running rows once: a region
        belongs to one plane, so each key's partial sum is the same at
        any plane count.  The sketch closes windows only after every
        plane's documents are buffered, so no document can arrive for a
        window an earlier plane already closed.
        """
        thresholds = self._thresholds
        cap = thresholds.repeat_window_count
        threshold = thresholds.intermittent_threshold
        n_buckets = self.sketch.sketch.n_buckets
        cache = self._doc_cache
        hour = HOUR
        manual_state = AlertState.CLEARED_MANUAL
        auto_state = AlertState.CLEARED_AUTO
        # One dict probe per alert: sid -> [first-seen alert, latest
        # occurred_at, cached doc, doc-table entry,
        # {(region, bucket): partial stat row}].
        per_sid: dict[str, list] = {}
        docs: list[tuple] = []
        doc_rows: list[tuple] = []
        for alerts in batches:
            for alert in alerts:
                sid = alert.strategy_id
                at = alert.occurred_at
                state = alert.state
                cleared = alert.cleared_at
                srec = per_sid.get(sid)
                if srec is None:
                    per_sid[sid] = srec = [alert, at, cache.get(sid), None, {}]
                else:
                    # First-seen metadata: smallest (event time, id) wins.
                    held = srec[0]
                    if at < held.occurred_at or (
                        at == held.occurred_at and alert.alert_id < held.alert_id
                    ):
                        srec[0] = alert
                    if at > srec[1]:
                        srec[1] = at
                key = (alert.region, int(at // hour))
                row = srec[4].get(key)
                if row is None:
                    srec[4][key] = row = [0, 0, 0, 0, 0.0, []]
                row[0] += 1
                # ``Alert.is_transient``, inlined for the hot loop.
                if (
                    state is auto_state
                    and cleared is not None
                    and cleared - at < threshold
                ):
                    row[1] += 1
                else:
                    # Steady-alert lifecycle evidence (the A2 impact proxy).
                    if state is manual_state:
                        row[2] += 1
                    if cleared is not None:
                        row[3] += 1
                        row[4] += cleared - at
                if len(row[5]) < cap:
                    row[5].append(at)
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
        catalog = self._catalog
        stats, hour_totals = self._stats, self._hour_totals
        for sid, (first, last_at, _doc, _entry, partial) in per_sid.items():
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
            rows = stats.setdefault(sid, {})
            for key, part in partial.items():
                hour_totals[key] = hour_totals.get(key, 0) + part[0]
                row = rows.get(key)
                if row is None:
                    rows[key] = part
                    continue
                for slot in range(5):
                    row[slot] += part[slot]
                # Below the cap every contribution is complete, so the
                # merged list holds *all* of the bucket's event times;
                # at the cap the count alone settles the repeat check.
                if len(row[5]) < cap:
                    row[5].extend(part[5])
                    del row[5][cap:]
        self.sketch.add_rows(docs, doc_rows)
        self.sketch.advance(watermark)

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

    def _storm_hours(self) -> set[tuple[str, int]]:
        """(region, hour bucket) keys carrying flood-level volume."""
        return {
            key for key, count in self._hour_totals.items()
            if count > STORM_HOUR_THRESHOLD
        }

    def _severity_findings(self) -> list[AntiPatternFinding]:
        """A2 reconstructed from the lifecycle statistics."""
        thresholds = self._thresholds
        storm_hours = self._storm_hours()
        # Per sid over non-storm buckets: totals plus the per-region
        # bucket evidence the repeat check needs.
        folded: dict[str, list] = {}
        regions_of: dict[str, dict[str, list[tuple[int, list[float]]]]] = {}
        # Sorted sids, then each sid's sorted keys: the (sid, region,
        # bucket) order, so the float sums add up in the same order.
        stats = self._stats
        for sid in sorted(stats):
            items = stats[sid].items()
            if storm_hours:
                items = [item for item in items if item[0] not in storm_hours]
            if not items:
                continue
            totals = folded[sid] = [0, 0, 0, 0, 0.0]
            by_region = regions_of[sid] = {}
            for (region, _bucket), row in sorted(items):
                totals[0] += row[0]
                totals[1] += row[1]
                totals[2] += row[2]
                totals[3] += row[3]
                totals[4] += row[4]
                evidence = by_region.get(region)
                if evidence is None:
                    evidence = by_region[region] = []
                evidence.append((row[0], row[5]))
        proxies: dict[str, float] = {}
        for sid, totals in folded.items():
            total, transient, manual, cleared, duration_sum = totals
            if not total:
                continue
            if transient / total >= thresholds.transient_fraction:
                continue
            if self._is_repeat_dominated(regions_of[sid]):
                continue
            steady = total - transient
            if steady < thresholds.severity_min_alerts:
                continue
            manual_share = manual / steady
            mean_duration = duration_sum / cleared if cleared else 0.0
            proxies[sid] = (
                0.60 * manual_share + 0.40 * min(mean_duration / 7200.0, 1.0)
            )
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

    def _is_repeat_dominated(
        self, by_region: dict[str, list[tuple[int, list[float]]]],
    ) -> bool:
        """Exact repeat-window check from the bucketed evidence."""
        thresholds = self._thresholds
        cap = thresholds.repeat_window_count
        for buckets in by_region.values():
            # A bucket at the cap is itself a repeat-sized run (the cap
            # many events inside one hour <= repeat_window).
            if any(count >= cap for count, _ in buckets):
                return True
            times = sorted(
                at for _, bucket_times in buckets for at in bucket_times
            )
            left = 0
            for right in range(len(times)):
                while times[right] - times[left] > thresholds.repeat_window:
                    left += 1
                if right - left + 1 >= cap:
                    return True
        return False

    # ------------------------------------------------------------------
    # snapshots and checkpointing
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact counters plus current finding counts (ops views)."""
        findings = self.findings()
        return {
            "strategies": self.strategies,
            "stat_rows": sum(len(rows) for rows in self._stats.values()),
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
            "stats": [
                [sid, region, bucket, *row[:5], list(row[5])]
                for sid, rows in sorted(self._stats.items())
                for (region, bucket), row in sorted(rows.items())
            ],
            "sketch": self.sketch.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt state captured by :meth:`export_state` (exact); a refused
        state leaves the suite as it was."""
        catalog = {
            str(sid): [
                float(first_at), str(first_id), str(title),
                str(description), int(severity), str(service),
                float(last_at),
            ]
            for sid, first_at, first_id, title, description, severity,
                service, last_at in state["catalog"]
        }
        stats, hour_totals = {}, {}
        for (sid, region, bucket, count, transient, manual, cleared,
             duration_sum, times) in state["stats"]:
            key = (str(region), int(bucket))
            stats.setdefault(str(sid), {})[key] = [
                int(count), int(transient), int(manual), int(cleared),
                float(duration_sum), [float(at) for at in times],
            ]
            hour_totals[key] = hour_totals.get(key, 0) + int(count)
        sketch = SketchWindowScorer(**self._sketch_options)
        sketch.restore_state(state["sketch"])
        self._catalog, self._stats = catalog, stats
        self._hour_totals, self.sketch = hour_totals, sketch
