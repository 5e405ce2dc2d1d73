"""Individual anti-pattern detectors: A1, A2, A3, A4 (paper §III-A1).

All detectors consume only observables — alert text, configured severity,
rule metadata, alert timings/lifecycle, incident (fault) windows — never
the ground-truth quality knobs, which exist solely so the evaluation can
score precision/recall afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.alerting.alert import Alert, AlertState, Severity
from repro.alerting.rules import MetricRule
from repro.common.timeutil import TimeWindow, hour_bucket
from repro.core.antipatterns.base import (
    AntiPatternFinding,
    DetectorThresholds,
    storm_hour_keys,
)
from repro.core.antipatterns.text import TitleQualityScorer
from repro.workload.trace import AlertTrace

__all__ = [
    "UnclearTitleDetector",
    "MisleadingSeverityDetector",
    "ImproperRuleDetector",
    "TransientTogglingDetector",
    "run_individual_detectors",
]

#: Low-level infrastructure metrics (the A3 trap; see §III-A1 [A3]).
_INFRA_METRICS: frozenset[str] = frozenset({"cpu_util", "memory_util", "disk_util"})

class UnclearTitleDetector:
    """A1: strategies whose title/description reads vague."""

    pattern = "A1"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()
        self._scorer = TitleQualityScorer()

    def detect(self, trace: AlertTrace) -> list[AntiPatternFinding]:
        """Scan every strategy's text."""
        cutoff = self._thresholds.unclear_title_cutoff
        findings = []
        for strategy in trace.strategies.values():
            clarity = self._scorer.clarity(strategy.title, strategy.description)
            if clarity < cutoff:
                findings.append(AntiPatternFinding(
                    pattern=self.pattern,
                    subject=strategy.strategy_id,
                    score=min(1.0, (cutoff - clarity) / cutoff + 0.2),
                    evidence=f"estimated clarity {clarity:.2f} < {cutoff} "
                             f"for title {strategy.title!r}",
                    details={"clarity": clarity},
                ))
        return findings


class MisleadingSeverityDetector:
    """A2: configured severity disagrees with the observed impact.

    Impact is proxied from lifecycle observables — manual-clearance share
    (a human had to intervene) and alert duration — computed over the
    strategy's *steady* alerts (transient flaps and storm floods excluded,
    they are A4/A5-A6 phenomena).  Each configured severity class defines
    a reference impact level from its own population median; a strategy
    whose proxy sits closer to a *different* class's reference behaves
    like that other severity — the A2 signature, in either direction.
    """

    pattern = "A2"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()

    def detect(self, trace: AlertTrace) -> list[AntiPatternFinding]:
        """Flag strategies whose impact matches another severity class."""
        thresholds = self._thresholds
        storm_hours = storm_hour_keys(trace)
        proxies: dict[str, float] = {}
        for sid, alerts in trace.by_strategy().items():
            # Everything during storm hours reflects the flood, not the
            # strategy's own severity fit; judge the quiet periods only.
            non_storm = [
                a for a in alerts
                if (hour_bucket(a.occurred_at), a.region) not in storm_hours
            ]
            if not non_storm:
                continue
            # Flap- or repeat-dominated strategies are A4/A5 phenomena:
            # their lifecycle proxies say nothing about severity fit.
            transient = sum(
                1 for a in non_storm
                if a.is_transient(thresholds.intermittent_threshold)
            )
            if transient / len(non_storm) >= thresholds.transient_fraction:
                continue
            if self._is_repeat_dominated(non_storm):
                continue
            steady = [
                a for a in non_storm
                if not a.is_transient(thresholds.intermittent_threshold)
            ]
            if len(steady) < thresholds.severity_min_alerts:
                continue
            proxies[sid] = self._impact_proxy(steady)
        if not proxies:
            return []

        by_class: dict[Severity, list[float]] = {}
        for sid, proxy in proxies.items():
            by_class.setdefault(trace.strategies[sid].severity, []).append(proxy)
        centers = {
            severity: float(np.median(values))
            for severity, values in by_class.items()
            if len(values) >= 3
        }
        if len(centers) < 2:
            return []

        findings = []
        for sid, proxy in proxies.items():
            configured = trace.strategies[sid].severity
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
            direction = "overstated" if nearest.value > configured.value else "understated"
            findings.append(AntiPatternFinding(
                pattern=self.pattern,
                subject=sid,
                score=min(1.0, 0.5 + margin),
                evidence=(
                    f"configured {configured.label} but impact proxy {proxy:.2f} "
                    f"matches {nearest.label} (center {centers[nearest]:.2f}); "
                    f"severity {direction}"
                ),
                details={
                    "proxy": proxy,
                    "nearest": nearest.label,
                    "margin": margin,
                },
            ))
        return findings

    def _is_repeat_dominated(self, alerts: list[Alert]) -> bool:
        """Whether any 3h-region window holds a repeat-episode-sized run."""
        thresholds = self._thresholds
        by_region: dict[str, list[float]] = {}
        for alert in alerts:
            by_region.setdefault(alert.region, []).append(alert.occurred_at)
        for times in by_region.values():
            times.sort()
            left = 0
            for right in range(len(times)):
                while times[right] - times[left] > thresholds.repeat_window:
                    left += 1
                if right - left + 1 >= thresholds.repeat_window_count:
                    return True
        return False

    @staticmethod
    def _impact_proxy(alerts: list[Alert]) -> float:
        manual = sum(1 for a in alerts if a.state is AlertState.CLEARED_MANUAL)
        manual_share = manual / len(alerts)
        durations = [a.duration() for a in alerts if a.cleared_at is not None]
        mean_duration = float(np.mean(durations)) if durations else 0.0
        # Duration saturates at two hours for the proxy.
        duration_part = min(mean_duration / 7200.0, 1.0)
        return 0.60 * manual_share + 0.40 * duration_part


class ImproperRuleDetector:
    """A3: rules watching low-level infra signals with no user-visible impact.

    Per the paper, infra indicators "do not have a definite effect on the
    quality of cloud services from the perspective of customers" once
    fault tolerance absorbs them — so a strategy that (a) monitors an
    infra metric and (b) almost never co-occurs with incidents is flagged.
    """

    pattern = "A3"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()

    def detect(self, trace: AlertTrace) -> list[AntiPatternFinding]:
        """Flag infra-metric strategies with negligible incident overlap.

        The overlap statistic ignores alerts raised during storm hours:
        during a flood *every* strategy of an affected component fires, so
        storm co-occurrence says nothing about whether the rule on its own
        indicates user-visible trouble.
        """
        thresholds = self._thresholds
        storm_hours = storm_hour_keys(trace)
        by_strategy = trace.by_strategy()
        findings = []
        for sid, strategy in trace.strategies.items():
            rule = strategy.rule
            if not isinstance(rule, MetricRule) or rule.metric_name not in _INFRA_METRICS:
                continue
            alerts = [
                a for a in by_strategy.get(sid, [])
                if (hour_bucket(a.occurred_at), a.region) not in storm_hours
            ]
            if len(alerts) < thresholds.min_alerts_for_stats:
                continue
            overlap = _incident_overlap_fraction(alerts, trace)
            if overlap <= thresholds.impact_fraction_floor:
                findings.append(AntiPatternFinding(
                    pattern=self.pattern,
                    subject=sid,
                    score=min(1.0, 1.0 - overlap / max(thresholds.impact_fraction_floor, 1e-9)
                              * 0.5),
                    evidence=(
                        f"monitors infra metric {rule.metric_name!r}; only "
                        f"{overlap:.1%} of {len(alerts)} alerts overlap incidents"
                    ),
                    details={"metric": rule.metric_name, "incident_overlap": overlap},
                ))
        return findings


class TransientTogglingDetector:
    """A4: transient alerts (short-lived auto-cleared) and toggling alerts.

    Transient: auto-cleared with duration under the intermittent
    interruption threshold.  Toggling: the same (strategy, region) cycles
    generate/clear more than the oscillation threshold within the
    oscillation window.  Both definitions follow §III-A1 [A4] directly.
    """

    pattern = "A4"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()

    def detect(self, trace: AlertTrace) -> list[AntiPatternFinding]:
        """Flag strategies with high transient share or toggling episodes."""
        thresholds = self._thresholds
        findings = []
        for sid, alerts in trace.by_strategy().items():
            if len(alerts) < thresholds.min_alerts_for_stats:
                continue
            transients = [
                a for a in alerts if a.is_transient(thresholds.intermittent_threshold)
            ]
            transient_share = len(transients) / len(alerts)
            oscillations = self._max_oscillation(alerts)
            is_transient = transient_share >= thresholds.transient_fraction
            is_toggling = oscillations > thresholds.oscillation_threshold
            if not (is_transient or is_toggling):
                continue
            kinds = []
            if is_transient:
                kinds.append(f"transient share {transient_share:.0%}")
            if is_toggling:
                kinds.append(f"max oscillation {oscillations} in "
                             f"{self._thresholds.oscillation_window / 3600:.0f}h")
            findings.append(AntiPatternFinding(
                pattern=self.pattern,
                subject=sid,
                score=min(1.0, max(
                    transient_share,
                    oscillations / (2 * thresholds.oscillation_threshold),
                )),
                evidence="; ".join(kinds),
                details={
                    "transient_share": transient_share,
                    "max_oscillation": oscillations,
                },
            ))
        return findings

    def _max_oscillation(self, alerts: list[Alert]) -> int:
        """Max short-cycle count of one region within the oscillation window."""
        thresholds = self._thresholds
        best = 0
        by_region: dict[str, list[float]] = {}
        for alert in alerts:
            if alert.is_transient(thresholds.intermittent_threshold):
                by_region.setdefault(alert.region, []).append(alert.occurred_at)
        for times in by_region.values():
            times.sort()
            left = 0
            for right in range(len(times)):
                while times[right] - times[left] > thresholds.oscillation_window:
                    left += 1
                best = max(best, right - left + 1)
        return best


def run_individual_detectors(
    trace: AlertTrace,
    thresholds: DetectorThresholds | None = None,
    subjects: set[str] | None = None,
) -> dict[str, list[AntiPatternFinding]]:
    """Run A1-A4 over ``trace``; optionally restrict to candidate subjects.

    Returns findings grouped by pattern id.
    """
    thresholds = thresholds or DetectorThresholds()
    detectors = (
        UnclearTitleDetector(thresholds),
        MisleadingSeverityDetector(thresholds),
        ImproperRuleDetector(thresholds),
        TransientTogglingDetector(thresholds),
    )
    results: dict[str, list[AntiPatternFinding]] = {}
    for detector in detectors:
        findings = detector.detect(trace)
        if subjects is not None:
            findings = [f for f in findings if f.subject in subjects]
        results[detector.pattern] = findings
    return results


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _incident_overlap_fraction(alerts: list[Alert], trace: AlertTrace) -> float:
    """Fraction of alerts occurring inside any incident (fault) window
    recorded for the same region — the observable stand-in for the paper's
    incident reports."""
    if not trace.faults or not alerts:
        return 0.0
    windows_by_region: dict[str, list[TimeWindow]] = {}
    for fault in trace.faults:
        windows_by_region.setdefault(fault.region, []).append(fault.window)
    hits = 0
    for alert in alerts:
        windows = windows_by_region.get(alert.region, ())
        if any(w.contains(alert.occurred_at) for w in windows):
            hits += 1
    return hits / len(alerts)
