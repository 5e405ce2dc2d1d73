"""Collective anti-pattern detectors: A5 repeating, A6 cascading (§III-A2).

Both detectors operate on *groups* of alerts (typically the >200/h/region
collective candidates or detected storm episodes); the repeating detector
additionally offers a trace-wide chronic mode that finds strategies which
repeat episode after episode, like Figure 3's HAProxy warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alerting.alert import Alert
from repro.common.timeutil import hour_bucket
from repro.core.antipatterns.base import (
    AntiPatternFinding,
    DetectorThresholds,
    storm_hour_keys,
)
from repro.topology.graph import DependencyGraph
from repro.workload.trace import AlertTrace

__all__ = [
    "RepeatingAlertsDetector",
    "CascadingAlertsDetector",
    "CascadeFinding",
    "infer_cascade_root",
]


def infer_cascade_root(
    earliest: dict[str, float],
    graph: DependencyGraph,
    max_hops: int,
) -> tuple[str, float] | None:
    """Infer the most likely cascade root among involved microservices.

    ``earliest`` maps each involved microservice to its first alert time.
    The root candidate maximises 0.7 x *causal coverage* (fraction of
    involved microservices that transitively depend on it within
    ``max_hops`` AND alerted no earlier than it — a cause cannot postdate
    its effects) plus 0.3 x earliness.  Returns ``(root, coverage)`` or
    ``None`` when fewer than two known microservices are involved.
    """
    involved = {m for m in earliest if m in graph}
    if len(involved) < 2:
        return None
    reach = {
        micro: (graph.downstream_within(micro, max_hops) | {micro}) & involved
        for micro in involved
    }
    order = sorted(involved, key=lambda m: earliest[m])
    position = {micro: index for index, micro in enumerate(order)}
    n = len(order)
    best: tuple[float, float, str] | None = None
    for candidate in sorted(involved):
        covered = sum(
            1 for m in involved
            if candidate in reach[m] and earliest[m] >= earliest[candidate]
        )
        coverage = covered / n
        earliness = 1.0 - position[candidate] / max(n - 1, 1)
        score = 0.7 * coverage + 0.3 * earliness
        key = (score, coverage, candidate)
        if best is None or key > best:
            best = key
    _, coverage, root = best
    return root, coverage


class RepeatingAlertsDetector:
    """A5: the same strategy's alerts appearing over and over."""

    pattern = "A5"

    def __init__(self, thresholds: DetectorThresholds | None = None) -> None:
        self._thresholds = thresholds or DetectorThresholds()

    def detect_in_group(self, alerts: list[Alert], group_key: str) -> list[AntiPatternFinding]:
        """Repeating strategies within one candidate group.

        A strategy repeats within a group when it contributes at least
        ``repeat_share`` of the group or at least ``repeat_hourly_count``
        alerts — Figure 3's HAProxy strategy satisfies both.
        """
        thresholds = self._thresholds
        by_strategy: dict[str, int] = {}
        for alert in alerts:
            by_strategy[alert.strategy_id] = by_strategy.get(alert.strategy_id, 0) + 1
        total = len(alerts)
        findings = []
        for strategy_id, count in sorted(by_strategy.items()):
            share = count / total if total else 0.0
            if count >= thresholds.repeat_hourly_count or share >= thresholds.repeat_share:
                findings.append(AntiPatternFinding(
                    pattern=self.pattern,
                    subject=strategy_id,
                    score=min(1.0, max(share / thresholds.repeat_share * 0.5, 0.5)),
                    evidence=(
                        f"{count} alerts ({share:.0%} of group {group_key}) "
                        f"from one strategy"
                    ),
                    details={"group": group_key, "count": count, "share": share},
                ))
        return findings

    def detect(self, trace: AlertTrace,
               exclude_flood_hours: bool = True) -> list[AntiPatternFinding]:
        """Chronic repeating: strategies with many repeat episodes.

        An *episode* is a ``repeat_window`` span in one region holding at
        least ``repeat_window_count`` alerts of the strategy; episodes are
        counted disjointly.  Strategies reaching ``repeat_min_episodes``
        are flagged.

        With ``exclude_flood_hours`` (the default), alerts raised during
        storm hours do not count towards episodes: every storm participant
        fires in bursts during a flood, and blocking rules derived from
        chronic repeats must not silence incident signal (the distinction
        between this mode and :meth:`detect_in_group`, which judges
        repetition *within* a flood, as Figure 3 does for HAProxy).
        """
        thresholds = self._thresholds
        flood_hours = storm_hour_keys(trace) if exclude_flood_hours else set()
        findings = []
        for strategy_id, alerts in trace.by_strategy().items():
            episodes = 0
            by_region: dict[str, list[float]] = {}
            for alert in alerts:
                if (hour_bucket(alert.occurred_at), alert.region) in flood_hours:
                    continue
                by_region.setdefault(alert.region, []).append(alert.occurred_at)
            for times in by_region.values():
                episodes += self._count_episodes(sorted(times))
            if episodes >= thresholds.repeat_min_episodes:
                findings.append(AntiPatternFinding(
                    pattern=self.pattern,
                    subject=strategy_id,
                    score=min(1.0, episodes / (2 * thresholds.repeat_min_episodes)),
                    evidence=(
                        f"{episodes} repeat episodes "
                        f"(>= {thresholds.repeat_window_count} alerts within "
                        f"{thresholds.repeat_window / 3600:.0f}h)"
                    ),
                    details={"episodes": episodes},
                ))
        return findings

    def _count_episodes(self, times: list[float]) -> int:
        """Disjoint windows with at least ``repeat_window_count`` alerts."""
        thresholds = self._thresholds
        episodes = 0
        index = 0
        n = len(times)
        while index < n:
            end = times[index] + thresholds.repeat_window
            span = index
            while span < n and times[span] < end:
                span += 1
            if span - index >= thresholds.repeat_window_count:
                episodes += 1
                index = span  # disjoint: jump past this episode
            else:
                index += 1
        return episodes


@dataclass(frozen=True, slots=True)
class CascadeFinding:
    """A6 verdict on one alert group."""

    finding: AntiPatternFinding
    root_microservice: str
    coverage: float
    involved_microservices: int
    involved_services: int


class CascadingAlertsDetector:
    """A6: implicitly related alerts propagating through the call structure.

    Infers a root candidate: the involved microservice that the largest
    fraction of involved microservices transitively *depend on* (within
    ``cascade_max_hops``), weighted toward early alerts.  A group is
    cascading when that coverage passes ``cascade_root_coverage`` and the
    group spans at least ``cascade_min_services`` distinct services.
    """

    pattern = "A6"

    def __init__(self, graph: DependencyGraph,
                 thresholds: DetectorThresholds | None = None) -> None:
        self._graph = graph
        self._thresholds = thresholds or DetectorThresholds()

    def detect_in_group(self, alerts: list[Alert], group_key: str) -> CascadeFinding | None:
        """Judge one alert group; returns the verdict or ``None``."""
        thresholds = self._thresholds
        earliest: dict[str, float] = {}
        services: set[str] = set()
        for alert in alerts:
            if alert.microservice not in self._graph:
                continue
            services.add(alert.service)
            current = earliest.get(alert.microservice)
            if current is None or alert.occurred_at < current:
                earliest[alert.microservice] = alert.occurred_at
        if len(services) < thresholds.cascade_min_services or len(earliest) < 2:
            return None

        inferred = infer_cascade_root(earliest, self._graph, thresholds.cascade_max_hops)
        if inferred is None:
            return None
        root, coverage = inferred
        if coverage < thresholds.cascade_root_coverage:
            return None
        n = len(earliest)
        finding = AntiPatternFinding(
            pattern=self.pattern,
            subject=group_key,
            score=min(1.0, coverage),
            evidence=(
                f"{coverage:.0%} of {n} involved microservices transitively depend "
                f"on {root!r}; {len(services)} services affected"
            ),
            details={"root": root, "coverage": coverage},
        )
        return CascadeFinding(
            finding=finding,
            root_microservice=root,
            coverage=coverage,
            involved_microservices=n,
            involved_services=len(services),
        )
