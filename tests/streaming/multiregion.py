"""A storm-heavy multi-region trace and the fingerprints its tests compare.

Shared by the fleet, checkpoint and restore-parity tests: the trace
gives R2, R3 and R4 non-trivial open state in several regions at any
cut point, and the helpers reduce a drained gateway to comparable
tuples.
"""

from __future__ import annotations

from repro.alerting.alert import Alert, Severity
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule

from tests.streaming.conftest import make_alert

_REGIONS = ("region-A", "region-B", "region-C", "region-D", "region-E")
_STRATEGIES = ("s-api", "s-cache", "s-db", "s-queue", "s-noise")
_MICROS = ("m-1", "m-2", "m-3", "m-4", "m-5", "m-6")


def multiregion_blocker() -> AlertBlocker:
    """The trace's configured rule table (matches its strategies)."""
    return AlertBlocker([
        BlockingRule(strategy_id="s-noise", reason="chaos: repeating"),
        BlockingRule(strategy_id="s-cache", region="region-B",
                     reason="chaos: toggling in one region"),
    ])


def multiregion_trace(n: int = 480) -> list[Alert]:
    """Deterministic multi-region trace with floods, gaps, and novelty.

    Region-A gets a real flood (crosses the 100/h storm threshold);
    the other regions see interleaved sub-flood traffic with session
    gaps, so R2/R3/R4 all carry non-trivial open state across any cut
    point a test picks.
    """
    alerts: list[Alert] = []
    for index in range(n):
        if index % 3 == 0:
            # The flood lane: every third event lands in region-A,
            # 20s apart -> ~180/h once the window fills.
            region = "region-A"
            occurred_at = (index // 3) * 20.0
        else:
            region = _REGIONS[1 + index % (len(_REGIONS) - 1)]
            occurred_at = (index // 3) * 20.0 + (index % 3) * 6.0
        alerts.append(make_alert(
            occurred_at=occurred_at,
            strategy_id=_STRATEGIES[index % len(_STRATEGIES)],
            region=region,
            microservice=_MICROS[index % len(_MICROS)],
            severity=list(Severity)[index % 4],
            cleared_after=30.0 if index % 4 == 0 else 1200.0,
        ))
    alerts.sort(key=lambda alert: alert.occurred_at)
    return alerts


def counts(stats) -> tuple:
    """The drained volume accounting, R4 included."""
    return (
        stats.input_alerts,
        stats.blocked_alerts,
        stats.aggregates_emitted,
        stats.clusters_finalized,
        stats.storm_episodes,
        stats.emerging_flags,
    )


def aggregate_fingerprint(gateway) -> list[tuple]:
    return [
        (a.strategy_id, a.region, a.count, a.window.start, a.window.end,
         tuple(a.alert_ids))
        for a in gateway.aggregates
    ]


def cluster_fingerprint(gateway) -> list[tuple]:
    # Tie-robust canonical form: member sets, root microservice, and
    # coverage identify a cluster regardless of equal-timestamp member
    # ordering inside the union-find.
    return sorted(
        (tuple(sorted(alert.alert_id for alert in c.alerts)),
         c.root_microservice, round(c.coverage, 9))
        for c in gateway.clusters
    )
