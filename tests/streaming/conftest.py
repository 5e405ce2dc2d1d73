"""Shared helpers for the streaming-gateway tests."""

from __future__ import annotations

import itertools

import pytest

from repro.alerting.alert import Alert, AlertState, Severity

_counter = itertools.count()


def make_alert(
    occurred_at: float,
    strategy_id: str = "strategy-1",
    region: str = "region-A",
    microservice: str = "micro-1",
    service: str = "service-1",
    severity: Severity = Severity.MINOR,
    title: str | None = None,
    cleared_after: float | None = 120.0,
) -> Alert:
    """A minimal well-formed alert for streaming unit tests."""
    alert = Alert(
        alert_id=f"alert-{next(_counter):06d}",
        strategy_id=strategy_id,
        strategy_name=f"{strategy_id}-name",
        title=title if title is not None else f"{microservice}: latency above threshold",
        description="synthetic alert for streaming tests",
        severity=severity,
        service=service,
        microservice=microservice,
        region=region,
        datacenter=f"{region}-dc1",
        channel="metric",
        occurred_at=occurred_at,
    )
    if cleared_after is not None:
        alert.state = AlertState.CLEARED_AUTO
        alert.cleared_at = occurred_at + cleared_after
    return alert


def aggregate_row(aggregate) -> tuple:
    """Everything an ``AggregatedAlert`` says, as a sortable tuple."""
    return (
        aggregate.strategy_id, aggregate.region, aggregate.count,
        aggregate.alert_ids, aggregate.representative.alert_id,
        aggregate.window.start, aggregate.window.end,
    )


def ingest_in_cuts(gateway, alerts, n_cuts: int, batched: bool = True) -> None:
    """Feed ``alerts`` in ``n_cuts`` consecutive ingest calls, forcing a
    flush barrier at every cut; end-of-run accounting must not see them."""
    alerts = list(alerts)
    step = -(-len(alerts) // n_cuts)
    for start in range(0, len(alerts), step):
        if start:
            gateway.flush()
            assert gateway.at_flush_barrier
        cut = alerts[start:start + step]
        if batched:
            gateway.ingest_batch(cut)
        else:
            for alert in cut:
                gateway.ingest_batch([alert])


@pytest.fixture(scope="session")
def storm_trace(topology):
    """The deterministic Figure 3 storm used by the parity tests."""
    from repro.workload import StormConfig, build_representative_storm

    return build_representative_storm(StormConfig(seed=42), topology), topology
