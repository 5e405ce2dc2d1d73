"""Simulation integration: drive a gateway as a periodic process.

The discrete-event kernel already runs the monitoring engine and fault
injector as processes; :func:`drive_gateway` adds the mitigation gateway
to the same loop.  Every ``interval`` simulated seconds the driver pulls
all alerts whose occurrence time has been reached from a time-ordered
source and ingests them as one micro-batch — exactly how a collector
tails an alert bus.  When the source is exhausted the process stops
itself (and optionally drains the gateway).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.alerting.alert import Alert
from repro.sim.engine import SimulationEngine
from repro.sim.events import PeriodicProcess
from repro.streaming.gateway import AlertGateway

__all__ = ["drive_gateway"]

#: Called after each micro-batch: (gateway, sim_time, batch_size).
BatchHook = Callable[[AlertGateway, float, int], None]


def drive_gateway(
    engine: SimulationEngine,
    gateway: AlertGateway,
    alerts: Iterable[Alert],
    interval: float = 60.0,
    start: float | None = None,
    drain_on_exhaust: bool = False,
    on_batch: BatchHook | None = None,
    label: str = "alert-gateway",
) -> PeriodicProcess:
    """Register the gateway as a periodic ingestion process.

    Returns the :class:`PeriodicProcess` so callers can stop it early.
    """
    iterator: Iterator[Alert] = iter(alerts)
    pending: list[Alert] = []  # one-element pushback buffer

    def tick(time: float, _: object) -> None:
        batch: list[Alert] = []
        exhausted = False
        while True:
            if pending:
                alert = pending.pop()
            else:
                alert = next(iterator, None)
                if alert is None:
                    exhausted = True
                    break
            if alert.occurred_at > time:
                pending.append(alert)
                break
            batch.append(alert)
        # The tick's batch goes in before any drain.
        if batch:
            gateway.ingest_batch(batch)
        if exhausted:
            process.stop()
            if drain_on_exhaust:
                gateway.drain()
        if on_batch is not None:
            on_batch(gateway, time, len(batch))

    process = PeriodicProcess(
        interval=interval,
        callback=tick,
        start=engine.now if start is None else start,
        label=label,
    )
    engine.add_periodic(process)
    return process
