"""Shared helpers for the serving (checkpoint/restore/service) tests."""

from __future__ import annotations

import pytest

from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.streaming import AlertGateway

from tests.streaming.test_golden_trace import golden_graph
from tests.streaming.multiregion import multiregion_trace


@pytest.fixture(scope="session")
def serving_graph():
    """The fixed six-node golden topology (fast to build, well-known)."""
    return golden_graph()


@pytest.fixture(scope="session")
def storm_alerts():
    """The multi-region storm trace (:mod:`tests.streaming.multiregion`)."""
    return multiregion_trace(480)


def serving_blocker() -> AlertBlocker:
    """The storm trace's configured rule table (matches its strategies)."""
    return AlertBlocker([
        BlockingRule(strategy_id="s-noise", reason="test: repeating"),
        BlockingRule(strategy_id="s-cache", region="region-B",
                     reason="test: toggling in one region"),
    ])


def make_gateway(graph, **kwargs) -> AlertGateway:
    """A gateway with the serving tests' default shape."""
    kwargs.setdefault("blocker", serving_blocker())
    kwargs.setdefault("n_planes", 2)
    kwargs.setdefault("flush_size", 64)
    return AlertGateway(graph, **kwargs)
