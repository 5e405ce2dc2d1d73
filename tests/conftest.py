"""Shared fixtures: one topology, hub, and small trace per session.

Also registers the ``scale_chaos`` hypothesis profile: a seeded,
derandomized, higher-example run of the property tests (the checkpoint
properties marked ``scale_chaos`` and the per-module properties that
read the profile), selected in CI with ``HYPOTHESIS_PROFILE=scale_chaos``
so the seeded-properties job explores a fixed, reproducible corpus
instead of a fresh random one per run.  The name is historical; the CI
steps select the profile by it.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.telemetry import TelemetryHub
from repro.topology import TopologyConfig, generate_topology
from repro.workload import TraceConfig, TraceScale, generate_trace

settings.register_profile(
    "scale_chaos", max_examples=100, deadline=None, derandomize=True,
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def topology():
    """The default paper-scale topology (11 services, 192 microservices)."""
    return generate_topology(TopologyConfig(seed=42))


@pytest.fixture(scope="session")
def small_topology():
    """A smaller cloud for fast fault/monitoring tests."""
    return generate_topology(TopologyConfig(seed=7, n_microservices=24, n_regions=2))


@pytest.fixture()
def hub(small_topology):
    """A fresh telemetry hub over the small cloud (faults reset per test)."""
    return TelemetryHub(small_topology, seed=7)


@pytest.fixture(scope="session")
def smoke_trace(topology):
    """A 7-day smoke-scale trace over the default topology."""
    return generate_trace(TraceConfig(seed=42, scale=TraceScale.smoke()), topology)


@pytest.fixture(scope="session")
def default_trace(topology):
    """The 60-day default-scale trace used by mining/mitigation tests."""
    return generate_trace(TraceConfig(seed=42), topology)
