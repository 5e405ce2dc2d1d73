"""Serving soak: the golden trace, killed and restored mid-stream.

The CI ``serving-soak`` job's smoke: run the committed golden trace
through a real :class:`AlertGatewayService` in two halves with a
simulated crash between them, and require the drained accounting to
equal the *unscaled, uninterrupted* golden fixture
(``tests/data/golden_stream/expected.json``) bit for bit — and, with
the frozen learner configuration, the committed learned-rules fixture
too.  A restored service is not allowed to be distinguishable from one
that never died, even against fixtures frozen before serving existed.
"""

from __future__ import annotations

import json

import pytest

from repro.core.mitigation.blocking import AlertBlocker
from repro.serving import AlertGatewayService

from tests.streaming.test_golden_trace import (
    EXPECTED_PATH,
    LEARNED_PATH,
    LEARN_CONFIG,
    WINDOW,
    _load_alerts,
    _learned_payload,
    _stats_payload,
    golden_blocker,
    golden_graph,
)

pytestmark = pytest.mark.serving_soak

#: 128 = 2 x flush 64: a natural barrier close to the trace midpoint.
KILL_AT = 128
FLUSH = 64


def _golden_service(data_dir, **kwargs):
    kwargs.setdefault("blocker", golden_blocker())
    return AlertGatewayService(
        golden_graph(), data_dir, checkpoint_every=100,
        flush_size=FLUSH, aggregation_window=WINDOW,
        correlation_window=WINDOW, **kwargs,
    )


@pytest.mark.parametrize("backend,backend_kwargs", [
    ("serial", {}),
    ("process", {"n_workers": 2, "n_planes": 2}),
])
def test_killed_and_restored_service_matches_golden_fixture(
    tmp_path, backend, backend_kwargs,
):
    expected = json.loads(EXPECTED_PATH.read_text())
    alerts = _load_alerts()
    assert len(alerts) == expected["trace_alerts"]

    service = _golden_service(
        tmp_path, backend=backend, **backend_kwargs,
    )
    assert service.start() == "fresh"
    service.ingest(alerts[:KILL_AT])
    service.abort()  # kill -9 equivalent: nothing graceful happens

    revived = _golden_service(
        tmp_path, backend=backend, **backend_kwargs,
    )
    assert revived.start() == "restored"
    assert revived.input_alerts == KILL_AT
    revived.ingest(alerts[KILL_AT:])
    stats = revived.stop(drain=True)
    assert _stats_payload(stats) == expected["counts"], (
        "a killed-and-restored service drifted from the golden fixture"
    )


def test_killed_and_restored_learner_matches_golden_fixture(tmp_path):
    expected = json.loads(LEARNED_PATH.read_text())
    alerts = _load_alerts()

    def build():
        return _golden_service(
            tmp_path, blocker=AlertBlocker(), learn_rules=True,
            enable_qoa=True, learner_config=LEARN_CONFIG,
        )

    service = build()
    service.start()
    service.ingest(alerts[:KILL_AT])
    service.abort()

    revived = build()
    assert revived.start() == "restored"
    revived.ingest(alerts[KILL_AT:])
    gateway = revived.gateway
    stats = gateway.drain()
    assert _learned_payload(gateway, stats) == expected, (
        "the restored learner's rule timeline or QoA scores drifted from "
        "the committed golden fixture"
    )
