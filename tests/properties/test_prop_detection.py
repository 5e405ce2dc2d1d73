"""Property test: online anti-pattern detection ignores the plane count.

``StreamingDetectorSuite.observe`` folds each flush's pre-R1 per-plane
batches itself and advances the R4 sketch once per flush.  Over drawn
multi-region streams — strategies spanning regions; auto-cleared,
manually cleared and uncleared alerts; transients; one strategy whose
title changes mid-stream, so its cached document must be re-hashed; an
optional burst of never-seen vocabulary — and a drawn flush size and
forced-flush cut schedule, a gateway with 1, 2, 3 or 4 planes must drain
to the identical catalog and A2 state, ``summary()``, sketch history and
flags, and those flags must equal the one-shot ``SketchEmergingDetector``
over the same alerts.
"""

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, Severity
from repro.common.timeutil import HOUR
from repro.ml.sketch import SketchEmergingDetector
from repro.streaming import AlertGateway
from repro.topology.graph import DependencyGraph

REGIONS = ("region-a", "region-b", "region-c", "region-d")
# Per-strategy vocabulary: documents differ between strategies, and a
# strategy's repeats share one document until its title changes.
TOPICS = (
    "disk latency volume",
    "cpu throttling scheduler",
    "memory pressure eviction",
    "packet loss uplink",
    "certificate expiry handshake",
    "queue backlog consumer",
)
STATES = ("transient", "auto", "manual", "active")


def _alert(index, sid, topic, region, at, state, duration, title_suffix=""):
    alert = Alert(
        alert_id=f"a-{index:05d}",
        strategy_id=sid,
        strategy_name=f"{sid}-name",
        title=f"{topic} alarm{title_suffix}",
        description=f"{topic} exceeded its threshold",
        severity=Severity(int(sid[-1]) % 4),
        service=f"svc-{sid}",
        microservice=f"micro-{sid}",
        region=region,
        datacenter=f"{region}-dc1",
        channel="metric",
        occurred_at=at,
    )
    if state == "transient":
        alert.clear(at + duration % 600.0, manual=False)
    elif state == "auto":
        alert.clear(at + 600.0 + duration, manual=False)
    elif state == "manual":
        alert.clear(at + duration, manual=True)
    return alert


@st.composite
def cases(draw):
    """``(alerts, flush_size, cuts)``: an in-order stream and its schedule."""
    n_strategies = draw(st.integers(min_value=2, max_value=len(TOPICS)))
    spans = [
        draw(st.lists(st.sampled_from(REGIONS), min_size=1, max_size=4,
                      unique=True))
        for _ in range(n_strategies)
    ]
    picks = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_strategies - 1),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(STATES),
            st.floats(min_value=0.0, max_value=7200.0),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1500.0)),
        ),
        min_size=1, max_size=120,
    ))
    # The title of one strategy changes from this stream position on.
    renamed = draw(st.integers(min_value=0, max_value=n_strategies - 1))
    rename_at = draw(st.integers(min_value=0, max_value=len(picks)))
    alerts = []
    at = 0.0
    for index, (strategy, slot, state, duration, gap) in enumerate(picks):
        at += gap
        regions = spans[strategy]
        suffix = " again" if strategy == renamed and index >= rename_at else ""
        alerts.append(_alert(
            index, f"s-{strategy}", TOPICS[strategy],
            regions[slot % len(regions)], at, state, duration, suffix,
        ))
    if draw(st.booleans()):
        # Past the 6-window sketch warmup, in a drawn region; the stream
        # may go on after it, so its window can close mid-flush.
        start = draw(st.floats(min_value=6 * HOUR, max_value=12 * HOUR))
        region = draw(st.sampled_from(REGIONS))
        burst = [
            Alert(
                alert_id=f"novel-{index:03d}",
                strategy_id="s-novel",
                strategy_name="s-novel-name",
                title="thermal runaway cascade in coolant manifold",
                description="unprecedented pressure spike through relief valves",
                severity=Severity.CRITICAL,
                service="svc-novel",
                microservice="micro-novel",
                region=region,
                datacenter=f"{region}-dc1",
                channel="metric",
                occurred_at=start + 30.0 * index,
            )
            for index in range(draw(st.integers(min_value=1, max_value=8)))
        ]
        alerts = sorted(alerts + burst, key=lambda alert: alert.occurred_at)
    flush_size = draw(st.sampled_from([1, 3, 16, 64, 512]))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=len(alerts)), max_size=4,
    )))
    return alerts, flush_size, cuts


def _drained(alerts, n_planes, flush_size, cuts):
    gateway = AlertGateway(
        DependencyGraph(), n_planes=n_planes, flush_size=flush_size,
        retain_artifacts=False, detect_antipatterns=True,
    )
    start = 0
    for cut in cuts:
        gateway.ingest_batch(alerts[start:cut])
        gateway.flush()
        start = cut
    gateway.ingest_batch(alerts[start:])
    gateway.drain()
    suite = gateway.detectors
    state = suite.export_state()
    sketch = state.pop("sketch")
    return state, suite.summary(), sketch["history"], suite.sketch.flags


@given(cases())
@settings(deadline=None)
def test_detection_is_plane_count_invariant(case):
    alerts, flush_size, cuts = case
    reference = _drained(alerts, 1, flush_size, cuts)
    for n_planes in (2, 3, 4):
        assert _drained(alerts, n_planes, flush_size, cuts) == reference
    assert reference[-1] == SketchEmergingDetector().run(alerts)
