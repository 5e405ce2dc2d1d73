"""Property-based tests for online R1 rule learning.

Three invariants over randomized noisy traces:

* **TTL monotonicity** — a longer rule TTL can only grow the set of
  blocked alerts.  This holds because the learner's evidence is computed
  on the *pre-blocking* stream (so promotion/renewal/demotion-signal
  times are TTL-independent) and renewal is unconditional: a rule is
  live at ``t`` iff some evidence flush ``d <= t`` exists with
  ``t < d + ttl`` and no demotion signal in between, which is monotone
  in ``ttl``.
* **Replay equivalence** — applying the learner's recorded rule
  timeline (promote/renew/demote/expire events with their stream
  positions) to a plain batch :class:`AlertBlocker`, chunk by chunk at
  the recorded flush boundaries, reproduces the gateway's blocked count
  exactly: learned-rule *application* is the ordinary batch R1
  semantics, only the rule table's evolution is new.
* **Plane invariance** — the learned timeline and the volume
  accounting are identical for every plane count and flush size:
  learning happens at the gateway, which folds each flush's pre-R1
  batches itself, and deltas land at flush barriers, so how the regions
  are split across planes cannot change what is learned.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.alerting.alert import Alert, AlertState, Severity
from repro.core.mitigation.blocking import AlertBlocker, BlockingRule
from repro.streaming import AlertGateway, LearnerConfig
from repro.topology.graph import DependencyGraph

_REGIONS = ("region-A", "region-B")

#: Small thresholds so randomized traces can actually trigger learning.
_LEARNER = LearnerConfig(
    window_seconds=600.0, min_alerts=5, repeat_count=8, rule_ttl=900.0,
)


def _build_graph() -> DependencyGraph:
    graph = DependencyGraph()
    for name in ("m-1", "m-2", "m-3"):
        graph.add_microservice(name, service="svc")
    graph.add_dependency("m-1", "m-2")
    return graph


_GRAPH = _build_graph()


@st.composite
def noisy_traces(draw):
    """In-order traces mixing burst runs (learnable) with sparse events."""
    alerts: list[Alert] = []
    t = 0.0
    index = 0
    n_segments = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_segments):
        strategy = draw(st.sampled_from(("s-noisy-1", "s-noisy-2", "s-clean")))
        region = draw(st.sampled_from(_REGIONS))
        burst = draw(st.integers(min_value=1, max_value=30))
        gap = draw(st.floats(min_value=5.0, max_value=120.0))
        transient = draw(st.booleans())
        for _ in range(burst):
            alert = Alert(
                alert_id=f"p-{index:05d}",
                strategy_id=strategy,
                strategy_name=strategy,
                title="latency high",
                description="prop",
                severity=Severity.MINOR,
                service="svc",
                microservice=draw(st.sampled_from(("m-1", "m-2", "m-3"))),
                region=region,
                datacenter="dc",
                channel="metric",
                occurred_at=t,
            )
            if transient:
                alert.state = AlertState.CLEARED_AUTO
                alert.cleared_at = t + 30.0
            alerts.append(alert)
            index += 1
            t += gap
        t += draw(st.floats(min_value=0.0, max_value=1200.0))
    return alerts


def _run_learning(alerts, flush_size=16, n_planes=1,
                  rule_ttl=_LEARNER.rule_ttl, adaptive=False):
    config = LearnerConfig(
        window_seconds=_LEARNER.window_seconds,
        min_alerts=_LEARNER.min_alerts,
        repeat_count=_LEARNER.repeat_count,
        rule_ttl=rule_ttl,
        transient_fraction=_LEARNER.transient_fraction,
        demote_fraction=_LEARNER.demote_fraction,
        adaptive=adaptive,
        # Adaptive floors under the small thresholds above.
        min_alerts_floor=3,
        repeat_count_floor=5,
    )
    gateway = AlertGateway(
        _GRAPH, blocker=AlertBlocker(),
        n_planes=n_planes, flush_size=flush_size,
        aggregation_window=300.0, correlation_window=300.0,
        learn_rules=True, learner_config=config, enable_qoa=True,
        retain_artifacts=False,
    )
    gateway.ingest_batch(alerts)
    stats = gateway.drain()
    return gateway, stats


def _event_log(gateway) -> list[tuple]:
    return [
        (e.kind, e.strategy_id, e.at_input, round(e.at_time, 6),
         None if e.expires_at is None else round(e.expires_at, 6))
        for e in gateway.learner.events
    ]


def _counts(stats) -> tuple:
    return (
        stats.input_alerts,
        stats.blocked_alerts,
        stats.aggregates_emitted,
        stats.clusters_finalized,
        stats.rules_promoted,
        stats.rules_renewed,
        stats.rules_demoted,
        stats.rules_expired,
    )


def _canonical(state: dict) -> str:
    """``export_state()`` as JSON, up to what a plane split may change.

    Two things legitimately follow the split.  Observation rows are
    plane-major, so a key first seen in a later plane's region is
    inserted later (keys are sorted here).  And a plane expires its R2
    sessions only when it next receives a batch, so a close-only row's
    ``(watermark, 0, 0)`` window entry can land a flush later on a split
    (those entries are dropped here); every counted entry must match.
    """
    if "windows" in state:
        windows = {}
        for strategy_id, regions in state["windows"].items():
            counted = {
                region: [entry for entry in entries if entry[1] or entry[2]]
                for region, entries in regions.items()
            }
            counted = {region: rows for region, rows in counted.items() if rows}
            if counted:
                windows[strategy_id] = counted
        state = {**state, "windows": windows}
    return json.dumps(state, sort_keys=True)


class TestTTLMonotonicity:
    @given(noisy_traces(),
           st.sampled_from([60.0, 300.0, 900.0]),
           st.sampled_from([2.0, 4.0]),
           st.sampled_from([4, 32]))
    @settings(max_examples=30, deadline=None)
    def test_blocked_volume_is_monotone_in_ttl(
        self, alerts, ttl, factor, flush_size
    ):
        _, short = _run_learning(alerts, flush_size=flush_size, rule_ttl=ttl)
        _, long = _run_learning(
            alerts, flush_size=flush_size, rule_ttl=ttl * factor,
        )
        assert short.blocked_alerts <= long.blocked_alerts
        # Promotion/demotion timelines are evidence-driven and therefore
        # TTL-independent; only expiry/renewal bookkeeping may differ.
        assert short.rules_promoted >= long.rules_promoted


class TestReplayEquivalence:
    @given(noisy_traces(), st.sampled_from([1, 7, 16, 64]))
    @settings(max_examples=30, deadline=None)
    def test_recorded_timeline_replays_to_the_same_blocked_count(
        self, alerts, flush_size
    ):
        gateway, stats = _run_learning(alerts, flush_size=flush_size)
        events = gateway.learner.events
        blocker = AlertBlocker()
        blocked = 0
        processed = 0
        cursor = 0
        for start in range(0, len(alerts), flush_size):
            chunk = alerts[start:start + flush_size]
            while cursor < len(events) and events[cursor].at_input <= processed:
                event = events[cursor]
                cursor += 1
                blocker.remove_strategy(event.strategy_id)
                if event.kind in ("promote", "renew"):
                    blocker.add(BlockingRule(
                        strategy_id=event.strategy_id,
                        reason=event.reason,
                        expires_at=event.expires_at,
                    ))
            blocked += sum(1 for alert in chunk if blocker.is_blocked(alert))
            processed += len(chunk)
        assert blocked == stats.blocked_alerts


class TestBackendInvariance:
    @given(noisy_traces(), st.sampled_from([2, 4]), st.sampled_from([8, 32]),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_plane_split_learns_identically_to_flat(
        self, alerts, n_planes, flush_size, adaptive
    ):
        flat_gw, flat = _run_learning(
            alerts, flush_size=flush_size, n_planes=1, adaptive=adaptive,
        )
        split_gw, split = _run_learning(
            alerts, flush_size=flush_size, n_planes=n_planes, adaptive=adaptive,
        )
        assert _counts(flat) == _counts(split)
        assert _event_log(flat_gw) == _event_log(split_gw)
        # The state a checkpoint writes, every list in order.
        assert _canonical(flat_gw.learner.export_state()) == _canonical(
            split_gw.learner.export_state()
        )
        assert _canonical(flat_gw.qoa.export_state()) == _canonical(
            split_gw.qoa.export_state()
        )


class TestKeyWindowPrune:
    """Regression for the positional-cutoff prune bug: an early ``break``
    on the first in-window entry stranded stale pre-horizon counts
    whenever entries were not time-sorted (late out-of-order folds)."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5000.0,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=5000.0,
                  allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_prune_drops_every_pre_horizon_entry(self, entries, horizon):
        from repro.streaming.learning import _KeyWindow

        window = _KeyWindow()
        for at, seen, transient in entries:
            # seen >= transient, as real digests guarantee.
            window.add(at, seen + transient, transient)
        window.prune(horizon)
        assert all(at >= horizon for at, _, _ in window.entries)
        survivors = [e for e in entries if e[0] >= horizon]
        assert window.seen == sum(s + t for _, s, t in survivors)
        assert window.transient == sum(t for _, _, t in survivors)
        # Pruning is idempotent once the horizon has passed.
        before = (list(window.entries), window.seen, window.transient)
        window.prune(horizon)
        assert (window.entries, window.seen, window.transient) == before
