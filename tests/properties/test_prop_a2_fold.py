"""Property test: A2's final-hour fold equals the naive per-row A2.

``StreamingDetectorSuite`` folds each final hour of A2 evidence into
per-(strategy, region) totals, runs the repeat-window check as hours
fold (a sticky per-strategy flag) and keeps only the event times the
next hour could still pair with.  The reference below is the suite's
former drain-time A2, verbatim: one ``[count, transient, manual,
cleared, duration_sum, times]`` row per (strategy, region, hour), storm
hours re-summed from every row, and the sliding repeat window re-run
over every row's sorted times.  Here its rows hold every event time.

Drawn streams carry storm hours (more than 100 alerts in one
region-hour, and exactly 100, which is not one), repeat runs that
straddle hour edges, dense hours at the repeat cap, and two alerts a
gap of exactly ``repeat_window`` or one ulp either side of it apart with
the rest of a repeat-sized run between them.  They arrive in order,
with each alert up to a drawn lag (under an hour) late, or in order
with one far-future alert.  Each stream is played through gateways with
1-4 planes, drawn flush sizes and an optional capture -> restore cut.
Every run must give the reference's A2 proxies (to 1e-9: sums add in
another order) and verdicts, leave no alert out of A2, and end in
bitwise-equal A2 state: rows add alerts in arrival order and totals add
rows in hour order, whatever the flush schedule.

Each example plays two or three gateways, so under the seeded CI
profile a failure is reported unshrunk rather than shrunk for minutes;
run the test under the default profile to shrink it.
"""

import json
import math
import os
import random

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.timeutil import HOUR
from repro.core.antipatterns.base import AntiPatternFinding, DetectorThresholds
from repro.streaming import AlertGateway
from repro.streaming.detectors import STORM_HOUR_THRESHOLD
from repro.topology.graph import DependencyGraph

_CHAOS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "scale_chaos"
_EXAMPLES = 200 if _CHAOS_PROFILE else 40
_PHASES = tuple(
    phase for phase in Phase
    if not (_CHAOS_PROFILE and phase is Phase.shrink)
)

REGIONS = ("region-a", "region-b", "region-c")
#: Lifecycles, weighted so that most strategies pass the transient gate.
STATES = ("transient", "auto", "auto", "manual", "manual", "active")
#: Two severity classes of four strategies each, so the class centers
#: and verdicts are exercised, not only the proxies.
SEVERITIES = {
    f"s-{index}": (Severity.WARNING, Severity.CRITICAL)[index % 2]
    for index in range(8)
}
#: Stream times are multiples of this, so ``t + repeat_window`` is exact.
TICK = 0.125


class NaiveA2:
    """The suite's A2 before the fold, over raw per-hour rows."""

    def __init__(self, alerts: list[Alert], thresholds: DetectorThresholds):
        self._thresholds = thresholds
        self._catalog: dict[str, list] = {}
        self._stats: dict[str, dict[tuple[str, int], list]] = {}
        self._hour_totals: dict[tuple[str, int], int] = {}
        for alert in alerts:
            at = alert.occurred_at
            self._catalog.setdefault(alert.strategy_id, [
                at, alert.alert_id, alert.title, alert.description,
                alert.severity.value, alert.service, at,
            ])
            key = (alert.region, int(at // HOUR))
            row = self._stats.setdefault(alert.strategy_id, {}).setdefault(
                key, [0, 0, 0, 0, 0.0, []],
            )
            self._hour_totals[key] = self._hour_totals.get(key, 0) + 1
            row[0] += 1
            if alert.is_transient(thresholds.intermittent_threshold):
                row[1] += 1
            else:
                row[2] += alert.state is AlertState.CLEARED_MANUAL
                if alert.cleared_at is not None:
                    row[3] += 1
                    row[4] += alert.cleared_at - at
            row[5].append(at)

    def _storm_hours(self) -> set[tuple[str, int]]:
        """(region, hour bucket) keys carrying flood-level volume."""
        return {
            key for key, count in self._hour_totals.items()
            if count > STORM_HOUR_THRESHOLD
        }

    def proxies(self) -> dict[str, float]:
        """The proxy half of the former ``_severity_findings``, verbatim."""
        thresholds = self._thresholds
        storm_hours = self._storm_hours()
        # Per sid over non-storm buckets: totals plus the per-region
        # bucket evidence the repeat check needs.
        folded: dict[str, list] = {}
        regions_of: dict[str, dict[str, list[tuple[int, list[float]]]]] = {}
        # Sorted sids, then each sid's sorted keys: the (sid, region,
        # bucket) order, so the float sums add up in the same order.
        stats = self._stats
        for sid in sorted(stats):
            items = stats[sid].items()
            if storm_hours:
                items = [item for item in items if item[0] not in storm_hours]
            if not items:
                continue
            totals = folded[sid] = [0, 0, 0, 0, 0.0]
            by_region = regions_of[sid] = {}
            for (region, _bucket), row in sorted(items):
                totals[0] += row[0]
                totals[1] += row[1]
                totals[2] += row[2]
                totals[3] += row[3]
                totals[4] += row[4]
                evidence = by_region.get(region)
                if evidence is None:
                    evidence = by_region[region] = []
                evidence.append((row[0], row[5]))
        proxies: dict[str, float] = {}
        for sid, totals in folded.items():
            total, transient, manual, cleared, duration_sum = totals
            if not total:
                continue
            if transient / total >= thresholds.transient_fraction:
                continue
            if self._is_repeat_dominated(regions_of[sid]):
                continue
            steady = total - transient
            if steady < thresholds.severity_min_alerts:
                continue
            manual_share = manual / steady
            mean_duration = duration_sum / cleared if cleared else 0.0
            proxies[sid] = (
                0.60 * manual_share + 0.40 * min(mean_duration / 7200.0, 1.0)
            )
        return proxies

    def _severity_findings(self) -> list[AntiPatternFinding]:
        """A2 reconstructed from the lifecycle statistics."""
        thresholds = self._thresholds
        proxies = self.proxies()
        if not proxies:
            return []
        by_class: dict[Severity, list[float]] = {}
        for sid, proxy in proxies.items():
            severity = Severity(self._catalog[sid][4])
            by_class.setdefault(severity, []).append(proxy)
        centers = {
            severity: float(np.median(values))
            for severity, values in by_class.items()
            if len(values) >= 3
        }
        if len(centers) < 2:
            return []
        findings = []
        for sid, proxy in proxies.items():
            configured = Severity(self._catalog[sid][4])
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
            direction = (
                "overstated" if nearest.value > configured.value
                else "understated"
            )
            findings.append(AntiPatternFinding(
                pattern="A2",
                subject=sid,
                score=min(1.0, 0.5 + margin),
                evidence=(
                    f"configured {configured.label} but impact proxy "
                    f"{proxy:.2f} matches {nearest.label} "
                    f"(center {centers[nearest]:.2f}); "
                    f"severity {direction}"
                ),
                details={
                    "proxy": proxy,
                    "nearest": nearest.label,
                    "margin": margin,
                },
            ))
        return findings

    def _is_repeat_dominated(
        self, by_region: dict[str, list[tuple[int, list[float]]]],
    ) -> bool:
        """Exact repeat-window check from the bucketed evidence."""
        thresholds = self._thresholds
        cap = thresholds.repeat_window_count
        for buckets in by_region.values():
            # A bucket at the cap is itself a repeat-sized run (the cap
            # many events inside one hour <= repeat_window).
            if any(count >= cap for count, _ in buckets):
                return True
            times = sorted(
                at for _, bucket_times in buckets for at in bucket_times
            )
            left = 0
            for right in range(len(times)):
                while times[right] - times[left] > thresholds.repeat_window:
                    left += 1
                if right - left + 1 >= cap:
                    return True
        return False


def _alert(index, at, sid, region, state, duration):
    alert = Alert(
        alert_id=f"a-{index:05d}",
        strategy_id=sid,
        strategy_name=f"{sid}-name",
        title=f"{sid} latency above threshold",
        description=f"{sid} latency exceeded its threshold",
        severity=SEVERITIES.get(sid, Severity.MINOR),
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


def _ticks(value: float) -> float:
    return math.floor(value / TICK) * TICK


@st.composite
def streams(draw):
    """``(alerts, thresholds)``: a stream in arrival order and the A2
    knobs."""
    window = draw(st.sampled_from([HOUR, 3 * HOUR]))
    cap = draw(st.sampled_from([3, 4, 8]))
    thresholds = DetectorThresholds(
        repeat_window=window, repeat_window_count=cap,
        severity_min_alerts=2, severity_class_margin=0.0,
        severity_min_distance=0.0,
    )
    sids = [f"s-{index}" for index in range(draw(st.integers(6, 8)))]
    events: list[tuple] = []

    def emit(at, sid, region, states=STATES):
        state = draw(st.sampled_from(states))
        duration = draw(st.floats(min_value=0.0, max_value=9000.0))
        events.append((at, sid, region, state, duration))

    t = _ticks(draw(st.floats(min_value=0.0, max_value=2 * HOUR)))
    for kind in ["steady"] + draw(st.lists(
        st.sampled_from(["steady", "sparse", "run", "dense", "edge", "storm"]),
        min_size=1, max_size=5,
    )):
        sid, region = draw(st.sampled_from(sids)), draw(st.sampled_from(REGIONS))
        if kind == "steady":
            # Every strategy a few times, further apart than any run:
            # evidence that reaches a proxy, so verdicts have classes.
            for step in range(draw(st.integers(2, 4))):
                for steady in sids:
                    emit(t + step * (window + HOUR), steady,
                         draw(st.sampled_from(REGIONS)), STATES[1:])
                    t += _ticks(draw(st.floats(0.0, HOUR / len(sids))))
            t += 2 * (window + HOUR)
        elif kind == "sparse":
            for _ in range(draw(st.integers(1, 40))):
                t += _ticks(draw(st.floats(min_value=0.0, max_value=HOUR)))
                emit(t, draw(st.sampled_from(sids)), draw(st.sampled_from(REGIONS)))
        elif kind == "run":
            # cap alerts across the next hour edge, a drawn spacing apart:
            # a repeat run when (cap - 1) * spacing <= window.
            edge = (math.floor(t / HOUR) + 1) * HOUR
            spacing = _ticks(draw(st.floats(
                min_value=0.0, max_value=1.25 * window / (cap - 1),
            )))
            start = edge - _ticks(draw(st.floats(
                min_value=0.0, max_value=(cap - 1) * spacing,
            )))
            for index in range(cap):
                emit(max(t, start + index * spacing), sid, region)
            t = max(t, start + (cap - 1) * spacing)
        elif kind == "dense":
            # cap or more alerts inside one hour, and maybe a few of the
            # same strategy in other regions (other planes) that hour.
            hour = math.floor(t / HOUR) + 1
            for _ in range(draw(st.integers(cap, cap + 2))):
                at = hour * HOUR + _ticks(draw(st.floats(0.0, HOUR - 1.0)))
                emit(at, sid, region)
            for other in draw(st.lists(st.sampled_from(REGIONS), max_size=3)):
                at = hour * HOUR + _ticks(draw(st.floats(0.0, HOUR - 1.0)))
                emit(at, sid, other)
            t = (hour + 1) * HOUR
        elif kind == "edge":
            # The run's ends a gap of exactly repeat_window, or one ulp
            # either side of it, apart: t_j - t_i is exact (Sterbenz).
            first = max(t, window)
            last = draw(st.sampled_from([
                first + window,
                math.nextafter(first + window, math.inf),
                math.nextafter(first + window, -math.inf),
            ]))
            emit(first, sid, region)
            for index in range(1, cap - 1):
                emit(first + _ticks(window * index / (cap - 1)), sid, region)
            emit(last, sid, region)
            t = last
        else:
            # A region-hour of exactly 100 alerts (no storm) or more.
            hour = math.floor(t / HOUR) + 1
            volume = draw(st.sampled_from([
                STORM_HOUR_THRESHOLD, STORM_HOUR_THRESHOLD + 1, 130,
            ]))
            for index in range(volume):
                at = hour * HOUR + index * _ticks((HOUR - 1.0) / volume)
                emit(at, sid if index % 3 else "s-flood", region)
            t = (hour + 1) * HOUR
    events.sort(key=lambda event: event[0])
    alerts = [_alert(index, *event) for index, event in enumerate(events)]
    # Each alert arrives less than ``lag`` late, so never an hour behind
    # the watermark; or the stream is in order but for one alert far in
    # the future, which pins the watermark from its arrival on.
    lag = draw(st.sampled_from([0.0, 0.0, HOUR / 4, HOUR - 1.0]))
    if lag:
        jitter = random.Random(draw(st.integers(0, 2**32))).random
        alerts.sort(key=lambda alert: alert.occurred_at + lag * jitter())
    elif draw(st.booleans()):
        alerts.insert(draw(st.integers(0, len(alerts))), _alert(
            len(alerts), 1e12, draw(st.sampled_from(sids)),
            draw(st.sampled_from(REGIONS)), "auto", 0.0,
        ))
    return alerts, thresholds


#: (planes, flush size, capture -> restore cut as a stream fraction).
runs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, 5, 32, 512]),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=2, max_size=3,
)


def _gateway(n_planes, flush_size, thresholds):
    return AlertGateway(
        DependencyGraph(), n_planes=n_planes, flush_size=flush_size,
        retain_artifacts=False, detect_antipatterns=True,
        detector_thresholds=thresholds,
    )


def _drained(alerts, thresholds, n_planes, flush_size, cut):
    gateway = _gateway(n_planes, flush_size, thresholds)
    if cut is not None:
        at = int(cut * len(alerts))
        gateway.ingest_batch(alerts[:at])
        gateway.flush()
        state = gateway.checkpoint_state()
        # The detector state crosses a JSON header on the serving path.
        state["detectors"] = json.loads(json.dumps(state["detectors"]))
        gateway.close()
        gateway = _gateway(n_planes, flush_size, thresholds)
        gateway.adopt_checkpoint(state)
        alerts = alerts[at:]
    gateway.ingest_batch(alerts)
    gateway.drain()
    return gateway.detectors


@given(streams(), runs)
@settings(deadline=None, max_examples=_EXAMPLES, phases=_PHASES,
          report_multiple_bugs=False)
def test_a2_fold_equals_the_naive_rows(stream, schedule):
    alerts, thresholds = stream
    naive = NaiveA2(alerts, thresholds)
    expected_proxies = naive.proxies()
    expected = naive._severity_findings()
    a2_states = []
    for n_planes, flush_size, cut in schedule:
        suite = _drained(alerts, thresholds, n_planes, flush_size, cut)
        proxies = suite._proxies()
        assert proxies.keys() == expected_proxies.keys()
        for sid, proxy in proxies.items():
            assert abs(proxy - expected_proxies[sid]) <= 1e-9, sid
        findings = suite.findings()["A2"]
        assert [(f.subject, f.details["nearest"]) for f in findings] == \
            [(f.subject, f.details["nearest"]) for f in expected]
        for ours, theirs in zip(findings, expected):
            assert abs(ours.details["proxy"] - theirs.details["proxy"]) <= 1e-9
        state = suite.export_state()
        assert state["a2_late"] == 0
        a2_states.append(json.dumps(
            {key: value for key, value in state.items()
             if key not in ("catalog", "sketch")},
        ))
    assert all(state == a2_states[0] for state in a2_states)
