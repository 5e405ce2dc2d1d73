"""The batch-vs-stream differential harness (``pytest -m differential``).

ROADMAP asked for online R1 rule learning that "quantifies the
divergence vs batch-derived rules"; this harness turns that into
CI-enforced numbers on two deterministic workloads
(:mod:`repro.workload.drift`):

* **stationary noise** — the noisy-strategy population never changes, so
  online learning and a batch pass over the finished trace must agree:
  the learned rule set is held to **precision >= 0.9** (and recall
  >= 0.9) against :meth:`MitigationPipeline.derive_blocker`'s set.
* **drifting noise** — the population swaps at half-time.  Here the two
  *legitimately* diverge (the batch pass underweights short-lived
  repeaters; the online learner promotes them as they appear and retires
  phase-A rules behind them).  The divergence — rule precision/recall,
  blocked-volume delta, per-strategy QoA drift — is computed, bounded
  loosely, and written to ``benchmarks/results/differential_report.json``
  so CI can archive it as a reviewable artifact.

Two exactness legs ride along: with learning *disabled* the gateway must
still reconcile bit-for-bit with the batch pipeline on these traces, and
the streaming QoA scores at drain must equal the batch-computed ratios
to within :data:`repro.streaming.qoa.QOA_DRAIN_TOLERANCE` (documented:
pure float-division noise; the underlying counters are identical).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.alerting.alert import Alert, Severity
from repro.core.antipatterns.definitions import DefinitionHygieneDetector
from repro.core.antipatterns.individual import run_individual_detectors
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.emerging import EmergingAlertDetector
from repro.ml.sketch import SketchEmergingDetector
from repro.streaming import (
    AlertGateway,
    LearnerConfig,
    measure_stream_qoa,
    rule_set_divergence,
)
from repro.streaming.qoa import QOA_DRAIN_TOLERANCE
from repro.workload import DriftConfig, build_drifting_noise_trace, drift_graph

pytestmark = pytest.mark.differential

REPORT_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "differential_report.json"
)

WINDOW = 900.0
#: Short TTL so drifting-phase rules retire while the trace still runs.
LEARNER = LearnerConfig(rule_ttl=1800.0)

#: Differential-harness acceptance bounds (the documented numbers).
PRECISION_FLOOR_STATIONARY = 0.9
RECALL_FLOOR_STATIONARY = 0.9

#: The static-threshold blocked-volume ratio recorded before adaptive
#: thresholds existed (PR 10's starting point); adaptive learning on
#: stationary noise must strictly beat it.
STATIC_BASELINE_RATIO = 0.46

#: Learner judgment cadence for the adaptive-vs-static comparison: both
#: arms flush every 10 minutes so the only variable is the thresholds.
ADAPTIVE_FLUSH_INTERVAL = 600.0


def _run_online(trace, graph, learner_config=LEARNER, **kwargs):
    """One learning gateway run from an empty rule table."""
    gateway = AlertGateway(
        graph, blocker=AlertBlocker(), flush_size=256,
        aggregation_window=WINDOW, correlation_window=WINDOW,
        learn_rules=True, enable_qoa=True, learner_config=learner_config,
        retain_artifacts=False, **kwargs,
    )
    gateway.ingest_batch(trace.iter_ordered())
    stats = gateway.drain()
    return gateway, stats


def _divergence_metrics(trace, graph) -> dict:
    """Replay one trace both ways and quantify every divergence axis."""
    batch_blocker = MitigationPipeline.derive_blocker(trace)
    batch_set = {rule.strategy_id for rule in batch_blocker.rules}
    batch_report = MitigationPipeline(
        graph, aggregation_window=WINDOW, correlation_window=WINDOW,
    ).run(trace, blocker=batch_blocker)

    gateway, stats = _run_online(trace, graph)
    metrics = rule_set_divergence(gateway.learner.ever_promoted, batch_set)
    metrics["online_blocked"] = stats.blocked_alerts
    metrics["batch_blocked"] = batch_report.blocked_alerts
    metrics["blocked_volume_delta"] = (
        stats.blocked_alerts - batch_report.blocked_alerts
    )
    metrics["blocked_volume_ratio"] = (
        stats.blocked_alerts / batch_report.blocked_alerts
        if batch_report.blocked_alerts else 1.0
    )
    metrics["rule_events"] = len(gateway.learner.events)
    metrics["rules_promoted"] = stats.rules_promoted
    metrics["rules_demoted"] = stats.rules_demoted
    metrics["rules_expired"] = stats.rules_expired

    # QoA drift: online scores (learned rules blocking) vs the batch-rule
    # equivalents on the finished trace.
    batch_qoa = measure_stream_qoa(
        list(trace.iter_ordered()), batch_blocker, aggregation_window=WINDOW,
    )
    drifts = [
        abs(stats.qoa[strategy_id]["overall"] - batch_qoa[strategy_id].overall)
        for strategy_id in stats.qoa
        if strategy_id in batch_qoa
    ]
    metrics["qoa_max_drift"] = max(drifts) if drifts else 0.0
    metrics["qoa_mean_drift"] = sum(drifts) / len(drifts) if drifts else 0.0
    return metrics


@pytest.fixture(scope="module")
def stationary():
    config = DriftConfig(drift=False)
    return build_drifting_noise_trace(config), drift_graph(config)


@pytest.fixture(scope="module")
def drifting():
    config = DriftConfig(drift=True)
    return build_drifting_noise_trace(config), drift_graph(config)


@pytest.fixture(scope="module")
def stationary_metrics(stationary):
    trace, graph = stationary
    return _divergence_metrics(trace, graph)


@pytest.fixture(scope="module")
def drifting_metrics(drifting):
    trace, graph = drifting
    return _divergence_metrics(trace, graph)


class TestStationaryConvergence:
    def test_online_rules_reach_precision_floor(self, stationary_metrics):
        """The ISSUE-4 acceptance bound: >= 0.9 precision vs batch rules."""
        assert stationary_metrics["rules_promoted"] > 0
        assert stationary_metrics["precision"] >= PRECISION_FLOOR_STATIONARY, (
            f"online-learned rules reached precision "
            f"{stationary_metrics['precision']:.2f} vs batch-derived rules"
        )

    def test_online_rules_reach_recall_floor(self, stationary_metrics):
        assert stationary_metrics["recall"] >= RECALL_FLOOR_STATIONARY, (
            f"online-learned rules reached recall "
            f"{stationary_metrics['recall']:.2f} vs batch-derived rules"
        )

    def test_online_blocking_engages(self, stationary_metrics):
        """Learned rules must actually block volume — but never more than
        batch rules, which block from t=0 while the learner must first
        accumulate evidence."""
        assert 0 < stationary_metrics["online_blocked"]
        assert (
            stationary_metrics["online_blocked"]
            <= stationary_metrics["batch_blocked"]
        )


class TestDriftingDivergence:
    def test_divergence_metrics_are_quantified(self, drifting_metrics):
        """Every divergence axis is a finite, reportable number."""
        for key in ("precision", "recall", "blocked_volume_delta",
                    "blocked_volume_ratio", "qoa_max_drift"):
            assert key in drifting_metrics
        assert 0.0 <= drifting_metrics["precision"] <= 1.0
        assert 0.0 <= drifting_metrics["recall"] <= 1.0
        assert 0.0 < drifting_metrics["blocked_volume_ratio"] <= 1.0

    def test_online_learning_adapts_to_the_drifted_population(self, drifting):
        """The point of online learning: phase-B noise (invisible to any
        rule set frozen at deploy time) is promoted once it appears, and
        phase-A rules retire (expire or demote) before the stream ends."""
        trace, graph = drifting
        gateway, _stats = _run_online(trace, graph)
        events = gateway.learner.events
        promoted = {e.strategy_id for e in events if e.kind == "promote"}
        assert any(s.startswith(("s-flap-b", "s-rep-b")) for s in promoted)
        end = max(a.occurred_at for a in trace.alerts)
        retired_a = {
            e.strategy_id for e in events
            if e.kind in ("expire", "demote") and e.at_time < end
            and e.strategy_id.startswith(("s-flap-a", "s-rep-a"))
        }
        assert retired_a, "phase-A rules must retire once their noise stops"

    def test_online_recall_covers_batch_rules(self, drifting_metrics):
        """Online learning must find everything the batch pass finds —
        its extra promotions (the short-lived repeaters) are the
        quantified precision gap, not missed noise."""
        assert drifting_metrics["recall"] >= 0.9


class TestExactnessWithLearningDisabled:
    @pytest.mark.parametrize("backend,kwargs", [
        ("serial", {}),
        ("serial", {"n_planes": 2}),
    ])
    def test_gateway_reconciles_exactly(self, drifting, backend, kwargs):
        trace, graph = drifting
        blocker = MitigationPipeline.derive_blocker(trace)
        gateway = AlertGateway(
            graph, blocker=blocker, backend=backend, flush_size=128,
            aggregation_window=WINDOW, correlation_window=WINDOW,
            retain_artifacts=False, **kwargs,
        )
        gateway.ingest_batch(trace.iter_ordered())
        stats = gateway.drain()
        report = MitigationPipeline(
            graph, aggregation_window=WINDOW, correlation_window=WINDOW,
        ).run(trace, blocker=blocker)
        assert stats.reconcile(report) == {}

    def test_streaming_qoa_matches_batch_at_drain(self, stationary):
        """QoA leg: identical counters, scores within the documented
        float tolerance."""
        trace, graph = stationary
        blocker = MitigationPipeline.derive_blocker(trace)
        gateway = AlertGateway(
            graph, blocker=blocker, flush_size=128, enable_qoa=True,
            aggregation_window=WINDOW, correlation_window=WINDOW,
            retain_artifacts=False,
        )
        alerts = list(trace.iter_ordered())
        gateway.ingest_batch(alerts)
        stats = gateway.drain()
        batch_qoa = measure_stream_qoa(alerts, blocker, aggregation_window=WINDOW)
        assert set(stats.qoa) == set(batch_qoa)
        for strategy_id, expected in batch_qoa.items():
            row = stats.qoa[strategy_id]
            assert row["seen"] == expected.seen
            assert row["blocked"] == expected.blocked
            assert row["transient"] == expected.transient
            assert row["groups"] == expected.groups
            for criterion in ("coverage", "actionability", "distinctness",
                              "overall"):
                assert abs(row[criterion] - getattr(expected, criterion)) <= (
                    QOA_DRAIN_TOLERANCE
                ), f"{strategy_id}.{criterion}"


# ----------------------------------------------------------------------
# online detection (A1-A3) vs the batch detectors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def detection_runs(default_trace, topology):
    """The 60-day default trace through a detect-enabled gateway, plus
    the batch detectors over the finished trace."""
    gateway = AlertGateway(
        topology.graph, n_planes=2, flush_size=256,
        detect_antipatterns=True, retain_artifacts=False,
    )
    gateway.ingest_batch(default_trace.iter_ordered())
    stats = gateway.drain()
    online = gateway.detectors.findings()
    observed = {alert.strategy_id for alert in default_trace.alerts}
    batch = run_individual_detectors(default_trace, subjects=observed)
    batch["A3"] = DefinitionHygieneDetector().detect(default_trace)
    return online, batch, stats


def _by_subject(findings):
    return sorted(findings, key=lambda f: (f.subject, f.evidence))


class TestOnlineDetectionParity:
    """Online A1-A3 vs batch on the seeded default trace.

    Generated traces copy each strategy's title/description verbatim
    into its alerts, so the catalog the stream accumulates equals the
    strategy metadata the batch detectors read — parity is exact, not
    approximate.  (The drift workload synthesises per-alert titles, so
    it cannot serve here.)
    """

    def test_a1_verdicts_match_batch_exactly(self, detection_runs):
        online, batch, _stats = detection_runs
        assert online["A1"], "the default trace must exercise A1"
        assert _by_subject(online["A1"]) == _by_subject(batch["A1"])

    def test_a3_verdicts_match_batch_exactly(self, detection_runs):
        online, batch, _stats = detection_runs
        assert online["A3"], "the default trace must exercise A3"
        assert _by_subject(online["A3"]) == _by_subject(batch["A3"])

    def test_a2_verdicts_match_batch(self, detection_runs):
        """A2 parity is verdict-exact; the impact proxies agree to float
        summation order (the digests fold per-bucket duration sums where
        the batch path means a flat list)."""
        online, batch, _stats = detection_runs
        assert online["A2"], "the default trace must exercise A2"
        online_a2 = _by_subject(online["A2"])
        batch_a2 = _by_subject(batch["A2"])
        assert [f.subject for f in online_a2] == [f.subject for f in batch_a2]
        for ours, theirs in zip(online_a2, batch_a2):
            assert ours.details["proxy"] == pytest.approx(
                theirs.details["proxy"], abs=1e-9)
            assert ours.details["nearest"] == theirs.details["nearest"]

    def test_summary_surfaces_the_findings(self, detection_runs):
        online, _batch, stats = detection_runs
        assert stats.detection["findings"] == {
            pattern: len(items) for pattern, items in online.items()
        }
        assert stats.detection["strategies"] == 400


# ----------------------------------------------------------------------
# sketch-based R4 vs the batch OnlineLDA path
# ----------------------------------------------------------------------
def _novel_burst_alerts(start: float) -> list[Alert]:
    """Six alerts of one never-seen strategy with unique vocabulary."""
    return [
        Alert(
            alert_id=f"novel-{index:03d}",
            strategy_id="s-novel",
            strategy_name="s-novel-name",
            title="thermal runaway cascade in coolant manifold",
            description=("unprecedented pressure spike propagating "
                         "through relief valves"),
            severity=Severity.CRITICAL,
            service="svc-drift",
            microservice="m-drift-1",
            region="region-A",
            datacenter="region-A-dc1",
            channel="metric",
            occurred_at=start + index * 30.0,
        )
        for index in range(6)
    ]


@pytest.fixture(scope="module")
def novel_burst_workload():
    """A 24h drifting-noise trace with a novel-vocabulary burst at 20h —
    long enough past the 6-window warmup that both R4 paths judge it."""
    config = DriftConfig(drift=True, hours=24.0)
    trace = build_drifting_noise_trace(config)
    alerts = sorted(
        list(trace.iter_ordered()) + _novel_burst_alerts(20 * 3600.0),
        key=lambda alert: alert.occurred_at,
    )
    return alerts, drift_graph(config)


class TestSketchVsLdaAgreement:
    """The documented sketch-vs-LDA R4 bound on the drifting workload.

    The sketch is the *conservative* arm: its per-bucket surprise is
    bounded (no vocabulary growth term), so it flags a subset of what
    the LDA flags — strategy-level precision 1.0 — while both must
    agree on the injected genuinely-novel burst.  The LDA additionally
    flags the phase-B population swap (new strategy names grow its
    vocabulary); that asymmetry is the documented difference, not a
    defect.
    """

    @pytest.fixture(scope="class")
    def flags(self, novel_burst_workload):
        alerts, _graph = novel_burst_workload
        lda = EmergingAlertDetector().run(alerts)
        sketch = SketchEmergingDetector().run(alerts)
        return lda, sketch

    def test_both_paths_flag_the_novel_burst(self, flags):
        lda, sketch = flags
        assert "s-novel" in {e.alert.strategy_id for e in lda}
        assert "s-novel" in {f.strategy_id for f in sketch}

    def test_sketch_strategies_are_a_subset_of_lda_strategies(self, flags):
        """The agreement bound: sketch strategy-level precision vs the
        LDA is 1.0 (every sketch verdict is an LDA verdict)."""
        lda, sketch = flags
        lda_strategies = {e.alert.strategy_id for e in lda}
        sketch_strategies = {f.strategy_id for f in sketch}
        assert sketch_strategies
        assert sketch_strategies <= lda_strategies
        assert len(sketch) <= len(lda)

    @pytest.mark.parametrize("n_planes", [1, 2, 4])
    def test_streaming_sketch_matches_batch_sketch_exactly(
            self, novel_burst_workload, n_planes):
        """The gateway's incremental, flush-fed sketch and the one-shot
        batch wrapper share every line of verdict logic — their flag
        lists must be identical, not merely similar, at any plane count
        (the sketch advances once per flush, after every plane's batch)."""
        alerts, graph = novel_burst_workload
        gateway = AlertGateway(
            graph, blocker=AlertBlocker(), flush_size=256, n_planes=n_planes,
            aggregation_window=WINDOW, correlation_window=WINDOW,
            detect_antipatterns=True, retain_artifacts=False,
        )
        gateway.ingest_batch(alerts)
        gateway.drain()
        assert gateway.detectors.sketch.flags == \
            SketchEmergingDetector().run(alerts)


# ----------------------------------------------------------------------
# adaptive per-(service, region) thresholds vs the static baseline
# ----------------------------------------------------------------------
def _blocked_ratio(trace, graph, learner_config) -> float:
    """Online blocked volume as a fraction of the batch-rule volume."""
    batch_blocker = MitigationPipeline.derive_blocker(trace)
    batch_report = MitigationPipeline(
        graph, aggregation_window=WINDOW, correlation_window=WINDOW,
    ).run(trace, blocker=batch_blocker)
    gateway, stats = _run_online(
        trace, graph, flush_interval=ADAPTIVE_FLUSH_INTERVAL,
        learner_config=learner_config,
    )
    return stats.blocked_alerts / batch_report.blocked_alerts


@pytest.fixture(scope="module")
def adaptive_metrics(stationary, drifting):
    static = LearnerConfig(rule_ttl=1800.0)
    adaptive = LearnerConfig(rule_ttl=1800.0, adaptive=True)
    metrics = {}
    for name, (trace, graph) in (("stationary", stationary),
                                 ("drifting", drifting)):
        metrics[name] = {
            "static_ratio": _blocked_ratio(trace, graph, static),
            "adaptive_ratio": _blocked_ratio(trace, graph, adaptive),
        }
    return metrics


class TestAdaptiveThresholds:
    def test_adaptive_beats_static_on_stationary_noise(self, adaptive_metrics):
        """Same cadence, same TTL — per-(service, region) baselines are
        the only variable, and they must block strictly more volume."""
        row = adaptive_metrics["stationary"]
        assert row["adaptive_ratio"] > row["static_ratio"]

    def test_adaptive_clears_the_recorded_static_baseline(
            self, adaptive_metrics):
        """The PR 10 acceptance bound: strictly above the 0.46 ratio
        recorded with static thresholds."""
        assert (adaptive_metrics["stationary"]["adaptive_ratio"]
                > STATIC_BASELINE_RATIO)

    def test_adaptive_never_regresses_on_drift(self, adaptive_metrics):
        row = adaptive_metrics["drifting"]
        assert row["adaptive_ratio"] >= row["static_ratio"]


def test_write_divergence_report(stationary_metrics, drifting_metrics,
                                 adaptive_metrics, detection_runs):
    """Persist the harness's numbers (the CI artifact)."""
    online, _batch, stats = detection_runs
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps({
        "stationary": stationary_metrics,
        "drifting": drifting_metrics,
        "adaptive": adaptive_metrics,
        "detection": {
            "findings": {p: len(items) for p, items in online.items()},
            "strategies": stats.detection["strategies"],
            "emerging": stats.detection["emerging"],
        },
        "bounds": {
            "stationary_precision_floor": PRECISION_FLOOR_STATIONARY,
            "stationary_recall_floor": RECALL_FLOOR_STATIONARY,
            "qoa_drain_tolerance": QOA_DRAIN_TOLERANCE,
            "static_baseline_ratio": STATIC_BASELINE_RATIO,
        },
    }, indent=2, sort_keys=True) + "\n")
    assert REPORT_PATH.exists()
