"""A ``--scale smoke`` run of every workload, end to end and traced.

Two waves (or three days), one rep: the whole module stays well under
30 s and still drives every code path the full benchmark
does — including the process fleet, the service crash/restore and the
probes.
"""

import json
import math

import pytest

from benchmarks.e2e import adapter, runner
from benchmarks.e2e.workloads import WORKLOADS, Rep, prepare

CONTRACT = runner.load_contract()

#: Per-layer metrics that must be measured (not ``None``) where the
#: workload exercises the layer.
MEASURED = {
    "storm_serial": ["correlator.r3_us_per_alert", "plane.self_us_per_alert",
                     "processor.r1r2_us_per_alert", "storm.r4_us_per_alert",
                     "gateway.self_us_per_alert", "checkpoint.capture_ms"],
    "storm_blocked": ["gateway.self_us_per_alert", "processor.blocked_ratio"],
    "storm_fleet": ["lanes.ingest_self_us_per_alert", "lanes.barrier_wait_ms",
                    "wire.builder_us_per_alert", "backends.worker_cpu_us_per_alert",
                    "backends.flush_self_us_per_alert", "rings.spills"],
    "background_detect": ["learning.us_per_alert", "qoa.us_per_alert",
                          "detectors.observe_us_per_alert", "detectors.summary_ms",
                          "detectors.findings"],
    "storm_durable": ["journal.append_us_per_alert", "journal.replay_ms",
                      "journal.replayed_events", "checkpoint.capture_ms",
                      "service.self_us_per_alert", "restore_s", "state.restore_ms"],
}


@pytest.fixture(scope="module")
def smoke():
    results = {}
    for name in WORKLOADS:
        results[name] = (
            runner.measure(name, 42, 0.0, "smoke"),
            runner.trace(name, 42, 0.0, "smoke"),
        )
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_present_finite_and_carries_its_unit(smoke, name):
    measured, traced = smoke[name]
    assert measured["failed_ops"] == 0 and traced["failed_ops"] == 0
    assert measured["ops"] > 0 and measured["reps"] == 1
    for result, key in ((measured, "end_to_end"), (traced, "per_layer")):
        line = json.loads(runner.driver_line(result, CONTRACT[key]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [spec["name"] for spec in CONTRACT[key]]
        for spec in CONTRACT[key]:
            cell = line["metrics"][spec["name"]]
            assert cell["unit"] == spec["unit"]
            assert isinstance(cell["value"], (int, float))
            assert math.isfinite(cell["value"])
    # End-to-end metrics are never zero, on any workload.
    for spec in CONTRACT["end_to_end"]:
        assert measured["metrics"][spec["name"]] > 0
    assert traced["metrics"]["trace.spans_missing"] == 0
    assert traced["metrics"]["ledger.coverage"] > 0.5
    for metric in MEASURED[name]:
        assert traced["metrics"][metric] is not None, metric
    assert ("restore_s" in measured["metrics"]) == (name == "storm_durable")


def test_corrupted_oracle_count_fails_ops():
    def corrupt(prepared):
        prepared.oracle.input_alerts += 1

    result = runner.measure(
        "storm_serial", 42, 0.0, "smoke", corrupt=corrupt,
    )
    assert result["failed_ops"] > 0
    line = json.loads(runner.driver_line(result, CONTRACT["end_to_end"]))
    assert line["correct"] is False and line["failed"] == result["failed_ops"]


def test_floors_hold_a_run_open_unless_a_rep_failed():
    full = Rep(flush_ms=[1.0] * 600)
    assert not runner._floors_met([full], 1, 1000)
    assert runner._floors_met([full, full], 1, 1000)
    assert not runner._floors_met([full, full], 5, 1000)
    # A rep that raised pools nothing; it must not keep the run going.
    assert runner._floors_met([Rep(failures=["rep raised"])], 1, 1000)


def test_another_seed_changes_the_alerts_but_no_metric_name(smoke):
    first = prepare("storm_blocked", 42, "smoke")
    second = prepare("storm_blocked", 7, "smoke")
    assert len(first.stream.alerts) == len(second.stream.alerts)
    assert [a.occurred_at for a in first.stream.alerts] != [
        a.occurred_at for a in second.stream.alerts
    ]
    again = prepare("storm_blocked", 42, "smoke")
    assert [a.alert_id for a in first.stream.alerts] == [
        a.alert_id for a in again.stream.alerts
    ]
    other = runner.measure("storm_blocked", 7, 0.0, "smoke")
    assert other["failed_ops"] == 0
    assert set(other["metrics"]) == set(smoke["storm_blocked"][0]["metrics"])


def test_renamed_span_target_nulls_its_metric_and_is_counted(monkeypatch):
    targets = tuple(
        (layer, module, name.replace("OnlineCorrelator.add", "OnlineCorrelator.gone"))
        for layer, module, name in adapter.SPAN_TARGETS
    )
    monkeypatch.setattr(adapter, "SPAN_TARGETS", targets)
    result = runner.trace("storm_serial", 42, 0.0, "smoke")
    assert result["failed_ops"] == 0
    assert result["metrics"]["trace.spans_missing"] == 1
    assert result["metrics"]["correlator.add_us_per_aggregate"] is None
    line = json.loads(runner.driver_line(result, CONTRACT["per_layer"]))
    assert line["metrics"]["correlator.add_us_per_aggregate"]["value"] == 0.0
