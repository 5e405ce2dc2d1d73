"""Alert-trace serialisation.

Traces round-trip through a directory of JSONL files (alerts, strategies,
faults, outcomes, metadata).  Generation rules are serialised by
description only — a loaded trace supports every *analysis* path (mining,
mitigation, QoA) but not live re-evaluation against telemetry, which
would require the original topology and hub anyway.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.alerting.alert import Alert, AlertState, Severity
from repro.alerting.rules import LogKeywordRule, MetricRule, ProbeRule
from repro.alerting.strategy import AlertStrategy, StrategyQuality
from repro.common.errors import ValidationError
from repro.common.timeutil import TimeWindow
from repro.detection.threshold import StaticThresholdDetector
from repro.faults.models import Fault, FaultKind
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.oce.processing import ProcessingOutcome
from repro.workload.trace import AlertTrace

__all__ = ["save_trace", "load_trace", "alert_to_dict", "alert_from_dict"]


def save_trace(trace: AlertTrace, directory: str | Path) -> Path:
    """Write ``trace`` into ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(directory / "alerts.jsonl", (alert_to_dict(a) for a in trace.alerts))
    write_jsonl(
        directory / "strategies.jsonl",
        (_strategy_to_dict(s) for s in trace.strategies.values()),
    )
    write_jsonl(directory / "faults.jsonl", (_fault_to_dict(f) for f in trace.faults))
    write_jsonl(
        directory / "outcomes.jsonl", (_outcome_to_dict(o) for o in trace.outcomes)
    )
    (directory / "meta.json").write_text(
        json.dumps({"seed": trace.seed, "label": trace.label}, sort_keys=True)
    )
    return directory


def load_trace(directory: str | Path) -> AlertTrace:
    """Load a trace previously written by :func:`save_trace`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"no such trace directory: {directory}")
    meta = json.loads((directory / "meta.json").read_text())
    trace = AlertTrace(seed=int(meta["seed"]), label=str(meta["label"]))
    for record in read_jsonl(directory / "strategies.jsonl"):
        trace.add_strategy(_strategy_from_dict(record))
    for record in read_jsonl(directory / "alerts.jsonl"):
        trace.alerts.append(alert_from_dict(record))
    for record in read_jsonl(directory / "faults.jsonl"):
        trace.faults.append(_fault_from_dict(record))
    for record in read_jsonl(directory / "outcomes.jsonl"):
        trace.outcomes.append(_outcome_from_dict(record))
    return trace


# ----------------------------------------------------------------------
# record codecs
# ----------------------------------------------------------------------
def alert_to_dict(alert: Alert) -> dict:
    return {
        "alert_id": alert.alert_id,
        "strategy_id": alert.strategy_id,
        "strategy_name": alert.strategy_name,
        "title": alert.title,
        "description": alert.description,
        "severity": alert.severity.name,
        "service": alert.service,
        "microservice": alert.microservice,
        "region": alert.region,
        "datacenter": alert.datacenter,
        "channel": alert.channel,
        "occurred_at": alert.occurred_at,
        "state": alert.state.value,
        "cleared_at": alert.cleared_at,
        "fault_id": alert.fault_id,
        "tags": alert.tags,
    }


def alert_from_dict(record: dict) -> Alert:
    cleared = record.get("cleared_at")
    return Alert(
        alert_id=record["alert_id"],
        strategy_id=record["strategy_id"],
        strategy_name=record["strategy_name"],
        title=record["title"],
        description=record["description"],
        severity=Severity[record["severity"]],
        service=record["service"],
        microservice=record["microservice"],
        region=record["region"],
        datacenter=record["datacenter"],
        channel=record["channel"],
        occurred_at=float(record["occurred_at"]),
        state=AlertState(record["state"]),
        cleared_at=float(cleared) if cleared is not None else None,
        fault_id=record.get("fault_id"),
        tags=dict(record.get("tags", {})),
    )


def _strategy_to_dict(strategy: AlertStrategy) -> dict:
    rule = strategy.rule
    if isinstance(rule, MetricRule):
        detector = rule.detector
        rule_record: dict = {
            "channel": "metric",
            "metric_name": rule.metric_name,
            "lookback_seconds": rule.lookback_seconds,
            "sample_interval": rule.sample_interval,
        }
        if isinstance(detector, StaticThresholdDetector):
            rule_record["detector"] = {
                "kind": "threshold",
                "threshold": detector.threshold,
                "direction": detector.direction,
                "min_consecutive": detector.min_consecutive,
            }
        else:
            rule_record["detector"] = {"kind": "opaque", "describe": detector.describe()}
    elif isinstance(rule, LogKeywordRule):
        rule_record = {
            "channel": "log",
            "min_count": rule.min_count,
            "window_seconds": rule.window_seconds,
            "keyword": rule.keyword,
        }
    else:
        rule_record = {
            "channel": "probe",
            "no_response_threshold": rule.no_response_threshold,
        }
    quality = strategy.quality
    return {
        "strategy_id": strategy.strategy_id,
        "name": strategy.name,
        "service": strategy.service,
        "microservice": strategy.microservice,
        "rule": rule_record,
        "severity": strategy.severity.name,
        "true_severity": strategy.true_severity.name,
        "title": strategy.title,
        "description": strategy.description,
        "quality": {
            "title_clarity": quality.title_clarity,
            "severity_bias": quality.severity_bias,
            "target_relevance": quality.target_relevance,
            "sensitivity": quality.sensitivity,
            "repeat_proneness": quality.repeat_proneness,
        },
        "check_interval": strategy.check_interval,
        "cooldown_seconds": strategy.cooldown_seconds,
        "auto_clear": strategy.auto_clear,
        "owner_team": strategy.owner_team,
    }


def _strategy_from_dict(record: dict) -> AlertStrategy:
    rule_record = record["rule"]
    channel = rule_record["channel"]
    if channel == "metric":
        detector_record = rule_record["detector"]
        if detector_record["kind"] != "threshold":
            raise ValidationError(
                f"cannot reconstruct opaque detector for {record['strategy_id']}"
            )
        rule: MetricRule | LogKeywordRule | ProbeRule = MetricRule(
            metric_name=rule_record["metric_name"],
            detector=StaticThresholdDetector(
                threshold=detector_record["threshold"],
                direction=detector_record["direction"],
                min_consecutive=detector_record["min_consecutive"],
            ),
            lookback_seconds=rule_record["lookback_seconds"],
            sample_interval=rule_record["sample_interval"],
        )
    elif channel == "log":
        rule = LogKeywordRule(
            min_count=rule_record["min_count"],
            window_seconds=rule_record["window_seconds"],
            keyword=rule_record["keyword"],
        )
    elif channel == "probe":
        rule = ProbeRule(no_response_threshold=rule_record["no_response_threshold"])
    else:
        raise ValidationError(f"unknown rule channel {channel!r}")
    quality_record = record["quality"]
    return AlertStrategy(
        strategy_id=record["strategy_id"],
        name=record["name"],
        service=record["service"],
        microservice=record["microservice"],
        rule=rule,
        severity=Severity[record["severity"]],
        true_severity=Severity[record["true_severity"]],
        title=record["title"],
        description=record["description"],
        quality=StrategyQuality(
            title_clarity=quality_record["title_clarity"],
            severity_bias=quality_record["severity_bias"],
            target_relevance=quality_record["target_relevance"],
            sensitivity=quality_record["sensitivity"],
            repeat_proneness=quality_record["repeat_proneness"],
        ),
        check_interval=record["check_interval"],
        cooldown_seconds=record["cooldown_seconds"],
        auto_clear=record["auto_clear"],
        owner_team=record["owner_team"],
    )


def _fault_to_dict(fault: Fault) -> dict:
    return {
        "fault_id": fault.fault_id,
        "kind": fault.kind.value,
        "microservice": fault.microservice,
        "region": fault.region,
        "start": fault.window.start,
        "end": fault.window.end,
        "parent_fault_id": fault.parent_fault_id,
        "root_fault_id": fault.root_fault_id,
        "depth": fault.depth,
    }


def _fault_from_dict(record: dict) -> Fault:
    return Fault(
        fault_id=record["fault_id"],
        kind=FaultKind(record["kind"]),
        microservice=record["microservice"],
        region=record["region"],
        window=TimeWindow(float(record["start"]), float(record["end"])),
        parent_fault_id=record.get("parent_fault_id"),
        root_fault_id=record.get("root_fault_id"),
        depth=int(record.get("depth", 0)),
    )


def _outcome_to_dict(outcome: ProcessingOutcome) -> dict:
    return {
        "alert_id": outcome.alert_id,
        "strategy_id": outcome.strategy_id,
        "oce_name": outcome.oce_name,
        "started_at": outcome.started_at,
        "processing_seconds": outcome.processing_seconds,
        "resolved": outcome.resolved,
    }


def _outcome_from_dict(record: dict) -> ProcessingOutcome:
    return ProcessingOutcome(
        alert_id=record["alert_id"],
        strategy_id=record["strategy_id"],
        oce_name=record["oce_name"],
        started_at=float(record["started_at"]),
        processing_seconds=float(record["processing_seconds"]),
        resolved=bool(record["resolved"]),
    )
