"""One declaration: every gateway option behaves the way its field says.

These tests are generated from ``dataclasses.fields(GatewayConfig)``
rather than written per option: a new field needs one row in
``NON_DEFAULT`` below (the table's key set is pinned to the field set)
and is then covered for record round trip, old-checkpoint defaults, and
strict/non-strict restore drift without another line of test code.
"""

import dataclasses
import json

import pytest

from repro.common.errors import ValidationError
from repro.core.antipatterns.base import DetectorThresholds
from repro.serving import build_gateway, checkpoint_of_gateway, restore_gateway
from repro.streaming import AlertGateway, GatewayConfig, LearnerConfig

from tests.streaming.test_golden_trace import golden_graph

FIELDS = {spec.name: spec for spec in dataclasses.fields(GatewayConfig)}

#: One non-default value per field.
NON_DEFAULT = {
    "n_planes": 3,
    "aggregation_window": 600.0,
    "correlation_window": 450.0,
    "correlation_max_hops": 2,
    "enable_storm_detection": False,
    "retain_artifacts": False,
    "finalize_every": 64,
    "backend": "process",
    "n_workers": 2,
    "flush_size": 32,
    "flush_interval": 120.0,
    "learn_rules": True,
    "learner_config": LearnerConfig(adaptive=True),
    "enable_qoa": True,
    "detect_antipatterns": True,
    "detector_thresholds": dataclasses.replace(
        DetectorThresholds(), intermittent_threshold=1.0, repeat_window_count=3,
    ),
    "sketch_buckets": 512,
    "ingress_lanes": 2,
    "lane_transport": "pipe",
    "worker_timeout": 5.0,
}

#: Options a value needs beside it to take effect (a worker count needs
#: a fleet and planes to spread over, lanes need workers to feed and
#: planes, a learner config needs a learner).
COMPANIONS = {
    "n_workers": {"backend": "process", "n_planes": 2},
    "ingress_lanes": {"backend": "process", "n_planes": 2},
    "learner_config": {"learn_rules": True},
}

#: Every key a record written before ingress lanes (PR 7) carried that
#: is still a field (those records also carried ``n_shards``).
PRE_LANES_KEYS = {
    "backend", "n_planes", "n_workers", "flush_size",
    "flush_interval", "aggregation_window", "correlation_window",
    "correlation_max_hops", "enable_storm_detection", "retain_artifacts",
    "finalize_every", "learn_rules", "enable_qoa", "learner_config",
}


def test_every_field_has_a_non_default_row():
    assert set(NON_DEFAULT) == set(FIELDS)
    for name, value in NON_DEFAULT.items():
        assert value != FIELDS[name].default, name


def test_record_keys_are_exactly_the_fields():
    gateway = AlertGateway(golden_graph())
    assert set(gateway.checkpoint_config()) == set(FIELDS)
    gateway.close()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_non_default_value_survives_record_round_trip(name):
    options = {name: NON_DEFAULT[name], **COMPANIONS.get(name, {})}
    gateway = AlertGateway(golden_graph(), **options)
    record = gateway.checkpoint_config()
    gateway.close()
    assert json.loads(json.dumps(record)) == record
    assert getattr(GatewayConfig.from_record(record), name) == NON_DEFAULT[name]
    # What the service uses as its drift reference, without a gateway.
    assert GatewayConfig(**options).resolved().record() == record
    rebuilt = build_gateway(golden_graph(), record)
    assert rebuilt.checkpoint_config() == record
    rebuilt.close()


def test_pre_lanes_record_builds_the_field_defaults():
    """Absent keys take field defaults and retired keys are ignored: old
    checkpoints need no shims and raise no drift."""
    gateway = AlertGateway(golden_graph())
    record = gateway.checkpoint_config()
    gateway.close()
    old = {key: record[key] for key in PRE_LANES_KEYS}
    assert not {
        "ingress_lanes", "lane_transport", "worker_timeout",
        "detect_antipatterns", "sketch_buckets", "detector_thresholds",
    } & set(old)
    # Retired keys: the shard layer's, the fleet's own recovery and the
    # ring geometry, now constant.
    old["n_shards"] = 8
    old["worker_recovery"] = True
    old["worker_checkpoint_every"] = 8
    old["ring_slot_size"] = 4096
    old["ring_slots"] = 2
    rebuilt = build_gateway(golden_graph(), old)
    assert rebuilt.checkpoint_config() == record
    rebuilt.close()
    assert GatewayConfig.from_record(old).drift(
        GatewayConfig.from_record(record)
    ) == {}


@pytest.fixture(scope="module")
def default_checkpoint():
    gateway = AlertGateway(golden_graph())
    checkpoint = checkpoint_of_gateway(gateway, 1)
    gateway.close()
    return checkpoint


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_restore_refuses_drift_on_strict_fields_only(default_checkpoint, name):
    recorded = GatewayConfig(**{name: NON_DEFAULT[name]}).record()[name]
    expected = {**default_checkpoint.config, name: recorded}
    if FIELDS[name].metadata["strict"]:
        with pytest.raises(ValidationError, match=rf"drift.*\b{name}:"):
            restore_gateway(
                default_checkpoint, golden_graph(), expected_config=expected,
            )
    else:
        restore_gateway(
            default_checkpoint, golden_graph(), expected_config=expected,
        ).close()


def test_strict_set_is_the_parent_tuple_plus_thresholds():
    assert {n for n, spec in FIELDS.items() if spec.metadata["strict"]} == {
        "backend", "n_planes", "flush_size", "flush_interval",
        "aggregation_window", "correlation_window", "correlation_max_hops",
        "enable_storm_detection", "retain_artifacts", "finalize_every",
        "learn_rules", "enable_qoa", "detect_antipatterns",
        "detector_thresholds",
    }


def test_resolved_fills_flush_size_and_clamps():
    serial = GatewayConfig(n_planes=2, n_workers=8, ingress_lanes=4).resolved()
    assert (serial.flush_size, serial.n_workers, serial.ingress_lanes) == (1, 1, 1)
    process = GatewayConfig(
        backend="process", n_planes=3, ingress_lanes=4,
    ).resolved()
    assert (process.flush_size, process.n_workers, process.ingress_lanes) == (
        512, 3, 3,
    )
    assert process.resolved() == process


@pytest.mark.parametrize(
    "flag", ["learn_rules", "enable_qoa", "detect_antipatterns"],
)
def test_process_backend_refuses_observing_flags(flag):
    """Learning, QoA and detection fold in the parent process, so the
    process backend refuses them, naming the flag."""
    with pytest.raises(ValidationError, match=flag):
        GatewayConfig(backend="process", **{flag: True})
    # A directory written with that shape is refused at restore too.
    with pytest.raises(ValidationError, match=flag):
        GatewayConfig.from_record({"backend": "process", flag: True})
    assert getattr(GatewayConfig(**{flag: True}), flag)


def test_unknown_option_is_named():
    with pytest.raises(TypeError, match="flush_sise"):
        AlertGateway(golden_graph(), flush_sise=64)


@pytest.mark.parametrize("name,value", [
    ("n_planes", 0),
    ("ingress_lanes", 0),
    ("flush_size", 0),
    ("flush_interval", 0.0),
    ("finalize_every", 0),
    ("lane_transport", "udp"),
    ("backend", "thread"),
])
def test_invalid_value_is_refused(name, value):
    with pytest.raises(ValidationError, match=name.replace("_", "[ _]")):
        AlertGateway(golden_graph(), **{name: value})
