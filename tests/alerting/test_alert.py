"""Tests for alert records and lifecycle."""

import pytest

from repro.alerting.alert import Alert, AlertState, Severity
from repro.common.errors import ValidationError
from repro.common.timeutil import MINUTE
from repro.io.traces import alert_from_dict, alert_to_dict

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def make_alert(**overrides):
    defaults = dict(
        alert_id="alert-000000",
        strategy_id="strategy-000000",
        strategy_name="db_commit_latency_high",
        title="database-api-00: failed to commit changes",
        description="Write transactions are rejected.",
        severity=Severity.CRITICAL,
        service="database",
        microservice="database-api-00",
        region="region-A",
        datacenter="region-A-dc1",
        channel="metric",
        occurred_at=1000.0,
    )
    defaults.update(overrides)
    return Alert(**defaults)


class TestSeverity:
    def test_ordering_most_severe_first(self):
        assert Severity.CRITICAL < Severity.MAJOR < Severity.MINOR < Severity.WARNING

    def test_labels(self):
        assert Severity.CRITICAL.label == "Critical"
        assert Severity.WARNING.label == "Warning"

    def test_escalated_clamps(self):
        assert Severity.MAJOR.escalated() is Severity.CRITICAL
        assert Severity.CRITICAL.escalated() is Severity.CRITICAL

    def test_demoted_clamps(self):
        assert Severity.MINOR.demoted() is Severity.WARNING
        assert Severity.WARNING.demoted() is Severity.WARNING

    def test_multi_step(self):
        assert Severity.WARNING.escalated(3) is Severity.CRITICAL


class TestLifecycle:
    def test_starts_active(self):
        alert = make_alert()
        assert alert.is_active
        assert alert.state is AlertState.ACTIVE

    def test_manual_clear(self):
        alert = make_alert()
        alert.clear(2000.0, manual=True)
        assert alert.state is AlertState.CLEARED_MANUAL
        assert alert.cleared_at == 2000.0

    def test_auto_clear(self):
        alert = make_alert()
        alert.clear(2000.0, manual=False)
        assert alert.state is AlertState.CLEARED_AUTO

    def test_double_clear_rejected(self):
        alert = make_alert()
        alert.clear(2000.0, manual=True)
        with pytest.raises(ValidationError):
            alert.clear(3000.0, manual=True)

    def test_clear_before_occurrence_rejected(self):
        alert = make_alert()
        with pytest.raises(ValidationError):
            alert.clear(500.0, manual=True)

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValidationError):
            make_alert(occurred_at=-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_occurrence_rejected(self, value):
        with pytest.raises(ValidationError, match="occurred_at"):
            make_alert(occurred_at=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_clearance_rejected(self, value):
        with pytest.raises(ValidationError, match="cleared_at"):
            make_alert(state=AlertState.CLEARED_AUTO, cleared_at=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_clear_time_rejected(self, value):
        alert = make_alert()
        with pytest.raises(ValidationError):
            alert.clear(value, manual=False)
        assert alert.is_active

    @pytest.mark.parametrize("field", ["occurred_at", "cleared_at"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_record_rejected(self, field, value):
        alert = make_alert()
        alert.clear(2000.0, manual=False)
        record = alert_to_dict(alert)
        assert alert_from_dict(record) == alert
        record[field] = value
        with pytest.raises(ValidationError, match=field):
            alert_from_dict(record)


class TestDerived:
    def test_duration_after_clear(self):
        alert = make_alert()
        alert.clear(1000.0 + 10 * MINUTE, manual=False)
        assert alert.duration() == 10 * MINUTE

    def test_duration_active_needs_now(self):
        alert = make_alert()
        with pytest.raises(ValidationError):
            alert.duration()
        assert alert.duration(now=1600.0) == 600.0

    def test_transient_definition(self):
        # Paper A4: auto-cleared AND shorter than the intermittent threshold.
        alert = make_alert()
        alert.clear(1000.0 + 5 * MINUTE, manual=False)
        assert alert.is_transient(10 * MINUTE)
        assert not alert.is_transient(2 * MINUTE)

    def test_manually_cleared_never_transient(self):
        alert = make_alert()
        alert.clear(1000.0 + 1 * MINUTE, manual=True)
        assert not alert.is_transient(10 * MINUTE)

    def test_location_format(self):
        location = make_alert().location()
        assert location == "Region=region-A;DC=region-A-dc1;Microservice=database-api-00"

    def test_render_row_contains_attributes(self):
        alert = make_alert()
        alert.clear(1000.0 + 10 * MINUTE, manual=False)
        row = alert.render_row()
        assert "Critical" in row
        assert "database" in row
        assert "10 min" in row
