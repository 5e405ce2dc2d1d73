"""Alert records and their lifecycle states.

An alert (paper Table I) is "a notification sent to On-Call Engineers, of
the form defined by the alert strategy, of a specific anomaly of the cloud
system".  The attributes follow Table II: severity, time, service, title,
duration, and location.  Ground-truth provenance (``fault_id``) is carried
for evaluation only — the detectors and mitigations never read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.timeutil import format_timestamp

__all__ = ["Severity", "AlertState", "Alert"]

_INF = float("inf")


class Severity(enum.IntEnum):
    """Alert severity levels, ordered most severe first.

    The paper's storm case calls WARNING "the lowest level"; CRITICAL and
    MAJOR appear in Table II.
    """

    CRITICAL = 0
    MAJOR = 1
    MINOR = 2
    WARNING = 3

    @property
    def label(self) -> str:
        """Capitalised display form, e.g. ``Critical``."""
        return self.name.capitalize()

    def escalated(self, steps: int = 1) -> "Severity":
        """A severity ``steps`` levels more severe (clamped at CRITICAL)."""
        return Severity(max(self.value - steps, Severity.CRITICAL.value))

    def demoted(self, steps: int = 1) -> "Severity":
        """A severity ``steps`` levels less severe (clamped at WARNING)."""
        return Severity(min(self.value + steps, Severity.WARNING.value))


class AlertState(enum.Enum):
    """Lifecycle of an alert (§II-B4)."""

    ACTIVE = "active"
    CLEARED_MANUAL = "cleared_manual"
    CLEARED_AUTO = "cleared_auto"


@dataclass(slots=True)
class Alert:
    """One generated alert with the paper's attribute set."""

    alert_id: str
    strategy_id: str
    strategy_name: str
    title: str
    description: str
    severity: Severity
    service: str
    microservice: str
    region: str
    datacenter: str
    channel: str
    occurred_at: float
    state: AlertState = AlertState.ACTIVE
    cleared_at: float | None = None
    fault_id: str | None = None
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Chained comparisons: NaN fails every comparison, so it is
        # refused here rather than passing a single ``<`` test.
        if not 0.0 <= self.occurred_at < _INF:
            raise ValidationError(
                f"occurred_at must be finite and >= 0, got {self.occurred_at}"
            )
        if self.cleared_at is not None and not (
            self.occurred_at <= self.cleared_at < _INF
        ):
            raise ValidationError(
                f"cleared_at {self.cleared_at} must be finite and not precede "
                f"occurred_at {self.occurred_at}"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Whether the alert has not been cleared yet."""
        return self.state is AlertState.ACTIVE

    def clear(self, at: float, manual: bool) -> None:
        """Transition to a cleared state.

        Manual clearance models an OCE confirming mitigation; automatic
        clearance models the monitoring system observing recovery.
        """
        if not self.is_active:
            raise ValidationError(f"alert {self.alert_id} is already cleared")
        if not self.occurred_at <= at < _INF:
            raise ValidationError(
                f"clear time {at} must be finite and not precede "
                f"occurrence {self.occurred_at}"
            )
        self.cleared_at = at
        self.state = AlertState.CLEARED_MANUAL if manual else AlertState.CLEARED_AUTO

    # ------------------------------------------------------------------
    # derived attributes
    # ------------------------------------------------------------------
    def duration(self, now: float | None = None) -> float:
        """Seconds between occurrence and clearance (or ``now`` if active)."""
        if self.cleared_at is not None:
            return self.cleared_at - self.occurred_at
        if now is None:
            raise ValidationError("active alert needs `now` to compute duration")
        return max(now - self.occurred_at, 0.0)

    def is_transient(self, intermittent_threshold: float) -> bool:
        """Paper A4: auto-cleared with duration under the intermittent threshold."""
        return (
            self.state is AlertState.CLEARED_AUTO
            and self.cleared_at is not None
            and (self.cleared_at - self.occurred_at) < intermittent_threshold
        )

    def location(self) -> str:
        """Location string in Table II format."""
        return f"Region={self.region};DC={self.datacenter};Microservice={self.microservice}"

    def render_row(self) -> str:
        """One display row in the style of the paper's Table II."""
        duration = "-" if self.cleared_at is None else f"{(self.cleared_at - self.occurred_at) / 60:.0f} min"
        return (
            f"{self.severity.label:<9} {format_timestamp(self.occurred_at)}  "
            f"{self.service:<16} {self.title:<48} {duration:>8}  {self.location()}"
        )
