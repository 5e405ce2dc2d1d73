"""Capture/restore glue between checkpoints and live gateways.

A checkpoint stores *dynamic* state only.  The static inputs — the
dependency graph and the correlation rulebook — are code-and-config,
supplied by the caller at restore time exactly as at first boot; the
checkpoint records the gateway's construction parameters
(:meth:`~repro.streaming.gateway.AlertGateway.checkpoint_config`, the
record form of :class:`~repro.streaming.config.GatewayConfig`) so
:func:`restore_gateway` can rebuild an identically-configured gateway
and verify the caller did not silently change a *strict* option — one
the wire blobs, the flush schedule or the carried accounting depend on.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import DependencyRuleBook
from repro.serving.checkpoint import GatewayCheckpoint
from repro.streaming.config import GatewayConfig
from repro.streaming.gateway import AlertGateway
from repro.topology.graph import DependencyGraph

__all__ = ["build_gateway", "restore_gateway"]


def build_gateway(
    graph: DependencyGraph,
    config: dict,
    blocker: AlertBlocker | None = None,
    rulebook: DependencyRuleBook | None = None,
) -> AlertGateway:
    """Construct a gateway from a recorded configuration dict.

    Keys an older checkpoint lacks take the
    :class:`~repro.streaming.config.GatewayConfig` field defaults.
    """
    options = vars(GatewayConfig.from_record(config))
    return AlertGateway(graph, blocker=blocker, rulebook=rulebook, **options)


def restore_gateway(
    checkpoint: GatewayCheckpoint,
    graph: DependencyGraph,
    rulebook: DependencyRuleBook | None = None,
    expected_config: dict | None = None,
) -> AlertGateway:
    """Rebuild a live gateway from a checkpoint (bit-identical continue).

    ``expected_config`` is the configuration record the caller *would*
    use for a fresh boot; when given, drift on any strict field against
    the checkpoint fails loudly instead of resuming a stream whose flush
    schedule or plane topology no longer match its own history.
    """
    config = checkpoint.config
    if expected_config is not None:
        drift = GatewayConfig.from_record(config).drift(
            GatewayConfig.from_record(expected_config)
        )
        if drift:
            details = ", ".join(
                f"{key}: checkpoint={have!r} requested={want!r}"
                for key, (have, want) in sorted(drift.items())
            )
            raise ValidationError(
                f"checkpoint configuration drift — restore would not "
                f"continue the same stream ({details}); restore with the "
                f"recorded configuration or start a fresh service directory"
            )
    # The blocker starts empty on purpose: adopt_checkpoint rebuilds the
    # table to exactly the checkpointed rules (configured + learned).
    gateway = build_gateway(
        graph, config, blocker=AlertBlocker(), rulebook=rulebook,
    )
    gateway.adopt_checkpoint(checkpoint.restore_state())
    return gateway
