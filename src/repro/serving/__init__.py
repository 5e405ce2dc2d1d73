"""Durable serving: long-running alert-gateway processes.

Everything below :mod:`repro.streaming` is an in-memory library; this
package makes it a *service*.  :class:`AlertGatewayService` owns one
service directory and gives the gateway the production life cycle the
paper's mitigation chain implies — write-ahead journalled ingest,
periodic checkpoints at flush barriers, crash recovery that lands
bit-identical to an uninterrupted run, graceful signal-driven shutdown,
and an operator analytics surface (``repro serve`` / ``repro ops``).

Layering:

* :mod:`repro.serving.checkpoint` — the versioned, checksummed snapshot
  format (``RCK1``) plus writer/loader with retention;
* :mod:`repro.serving.journal` — the length-prefixed, CRC'd event
  journal (``RCJ2``, each strategy row written once per file; ``RCJ1``
  still read) that closes the snapshot-to-crash gap;
* :mod:`repro.serving.state` — capture/restore glue with configuration
  drift detection;
* :mod:`repro.serving.service` — the long-running service;
* :mod:`repro.serving.analytics` — operator views over live status
  payloads or cold snapshots.
"""

from repro.serving.analytics import (
    render_detection,
    render_ops_report,
    render_plane_health,
    render_qoa_scoreboard,
    render_rule_history,
    render_storm_timeline,
    status_of_checkpoint,
)
from repro.serving.checkpoint import (
    CheckpointError,
    CheckpointLoader,
    CheckpointWriter,
    ChecksumError,
    GatewayCheckpoint,
    checkpoint_of_gateway,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.serving.journal import (
    JournalError,
    JournalWriter,
    journal_files,
    journal_path,
    read_journal,
)
from repro.serving.service import STATUS_FILENAME, AlertGatewayService
from repro.serving.state import build_gateway, restore_gateway

__all__ = [
    "AlertGatewayService",
    "STATUS_FILENAME",
    "GatewayCheckpoint",
    "CheckpointWriter",
    "CheckpointLoader",
    "CheckpointError",
    "ChecksumError",
    "checkpoint_of_gateway",
    "encode_checkpoint",
    "decode_checkpoint",
    "JournalWriter",
    "JournalError",
    "journal_path",
    "journal_files",
    "read_journal",
    "build_gateway",
    "restore_gateway",
    "status_of_checkpoint",
    "render_ops_report",
    "render_qoa_scoreboard",
    "render_storm_timeline",
    "render_rule_history",
    "render_plane_health",
    "render_detection",
]
