"""Worker-fleet recovery: what fault tolerance costs, and what a kill costs.

With ``worker_recovery=True`` the process backend journals every
mutating worker message and refreshes per-worker plane snapshots on a
cadence, so a ``kill -9``'d worker can be respawned and replayed to
bit-identical accounting.  The steady-state price is concrete: on the
ring transport every lane batch also materialises its pipe form for the
journal (one extra payload copy per batch), journal appends ride every
exchange, and each snapshot refresh is a full-plane export round trip.

This bench measures, on the multi-region storm trace:

* **recovery-off throughput** — the baseline fleet, supervision only
  (bounded polls, typed death errors);
* **recovery-on throughput** — identical run with journaling and
  snapshot cadence live; the ratio is ``recovery_overhead_ratio``,
  floored at :data:`RECOVERY_OVERHEAD_FLOOR` in CI;
* **kill-and-recover** — the same run with one worker SIGKILLed
  mid-stream; **exact parity is asserted against the unkilled run
  before any number is reported**, and the throughput shows what a
  death + respawn + replay costs end to end.

``run_recovery_config`` / ``run_recovery_sweep`` are importable — the
fast smoke test under ``tests/streaming/`` drives them with a small
trace so this script cannot silently bit-rot.  Results land in
``benchmarks/results/worker_recovery.json`` *and* in the standing
repo-root artifact ``BENCH_streaming.json`` (``worker_recovery`` block
plus one per-PR trajectory row recording the ``cores`` it ran on).
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from benchmarks.conftest import record_report
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.core.mitigation.correlation import rulebook_from_ground_truth
from repro.streaming import AlertGateway
from repro.workload import StormConfig, build_multi_region_storm

_RESULTS_DIR = Path(__file__).parent / "results"
_REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_ARTIFACT = _REPO_ROOT / "BENCH_streaming.json"

#: Recovery-on throughput must retain at least this fraction of the
#: recovery-off rate.  The measured cost is one extra payload copy +
#: journal append per batch plus the periodic snapshot round trips —
#: well under half the pipeline's work per batch, so 0.5 is a
#: conservative regression tripwire, not an aspiration.
RECOVERY_OVERHEAD_FLOOR = 0.5


def _counts(stats) -> tuple:
    """The drained accounting no recovery mode may ever change."""
    return (stats.input_alerts, stats.blocked_alerts,
            stats.aggregates_emitted, stats.clusters_finalized,
            stats.storm_episodes, stats.emerging_flags,
            stats.late_events)


def run_recovery_config(
    alerts,
    topology,
    blocker,
    rulebook,
    *,
    worker_recovery: bool,
    kill_at: int | None = None,
    n_planes: int = 4,
    n_workers: int = 2,
    flush_size: int = 512,
    ingress_lanes: int = 2,
    lane_transport: str = "ring",
    worker_checkpoint_every: int = 64,
    chunk_size: int = 2048,
    rounds: int = 3,
) -> tuple[float, tuple, dict]:
    """Best-of-``rounds`` throughput for one recovery configuration.

    ``kill_at`` SIGKILLs one worker after that many events (behind a
    flush barrier, so the pid read is deterministic); the timed window
    covers ingest, the kill, the respawn+replay, and the drain — the
    honest end-to-end cost of a worker death.  Returns ``(alerts_per_sec,
    counts, fleet)`` where ``fleet`` carries the death/recovery counters
    of the last round.
    """
    chunks = [alerts[cursor:cursor + chunk_size]
              for cursor in range(0, len(alerts), chunk_size)]
    best = 0.0
    final_counts = None
    fleet: dict = {}
    for _ in range(rounds):
        gateway = AlertGateway(
            topology.graph, blocker=AlertBlocker(blocker.rules),
            rulebook=rulebook, n_planes=n_planes,
            backend="process", n_workers=n_workers, flush_size=flush_size,
            ingress_lanes=ingress_lanes, lane_transport=lane_transport,
            worker_recovery=worker_recovery,
            worker_checkpoint_every=worker_checkpoint_every,
            retain_artifacts=False,
        )
        ingested = 0
        killed = False
        started = time.perf_counter()
        for chunk in chunks:
            gateway.ingest_batch(chunk)
            ingested += len(chunk)
            if kill_at is not None and not killed and ingested >= kill_at:
                gateway.snapshot()  # barrier: the fleet exists, queues quiet
                victim = gateway._backend._workers[0]
                os.kill(victim.pid, signal.SIGKILL)
                killed = True
        stats = gateway.drain()
        elapsed = time.perf_counter() - started
        best = max(best, len(alerts) / elapsed)
        final_counts = _counts(stats)
        fleet = {
            "worker_deaths": stats.worker_deaths,
            "worker_recoveries": stats.worker_recoveries,
        }
    return best, final_counts, fleet


def run_recovery_sweep(
    trace,
    topology,
    blocker,
    rulebook,
    **config,
) -> dict[str, float]:
    """Off vs on vs killed; exact parity asserted before any reporting.

    The three runs drain the identical trace and must produce identical
    accounting — a recovery mode that is fast but wrong (or a replay
    that double-applies a batch) fails here, not in a dashboard.
    """
    alerts = list(trace.iter_ordered())
    off_rate, off_counts, _ = run_recovery_config(
        alerts, topology, blocker, rulebook,
        worker_recovery=False, **config,
    )
    on_rate, on_counts, _ = run_recovery_config(
        alerts, topology, blocker, rulebook,
        worker_recovery=True, **config,
    )
    assert on_counts == off_counts, (
        f"worker_recovery=True changed the drained accounting: "
        f"{on_counts} != {off_counts}"
    )
    kill_at = max(1, len(alerts) // 3)
    killed_rate, killed_counts, fleet = run_recovery_config(
        alerts, topology, blocker, rulebook,
        worker_recovery=True, kill_at=kill_at, **config,
    )
    assert killed_counts == off_counts, (
        f"kill-and-recover changed the drained accounting: "
        f"{killed_counts} != {off_counts}"
    )
    assert fleet["worker_deaths"] == 1 and fleet["worker_recoveries"] == 1, (
        f"expected exactly one death and one recovery, got {fleet}"
    )
    return {
        "alerts": float(len(alerts)),
        "recovery_off_alerts_per_sec": off_rate,
        "recovery_on_alerts_per_sec": on_rate,
        "recovery_overhead_ratio": on_rate / off_rate,
        "killed_alerts_per_sec": killed_rate,
        "kill_recovery_x": killed_rate / on_rate,
    }


def write_bench_artifact(measurements: dict[str, float], pr: int = 9,
                         path: Path = BENCH_ARTIFACT) -> dict:
    """Record the ``worker_recovery`` block plus this PR's trajectory row.

    The artifact is shared with the serving-checkpoint and ingress-lane
    benches (they own ``current`` / ``ingress_lanes`` /
    ``ring_transport``); this bench owns ``worker_recovery`` and appends
    one per-PR trajectory row (newest measurement wins) so the floors
    guard can police ``recovery_overhead_ratio`` in the diff that
    regresses it.  Every row records the ``cores`` it ran on.
    """
    payload = {"schema": 1, "trajectory": []}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    cores = float(os.cpu_count() or 1)
    block = {key: round(value, 4) for key, value in sorted(measurements.items())}
    block["cores"] = cores
    payload["worker_recovery"] = block
    entry = {
        "pr": pr,
        "throughput_alerts_per_sec": round(
            measurements["recovery_off_alerts_per_sec"]
        ),
        "recovery_overhead_ratio": round(
            measurements["recovery_overhead_ratio"], 3
        ),
        "kill_recovery_x": round(measurements["kill_recovery_x"], 3),
        "cores": cores,
    }
    trajectory = [row for row in payload.get("trajectory", [])
                  if row.get("pr") != pr]
    trajectory.append(entry)
    trajectory.sort(key=lambda row: row["pr"])
    payload["schema"] = 1
    payload["trajectory"] = trajectory
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


@pytest.fixture(scope="module")
def multi_region_storm(topology):
    """Four concurrent single-region storms merged into one ~11k trace."""
    return build_multi_region_storm(StormConfig(seed=42), topology)


@pytest.fixture(scope="module")
def recovery_measurements(multi_region_storm, topology):
    """One sweep shared by the reporting and the floor assertion."""
    trace = multi_region_storm
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6)
    blocker = MitigationPipeline.derive_blocker(trace)
    return run_recovery_sweep(trace, topology, blocker, rulebook)


class TestWorkerRecoveryBench:
    def test_parity_and_artifact(self, recovery_measurements):
        """Parity is asserted inside the sweep; this records the rows."""
        measurements = recovery_measurements
        cores = os.cpu_count() or 1
        lines = [
            f"trace: multi-region storm, {measurements['alerts']:,.0f} alerts "
            f"({cores} cores)",
            f"recovery off:  "
            f"{measurements['recovery_off_alerts_per_sec']:>12,.0f} alerts/s",
            f"recovery on:   "
            f"{measurements['recovery_on_alerts_per_sec']:>12,.0f} alerts/s  "
            f"(x{measurements['recovery_overhead_ratio']:.3f} of off)",
            f"kill+recover:  "
            f"{measurements['killed_alerts_per_sec']:>12,.0f} alerts/s  "
            f"(x{measurements['kill_recovery_x']:.3f} of unkilled)",
        ]
        record_report("worker_recovery", "\n".join(lines))
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / "worker_recovery.json").write_text(
            json.dumps(measurements, indent=2, sort_keys=True) + "\n"
        )
        write_bench_artifact(measurements)
        assert measurements["recovery_off_alerts_per_sec"] > 0
        assert measurements["killed_alerts_per_sec"] > 0

    def test_recovery_overhead_floor(self, recovery_measurements):
        """The CI bar: journaling + snapshot cadence must keep at least
        ``RECOVERY_OVERHEAD_FLOOR`` of the recovery-off throughput."""
        ratio = recovery_measurements["recovery_overhead_ratio"]
        assert ratio >= RECOVERY_OVERHEAD_FLOOR, (
            f"worker_recovery retained only {ratio:.3f} of the recovery-off "
            f"throughput (floor {RECOVERY_OVERHEAD_FLOOR})"
        )
