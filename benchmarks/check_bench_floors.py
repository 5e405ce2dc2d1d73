"""Perf-regression guard over the standing ``BENCH_streaming.json``.

The benches *measure* and refuse to report numbers for configurations
that break parity; this script is the other half of the contract — it
fails CI when the **recorded** ratios in the repo-root artifact drop
below the floors the benches enforce locally.  A PR that quietly
regresses checkpoint overhead or the ring hand-off and re-records the
artifact now trips here, in the diff that caused it, instead of in the
next person's bench run.

Floors are imported from the benches that own them, so there is exactly
one place each number lives:

* ``current.overhead_ratio`` — checkpointed throughput as a fraction of
  checkpoint-free (``bench_serving_checkpoint.OVERHEAD_FLOOR``);
* ``ring_transport.ring_vs_pipe_handoff_x`` — the zero-copy ring's
  hand-off advantage at the largest swept batch
  (``bench_ingress_lanes.HANDOFF_FLOOR``; holds on one core);
* ``ingress_lanes.scaling_x`` — 4-lane scaling over single-lane
  (``bench_ingress_lanes.SCALING_FLOOR``), gated on the ``cores`` the
  row was *recorded* on, because lane scaling needs real cores under
  the lane threads;
* ``online_detection.detection_overhead_ratio`` — throughput retained
  with the online A1-A3 detectors + R4 sketch on, relative to the
  learner-only gateway
  (``bench_online_detection.DETECTION_OVERHEAD_FLOOR``).

Blocks a PR has not recorded yet are skipped, not failed — the guard
polices regressions, it does not demand every bench has run on every
box.  Run as a script (exits 1 on any violation) or import
:func:`check_floors` for the smoke test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# CI invokes this as a plain script (`python benchmarks/check_bench_floors.py`),
# which puts benchmarks/ — not the repo root — on sys.path; src/ covers
# running from a checkout where `repro` is not pip-installed.
_REPO_ROOT = Path(__file__).resolve().parents[1]
for _entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.bench_ingress_lanes import (
    HANDOFF_FLOOR,
    MIN_CORES_FOR_SCALING,
    SCALING_FLOOR,
)
from benchmarks.bench_online_detection import DETECTION_OVERHEAD_FLOOR
from benchmarks.bench_serving_checkpoint import OVERHEAD_FLOOR

BENCH_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_streaming.json"


def check_floors(payload: dict) -> list[str]:
    """Every floor violation in the artifact, as human-readable lines."""
    violations: list[str] = []

    current = payload.get("current", {})
    overhead = current.get("overhead_ratio")
    if overhead is not None and overhead < OVERHEAD_FLOOR:
        violations.append(
            f"current.overhead_ratio {overhead:.4f} is below the "
            f"{OVERHEAD_FLOOR} floor: checkpointing costs more than "
            f"{1 - OVERHEAD_FLOOR:.0%} of throughput"
        )

    transport = payload.get("ring_transport", {})
    handoff = transport.get("ring_vs_pipe_handoff_x")
    if handoff is not None and handoff < HANDOFF_FLOOR:
        violations.append(
            f"ring_transport.ring_vs_pipe_handoff_x {handoff:.3f} is below "
            f"the {HANDOFF_FLOOR} floor: the zero-copy ring no longer beats "
            f"the pipe hand-off"
        )

    lanes = payload.get("ingress_lanes", {})
    scaling = lanes.get("scaling_x")
    cores = lanes.get("cores")
    if (
        scaling is not None
        and cores is not None
        and cores >= MIN_CORES_FOR_SCALING
        and scaling < SCALING_FLOOR
    ):
        violations.append(
            f"ingress_lanes.scaling_x {scaling:.3f} is below the "
            f"{SCALING_FLOOR} floor despite {cores:.0f} recorded cores"
        )

    detection = payload.get("online_detection", {})
    detect_ratio = detection.get("detection_overhead_ratio")
    if detect_ratio is not None and detect_ratio < DETECTION_OVERHEAD_FLOOR:
        violations.append(
            f"online_detection.detection_overhead_ratio {detect_ratio:.4f} "
            f"is below the {DETECTION_OVERHEAD_FLOOR:.4f} floor: the "
            f"detector+sketch pass costs more than its 1.3x budget"
        )

    for row in payload.get("trajectory", []):
        if "cores" not in row:
            violations.append(
                f"trajectory row for PR {row.get('pr')} records no 'cores' — "
                f"its multi-core floors cannot be gated"
            )

    return violations


def main(path: Path = BENCH_ARTIFACT) -> int:
    if not path.exists():
        print(f"floors guard: no artifact at {path}; nothing to check")
        return 0
    payload = json.loads(path.read_text())
    violations = check_floors(payload)
    if violations:
        print(f"floors guard: {len(violations)} violation(s) in {path.name}:")
        for line in violations:
            print(f"  - {line}")
        return 1
    print(
        f"floors guard: {path.name} holds every floor "
        f"(overhead >= {OVERHEAD_FLOOR}, ring hand-off >= {HANDOFF_FLOOR}x, "
        f"lane scaling >= {SCALING_FLOOR}x on >= {MIN_CORES_FOR_SCALING} "
        f"cores, detection retention >= {DETECTION_OVERHEAD_FLOOR:.4f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
