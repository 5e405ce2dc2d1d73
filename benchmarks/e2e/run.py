#!/usr/bin/env python3
"""Command line of the end-to-end benchmark.

The contract's form — one workload per process, one JSON object as the
last line of standard output::

    python3 benchmarks/e2e/run.py --workload storm_serial --seed 42 \\
        --seconds 16 --trace 0

and the human forms (``python -m benchmarks.e2e <command>`` works too)::

    run.py run --all --seed 42 --json out.json   # every metric, every workload
    run.py compare a.json b.json                 # apply bounds, exit 1 if worse
    run.py aa --runs 10 --json aa.json           # two sets of the same code

``run`` and ``aa`` play each workload in its own subprocess, so
``peak_rss_mb`` is per workload.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing feeds set order and dict collision patterns; pin it
    # (before anything heavy is imported) so two runs of one seed execute
    # the same instructions.
    os.execve(
        sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

ROOT = HERE.parents[1]
# Run as a script, sys.path[0] is this directory; the benchmark imports
# itself as ``benchmarks.e2e`` and the program from ``src``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare, runner  # noqa: E402
from benchmarks.e2e.workloads import SCALES, WORKLOADS  # noqa: E402

_IMPORT_S = time.perf_counter() - _STARTED


def _common(parser: argparse.ArgumentParser, many: bool = False) -> None:
    if many:
        parser.add_argument("--all", action="store_true")
        parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--json", type=Path, default=None, dest="json_out")


def _seconds(args, contract: dict) -> float:
    return contract["run_seconds"] if args.seconds is None else args.seconds


def _render(metrics: dict, section: list) -> str:
    lines = []
    for spec in section:
        value = metrics.get(spec["name"])
        shown = "-" if value is None else f"{value:,.4f}"
        lines.append(f"  {spec['name']:<36} {shown:>16} {spec['unit']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# one workload, this process (the contract's command)
# ----------------------------------------------------------------------
def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory tracker, if it runs.

    The rings make the interpreter start that helper as a child of this
    process; left alone it only exits *after* we do.  The contract wants
    every started process ended and waited for, and the stop hook is
    private, hence the guards.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def one(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _common(parser)
    args = parser.parse_args(argv)
    contract = runner.load_contract()
    seconds = _seconds(args, contract)
    try:
        if args.trace:
            result = runner.trace(args.workload, args.seed, seconds, args.scale)
            section = contract["per_layer"]
        else:
            result = runner.measure(
                args.workload, args.seed, seconds, args.scale, import_s=_IMPORT_S,
            )
            section = contract["end_to_end"]
    finally:
        _stop_resource_tracker()
    result.update(workload=args.workload, seed=args.seed, trace=args.trace)
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"{args.workload} seed={args.seed} scale={args.scale} "
          f"ops={result['ops']} failed_ops={result['failed_ops']} "
          f"reps={result['reps']}")
    print(_render(result["metrics"], section))
    print(runner.driver_line(result, section))
    return 0


# ----------------------------------------------------------------------
# every workload, each in its own subprocess
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, scale: str, trace: int) -> dict:
    """Run one workload in a fresh interpreter and read its result back."""
    runner.RESULTS.mkdir(exist_ok=True)
    out = runner.RESULTS / f"child-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
        "--trace", str(trace), "--json", str(out),
    ]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{workload} (trace={trace}) exited {done.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _selected(args) -> list[str]:
    return list(WORKLOADS) if args.all or not args.workload else args.workload


def _payload(args, seconds: float) -> dict:
    return {
        "schema": 1, "seed": args.seed, "scale": args.scale, "seconds": seconds,
        "environment": runner.environment(), "workloads": {},
    }


def _report(payload: dict, contract: dict) -> None:
    for workload, entry in payload["workloads"].items():
        run = entry["runs"][0]
        print(f"\n== {workload}: end to end (seed {run['seed']}, {run['reps']} reps, "
              f"{run['flush_samples']} flush samples, tail {run['flush_tail']}, "
              f"failed_ops {run['failed_ops']}/{run['ops']})")
        # Measured by the same untraced reps, but per-layer by contract.
        section = contract["end_to_end"] + [
            spec for spec in contract["per_layer"]
            if spec["name"] in ("flush_p99_ms", "restore_s")
            and spec["name"] in run["metrics"]
        ]
        print(_render(run["metrics"], section))
        layers = entry["per_layer"]
        print(f"-- {workload}: per layer (traced reps + probes)")
        print(_render(layers["metrics"], contract["per_layer"]))
        shares = "  ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(layers["shares"].items(), key=lambda item: -item[1])
        )
        print(f"  self-time shares: {shares}")


def run_all(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py run")
    _common(parser, many=True)
    args = parser.parse_args(argv)
    contract = runner.load_contract()
    seconds = _seconds(args, contract)
    payload = _payload(args, seconds)
    for workload in _selected(args):
        print(f"running {workload} ...", file=sys.stderr)
        payload["workloads"][workload] = {
            "runs": [_child(workload, args.seed, seconds, args.scale, 0)],
            "per_layer": _child(workload, args.seed, seconds, args.scale, 1),
        }
    _report(payload, contract)
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    failed = sum(
        run["failed_ops"] for entry in payload["workloads"].values()
        for run in entry["runs"]
    )
    print(f"\nfailed_ops = {failed}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# A/A: two sets of runs of the same code, workloads alternated
# ----------------------------------------------------------------------
def aa(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py aa")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload per set, each on its own seed")
    _common(parser, many=True)
    args = parser.parse_args(argv)
    contract = runner.load_contract()
    seconds = _seconds(args, contract)
    workloads = _selected(args)
    sets: list[dict] = [{name: [] for name in workloads} for _ in range(2)]
    for index in range(args.runs):
        seed = args.seed + index
        # Alternate which set goes first, and interleave the workloads,
        # so drift on the machine lands on both sets alike.
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                print(f"aa run {index + 1}/{args.runs} set {'AB'[side]} "
                      f"{workload} seed {seed}", file=sys.stderr)
                sets[side][workload].append(
                    _child(workload, seed, seconds, args.scale, 0)
                )
    rows = compare.compare_sets(sets[0], sets[1], contract)
    print(compare.render_rows(rows))
    payload = _payload(args, seconds)
    for workload in workloads:
        payload["workloads"][workload] = {
            "runs": sets[0][workload], "runs_b": sets[1][workload],
            "per_layer": _child(workload, args.seed, seconds, args.scale, 1),
        }
    payload["aa"] = {
        "runs_per_set": args.runs,
        "spread_a": compare.spread_table(sets[0], contract),
        "spread_b": compare.spread_table(sets[1], contract),
        "rows": rows,
    }
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    bad = [row for row in rows if row["status"] == "worse"]
    print(f"{len(rows)} rows, {len(bad)} worse")
    return 1 if bad else 0


def compare_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    return compare.compare_files(args.before, args.after)


COMMANDS = {"run": run_all, "compare": compare_command, "aa": aa}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    return one(argv)


if __name__ == "__main__":
    sys.exit(main())
