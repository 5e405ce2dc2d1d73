"""PR gate: ``python benchmarks/gate.py BASE_TREE [OPTIONS]``.

Runs ``benchmarks/e2e/run.py --workload W --seed S`` from BASE_TREE
and this checkout for every ``BENCHMARK.json`` workload (or only the
``--workload`` ones; repeatable), ``--pairs`` alternated pairs
(default ``PAIRS``, seed default ``SEED``), and compares the sets with
``benchmarks.e2e.compare``.  Exit 1 on any ``worse`` row (more failed
ops included). ``WARN_ONLY`` metrics only warn: ``setup_s`` is import
and build time, noisy run to run.  A workload BASE_TREE does not
declare gets no base runs: ``unresolved``.  A row left ``unresolved``
by run-to-run spread at the default pairs is settled by re-running its
workload alone with more pairs, e.g. ``--pairs 10 --workload
storm_blocked``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    # Run as a script, sys.path[0] is benchmarks/; import the package
    # and the program from this checkout.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.compare import compare_sets, render_rows  # noqa: E402
from benchmarks.e2e.runner import load_contract  # noqa: E402

PAIRS = 3
SEED = 44
WARN_ONLY = frozenset({"setup_s"})


def run_once(tree: Path, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        subprocess.run(
            [sys.executable, str(tree / "benchmarks/e2e/run.py"), "--workload",
             workload, "--seed", str(seed), "--json", str(out)],
            cwd=tree, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())


def gate(before: dict, after: dict, contract: dict | None = None) -> int:
    """Print the rows of two ``{workload: [run, ...]}`` sets; 1 if gated worse."""
    rows = compare_sets(before, after, contract)
    print(render_rows(rows))
    worse = [row for row in rows if row["status"] == "worse"]
    for row in worse:
        if row["metric"] in WARN_ONLY:
            print(f"warning: {row['workload']} {row['metric']} is worse (not gated)")
    return int(any(row["metric"] not in WARN_ONLY for row in worse))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="gate.py", description="Compare BASE_TREE and this checkout "
        "on the end-to-end benchmark.",
    )
    parser.add_argument("base_tree", type=Path)
    parser.add_argument("--pairs", type=_positive, default=PAIRS,
                        help=f"alternated run pairs per workload (default {PAIRS})")
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"workload seed (default {SEED})")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="play only this workload (repeatable; default: all)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    contract = load_contract()
    names = [spec["name"] for spec in contract["workloads"]]
    args = parse_args(argv, names)
    if args.workload:
        names = [name for name in names if name in args.workload]
    trees = [args.base_tree.resolve(), ROOT]
    base = json.loads((trees[0] / "BENCHMARK.json").read_text())
    in_base = {spec["name"] for spec in base["workloads"]}
    sets: list[dict] = [{}, {}]
    for index in range(args.pairs):
        for name in names:
            for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                if side == 1 or name in in_base:
                    print(f"pair {index + 1}/{args.pairs} {name} {trees[side]}",
                          file=sys.stderr)
                    sets[side].setdefault(name, []).append(
                        run_once(trees[side], name, args.seed)
                    )
    return gate(*sets, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
