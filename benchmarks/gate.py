"""PR gate: ``python benchmarks/gate.py BASE_TREE``.

Runs ``benchmarks/e2e/run.py --workload W --seed SEED`` from BASE_TREE
and this checkout for every ``BENCHMARK.json`` workload, ``PAIRS``
alternated pairs, and compares the sets with ``benchmarks.e2e.compare``.
Exit 1 on any ``worse`` row (more failed ops included). ``WARN_ONLY``
metrics only warn: ``setup_s`` is import and build time, noisy run to run.
A workload BASE_TREE does not declare gets no base runs: ``unresolved``.
"""

from __future__ import annotations

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


def run_once(tree: Path, workload: str) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        subprocess.run(
            [sys.executable, str(tree / "benchmarks/e2e/run.py"), "--workload",
             workload, "--seed", str(SEED), "--json", str(out)],
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


def main(argv: list[str]) -> int:
    trees = [Path(argv[0]).resolve(), ROOT]
    contract = load_contract()
    base = json.loads((trees[0] / "BENCHMARK.json").read_text())
    in_base = {spec["name"] for spec in base["workloads"]}
    sets: list[dict] = [{}, {}]
    for index in range(PAIRS):
        for name in [spec["name"] for spec in contract["workloads"]]:
            for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                if side == 1 or name in in_base:
                    print(f"pair {index + 1}/{PAIRS} {name} {trees[side]}",
                          file=sys.stderr)
                    sets[side].setdefault(name, []).append(run_once(trees[side], name))
    return gate(*sets, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
