"""Compare two result files metric by metric, workload by workload.

Each end-to-end metric carries, in ``BENCHMARK.json``, the direction in
which it is better and the share of the baseline by which it may worsen.
A row is

* ``worse`` — the candidate's median is worse than the baseline's by
  more than the bound;
* ``unresolved`` — not worse, but the run-to-run spread (interquartile
  range over median, of either side) is wider than the bound, so "no
  regression" cannot be told from noise — unless every candidate run
  reads better than every baseline run;
* ``unchanged`` — anything else, improvements included.

A workload or metric that only one side measured still gets its row:
``worse`` when the candidate lost it (a result that is not there cannot
be within its bound), ``unresolved`` when the baseline never had it.

No combined score: every (workload, metric) gets its own row.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.e2e.runner import load_contract, spread

__all__ = ["compare_files", "compare_sets", "render_rows", "spread_table"]


def _values(runs: list, name: str) -> list:
    return [
        run["metrics"][name] for run in runs
        if run["metrics"].get(name) is not None
    ]


def compare_sets(before: dict, after: dict, contract: dict | None = None) -> list[dict]:
    """Rows for ``{workload: [run, ...]}`` baseline vs candidate."""
    contract = contract or load_contract()
    rows = []
    for workload in dict.fromkeys([*before, *after]):
        runs_a, runs_b = before.get(workload, []), after.get(workload, [])
        for spec in contract["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a, b = _values(runs_a, name), _values(runs_b, name)
            row = {
                "workload": workload, "metric": name, "unit": spec["unit"],
                "before": statistics.median(a) if a else None,
                "after": statistics.median(b) if b else None,
                "worsening": None, "bound": bound,
                "spread_before": spread(a), "spread_after": spread(b),
            }
            rows.append(row)
            if not a or not b:
                row["status"] = "worse" if a else "unresolved"
                continue
            lower = spec["better"] == "lower"
            worsening = (row["after"] - row["before"]) / row["before"]
            row["worsening"] = worsening if lower else -worsening
            noise = max(row["spread_before"], row["spread_after"])
            clean_win = max(b) < min(a) if lower else min(b) > max(a)
            if row["worsening"] > bound:
                row["status"] = "worse"
            elif noise > bound and not clean_win:
                row["status"] = "unresolved"
            else:
                row["status"] = "unchanged"
        if runs_a and runs_b:
            failed_a = sum(run["failed_ops"] for run in runs_a)
            failed_b = sum(run["failed_ops"] for run in runs_b)
            rows.append({
                "workload": workload, "metric": "failed_ops", "unit": "count",
                "before": failed_a, "after": failed_b,
                "worsening": failed_b - failed_a, "bound": 0,
                "spread_before": 0.0, "spread_after": 0.0,
                "status": "worse" if failed_b > failed_a else "unchanged",
            })
    return rows


def spread_table(runs_by_workload: dict, contract: dict | None = None) -> dict:
    """``{workload: {metric: {median, spread, runs}}}`` of one set of runs."""
    contract = contract or load_contract()
    table: dict = {}
    for workload, runs in runs_by_workload.items():
        table[workload] = {}
        for spec in contract["end_to_end"] + [{"name": "restore_s"}]:
            values = _values(runs, spec["name"])
            if values:
                table[workload][spec["name"]] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "runs": len(values),
                }
    return table


def render_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<18} {'before':>12} {'after':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  status"
    ]

    def cell(value, form: str, width: int) -> str:
        """A number, or ``-`` where one side did not measure it."""
        return ("-" if value is None else format(value, form)).rjust(width)

    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<18} "
            f"{cell(row['before'], '.4f', 12)} {cell(row['after'], '.4f', 12)} "
            f"{cell(row['worsening'], '+.3f', 9)} {row['bound']:>6.2f} "
            f"{max(row['spread_before'], row['spread_after']):>7.3f}  "
            f"{row['status']}"
        )
    return "\n".join(lines)


def _runs_of(path: Path) -> dict:
    payload = json.loads(Path(path).read_text())
    return {
        workload: entry["runs"] for workload, entry in payload["workloads"].items()
    }


def compare_files(before: Path, after: Path) -> int:
    """Print one row per (workload, metric); 1 on any ``worse`` row."""
    rows = compare_sets(_runs_of(before), _runs_of(after))
    print(render_rows(rows))
    worse = [row for row in rows if row["status"] == "worse"]
    unresolved = [row for row in rows if row["status"] == "unresolved"]
    print(
        f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved, "
        f"{len(rows) - len(worse) - len(unresolved)} unchanged"
    )
    return 1 if worse else 0
