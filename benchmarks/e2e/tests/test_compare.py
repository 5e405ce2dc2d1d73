"""Bounds and directions: unchanged, worse, unresolved, and the contract."""

import json
import re

from benchmarks.e2e import compare
from benchmarks.e2e.runner import CONTRACT, load_contract, spread
from benchmarks.e2e.workloads import WORKLOADS

CONTRACT_STUB = {"end_to_end": [
    {"name": "alerts_per_s", "unit": "alerts/s", "better": "higher", "bound": 0.05},
    {"name": "flush_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05},
]}


def runs(rates, flushes, failed=0):
    return [
        {"metrics": {"alerts_per_s": rate, "flush_p50_ms": flush}, "failed_ops": failed}
        for rate, flush in zip(rates, flushes)
    ]


def status_of(rows, metric):
    return next(row["status"] for row in rows if row["metric"] == metric)


def test_spread_is_the_drivers_interquartile_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == (17.25 - 11.75) / 14.5
    assert spread([5.0]) == 0.0


def test_rows_follow_direction_and_bound():
    before = {"w": runs([100.0, 101.0, 99.0, 100.5], [5.0, 5.01, 4.99, 5.0])}
    slower = {"w": runs([90.0, 91.0, 89.0, 90.5], [5.0, 5.01, 4.99, 5.0])}
    rows = compare.compare_sets(before, slower, CONTRACT_STUB)
    assert status_of(rows, "alerts_per_s") == "worse"       # higher is better
    assert status_of(rows, "flush_p50_ms") == "unchanged"
    faster = {"w": runs([120.0, 121.0, 119.0, 120.5], [4.0, 4.01, 3.99, 4.0])}
    rows = compare.compare_sets(before, faster, CONTRACT_STUB)
    assert {row["status"] for row in rows} == {"unchanged"}


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = {"w": runs([80.0, 100.0, 120.0, 140.0], [5.0, 5.0, 5.0, 5.0])}
    same = {"w": runs([82.0, 101.0, 119.0, 138.0], [5.0, 5.0, 5.0, 5.0])}
    rows = compare.compare_sets(noisy, same, CONTRACT_STUB)
    assert status_of(rows, "alerts_per_s") == "unresolved"
    clean_win = {"w": runs([150.0, 170.0, 190.0, 210.0], [5.0, 5.0, 5.0, 5.0])}
    rows = compare.compare_sets(noisy, clean_win, CONTRACT_STUB)
    assert status_of(rows, "alerts_per_s") == "unchanged"


def test_a_result_only_one_side_measured_still_gets_its_row():
    both = runs([100.0, 101.0], [5.0, 5.0])
    no_flush = [{"metrics": {"alerts_per_s": 100.0}, "failed_ops": 0}]
    rows = compare.compare_sets({"w": both, "gone": both}, {"w": no_flush, "new": both},
                                CONTRACT_STUB)
    by_key = {(row["workload"], row["metric"]): row["status"] for row in rows}
    assert by_key[("w", "alerts_per_s")] == "unchanged"
    assert by_key[("w", "flush_p50_ms")] == "worse"         # the candidate lost it
    assert by_key[("gone", "alerts_per_s")] == "worse"
    assert by_key[("new", "alerts_per_s")] == "unresolved"  # no baseline to hold it to
    assert "-" in compare.render_rows(rows)


def test_more_failed_ops_is_worse_and_exits_one(tmp_path, capsys):
    before = {"w": runs([100.0, 100.0], [5.0, 5.0])}
    after = {"w": runs([100.0, 100.0], [5.0, 5.0], failed=1)}
    rows = compare.compare_sets(before, after, CONTRACT_STUB)
    assert status_of(rows, "failed_ops") == "worse"

    def dump(name, sets):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workloads": {key: {"runs": value} for key, value in sets.items()},
        }))
        return path

    full = {"storm_serial": [{
        "metrics": {spec["name"]: 1.0 for spec in load_contract()["end_to_end"]},
        "failed_ops": 0,
    }]}
    worse = {"storm_serial": [dict(full["storm_serial"][0], failed_ops=2)]}
    assert compare.compare_files(dump("a.json", full), dump("b.json", full)) == 0
    assert compare.compare_files(dump("a.json", full), dump("c.json", worse)) == 1
    assert "worse" in capsys.readouterr().out


def test_benchmark_json_meets_the_contract():
    contract = json.loads(CONTRACT.read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in contract[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert [row["name"] for row in contract["workloads"]] == list(WORKLOADS)
    assert 2 <= len(contract["workloads"]) <= 8
    assert all(set(row) == {"name", "why"} and len(row["why"]) <= 200
               for row in contract["workloads"])
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert unit.match(row["unit"]) and row["better"] in ("lower", "higher")
    setup = next(r for r in contract["end_to_end"] if r["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(r["bound"] for r in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
