"""The PR gate's policy on synthetic runs (no benchmark is played).

``benchmarks/gate.py`` exits 1 on a ``worse`` row or more failed ops,
and only warns when ``setup_s`` is the sole ``worse`` metric.
"""

import copy
import json

import pytest

gate = pytest.importorskip(
    "benchmarks.gate", reason="benchmarks/ must be importable from the repo root",
)

WORKLOADS = ("storm_serial", "background_detect")


def _runs(**scale) -> dict:
    """Three runs per workload; ``scale`` multiplies one metric."""
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = []
        for jitter in (0.99, 1.0, 1.01):
            metrics = {
                "alerts_per_s": 200_000.0 * jitter,
                "cpu_us_per_alert": 4.0 * jitter,
                "flush_p50_ms": 2.0 * jitter,
                "peak_rss_mb": 300.0,
                "setup_s": 2.0 * jitter,
            }
            for name, factor in scale.items():
                metrics[name] *= factor
            runs[workload].append({"metrics": metrics, "failed_ops": 0})
    return runs


def test_identical_sets_pass(capsys):
    before = _runs()
    assert gate.gate(before, copy.deepcopy(before)) == 0
    assert "warning" not in capsys.readouterr().out


def test_throughput_drop_on_one_workload_fails():
    before, after = _runs(), _runs()
    after["background_detect"] = _runs(alerts_per_s=0.6)["background_detect"]
    assert gate.gate(before, after) == 1


def test_setup_s_alone_only_warns(capsys):
    assert gate.gate(_runs(), _runs(setup_s=1.6)) == 0
    out = capsys.readouterr().out
    assert "warning: storm_serial setup_s is worse" in out
    assert "warning: background_detect setup_s is worse" in out


def test_more_failed_ops_fails():
    before, after = _runs(), _runs()
    after["storm_serial"][1]["failed_ops"] = 1
    assert gate.gate(before, after) == 1


def test_workload_the_base_tree_lacks_is_unresolved(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "storm_serial"}]}))
    contract = gate.load_contract()
    contract["workloads"] = [{"name": name} for name in WORKLOADS]
    played = []

    def run_once(tree, workload, seed):
        played.append((tree, workload))
        return _runs()[workload][len(played) % 3]

    monkeypatch.setattr(gate, "load_contract", lambda: contract)
    monkeypatch.setattr(gate, "run_once", run_once)
    assert gate.main([str(tmp_path)]) == 0
    assert (tmp_path.resolve(), "background_detect") not in played
    assert played.count((tmp_path.resolve(), "storm_serial")) == gate.PAIRS
    assert played.count((gate.ROOT, "background_detect")) == gate.PAIRS
    rows = capsys.readouterr().out
    assert "background_detect" in rows and "unresolved" in rows


def _record_plays(monkeypatch, tmp_path) -> list:
    """Stub the runs; returns the ``(tree, workload, seed)`` plays."""
    contract = gate.load_contract()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": spec["name"]} for spec in contract["workloads"]]}
    ))
    played = []

    def run_once(tree, workload, seed):
        played.append((tree, workload, seed))
        return {"metrics": _runs()["storm_serial"][1]["metrics"], "failed_ops": 0}

    monkeypatch.setattr(gate, "run_once", run_once)
    return played


def test_defaults_are_three_pairs_seed_44_every_workload(tmp_path, monkeypatch):
    played = _record_plays(monkeypatch, tmp_path)
    assert gate.main([str(tmp_path)]) == 0
    assert (gate.PAIRS, gate.SEED) == (3, 44)
    names = [spec["name"] for spec in gate.load_contract()["workloads"]]
    assert len(played) == 2 * 3 * len(names)
    assert {seed for _, _, seed in played} == {44}
    for name in names:
        for tree in (tmp_path.resolve(), gate.ROOT):
            assert played.count((tree, name, 44)) == 3


def test_workload_filter_pairs_and_seed(tmp_path, monkeypatch, capsys):
    played = _record_plays(monkeypatch, tmp_path)
    assert gate.main([str(tmp_path), "--pairs", "5", "--seed", "7",
                      "--workload", "storm_blocked",
                      "--workload", "storm_serial"]) == 0
    assert {name for _, name, _ in played} == {"storm_blocked", "storm_serial"}
    assert {seed for _, _, seed in played} == {7}
    assert len(played) == 2 * 5 * 2
    rows = capsys.readouterr().out
    assert "background_detect" not in rows and "storm_blocked" in rows


def test_unknown_workload_and_zero_pairs_are_refused(tmp_path, monkeypatch):
    played = _record_plays(monkeypatch, tmp_path)
    with pytest.raises(SystemExit):
        gate.main([str(tmp_path), "--workload", "no_such_workload"])
    with pytest.raises(SystemExit):
        gate.main([str(tmp_path), "--pairs", "0"])
    assert played == []
