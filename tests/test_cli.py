"""Tests for the command-line interface."""

import argparse
import dataclasses
import os
import subprocess
import sys

import pytest

from repro.cli import _GATEWAY_FLAGS, _build_parser, main
from repro.streaming import GatewayConfig


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory, capsys_disabled=None):
    directory = tmp_path_factory.mktemp("cli-trace")
    code = main(["generate", "--out", str(directory), "--seed", "5",
                 "--days", "7", "--strategies", "60"])
    assert code == 0
    return directory


class TestGenerate:
    def test_writes_trace(self, trace_dir):
        assert (trace_dir / "alerts.jsonl").exists()
        assert (trace_dir / "strategies.jsonl").exists()

    def test_prints_stats(self, trace_dir, capsys):
        main(["generate", "--out", str(trace_dir), "--seed", "5",
              "--days", "7", "--strategies", "60"])
        out = capsys.readouterr().out
        assert "alerts:" in out
        assert "saved to" in out


class TestAnalyses:
    def test_mine(self, trace_dir, capsys):
        assert main(["mine", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "individual candidates" in out

    def test_mitigate(self, trace_dir, capsys):
        assert main(["mitigate", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "OCE-load reduction" in out

    def test_stream(self, trace_dir, capsys):
        assert main(["stream", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "OCE-load reduction" in out

    def test_stream_reconciles_with_batch(self, trace_dir, capsys):
        assert main(["stream", "--trace", str(trace_dir), "--reconcile"]) == 0
        out = capsys.readouterr().out
        assert "matches batch pipeline exactly" in out

    def test_stream_process_backend_reconciles(self, trace_dir, capsys):
        assert main(["stream", "--trace", str(trace_dir), "--backend", "process",
                     "--planes", "2", "--workers", "2", "--flush-size", "256",
                     "--reconcile"]) == 0
        out = capsys.readouterr().out
        assert "process x2 workers" in out
        assert "matches batch pipeline exactly" in out
        assert "per-plane accounting:" in out
        assert "plane 1 [" in out

    def test_stream_process_backend_refuses_detection(self, trace_dir):
        """A config the gateway refuses exits non-zero with one line
        naming the flag, not a traceback."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "stream",
             "--trace", str(trace_dir), "--backend", "process", "--detect"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode != 0
        assert done.stdout == ""
        assert "detect_antipatterns" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1

    def test_stream_planes_reconcile(self, trace_dir, capsys):
        assert main(["stream", "--trace", str(trace_dir), "--planes", "3",
                     "--reconcile"]) == 0
        out = capsys.readouterr().out
        assert "planes:                     3" in out
        assert "matches batch pipeline exactly" in out

    def test_serve_drill_resumes_to_the_stream_accounting(
        self, trace_dir, tmp_path, capsys,
    ):
        """A `serve --limit` leg pauses with a snapshot; the rerun
        restores it, resumes the replay where it stopped and drains to
        the per-plane accounting `stream` reports for the same planes."""
        def accounting(out: str) -> list[str]:
            lines = out.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("planes:"))
            end = max(i for i, line in enumerate(lines)
                      if line.startswith("  plane "))
            return [line for line in lines[start:end + 1]
                    if not line.startswith(("throughput:", "latency"))]

        flags = ["--trace", str(trace_dir), "--data-dir",
                 str(tmp_path / "svc"), "--planes", "3",
                 "--checkpoint-every", "200"]
        assert main(["serve", *flags, "--limit", "500"]) == 0
        out = capsys.readouterr().out
        assert "service fresh" in out
        assert "snapshot written — rerun to resume" in out
        assert main(["serve", *flags]) == 0
        resumed = capsys.readouterr().out
        assert "service restored" in resumed
        assert "resuming replay at event 500" in resumed
        assert main(["stream", "--trace", str(trace_dir), "--planes", "3"]) == 0
        streamed = capsys.readouterr().out
        assert accounting(resumed) == accounting(streamed)
        assert sum(line.startswith("  plane ") for line in accounting(resumed)) == 3

    def test_qoa(self, trace_dir, capsys):
        assert main(["qoa", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "QoA model" in out


class TestSharedGatewayFlags:
    """``stream`` and ``serve`` configure the same gateway: one flag
    block, defaults and choices read from the ``GatewayConfig`` fields."""

    def _actions(self, command):
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        shared = {flag for flag, *_ in _GATEWAY_FLAGS} | {"--adaptive-thresholds"}
        return {
            action.option_strings[0]:
                (action.dest, action.default, action.choices, action.help)
            for action in subparsers.choices[command]._actions
            if action.option_strings and action.option_strings[0] in shared
        }

    def _help(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_both_commands_carry_the_same_flags_and_defaults(self):
        stream, serve = self._actions("stream"), self._actions("serve")
        assert stream == serve
        assert len(stream) == len(_GATEWAY_FLAGS) + 1
        fields = {spec.name: spec for spec in dataclasses.fields(GatewayConfig)}
        for flag, name, kind, _ in _GATEWAY_FLAGS:
            dest, default, choices, _ = stream[flag]
            assert dest == name
            assert default == (False if kind is bool else fields[name].default)
            assert choices == fields[name].metadata.get("choices")

    def test_help_lists_the_flags_with_their_defaults(self, capsys):
        for command in ("stream", "serve"):
            text = self._help(command, capsys)
            for flag, *_ in _GATEWAY_FLAGS:
                assert flag in text, (command, flag)
            assert "--backend {serial,process}" in text
            assert "--lane-transport {ring,pipe}" in text
            for default in ("(default: 1)", "(default: serial)",
                            "(default: 30.0)", "(default: 900.0)"):
                assert default in text, (command, default)
            for retired in ("--sync-journal", "--shards", "--rebalance-to",
                            "--worker-recovery", "--worker-checkpoint-every"):
                assert retired not in text, (command, retired)


class TestStandalone:
    def test_storm(self, capsys):
        assert main(["storm"]) == 0
        out = capsys.readouterr().out
        assert "HAProxy" in out
        assert "2,751" in out or "2751" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert "Figure 2(c)" in out

    def test_lint(self, capsys):
        assert main(["lint", "--strategies", "50"]) == 0
        out = capsys.readouterr().out
        assert "checked 50 strategies" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "repro-alerts" in capsys.readouterr().out
