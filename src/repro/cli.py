"""Command-line interface: generate traces and run every analysis.

::

    repro-alerts generate --out trace-dir --days 60
    repro-alerts mine     --trace trace-dir
    repro-alerts mitigate --trace trace-dir
    repro-alerts stream   --trace trace-dir --planes 4 --reconcile
    repro-alerts stream   --trace trace-dir --backend process --workers 4
    repro-alerts serve    --trace trace-dir --data-dir svc-dir
    repro-alerts ops      --data-dir svc-dir
    repro-alerts qoa      --trace trace-dir
    repro-alerts storm
    repro-alerts survey
    repro-alerts lint     --strategies 400

Every command is deterministic under ``--seed`` and prints the same
reports the benchmark harness records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import compute_trace_stats, paper_reference as paper
from repro.analysis.figures import render_bar_survey, render_hourly_series
from repro.common.errors import ValidationError
from repro.common.timeutil import hour_bucket
from repro.core.antipatterns import run_mining_pipeline
from repro.core.governance import GuidelineChecker
from repro.core.mitigation import MitigationPipeline, rulebook_from_ground_truth
from repro.core.qoa import evaluate_qoa_pipeline
from repro.core.mitigation.blocking import AlertBlocker
from repro.io import load_trace, save_trace
from repro.streaming import (
    AlertGateway,
    GatewayConfig,
    LearnerConfig,
    rule_set_divergence,
)
from repro.oce.survey import (
    IMPACT_OPTIONS,
    REACTION_OPTIONS,
    SOP_OPTIONS,
    SurveyInstrument,
)
from repro.topology import TopologyConfig, generate_topology
from repro.workload import (
    StrategyFactory,
    TraceConfig,
    TraceScale,
    build_representative_storm,
    generate_trace,
)
from repro.workload.storms import StormConfig

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "generate": _cmd_generate,
        "mine": _cmd_mine,
        "mitigate": _cmd_mitigate,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "ops": _cmd_ops,
        "qoa": _cmd_qoa,
        "storm": _cmd_storm,
        "survey": _cmd_survey,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


def _parse_endpoint(spec: str) -> tuple[str, int]:
    """Validate one ``HOST:PORT`` endpoint token at parse time."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"invalid endpoint {spec!r}: expected HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid endpoint {spec!r}: port {port_text!r} is not an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"invalid endpoint {spec!r}: port must be 0-65535"
        )
    return host, port


#: The gateway flags ``stream`` and ``serve`` share, one row per flag:
#: ``(flag, GatewayConfig field, argparse type, help)``.  Defaults and
#: ``choices`` come from the field; a ``bool`` row is a switch.
_GATEWAY_FLAGS = (
    ("--planes", "n_planes", int,
     "region-partitioned execution planes (parallelism unit for R3/R4)"),
    ("--backend", "backend", str, "plane execution backend"),
    ("--workers", "n_workers", int,
     "worker processes for the process backend (clamped to --planes)"),
    ("--flush-size", "flush_size", int,
     "micro-batch size per flush (default: 1 serial, 512 process)"),
    ("--ingress-lanes", "ingress_lanes", int,
     "partitioned ingest lane threads feeding process workers (clamped "
     "to --planes; serial always runs 1, the classic ingress)"),
    ("--lane-transport", "lane_transport", str,
     "lane->worker hand-off on the process backend: zero-copy "
     "shared-memory rings or the classic pickled pipe"),
    ("--worker-timeout", "worker_timeout", float,
     "seconds to wait on a live-but-silent worker before raising "
     "WorkerTimeoutError"),
    ("--window", "aggregation_window", float,
     "aggregation/correlation window in seconds"),
    ("--learn-rules", "learn_rules", bool,
     "learn R1 blocking rules online from streaming A4/A5 detection "
     "instead of batch derivation"),
    ("--qoa", "enable_qoa", bool,
     "score per-strategy alert quality live from gateway counters"),
    ("--detect", "detect_antipatterns", bool,
     "run the online anti-pattern detectors (A1-A3 + sketch-R4) over "
     "each flush's alert batches at flush barriers"),
)


def _add_gateway_flags(command: argparse.ArgumentParser) -> None:
    """Add the shared gateway flags; each lands on its field's name."""
    fields = {spec.name: spec for spec in dataclasses.fields(GatewayConfig)}
    for flag, name, kind, help_text in _GATEWAY_FLAGS:
        spec = fields[name]
        if kind is bool:
            command.add_argument(flag, dest=name, action="store_true",
                                 help=help_text)
        else:
            if spec.default is not None:
                help_text += f" (default: {spec.default})"
            command.add_argument(
                flag, dest=name, type=kind, default=spec.default,
                choices=spec.metadata.get("choices"), help=help_text,
            )
    command.add_argument("--adaptive-thresholds", action="store_true",
                         help="with --learn-rules: judge noisiness against "
                              "per-(service, region) EWMA baselines instead "
                              "of the global static cut-offs")


def _gateway_options(args) -> dict:
    """The ``AlertGateway`` options the shared gateway flags select."""
    options = {name: getattr(args, name) for _, name, _, _ in _GATEWAY_FLAGS}
    options["correlation_window"] = options["aggregation_window"]
    options["retain_artifacts"] = False
    if args.adaptive_thresholds:
        if not args.learn_rules:
            raise SystemExit("--adaptive-thresholds requires --learn-rules")
        options["learner_config"] = LearnerConfig(adaptive=True)
    try:
        GatewayConfig(**options)
    except ValidationError as exc:
        raise SystemExit(str(exc)) from None
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-alerts",
        description="Alert anti-pattern characterisation and mitigation (DSN 2022).",
    )
    sub = parser.add_subparsers(dest="command")

    generate = sub.add_parser("generate", help="generate and save an alert trace")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--days", type=float, default=None,
                          help="trace length (default: 60-day preset)")
    generate.add_argument("--strategies", type=int, default=None)
    generate.add_argument("--paper-scale", action="store_true",
                          help="the full 2-year / 4M-alert / 2010-strategy frame")

    for name, help_text in (
        ("mine", "run the SIII-A candidate-mining pipeline"),
        ("mitigate", "run the R1-R3 mitigation pipeline"),
        ("qoa", "run the SIV QoA evaluation"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--trace", required=True, help="trace directory")
        command.add_argument("--seed", type=int, default=None,
                             help="topology seed (default: the trace's seed)")

    stream = sub.add_parser(
        "stream", help="replay a JSONL trace through the online alert gateway"
    )
    stream.add_argument("--trace", required=True, help="trace directory")
    stream.add_argument("--seed", type=int, default=None,
                        help="topology seed (default: the trace's seed)")
    _add_gateway_flags(stream)
    stream.add_argument("--reconcile", action="store_true",
                        help="also run the batch pipeline and verify exact "
                             "parity (with --learn-rules: report the "
                             "online-vs-batch rule divergence instead)")

    serve = sub.add_parser(
        "serve",
        help="run a durable, restartable alert-gateway service "
             "(checkpoints + write-ahead journal in --data-dir)",
    )
    serve.add_argument("--trace", required=True,
                       help="trace directory (topology + rulebook source; "
                            "also the replay source unless --listen/--stdin)")
    serve.add_argument("--data-dir", required=True,
                       help="service directory for checkpoints, journal, "
                            "and stats.json (restores automatically when "
                            "it already holds state)")
    serve.add_argument("--seed", type=int, default=None,
                       help="topology seed (default: the trace's seed)")
    _add_gateway_flags(serve)
    serve.add_argument("--checkpoint-every", type=int, default=4096,
                       help="snapshot cadence in ingested events (written at "
                            "the next natural flush barrier)")
    serve.add_argument("--retain", type=int, default=3,
                       help="checkpoints kept on disk")
    serve.add_argument("--journal-mode", choices=("lazy", "batch", "sync"),
                       default="lazy",
                       help="journal durability tier: lazy (snapshot-anchored,"
                            " re-feed the tail from the source after a hard "
                            "kill), batch (write-ahead per batch, survives "
                            "process death), sync (fsync everything, survives "
                            "host death)")
    serve.add_argument("--batch-size", type=int, default=256,
                       help="ingest batch size for replay/stdin sources")
    serve.add_argument("--limit", type=int, default=None,
                       help="replay at most this many events then stop "
                            "gracefully (kill/restore drills)")
    serve.add_argument("--stdin", action="store_true",
                       help="ingest JSON alerts from stdin (one per line) "
                            "instead of replaying the trace")
    serve.add_argument("--listen", type=_parse_endpoint, default=None,
                       metavar="HOST:PORT",
                       help="ingest JSON alerts over a line-protocol socket "
                            "instead of replaying the trace "
                            "(the line STATS queries live status)")
    serve.add_argument("--no-drain", action="store_true",
                       help="on a clean end of input, snapshot and stop "
                            "instead of draining (keeps the stream "
                            "resumable)")

    ops = sub.add_parser(
        "ops",
        help="operator analytics over a service directory "
             "(stats.json or the newest checkpoint)",
    )
    ops.add_argument("--data-dir", required=True, help="service directory")
    ops.add_argument("--view", default="report",
                     choices=("report", "qoa", "storms", "rules", "planes",
                              "detection"),
                     help="which operator view to render (default: report)")
    ops.add_argument("--from-checkpoint", action="store_true",
                     help="read the newest snapshot instead of stats.json")
    ops.add_argument("--json", action="store_true",
                     help="emit the raw status payload as JSON")

    storm = sub.add_parser("storm", help="regenerate the Figure 3 storm")
    storm.add_argument("--seed", type=int, default=42)

    sub.add_parser("survey", help="run the 18-OCE survey (Figures 2a-2c)")

    lint = sub.add_parser("lint", help="lint a strategy population (SIII-D)")
    lint.add_argument("--seed", type=int, default=42)
    lint.add_argument("--strategies", type=int, default=400)
    return parser


def _topology_for(seed: int):
    return generate_topology(TopologyConfig(seed=seed))


def _cmd_generate(args) -> int:
    if args.paper_scale:
        scale = TraceScale.paper()
    else:
        base = TraceScale.default()
        days = args.days if args.days is not None else base.days
        n_strategies = args.strategies if args.strategies is not None else base.n_strategies
        scale = TraceScale(
            days=days,
            n_strategies=n_strategies,
            target_total_alerts=max(
                int(base.alerts_per_strategy_per_day * days * n_strategies), 1
            ),
        )
    topology = _topology_for(args.seed)
    trace = generate_trace(TraceConfig(seed=args.seed, scale=scale), topology)
    save_trace(trace, args.out)
    print(compute_trace_stats(trace.alerts).render())
    print(f"saved to {args.out}")
    return 0


def _load(args):
    trace = load_trace(args.trace)
    seed = args.seed if args.seed is not None else trace.seed
    return trace, _topology_for(seed)


def _cmd_mine(args) -> int:
    trace, topology = _load(args)
    print(run_mining_pipeline(trace, topology.graph).render())
    return 0


def _cmd_mitigate(args) -> int:
    trace, topology = _load(args)
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    report = MitigationPipeline(topology.graph, rulebook=rulebook).run(trace)
    print(report.render())
    return 0


def _cmd_stream(args) -> int:
    trace, topology = _load(args)
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    # With online learning the gateway starts from an *empty* rule table
    # and derives its own; otherwise it consumes the batch-derived rules.
    batch_blocker = MitigationPipeline.derive_blocker(trace)
    blocker = AlertBlocker() if args.learn_rules else batch_blocker
    gateway = AlertGateway(
        topology.graph, blocker=blocker, rulebook=rulebook,
        **_gateway_options(args),
    )
    gateway.ingest_batch(trace.iter_ordered())
    stats = gateway.drain()
    print(stats.render())
    if args.reconcile:
        report = MitigationPipeline(
            topology.graph,
            rulebook=rulebook,
            aggregation_window=args.aggregation_window,
            correlation_window=args.aggregation_window,
        ).run(trace, blocker=batch_blocker)
        if args.learn_rules:
            # Online-learned rules legitimately diverge from batch-derived
            # ones; quantify instead of demanding equality.
            divergence = rule_set_divergence(
                gateway.learner.ever_promoted,
                {rule.strategy_id for rule in batch_blocker.rules},
            )
            delta = stats.blocked_alerts - report.blocked_alerts
            print(
                f"divergence vs batch-derived rules: "
                f"precision {divergence['precision']:.2f}  "
                f"recall {divergence['recall']:.2f}  "
                f"blocked-volume delta {delta:+,} "
                f"({stats.blocked_alerts:,} online vs "
                f"{report.blocked_alerts:,} batch)"
            )
            return 0
        mismatches = stats.reconcile(report)
        if mismatches:
            for stage, (online, batch) in mismatches.items():
                print(f"MISMATCH {stage}: gateway={online} batch={batch}")
            return 1
        print("reconciliation: gateway matches batch pipeline exactly")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import AlertGatewayService

    trace, topology = _load(args)
    rulebook = rulebook_from_ground_truth(trace, coverage=0.6, seed=trace.seed)
    blocker = (
        AlertBlocker() if args.learn_rules
        else MitigationPipeline.derive_blocker(trace)
    )
    service = AlertGatewayService(
        topology.graph,
        args.data_dir,
        blocker=blocker,
        rulebook=rulebook,
        checkpoint_every=args.checkpoint_every,
        retain_checkpoints=args.retain,
        journal_mode=args.journal_mode,
        **_gateway_options(args),
    )
    outcome = service.start()
    position = service.input_alerts
    print(f"service {outcome} at {args.data_dir} "
          f"(epoch {service.recovered_from if outcome == 'restored' else 0}, "
          f"{position:,} events already ingested)")
    service.install_signal_handlers()
    try:
        if args.listen is not None:
            host, port = service.serve_socket(*args.listen)
            print(f"listening on {host}:{port} "
                  f"(JSON alert per line; STATS for status) — "
                  f"SIGTERM/SIGINT to stop")
            import time as _time
            while not service.stop_requested:
                _time.sleep(0.2)
            end = "stopped"
        elif args.stdin:
            end = service.run_lines(sys.stdin, batch_size=args.batch_size)
        else:
            alerts = list(trace.iter_ordered())
            if position:
                alerts = alerts[position:]
                print(f"resuming replay at event {position:,}")
            if args.limit is not None and args.limit < len(alerts):
                alerts = alerts[:args.limit]
                truncated = True
            else:
                truncated = False
            end = service.run_stream(alerts, batch_size=args.batch_size)
            if truncated and end == "exhausted":
                # --limit cut the replay short: the *stream* is not over,
                # only this drill leg — keep it resumable.
                end = "paused"
    except KeyboardInterrupt:
        end = "stopped"
    if end == "exhausted" and not args.no_drain:
        stats = service.stop(drain=True)
        print(stats.render())
        print(f"stream drained; final stats in "
              f"{Path(args.data_dir) / 'stats.json'}")
    else:
        service.stop()
        print(f"service stopped ({end}); snapshot written — rerun to resume")
    return 0


def _cmd_ops(args) -> int:
    from repro.serving import (
        CheckpointLoader,
        render_detection,
        render_ops_report,
        render_plane_health,
        render_qoa_scoreboard,
        render_rule_history,
        render_storm_timeline,
        status_of_checkpoint,
    )

    data_dir = Path(args.data_dir)
    status_path = data_dir / "stats.json"
    if not args.from_checkpoint and status_path.exists():
        status = json.loads(status_path.read_text())
        source = str(status_path)
    else:
        checkpoint = CheckpointLoader(data_dir).latest()
        if checkpoint is None:
            print(f"no stats.json or checkpoint found in {data_dir}")
            return 2
        status = status_of_checkpoint(checkpoint)
        source = f"checkpoint epoch {checkpoint.seq}"
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    view = {
        "report": render_ops_report,
        "qoa": render_qoa_scoreboard,
        "storms": render_storm_timeline,
        "rules": render_rule_history,
        "planes": render_plane_health,
        "detection": render_detection,
    }[args.view]
    print(f"[{source}]")
    print(view(status))
    return 0


def _cmd_qoa(args) -> int:
    trace, _ = _load(args)
    print(evaluate_qoa_pipeline(trace, seed=trace.seed).render())
    return 0


def _cmd_storm(args) -> int:
    config = StormConfig(seed=args.seed)
    topology = _topology_for(args.seed)
    storm = build_representative_storm(config, topology)
    first_hour = config.day * 24 + config.start_hour
    hours = list(range(first_hour, first_hour + config.n_hours))
    series: dict[str, list[int]] = {"HAProxy": [], "Kafka": [], "Others": []}
    for hour in hours:
        bucket = [a for a in storm.alerts if hour_bucket(a.occurred_at) == hour]
        haproxy = sum(1 for a in bucket if a.strategy_id == "strategy-haproxy")
        kafka = sum(1 for a in bucket if a.strategy_id == "strategy-kafka")
        series["HAProxy"].append(haproxy)
        series["Kafka"].append(kafka)
        series["Others"].append(len(bucket) - haproxy - kafka)
    print(render_hourly_series(
        f"Figure 3 storm ({len(storm)} alerts, "
        f"{len(storm.by_strategy())} strategies)",
        [h % 24 for h in hours], series,
    ))
    return 0


def _cmd_survey(args) -> int:
    results = SurveyInstrument(seed=42).run()
    impact_rows = {
        pattern: results.counts(f"impact/{pattern}", IMPACT_OPTIONS)
        for pattern in sorted(paper.ANTIPATTERN_IMPACT)
    }
    print(render_bar_survey("Figure 2(a) — anti-pattern impact",
                            impact_rows, IMPACT_OPTIONS))
    sop_rows = {
        question: results.counts(f"sop/{question}", SOP_OPTIONS)
        for question in sorted(paper.SOP_HELPFULNESS)
    }
    print()
    print(render_bar_survey("Figure 2(b) — SOP helpfulness", sop_rows, SOP_OPTIONS))
    reaction_rows = {
        reaction: results.counts(f"reaction/{reaction}", REACTION_OPTIONS)
        for reaction in sorted(paper.REACTION_EFFECTIVENESS)
    }
    print()
    print(render_bar_survey("Figure 2(c) — reaction effectiveness",
                            reaction_rows, REACTION_OPTIONS))
    return 0


def _cmd_lint(args) -> int:
    topology = _topology_for(args.seed)
    strategies = StrategyFactory(topology, seed=args.seed).build(args.strategies)
    report = GuidelineChecker(topology).review(strategies)
    print(report.render())
    for violation in report.violations[:10]:
        print(f"  [{violation.aspect}] {violation.strategy_id}: {violation.message}")
    if len(report.violations) > 10:
        print(f"  ... and {len(report.violations) - 10} more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
