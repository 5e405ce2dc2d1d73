"""Measure one workload: end-to-end metrics, or the per-layer ledger.

Two kinds of run, never mixed (end-to-end numbers never come from a
traced rep):

* ``measure`` — set up (``setup_s`` is import time plus the build), warm
  up, then play untraced reps for the requested seconds — and until the
  scale's floors on reps and pooled flush samples are met — and report
  medians over reps and percentiles over the pooled per-chunk samples;
* ``trace`` — set up, play one cold untimed rep, alternate untraced and
  traced reps for the requested seconds, run the probes, and fold spans
  into the ledger.

Both return ``{"metrics": {name: value}, "ops", "failed_ops", ...}``;
names, units, directions and bounds come from ``BENCHMARK.json`` so the
contract has one home.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e import adapter, refkernel
from benchmarks.e2e.tracer import Tracer, self_times
from benchmarks.e2e.workloads import (
    SCALES, TAIL_SAMPLES, Prepared, Rep, check_rep, prepare, run_rep, status_mb,
)

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
CONTRACT = HERE.parents[1] / "BENCHMARK.json"



def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "ref_nominal_ms": refkernel.REF_NOMINAL_MS,
        "ref_iterations": refkernel.REF_ITERATIONS,
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def spread(values: list) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _reset_peak_rss() -> None:
    """Restart ``VmHWM`` from the current RSS, so the peak reported is the
    warm-up's and the reps', not a transient of the set-up.  Where the
    kernel refuses, the set-up's peak stays in: it sits a few MB above
    the floor the reps start from, well under what a gateway adds.
    """
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """``VmHWM`` of this process plus the largest reaped child's peak."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return status_mb("VmHWM") + children


def _workdir() -> Path:
    return RESULTS / f"scratch-{os.getpid()}"


def _warm_up(prepared: Prepared) -> None:
    """Two segments through a throwaway target: code paths warm, no data."""
    prefix = prepared.chunks[:2 * prepared.spec.segment_chunks]
    run_rep(dataclasses.replace(prepared, chunks=prefix), _workdir())


def _play(seconds: float, enough, each) -> None:
    """Call ``each()`` (which plays reps) until the time budget is spent.

    Stops once another round would overshoot the budget by more than it
    undershoots — the measured time is ``seconds`` to within half a round
    — but never before ``enough()`` says the floors are met.
    """
    started = time.perf_counter()
    rounds = 0
    while True:
        each()
        rounds += 1
        elapsed = time.perf_counter() - started
        if enough() and elapsed + 0.5 * elapsed / rounds >= seconds:
            return


def _floors_met(reps: list, min_reps: int, min_flush_samples: int) -> bool:
    """Whether ``reps`` hold enough reps and pooled flush samples.

    A rep that raised may have pooled no samples at all; a run with a
    failed rep is wrong already and only has to end.
    """
    if len(reps) < min_reps:
        return False
    pooled = sum(len(rep.flush_ms) for rep in reps)
    return pooled >= min_flush_samples or any(rep.failures for rep in reps)


def _tally(reps: list) -> dict:
    failures = [failure for rep in reps for failure in rep.failures]
    for failure in failures:
        print(f"FAILED: {failure[:300]}", file=sys.stderr)
    return {
        "ops": sum(rep.ops for rep in reps),
        "failed_ops": len(failures),
        "failures": [failure[:300] for failure in failures],
        "reps": len(reps),
    }


def _rates(reps: list) -> dict:
    """Medians over reps, shared by both kinds of run.

    The normalised wall is the sum over part positions (segment k, the
    drain) of the *median across reps* of that part: every rep plays the
    same input, so a burst of interference that lands on one segment of
    one rep is voted out there instead of dragging the whole rep.
    """
    good = [rep for rep in reps if rep.alerts and not rep.failures] or [
        rep for rep in reps if rep.alerts
    ]
    if not good:
        return {}
    if len({(rep.alerts, len(rep.parts)) for rep in good}) == 1:
        wall = sum(statistics.median(column) for column in zip(
            *(rep.parts for rep in good)
        ))
        rate = good[0].alerts / wall
    else:  # reps differ (a failure path): fall back to whole-rep medians
        rate = statistics.median(rep.alerts / rep.wall_norm_s for rep in good)
    return {
        "alerts_per_s": rate,
        "cpu_us_per_alert": statistics.median(
            rep.cpu_norm_s / rep.alerts * 1e6 for rep in good
        ),
        "raw.alerts_per_s": statistics.median(
            rep.alerts / rep.wall_s for rep in good
        ),
        "raw.spread": spread([rep.alerts / rep.wall_s for rep in good]),
        "ref.slice_ms_median": statistics.median(
            took for rep in good for took in rep.ref_ms
        ),
    }


def _flush(reps: list) -> dict:
    """Caller-blocked time per chunk, pooled over reps: p50 and the tail.

    The tail is p99 once ``TAIL_SAMPLES`` were pooled and p95 below that
    (too few samples beyond p99 to mean anything); ``label`` says which.
    """
    samples = sorted(sample for rep in reps for sample in rep.flush_ms)
    tail = 0.99 if len(samples) >= TAIL_SAMPLES else 0.95
    return {
        "p50": percentile(samples, 0.50) if samples else None,
        "tail": percentile(samples, tail) if samples else None,
        "samples": len(samples),
        "label": f"p{round(tail * 100)}",
    }


def measure(
    name: str, seed: int, seconds: float, scale: str = "full",
    import_s: float = 0.0, corrupt=None,
) -> dict:
    """End-to-end metrics of one workload (untraced).

    ``corrupt(prepared)`` lets a test damage the oracle before the reps.
    """
    # Set-up is timed like everything else: against bracketing slices
    # (three per boundary — a build is 100x longer than one slice).
    def steady_slice() -> float:
        return statistics.median(refkernel.timed_slice() for _ in range(3))

    ref_before = steady_slice()
    prepared = prepare(name, seed, scale)
    ref_after = steady_slice()
    setup_s = (
        refkernel.normalise(import_s, ref_before, ref_before)
        + refkernel.normalise(prepared.timings["total_s"], ref_before, ref_after)
    )
    _reset_peak_rss()
    if corrupt is not None:
        corrupt(prepared)
    _warm_up(prepared)
    floors = SCALES[scale]
    reps: list[Rep] = []

    def one_rep() -> None:
        rep = run_rep(prepared, _workdir())
        check_rep(prepared, rep, reps[0] if reps else None)
        reps.append(rep)

    def enough() -> bool:
        return _floors_met(reps, floors.min_reps, floors.min_flush_samples)

    _play(seconds, enough, one_rep)
    flush = _flush(reps)
    rates = _rates(reps)
    metrics = {
        "alerts_per_s": rates.get("alerts_per_s"),
        "cpu_us_per_alert": rates.get("cpu_us_per_alert"),
        "flush_p50_ms": flush["p50"],
        "flush_p99_ms": flush["tail"],
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }
    restores = [rep.restore_s for rep in reps if rep.restore_s is not None]
    if restores:
        metrics["restore_s"] = statistics.median(restores)
    return {
        "metrics": metrics,
        "flush_samples": flush["samples"],
        "flush_tail": flush["label"],
        "raw_alerts_per_s": rates.get("raw.alerts_per_s"),
        "raw_spread": rates.get("raw.spread"),
        **_tally(reps),
    }


def trace(name: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """The per-layer ledger of one workload: traced reps plus probes."""
    prepared = prepare(name, seed, scale)
    # The warm-up is a whole rep here: the first gateway of the process
    # meets a cold allocator, so its RSS growth is what a gateway costs.
    cold = run_rep(prepared, _workdir())
    tracer = Tracer()
    tracer.install(adapter.SPAN_TARGETS)
    floors = SCALES[scale]
    plain: list[Rep] = []
    traced: list[Rep] = []
    probes: dict = {}

    def at_barrier(gateway) -> None:
        probes["checkpoint"] = adapter.probe_checkpoint(gateway, prepared.topology)

    def after_abort(data_dir: Path) -> None:
        probes["journal"] = adapter.probe_journal(data_dir)

    def one_pair() -> None:
        rep = run_rep(prepared, _workdir())
        check_rep(prepared, rep, plain[0] if plain else None)
        plain.append(rep)
        # The probes ride the first traced rep only: they run outside
        # the measured wall but are not free, and once is enough.
        hooks = {} if traced else {
            "at_barrier": at_barrier, "after_abort": after_abort,
        }
        rep = run_rep(prepared, _workdir(), tracer=tracer, hooks=hooks)
        check_rep(prepared, rep, plain[0])
        traced.append(rep)

    def enough() -> bool:
        return _floors_met(plain, 1, floors.min_flush_samples)

    try:
        _play(seconds, enough, one_pair)
    finally:
        tracer.uninstall()
    probes["wire"] = adapter.probe_wire(prepared.chunks)
    probes["ring_s"] = adapter.probe_ring(prepared.chunks)
    if prepared.oracle is None:
        started = time.perf_counter()
        adapter.batch_oracle(prepared.topology, prepared.stream, ())
        probes["pipeline_s"] = time.perf_counter() - started
    else:
        probes["pipeline_s"] = prepared.timings["oracle_s"]
    metrics, shares = _ledger(prepared, tracer, cold, plain, traced, probes)
    tracer.dump(RESULTS / f"trace-{name}.json", {
        "workload": name, "seed": seed, "scale": scale,
        "traced_reps": len(traced), **environment(),
    })
    flush = _flush(plain)
    metrics["flush_p99_ms"] = flush["tail"]
    return {
        "metrics": metrics, "shares": shares,
        "flush_samples": flush["samples"], "flush_tail": flush["label"],
        **_tally(plain + traced),
    }


def _ledger(prepared, tracer, cold, plain, traced, probes) -> tuple[dict, dict]:
    """Fold spans, probes and drained counters into the per-layer metrics.

    A metric whose span never fired (a layer the workload does not
    exercise, or a target that no longer resolves) is ``None``.  Span and
    probe times are rescaled to the nominal machine by one factor for the
    whole run, from the mean of the traced reps' reference slices (the
    mean, like the per-segment brackets, so that the per-alert lines add
    up to the traced reps' normalised wall).
    """
    slices = [took for rep in traced for took in rep.ref_ms]
    factor = refkernel.REF_NOMINAL_MS / statistics.mean(slices) if slices else 1.0

    def norm(seconds):
        return None if seconds is None else seconds * factor

    spans = tracer.spans
    table = self_times(spans)
    alerts = sum(rep.alerts for rep in traced) or 1
    passes = sum(len(rep.accounts) for rep in traced) or 1
    account = traced[0].accounts[0] if traced and traced[0].accounts else {}

    def rows(*names):
        return [table[name] for name in names if name in table]

    def total(*names):
        found = rows(*names)
        return sum(row[1] for row in found) if found else None

    def self_(*names):
        found = rows(*names)
        return sum(row[2] for row in found) if found else None

    def calls(*names):
        return sum(row[0] for row in rows(*names))

    def us_per(seconds, per=alerts):
        return None if seconds is None or not per else norm(seconds) / per * 1e6

    def ms(seconds, per=1):
        return None if seconds is None or not per else norm(seconds) / per * 1e3

    gateway = ("AlertGateway.ingest_batch", "AlertGateway.flush", "AlertGateway.drain")
    backend_flush = (
        "SerialPlaneBackend.flush", "ProcessPlaneBackend.flush",
        "ProcessPlaneBackend.lane_feed_parts",
    )
    backend_drain = (
        "SerialPlaneBackend.drain", "ProcessPlaneBackend.drain",
        "ProcessPlaneBackend.close",
    )
    correlator = (
        "OnlineCorrelator.add", "OnlineCorrelator.finalize_ready",
        "OnlineCorrelator.drain",
    )
    journal = ("JournalWriter.append", "JournalWriter.commit", "JournalWriter.close")
    ticks = sorted(
        span[2] - span[1] for span in spans
        if span[0] == "AlertGatewayService.checkpoint"
    )
    plain_alerts = sum(rep.alerts for rep in plain) or 1
    wire = probes["wire"]
    checkpoint = probes.get("checkpoint", {})
    journal_probe = probes.get("journal", {})
    restores = [rep.restore_s for rep in plain if rep.restore_s is not None]
    driver = threading.get_ident()
    covered = sum(row[2] for row in self_times(spans, thread=driver).values())
    traced_wall = sum(rep.wall_s for rep in traced)
    rates = _rates(plain)
    traced_rates = _rates(traced)
    detection = account.get("detection") or {}
    metrics = {
        "gateway.self_us_per_alert": us_per(self_(*gateway)),
        "gateway.flushes": account.get("flushes"),
        "gateway.late_events": account.get("late_events"),
        "backends.flush_self_us_per_alert": us_per(self_(*backend_flush)),
        "backends.drain_ms": ms(total(*backend_drain), passes),
        "backends.worker_cpu_us_per_alert": us_per(
            sum(rep.child_cpu_s for rep in plain), plain_alerts,
        ),
        "lanes.ingest_self_us_per_alert": us_per(self_("LaneIngress.ingest")),
        "lanes.barrier_wait_ms": ms(total("LaneIngress.barrier"), passes),
        "lanes.stalls": account.get("lane_stalls"),
        "wire.encode_us_per_alert": us_per(wire["encode_s"], wire["alerts"]),
        "wire.decode_us_per_alert": us_per(wire["decode_s"], wire["alerts"]),
        "wire.bytes_per_alert": wire["bytes"] / wire["alerts"],
        "wire.builder_us_per_alert": us_per(self_(
            "AlertBatchBuilder.extend", "AlertBatchBuilder.finish_parts",
        )),
        "rings.handoff_us": us_per(probes["ring_s"], 1),
        "rings.spills": traced[0].ring_spills if traced else None,
        "plane.self_us_per_alert": us_per(self_(
            "RegionPlane.process_batch", "RegionPlane.drain",
        )),
        "plane.batches": calls("RegionPlane.process_batch") / passes or None,
        "processor.r1r2_us_per_alert": us_per(total(
            "StreamProcessor.ingest_batch", "StreamProcessor.drain",
        )),
        "processor.blocked_ratio": (
            account["blocked_alerts"] / account["input_alerts"] if account else None
        ),
        "processor.aggregates_per_alert": (
            account["aggregates"] / account["input_alerts"] if account else None
        ),
        "correlator.r3_us_per_alert": us_per(total(*correlator)),
        "correlator.add_us_per_aggregate": us_per(
            total("OnlineCorrelator.add"), calls("OnlineCorrelator.add"),
        ),
        "correlator.clusters": account.get("clusters"),
        "storm.r4_us_per_alert": us_per(total(
            "OnlineStormDetector.ingest_batch", "OnlineStormDetector.finish",
        )),
        "storm.episodes": account.get("storm_episodes"),
        "storm.emerging_flags": account.get("emerging_flags"),
        "learning.us_per_alert": us_per(total(
            "OnlineRuleLearner.observe", "OnlineRuleLearner.finish",
        )),
        "learning.observe_ms_per_flush": ms(
            total("OnlineRuleLearner.observe"), calls("OnlineRuleLearner.observe"),
        ),
        "learning.rule_events": account.get("rule_events"),
        "qoa.us_per_alert": us_per(total("StreamQoAScorer.observe")),
        "detectors.observe_us_per_alert": us_per(
            total("StreamingDetectorSuite.observe"),
        ),
        "detectors.summary_ms": ms(total(
            "StreamingDetectorSuite.finish", "StreamingDetectorSuite.summary",
        ), passes),
        "detectors.findings": (
            sum(detection["findings"].values()) if detection else None
        ),
        "journal.append_us_per_alert": us_per(self_(*journal)),
        "journal.bytes_per_alert": (
            journal_probe["bytes"] / journal_probe["events"]
            if journal_probe.get("events") else None
        ),
        "journal.replay_ms": ms(journal_probe.get("replay_s")),
        "journal.replayed_events": traced[0].replayed_events or None if traced else None,
        "checkpoint.count": len(ticks) / passes or None,
        "checkpoint.tick_ms_p50": ms(percentile(ticks, 0.5)) if ticks else None,
        "checkpoint.tick_ms_max": ms(ticks[-1]) if ticks else None,
        "checkpoint.capture_ms": ms(checkpoint.get("capture_s")),
        "checkpoint.encode_ms": ms(checkpoint.get("encode_s")),
        "checkpoint.decode_ms": ms(checkpoint.get("decode_s")),
        "checkpoint.bytes": checkpoint.get("bytes"),
        "state.restore_ms": ms(checkpoint.get("restore_s")),
        "state.rss_growth_mb": cold.rss_growth_mb,
        "service.self_us_per_alert": us_per(self_(
            "AlertGatewayService.ingest", "AlertGatewayService.stop",
        )),
        "pipeline.batch_alerts_per_s": (
            prepared.shape["alerts"] / norm(probes["pipeline_s"])
        ),
        "workload.build_s": norm(prepared.timings["total_s"]),
        "workload.alerts": prepared.shape["alerts"],
        "workload.strategies": prepared.shape["strategies"],
        "workload.regions": prepared.shape["regions"],
        "restore_s": statistics.median(restores) if restores else None,
        "ledger.coverage": covered / traced_wall if traced_wall else None,
        "trace.overhead_ratio": (
            rates["alerts_per_s"] / traced_rates["alerts_per_s"]
            if rates and traced_rates else None
        ),
        "trace.spans_missing": len(tracer.missing),
        "ref.slice_ms_median": rates.get("ref.slice_ms_median"),
        "raw.alerts_per_s": rates.get("raw.alerts_per_s"),
        "raw.spread": rates.get("raw.spread"),
    }
    layer_self: dict[str, float] = {}
    for layer, _module, qualname in adapter.SPAN_TARGETS:
        if qualname in table:
            layer_self[layer] = layer_self.get(layer, 0.0) + table[qualname][2]
    whole = sum(layer_self.values()) or 1.0
    shares = {layer: value / whole for layer, value in sorted(layer_self.items())}
    return metrics, shares


def driver_line(result: dict, section: list) -> str:
    """The one JSON object the contract wants as the last stdout line."""
    metrics = {}
    for spec in section:
        value = result["metrics"].get(spec["name"])
        metrics[spec["name"]] = {
            "value": 0.0 if value is None else value, "unit": spec["unit"],
        }
    return json.dumps({
        "correct": result["failed_ops"] == 0,
        "attempted": max(result["ops"], 1),
        "failed": result["failed_ops"],
        "metrics": metrics,
    })
