"""The five named workloads: set-up, one measured rep, and its checks.

A workload is a seeded input stream plus the configuration it is played
through.  ``prepare`` turns ``(workload, seed, scale)`` into everything a
rep needs — topology, stream cut into ``flush_size`` chunks, R1 table,
batch oracle — and is what ``setup_s`` times.  ``run_rep`` plays the
stream once, closed loop from a single thread (``ingest_batch`` and
``AlertGatewayService.ingest`` are synchronous calls, so the one client
waits for each reply before sending the next chunk).

Schedule of a rep: the chunks are played in *segments* of whole flush
cycles.  After each segment the driver calls ``gateway.flush()`` (a
no-op on the classic path, the lane barrier on ``storm_fleet``) and then
runs one reference slice against the now-quiescent system; each
segment's time is normalised by the two slices that bracket it (see
``refkernel.py``).  The measured wall is first ingest to ``drain()``
return, minus the slices.  The garbage collector is parked inside a rep
and run between reps.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import adapter
from benchmarks.e2e.refkernel import REF_NOMINAL_MS, normalise, timed_slice

__all__ = [
    "WORKLOADS", "SCALES", "TAIL_SAMPLES", "Prepared", "Rep", "prepare",
    "run_rep", "check_rep", "status_mb",
]


@dataclass(frozen=True)
class Workload:
    """What distinguishes one workload from the next."""

    stream: str = "storm"          # "storm" | "background"
    derived_table: bool = False    # R1 table derived from the base wave
    passes: int = 1                # fresh gateways per rep
    segment_chunks: int = 16       # flush cycles between reference slices
    durable: bool = False          # through the service, with a crash


#: Why each exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS = {
    "storm_serial": Workload(),
    # R1 drops ~99.6 % of the stream, so a pass is ~8x cheaper than on
    # the other storm workloads: 8 passes per rep and 8x longer segments
    # keep the reference slice at the same ~10 % of a segment.
    "storm_blocked": Workload(derived_table=True, passes=8, segment_chunks=128),
    "storm_fleet": Workload(),
    "background_detect": Workload(stream="background"),
    "storm_durable": Workload(durable=True),
}


#: Pooled flush samples needed before the tail percentile is p99 (else p95).
TAIL_SAMPLES = 1000


@dataclass(frozen=True)
class Scale:
    waves: int
    days: int
    strategies: int
    #: Floors a run meets whatever its time budget: reps below
    #: ``min_reps`` make a median meaningless, pooled samples below
    #: ``min_flush_samples`` make the flush tail a p95.
    min_reps: int
    min_flush_samples: int


#: ``full`` is what ``BENCHMARK.json`` measures; ``smoke`` is for tests.
#: The issue sized storm20 (20 waves) and 100 days; both are trimmed so
#: that one set-up plus the floors fit the contract's time cap.
SCALES = {
    "full": Scale(waves=12, days=50, strategies=400,
                  min_reps=5, min_flush_samples=TAIL_SAMPLES),
    "smoke": Scale(waves=2, days=3, strategies=100,
                   min_reps=1, min_flush_samples=0),
}

#: ``storm_durable`` crashes after this share of the chunks.
CRASH_AFTER = 0.9


@dataclass
class Prepared:
    """Everything ``run_rep`` needs, built once per run by ``prepare``."""

    name: str
    spec: Workload
    topology: object
    stream: object
    chunks: list
    rules: tuple
    oracle: object | None
    #: ``storm_serial``'s R4 verdict on this stream (``None`` on
    #: ``storm_serial`` itself and on ``background_detect``, where the
    #: first rep sets the values every later rep must repeat).
    reference: dict | None
    shape: dict
    timings: dict = field(default_factory=dict)


@dataclass
class Rep:
    """One measured pass over the workload."""

    alerts: int = 0
    wall_s: float = 0.0           # raw, slices excluded
    #: Normalised time of every timed part in play order: each segment,
    #: then the drain, of each pass.  Reps of one run play identical
    #: inputs, so part k of one rep is comparable with part k of another.
    parts: list = field(default_factory=list)
    cpu_s: float = 0.0            # raw, slices and restore excluded
    child_cpu_s: float = 0.0
    flush_ms: list = field(default_factory=list)   # normalised
    ref_ms: list = field(default_factory=list)
    restore_s: float | None = None                 # normalised
    accounts: list = field(default_factory=list)   # one per pass
    rss_growth_mb: float = 0.0
    ring_spills: int = 0
    replayed_events: int = 0
    ops: int = 0
    failures: list = field(default_factory=list)

    @property
    def wall_norm_s(self) -> float:
        return sum(self.parts)

    @property
    def ref_mean_ms(self) -> float:
        return sum(self.ref_ms) / len(self.ref_ms)

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_s * REF_NOMINAL_MS / self.ref_mean_ms


def prepare(name: str, seed: int, scale: str = "full") -> Prepared:
    """Build the workload's inputs and oracle from ``seed`` (timed)."""
    spec = WORKLOADS[name]
    sizes = SCALES[scale]
    clock = time.perf_counter
    started = clock()
    topology = adapter.build_topology(seed)
    rules: tuple = ()
    if spec.stream == "storm":
        base, stream = adapter.build_storm_stream(seed, topology, sizes.waves)
        if spec.derived_table:
            rules = adapter.derive_rules(base)
    else:
        stream = adapter.build_background_stream(
            seed, topology, sizes.days, sizes.strategies,
        )
    size = adapter.FLUSH_SIZE
    alerts = stream.alerts
    chunks = [alerts[at:at + size] for at in range(0, len(alerts), size)]
    built = clock()
    oracle = reference = None
    if spec.stream == "storm":
        oracle = adapter.batch_oracle(topology, stream, rules)
    oracle_done = clock()
    if spec.stream == "storm" and name != "storm_serial":
        gateway = adapter.make_gateway("storm_serial", topology, ())
        for chunk in chunks:
            gateway.ingest_batch(chunk)
        reference = adapter.accounting(gateway.drain())
    return Prepared(
        name=name, spec=spec, topology=topology, stream=stream,
        chunks=chunks, rules=rules, oracle=oracle, reference=reference,
        shape=adapter.describe(stream),
        timings={
            "oracle_s": oracle_done - built,
            "total_s": clock() - started,
        },
    )


def _cpu_seconds() -> tuple[float, float]:
    """``(this process, reaped children)`` user+sys CPU so far."""
    times = os.times()
    return times[0] + times[1], times[2] + times[3]


def status_mb(field_name: str) -> float:
    """A ``/proc/self/status`` memory line (``VmRSS``, ``VmHWM``) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _segments(chunks: list, size: int):
    for at in range(0, len(chunks), size):
        yield chunks[at:at + size]


def run_rep(prepared: Prepared, workdir: Path, tracer=None, hooks=None) -> Rep:
    """Play the workload once; returns timings, accounting and failures.

    ``tracer`` (trace mode) records spans only inside the measured wall.
    ``hooks`` may carry the probe points ``at_barrier(gateway)`` — the
    live gateway at its last flush barrier before the drain (before the
    crash on ``storm_durable``) — and ``after_abort(data_dir)``.
    A raised exception fails the rep (one failed op) instead of the run.
    """
    rep = Rep()
    gc.collect()
    gc.disable()
    try:
        for _ in range(prepared.spec.passes):
            _run_pass(prepared, workdir, rep, tracer, hooks or {})
    except Exception as exc:  # a failed rep is a counted failure
        rep.failures.append(f"rep raised {type(exc).__name__}: {exc}")
    finally:
        gc.enable()
    rep.ops += 1
    return rep


def _run_pass(prepared, workdir: Path, rep: Rep, tracer, hooks: dict) -> None:
    spec = prepared.spec
    clock = time.perf_counter
    cpu_clock = time.process_time
    chunks = prepared.chunks
    slice_cpu = aside_cpu = 0.0

    def trace(on: bool) -> None:
        if tracer is not None:
            tracer.enabled = on

    def slice_ms() -> float:
        """One reference slice, its CPU kept off the workload's account."""
        nonlocal slice_cpu
        before = cpu_clock()
        took = timed_slice()
        slice_cpu += cpu_clock() - before
        rep.ref_ms.append(took)
        return took

    def aside(action, *args):
        """Run work whose CPU (slices apart) is not the ingest path's."""
        nonlocal aside_cpu
        cpu_before, slices_before = cpu_clock(), slice_cpu
        result = action(*args)
        aside_cpu += (cpu_clock() - cpu_before) - (slice_cpu - slices_before)
        return result

    def open_target():
        if spec.durable:
            service = adapter.make_service(
                prepared.name, prepared.topology, prepared.rules, workdir,
            )
            return service, service.ingest, None
        gateway = adapter.make_gateway(
            prepared.name, prepared.topology, prepared.rules,
        )
        return gateway, gateway.ingest_batch, gateway.flush

    def crash_and_restore():
        """kill -9, then the timed restore: snapshot + journal tail."""
        nonlocal target, ingest, flush
        if "at_barrier" in hooks:
            hooks["at_barrier"](target.gateway)
        target.abort()
        if "after_abort" in hooks:
            hooks["after_abort"](workdir)
        target, ingest, flush = open_target()
        ref_before = slice_ms()
        started = clock()
        outcome = target.start()
        restore = clock() - started
        ref_after = slice_ms()
        rep.restore_s = normalise(restore, ref_before, ref_after)
        rep.replayed_events = target.replayed_events
        rep.ops += 1
        if outcome != "restored":
            rep.failures.append(f"restart came up {outcome!r}")
        return ref_after

    rss_before = status_mb("VmRSS")
    target, ingest, flush = open_target()
    try:
        if spec.durable:
            target.start()
            cut = int(len(chunks) * CRASH_AFTER)
            phases = [chunks[:cut], chunks[cut:]]
        else:
            phases = [chunks]
        own_before, children_before = _cpu_seconds()
        ref_prev = slice_ms()
        for phase_index, phase in enumerate(phases):
            if phase_index:
                ref_prev = aside(crash_and_restore)
            for segment in _segments(phase, spec.segment_chunks):
                samples = []
                trace(True)
                started = clock()
                for chunk in segment:
                    before = clock()
                    ingest(chunk)
                    samples.append(clock() - before)
                if flush is not None:
                    flush()
                took = clock() - started
                trace(False)
                ref_next = slice_ms()
                rep.wall_s += took
                rep.parts.append(normalise(took, ref_prev, ref_next))
                rep.flush_ms.extend(
                    normalise(sample * 1e3, ref_prev, ref_next)
                    for sample in samples
                )
                rep.ops += len(segment)
                ref_prev = ref_next
        if not rep.accounts:
            rep.rss_growth_mb = status_mb("VmRSS") - rss_before
        if not spec.durable:
            if "at_barrier" in hooks:
                aside(hooks["at_barrier"], target)
            rep.ring_spills += adapter.ring_spills(target)
        trace(True)
        started = clock()
        stats = target.stop(drain=True) if spec.durable else target.drain()
        took = clock() - started
    except BaseException:
        # Never leak worker processes or an open journal past a failure.
        if spec.durable:
            target.abort()
        else:
            target.close()
        raise
    finally:
        trace(False)
        shutil.rmtree(workdir, ignore_errors=True)
    own_after, children_after = _cpu_seconds()
    rep.cpu_s += (
        (own_after - own_before) + (children_after - children_before)
        - slice_cpu - aside_cpu
    )
    rep.child_cpu_s += children_after - children_before
    ref_next = slice_ms()
    rep.wall_s += took
    rep.parts.append(normalise(took, ref_prev, ref_next))
    rep.alerts += stats.input_alerts
    rep.accounts.append(adapter.accounting(stats, prepared.oracle))


def check_rep(prepared: Prepared, rep: Rep, first: Rep | None) -> None:
    """Parity checks of one rep; failures land in ``rep.failures``.

    Storm workloads reconcile with the batch oracle and repeat
    ``storm_serial``'s R4 verdict (across the kill and restore on
    ``storm_durable``); ``background_detect`` has no batch counterpart
    for its learned table, so its accounting and detection verdicts must
    repeat exactly from rep to rep and add up plane by plane.
    """
    oracle = prepared.oracle
    reference = prepared.reference
    if reference is None and first is not None and first.accounts:
        reference = first.accounts[0]
    expected_input = len(prepared.stream.alerts)
    for account in rep.accounts:
        checks = {"input": account["input_alerts"] == expected_input}
        if oracle is not None:
            checks["reconcile"] = account["mismatch"] == {}
        else:
            checks["planes_add_up"] = (
                account["plane_processed"] == account["input_alerts"]
                and account["plane_blocked"] == account["blocked_alerts"]
            )
        if reference is not None:
            keys = ("storm_episodes", "emerging_flags")
            if oracle is None:
                keys += ("blocked_alerts", "aggregates", "clusters", "detection")
            for key in keys:
                checks[f"same_{key}"] = account[key] == reference[key]
        rep.ops += len(checks)
        rep.failures.extend(
            f"check {name} failed: {account}" for name, ok in checks.items() if not ok
        )
