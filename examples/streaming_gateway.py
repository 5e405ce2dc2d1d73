#!/usr/bin/env python3
"""Live multi-region alert-storm mitigation through region-partitioned planes.

Replays the paper's representative 7:00-11:59 storm (Figure 3) hitting
TWO regions at once into the :class:`AlertGateway` as a simulated live
feed: a periodic process on the discrete-event kernel tails the merged
alert stream every simulated minute, the gateway routes each region to
its own execution plane (R1-R4 run plane-locally, off the gateway loop),
and every 30 simulated minutes we print the rolling volume-reduction
numbers an operator dashboard would show.  At the end, the merged
accounting is reconciled against the batch :class:`MitigationPipeline`
— and each plane's accounting against a batch run over just its
regions' alerts — same counts, computed one event at a time with
bounded memory.

Run:  python examples/streaming_gateway.py
"""

from repro import generate_topology
from repro.core.mitigation import MitigationPipeline
from repro.core.mitigation.correlation import rulebook_from_ground_truth
from repro.sim import SimulationEngine
from repro.streaming import AlertGateway, drive_gateway
from repro.workload import build_multi_region_storm
from repro.workload.storms import StormConfig

REGIONS = ("region-A", "region-B")


def main() -> None:
    topology = generate_topology()
    config = StormConfig()
    storm = build_multi_region_storm(config, topology, regions=REGIONS)

    rulebook = rulebook_from_ground_truth(storm, coverage=0.6, seed=storm.seed)
    blocker = MitigationPipeline.derive_blocker(storm)
    gateway = AlertGateway(
        topology.graph, blocker=blocker, rulebook=rulebook,
        n_planes=len(REGIONS),
    )

    # --- live ingestion on the simulation kernel ------------------------
    print(f"streaming {len(storm)} storm alerts from {len(REGIONS)} regions "
          f"through {gateway.n_planes} planes...\n")
    print(f"{'sim clock':>9}  {'in':>6}  {'blocked':>7}  {'groups':>6}  "
          f"{'clusters':>8}  {'storms':>6}  {'reduction':>9}")

    report_every = 1800.0  # one dashboard row per simulated half hour
    next_report = [config.window.start + report_every]

    def dashboard(gw: AlertGateway, now: float, batch: int) -> None:
        if now < next_report[0] or gw.stats.input_alerts == 0:
            return
        next_report[0] += report_every
        gw.flush()  # a barrier: every plane row in gw.stats is current
        stats = gw.stats
        # Rolling reduction: finished clusters plus every item still
        # forming (open R2 sessions, open R3 components).
        forming = sum(
            plane["open_sessions"] + plane["active_components"]
            for plane in stats.planes.values()
        )
        reduction = 1.0 - (stats.clusters_finalized + forming) / stats.input_alerts
        clock = f"{int(now // 3600) % 24:02d}:{int(now % 3600) // 60:02d}"
        print(f"{clock:>9}  {stats.input_alerts:>6,}  "
              f"{stats.blocked_alerts:>7,}  {stats.aggregates_emitted:>6,}  "
              f"{stats.clusters_finalized:>8,}  {stats.storm_episodes:>6}  "
              f"{reduction:>9.1%}")

    engine = SimulationEngine(start_time=config.window.start)
    drive_gateway(engine, gateway, storm.iter_ordered(), interval=60.0,
                  on_batch=dashboard)
    engine.run_until(config.window.end + 3600.0)
    stats = gateway.drain()

    # --- end-of-storm accounting ----------------------------------------
    print(f"\n{stats.render()}")

    batch_report = MitigationPipeline(topology.graph, rulebook=rulebook).run(
        storm, blocker=blocker,
    )
    mismatches = stats.reconcile(batch_report)
    if mismatches:
        print(f"\nreconciliation FAILED: {mismatches}")
        return
    print("\nreconciliation: the online gateway reproduced the batch "
          "pipeline's volume accounting exactly, one event at a time")

    # --- per-region (= per-plane) reconciliation ------------------------
    # Each plane owns whole regions, so its accounting must equal a batch
    # pipeline run over just those regions' alerts.
    print("\nper-region reconciliation (plane vs batch pipeline on that "
          "region's alerts):")
    for plane_id, plane in sorted(stats.planes.items()):
        regions = tuple(plane["regions"])
        regional = storm.filter(
            lambda a, keep=frozenset(regions): a.region in keep,
            label=f"plane-{plane_id}",
        )
        regional_report = MitigationPipeline(
            topology.graph, rulebook=rulebook,
        ).run(regional, blocker=blocker)
        pairs = [
            ("in", plane["processed"], regional_report.input_alerts),
            ("blocked", plane["blocked"], regional_report.blocked_alerts),
            ("groups", plane["aggregates"], len(regional_report.aggregates)),
            ("clusters", plane["clusters"], len(regional_report.clusters)),
        ]
        status = "exact" if all(a == b for _, a, b in pairs) else "MISMATCH"
        detail = "  ".join(f"{name} {a:,}" for name, a, _ in pairs)
        print(f"  plane {plane_id} [{','.join(regions)}]: {detail}  -> {status}")


if __name__ == "__main__":
    main()
