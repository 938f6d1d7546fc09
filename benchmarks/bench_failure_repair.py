#!/usr/bin/env python
"""Failure/repair benchmark: host death to healed flows, reconciler-only.

Each cycle kills the host carrying the server containers with a bare
``cluster.fail_host`` (only the cluster KV learns about it), lets the
reconciler's host-liveness watch break the affected flows, then submits
replacement containers on a surviving host.  The reconciler's container
watch auto-repairs every broken flow; the bench then proves the healed
channels carry traffic and measures:

* ``break_sim_s``  — simulated failure-to-all-BROKEN latency;
* ``repair_sim_s`` — simulated replacement-attach-to-all-ACTIVE latency;
* ``cycles_per_sec`` — wall-clock failure/repair throughput;
* post-repair probe conservation (every probe delivered; must be 100%).

Each run without ``--no-write`` appends one line to ``BENCH_history.jsonl``::

    PYTHONPATH=src python benchmarks/bench_failure_repair.py
    PYTHONPATH=src python benchmarks/bench_failure_repair.py --smoke --no-write

``--smoke`` runs a reduced workload and exits non-zero on any lost probe
or unhealed flow (CI trip wire).
"""

from __future__ import annotations

from time import perf_counter

from repro import ContainerSpec, quickstart_cluster
from repro.core import FlowState

from common import finish, perf_parser


def run_cycles(flows_n: int, cycles: int, probes: int = 5) -> dict:
    env, cluster, network = quickstart_cluster(hosts=3)
    network.reconciler.start()

    flows = []

    def wire():
        for i in range(flows_n):
            web = cluster.submit(ContainerSpec(f"web{i}",
                                               pinned_host="host0"))
            srv = cluster.submit(ContainerSpec(f"srv{i}",
                                               pinned_host="host1"))
            network.attach(web)
            network.attach(srv)
            conn = yield from network.connect_containers(f"web{i}",
                                                         f"srv{i}")
            flows.append(conn)

    env.run(until=env.process(wire()))

    break_sim_s = []
    repair_sim_s = []
    probe_stats = {"sent": 0, "received": 0}

    def scenario():
        victim, target = "host1", "host2"
        for _ in range(cycles):
            started = env.now
            cluster.fail_host(victim)  # nobody calls handle_host_failure
            yield from network.reconciler.wait_settled()
            assert all(f.state is FlowState.BROKEN for f in flows)
            break_sim_s.append(env.now - started)

            started = env.now
            for i in range(flows_n):
                replacement = cluster.submit(
                    ContainerSpec(f"srv{i}", pinned_host=target)
                )
                network.attach(replacement)
            yield from network.reconciler.wait_settled()
            repair_sim_s.append(env.now - started)

            for flow in flows:
                for _ in range(probes):
                    yield from flow.a.send(4096)
                    probe_stats["sent"] += 1
                    yield from flow.b.recv()
                    probe_stats["received"] += 1

            cluster.recover_host(victim)
            victim, target = target, victim

    wall_start = perf_counter()
    env.run(until=env.process(scenario()))
    wall = perf_counter() - wall_start

    unhealed = [
        flow.flow_id for flow in flows
        if flow.state is not FlowState.ACTIVE
    ]
    return {
        "flows": flows_n,
        "cycles": cycles,
        "break_sim_mean_s": sum(break_sim_s) / len(break_sim_s),
        "repair_sim_mean_s": sum(repair_sim_s) / len(repair_sim_s),
        "repair_sim_max_s": max(repair_sim_s),
        "cycles_per_sec": cycles / wall,
        "wall_s": wall,
        "repairs": network.reconciler.repairs,
        "failures_handled": network.reconciler.failures_handled,
        "probes_sent": probe_stats["sent"],
        "probes_lost": probe_stats["sent"] - probe_stats["received"],
        "flows_unhealed": unhealed,
    }


def main(argv=None) -> int:
    parser = perf_parser(__doc__.splitlines()[0],
                         "reduced workload + hard conservation check")
    parser.add_argument("--flows", type=int, default=None,
                        help="flows per cycle (default 6; 3 smoke)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="failure/repair cycles (default 20; 4 smoke)")
    args = parser.parse_args(argv)

    flows_n = args.flows or (3 if args.smoke else 6)
    cycles = args.cycles or (4 if args.smoke else 20)
    results = run_cycles(flows_n=flows_n, cycles=cycles)

    print(f"failure/repair benchmark "
          f"({'smoke' if args.smoke else 'full'} mode)")
    print(f"  flows / cycles      {results['flows']} / {results['cycles']}")
    print(f"  break latency       {results['break_sim_mean_s'] * 1e6:,.1f} us mean (sim)")
    print(f"  repair latency      mean {results['repair_sim_mean_s'] * 1e6:,.1f} us"
          f"  max {results['repair_sim_max_s'] * 1e6:,.1f} us (sim)")
    print(f"  throughput          {results['cycles_per_sec']:,.1f} cycles/s (wall)")
    print(f"  reconciler          {results['failures_handled']} failures, "
          f"{results['repairs']} repairs")
    print(f"  probes              {results['probes_sent']:,} sent, "
          f"{results['probes_lost']} lost")

    failures = []
    if results["probes_lost"]:
        failures.append(f"{results['probes_lost']} probes lost post-repair")
    if results["flows_unhealed"]:
        failures.append(f"flows unhealed: {results['flows_unhealed']}")
    expected = flows_n * cycles
    if results["repairs"] != expected:
        failures.append(
            f"{results['repairs']} repairs, expected {expected}"
        )
    if not failures:
        print("  all flows healed by the reconciler; zero probes lost")
    return finish(args, "failure_repair", results, failures)


if __name__ == "__main__":
    raise SystemExit(main())
