#!/usr/bin/env python
"""Pure-engine microbenchmarks: how fast does the simulator itself run?

Every FreeFlow experiment funnels through the discrete-event engine in
``repro.sim``, so engine overhead caps how large a cluster and how many
messages we can simulate.  This harness measures that overhead directly
(wall-clock, not simulated time):

* ``timeout_churn``  — events/sec through ``Environment.schedule``/``step``
  (processes re-arming timeouts in a tight loop);
* ``store_handoff``  — producer/consumer pairs/sec through a ``Store``;
* ``tank_churn``     — put/get pairs/sec through a ``Tank`` level;
* ``transport_*``    — end-to-end messages/sec through each data-plane
  mechanism (SHM, RDMA, DPDK, kernel-TCP fallback) with 4 KiB messages;
* ``peak_rss_kb``    — max resident set size of the whole run.

Each run without ``--no-write`` appends one line to
``BENCH_history.jsonl`` (see ``benchmarks/common.py``), so the perf
trajectory is tracked commit over commit::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke --no-write

``--smoke`` runs a reduced workload and asserts the timeout-churn rate
stays above ``--floor`` events/sec (used by CI as a perf regression trip
wire).
"""

from __future__ import annotations

from time import perf_counter

from repro.hardware import Fabric, Host
from repro.sim import Environment, Store, Tank
from repro.transports import (
    DpdkChannel,
    RdmaChannel,
    ShmChannel,
    TcpFallbackChannel,
)

from common import best_of, check_floor, finish, message_rate, peak_rss_kb, perf_parser


# -- engine microbenchmarks ------------------------------------------------


def bench_timeout_churn(n_procs: int, iters: int) -> dict:
    """Processes re-arming timeouts: the purest schedule/step hot loop."""
    env = Environment()

    def churner():
        for _ in range(iters):
            yield env.timeout(1e-6)

    for _ in range(n_procs):
        env.process(churner())
    events = n_procs * iters  # one timeout event per loop iteration
    start = perf_counter()
    env.run()
    wall = perf_counter() - start
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
    }


def bench_store_handoff(n_msgs: int) -> dict:
    """One producer, one consumer, unbounded store: handoffs/sec."""
    env = Environment()
    store = Store(env)

    def producer():
        for i in range(n_msgs):
            yield store.put(i)

    def consumer():
        for _ in range(n_msgs):
            yield store.get()

    env.process(producer())
    done = env.process(consumer())
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "handoffs": n_msgs,
        "wall_s": wall,
        "handoffs_per_sec": n_msgs / wall,
    }


def bench_tank_churn(n_ops: int) -> dict:
    """Alternating put/get on a Tank level: ops/sec (one op = put+get)."""
    env = Environment()
    tank = Tank(env, capacity=100.0)

    def churner():
        for _ in range(n_ops):
            yield tank.put(1.0)
            yield tank.get(1.0)

    done = env.process(churner())
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "ops": n_ops,
        "wall_s": wall,
        "ops_per_sec": n_ops / wall,
    }


# -- transport message-rate benchmarks -------------------------------------


def _pair(channel_type):
    def build(env):
        fabric = Fabric(env)
        return channel_type(Host(env, "h1", fabric=fabric),
                            Host(env, "h2", fabric=fabric))

    return build


#: result key -> channel builder for a fresh environment.
TRANSPORTS = {
    "transport_shm": lambda env: ShmChannel(Host(env, "h1",
                                                 fabric=Fabric(env))),
    "transport_rdma": _pair(RdmaChannel),
    "transport_dpdk": _pair(DpdkChannel),
    "transport_tcp": _pair(TcpFallbackChannel),
}


def bench_transport(build, n_msgs: int, msg_bytes: int = 4096) -> dict:
    env = Environment()
    return message_rate(env, build(env), n_msgs, msg_bytes)


# -- harness ---------------------------------------------------------------


def run_suite(smoke: bool, repeats: int = 3) -> dict:
    scale = 0.1 if smoke else 1.0
    results = {}
    results.update(best_of(
        repeats, "events_per_sec",
        timeout_churn=lambda: bench_timeout_churn(
            n_procs=64, iters=max(200, int(3000 * scale))),
    ))
    results.update(best_of(
        repeats, "handoffs_per_sec",
        store_handoff=lambda: bench_store_handoff(
            max(5_000, int(100_000 * scale))),
    ))
    results.update(best_of(
        repeats, "ops_per_sec",
        tank_churn=lambda: bench_tank_churn(max(5_000, int(60_000 * scale))),
    ))
    n_msgs = max(1_000, int(15_000 * scale))
    results.update(best_of(
        1 if smoke else 2, "messages_per_sec",
        **{name: lambda build=build: bench_transport(build, n_msgs)
           for name, build in TRANSPORTS.items()},
    ))
    return results


def main(argv=None) -> int:
    parser = perf_parser(
        __doc__.splitlines()[0],
        "reduced workload + assert events/sec floor (CI trip wire)",
        floor=100_000.0,
        floor_help="minimum acceptable timeout-churn events/sec in "
                   "--smoke mode",
        repeats=True,
    )
    args = parser.parse_args(argv)

    results = run_suite(smoke=args.smoke, repeats=args.repeats)
    results["peak_rss_kb"] = peak_rss_kb()

    print(f"engine benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  timeout churn   {results['timeout_churn']['events_per_sec']:>12,.0f} events/s")
    print(f"  store handoff   {results['store_handoff']['handoffs_per_sec']:>12,.0f} handoffs/s")
    print(f"  tank churn      {results['tank_churn']['ops_per_sec']:>12,.0f} ops/s")
    for name in TRANSPORTS:
        print(f"  {name:<15} {results[name]['messages_per_sec']:>12,.0f} msgs/s")
    print(f"  peak RSS        {results['peak_rss_kb']:>12,} KiB")

    failures = []
    if args.smoke:
        check_floor(failures, "timeout churn",
                    results["timeout_churn"]["events_per_sec"], args.floor,
                    "events/s")
    return finish(args, "engine", results, failures)


if __name__ == "__main__":
    raise SystemExit(main())
