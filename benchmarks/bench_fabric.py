#!/usr/bin/env python
"""Multi-path fabric benchmark: ECMP vs flowlet load balancing (§16).

Drives an elephant/mice mix across a k=4 fat-tree whose inter-pod
traffic has (k/2)^2 = 4 equal-cost core paths:

* **elephants** — four bursty bulk flows, one per pod-0 host, all into
  pod 1.  Their flow labels are *searched* so that static ECMP hashes
  every one of them onto the same agg-core link (the pathological
  collision every hash-based scheme has); the inter-burst idle gap
  exceeds the flowlet threshold, so flowlet mode re-rolls the path at
  every burst boundary and spreads the same traffic over all four
  core paths.
* **mice** — short request/response-sized messages riding the same
  pods, each a fresh flow.  Under the ECMP collision they queue behind
  the elephants on the hot link; with flowlets they mostly dodge it.

Both modes run the identical schedule (same sim, same bytes, seedless —
every decision is a sha256 hash), so the comparison is exact.  The
bench reports aggregate goodput, the elephant/mice split, mouse
delivery latency, per-core-link byte spread, and the flowlet
re-hash/reorder counters.  The headline gate: flowlet goodput must beat
the colliding ECMP baseline by >= 1.3x with **zero** intra-flowlet
reorders observed (the tracer checks every delivery).

Each run without ``--no-write`` appends one line to ``BENCH_history.jsonl``::

    PYTHONPATH=src python benchmarks/bench_fabric.py
    PYTHONPATH=src python benchmarks/bench_fabric.py --smoke --no-write

``--smoke`` shortens the run for CI while keeping the same gates.
"""

from __future__ import annotations

from repro.hardware import FatTreeFabric, PhysicalNic
from repro.sim import Environment

from common import check_floor, finish, perf_parser

#: Elephant burst shape: ``BURST_MSGS`` back-to-back wire messages, then
#: an idle gap longer than the 200 us flowlet threshold, repeated.
MSG_BYTES = 64 * 1024
BURST_MSGS = 16
BURST_GAP_S = 300e-6

MOUSE_BYTES = 2048
MOUSE_INTERVAL_S = 25e-6

#: pod0 -> pod1 host attachment ports (k=4: ports 0-3 are pod 0).
ELEPHANT_PAIRS = ((0, 4), (1, 5), (2, 6), (3, 7))
MOUSE_PAIRS = ((0, 6), (2, 4))


def build_fabric(flowlet: bool):
    env = Environment()
    fabric = FatTreeFabric(
        env, k=4,
        flowlet_gap_s=None if flowlet else float("inf"),
    )
    nics = [PhysicalNic(env) for _ in range(8)]
    for nic in nics:
        fabric.attach(nic)
    return env, fabric, nics


def colliding_labels(fabric, nics) -> list[int]:
    """Flow labels that static ECMP all hashes onto one agg-core link.

    Pure hash search (no randomness): for each elephant pair, walk
    integer labels until the selected path's agg-core hop matches the
    first elephant's.  The same labels are used in both modes, so the
    flowlet run starts from the identical worst case.
    """
    selector = fabric.selector
    target = None
    labels = []
    for src_port, dst_port in ELEPHANT_PAIRS:
        src_edge = fabric.topology.edge_for_port(src_port)
        dst_edge = fabric.topology.edge_for_port(dst_port)
        for label in range(10_000):
            key = (src_port, dst_port, label)
            path = selector._compute_path(key, 0, src_edge, dst_edge)
            hot = next(hop for hop in path if hop.tier == "agg-core")
            if target is None or hot is target:
                target = hot
                labels.append(label)
                break
        else:  # pragma: no cover - sha256 would have to be pathological
            raise RuntimeError("no colliding label found in 10k tries")
    # The search itself touched assignment counters; reset for the run.
    for link in fabric.topology.links():
        link.assignments = 0
    selector.reset()
    return labels


def run_mode(flowlet: bool, duration_s: float) -> dict:
    env, fabric, nics = build_fabric(flowlet)
    labels = colliding_labels(fabric, nics)
    delivered = {"elephant": 0, "mouse": 0}
    mouse_latencies: list[float] = []

    def elephant(src, dst, label):
        while env.now < duration_s:
            for _ in range(BURST_MSGS):
                yield from fabric.send(
                    src, dst, MSG_BYTES,
                    lambda: delivered.__setitem__(
                        "elephant", delivered["elephant"] + MSG_BYTES
                    ),
                    flow=label,
                )
            yield env.timeout(BURST_GAP_S)

    def mice(src, dst, base):
        mouse = 0
        while env.now < duration_s:
            sent_at = env.now

            def land(sent_at=sent_at):
                delivered["mouse"] += MOUSE_BYTES
                # Bounded by the mouse send schedule (one per interval).
                mouse_latencies.append(  # simlint: disable=SIM004
                    env.now - sent_at
                )

            yield from fabric.send(
                src, dst, MOUSE_BYTES, land, flow=("mouse", base, mouse)
            )
            mouse += 1
            yield env.timeout(MOUSE_INTERVAL_S)

    for (src_port, dst_port), label in zip(ELEPHANT_PAIRS, labels):
        env.process(elephant(nics[src_port], nics[dst_port], label))
    for base, (src_port, dst_port) in enumerate(MOUSE_PAIRS):
        env.process(mice(nics[src_port], nics[dst_port], base))

    def clock():
        yield env.timeout(duration_s)

    env.run(until=env.process(clock()))
    total = delivered["elephant"] + delivered["mouse"]
    core_bytes = sorted(
        link.pipe.bytes_moved for link in fabric.topology.links()
        if link.tier == "agg-core" and link.src.kind == "agg"
        and link.src.pod == 0
    )
    latencies = sorted(mouse_latencies)
    return {
        "mode": "flowlet" if flowlet else "ecmp",
        "duration_s": duration_s,
        "goodput_gbps": total * 8 / duration_s / 1e9,
        "elephant_gbps": delivered["elephant"] * 8 / duration_s / 1e9,
        "mouse_gbps": delivered["mouse"] * 8 / duration_s / 1e9,
        "mice_delivered": len(mouse_latencies),
        "mouse_latency_mean_us": (
            sum(latencies) / len(latencies) * 1e6 if latencies else 0.0
        ),
        "mouse_latency_p99_us": (
            latencies[int(0.99 * (len(latencies) - 1))] * 1e6
            if latencies else 0.0
        ),
        "core_uplink_bytes": core_bytes,
        "core_spread": (
            core_bytes[-1] / core_bytes[0] if core_bytes[0] else float("inf")
        ),
        "flowlet_rehashes": fabric.selector.rehashes,
        "reorders": fabric.reorders(),
        "deliveries_checked": fabric.tracer.checked,
    }


def main(argv=None) -> int:
    parser = perf_parser(__doc__.splitlines()[0],
                         "short run (same gates) for CI")
    parser.add_argument("--duration", type=float, default=None,
                        help="sim seconds per mode (default 0.02, smoke "
                             "0.005)")
    parser.add_argument("--ratio-floor", type=float, default=1.3,
                        help="minimum flowlet/ecmp goodput ratio")
    args = parser.parse_args(argv)
    duration = args.duration or (0.005 if args.smoke else 0.02)

    ecmp = run_mode(flowlet=False, duration_s=duration)
    flowlet = run_mode(flowlet=True, duration_s=duration)
    ratio = flowlet["goodput_gbps"] / ecmp["goodput_gbps"]
    results = {
        "workload": {
            "k": 4,
            "elephants": len(ELEPHANT_PAIRS),
            "burst_bytes": BURST_MSGS * MSG_BYTES,
            "burst_gap_s": BURST_GAP_S,
            "mice_pairs": len(MOUSE_PAIRS),
            "mouse_bytes": MOUSE_BYTES,
        },
        "ecmp": ecmp,
        "flowlet": flowlet,
        "flowlet_over_ecmp": ratio,
    }

    print(f"fabric benchmark ({'smoke' if args.smoke else 'full'} mode, "
          f"{duration * 1e3:.0f} ms sim per mode)")
    for result in (ecmp, flowlet):
        print(f"  {result['mode']:8s} {result['goodput_gbps']:6.1f} Gb/s "
              f"aggregate ({result['elephant_gbps']:.1f} elephant + "
              f"{result['mouse_gbps']:.2f} mice), mouse p99 "
              f"{result['mouse_latency_p99_us']:.0f} us, core spread "
              f"{result['core_spread']:.1f}x, "
              f"{result['flowlet_rehashes']} rehashes, "
              f"{result['reorders']} reorders")

    failed = []
    check_floor(failed, "flowlet/ecmp goodput ratio", ratio,
                args.ratio_floor, "x", fmt=".2f")
    for result in (ecmp, flowlet):
        if result["reorders"]:
            failed.append(f"{result['mode']}: {result['reorders']} "
                          f"intra-flowlet reorder(s) observed")
    if not flowlet["flowlet_rehashes"]:
        failed.append("flowlet mode never re-hashed — the workload "
                      "exercised nothing")
    if not failed:
        print("PASS: flowlet beats colliding ECMP with zero reorders")
    return finish(args, "fabric", results, failed)


if __name__ == "__main__":
    raise SystemExit(main())
