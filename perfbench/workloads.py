"""The benchmark's three workloads, driven through public entry points.

Each workload is a function ``(seed, probe, **size) -> dict`` that builds
its testbed, runs a fixed amount of work and checks the outputs.  All
inputs come from a :class:`~repro.sim.rand.RandomStream` seeded with
``seed``, so one seed always gives the same inputs and the same sim
results.  The workload drops host-clock marks on ``probe`` at its phase
boundaries:

* ``connect`` / ``connected`` bracket opening the flows;
* ``setup`` is the first measured operation;
* ``measured`` ends the measured phase.

The returned dict holds ``ops`` (operations finished in the measured
phase), ``flows`` (flows opened), ``attempted`` and ``failures`` (one
string per failed check), ``sim`` (sim-time metrics, exact for a seed),
``samples`` (latency sample count) and ``layer`` (per-layer readings
taken from the simulator's own public state).
"""

from __future__ import annotations

from repro import ClusterOrchestrator, ContainerSpec, quickstart_cluster
from repro.baselines import OverlayModeNetwork
from repro.cluster import RackAwareStrategy
from repro.core import FreeFlowNetwork, SocketLayer
from repro.core.flows import FlowState
from repro.hardware import Fabric, Host
from repro.sim import Environment, Series, Store, Tank
from repro.sim.rand import RandomStream
from repro.telemetry.registry import host_utilisation

MIB = 1 << 20


def _latency(sim: dict, samples: Series) -> None:
    sim["sim_latency_p50_us"] = samples.percentile(50) * 1e6
    sim["sim_latency_p99_us"] = samples.percentile(99) * 1e6


# -- rpc-small ----------------------------------------------------------------

#: Request and response size (bytes): the small-message band TSoR targets.
RPC_BYTES = 64
#: Requests the client keeps outstanding (closed loop).
RPC_WINDOW = 128
#: Round trips per round.
RPC_COUNT = 8000
#: Mean of the client's seeded exponential think time before a finished
#: slot issues its next request; small against the ~24 us round trip, so
#: the transport stays the bottleneck.
RPC_THINK_S = 2e-6


def rpc_small(seed: int, probe, rpcs: int = RPC_COUNT,
              window: int = RPC_WINDOW) -> dict:
    """Windowed echo RPC over one cross-host streaming socket (RDMA)."""
    rng = RandomStream(seed, "perfbench.rpc-small")
    tags = [rng.randrange(1 << 32) for _ in range(rpcs)]
    think = [rng.expovariate(1.0 / RPC_THINK_S) for _ in range(rpcs)]

    env, cluster, network = quickstart_cluster(hosts=2)
    client = cluster.submit(ContainerSpec("client", pinned_host="host0"))
    server = cluster.submit(ContainerSpec("server", pinned_host="host1"))
    network.attach(client)
    network.attach(server)
    layer = SocketLayer(network)
    listener = layer.listen(server, 7000)
    counts = {"server_rx": 0, "server_tx": 0, "client_rx": 0,
              "answered": 0, "mismatched": 0}

    def serve():
        sock = yield from listener.accept()
        pending = Store(env)

        def rx():
            while True:
                nbytes, payload = yield from sock.recv_exactly(RPC_BYTES)
                counts["server_rx"] += nbytes
                yield pending.put(payload)

        def tx():
            while True:
                payload = yield pending.get()
                counts["server_tx"] += yield from sock.send(RPC_BYTES,
                                                            payload)

        env.process(rx())
        env.process(tx())

    env.process(serve())

    def connect():
        sock = layer.socket(client)
        decision = yield from sock.connect(server.ip, 7000)
        return sock, decision

    probe.mark("connect", env)
    sock, decision = env.run(until=env.process(connect()))
    probe.mark("connected", env)

    tokens = Tank(env, capacity=window, initial=window)
    sent_at = [0.0] * rpcs
    rtts = Series()
    done = env.event()

    def release(_event):
        tokens.put(1)

    def client_tx():
        for i in range(rpcs):
            yield tokens.get(1)
            sent_at[i] = env.now
            yield from sock.send(RPC_BYTES, (i, tags[i]))

    def client_rx():
        for i in range(rpcs):
            nbytes, payload = yield from sock.recv_exactly(RPC_BYTES)
            counts["client_rx"] += nbytes
            counts["answered"] += 1
            if payload != (i, tags[i]):
                counts["mismatched"] += 1
            rtts.add(env.now - sent_at[i])
            env.timeout(think[i]).callbacks.append(release)
        done.succeed()

    for host in cluster.hosts:
        host.reset_accounting()
    probe.mark("setup", env)
    start = env.now
    env.process(client_rx())
    env.process(client_tx())
    env.run(until=done)
    elapsed = env.now - start
    probe.mark("measured", env)
    cpu_pct = sum(host_utilisation(h)["cpu_pct"] for h in cluster.hosts)
    # Let the last responses' credit updates land before checking.
    env.run(until=env.now + 5e-5)

    failures = []
    if decision.mechanism.value != "rdma":
        failures.append(f"policy picked {decision.mechanism.value}, not rdma")
    if counts["answered"] != rpcs:
        failures.append(f"{rpcs - counts['answered']} RPCs unanswered")
    if counts["mismatched"]:
        failures.append(f"{counts['mismatched']} responses out of order "
                        "or corrupted")
    expect = rpcs * RPC_BYTES
    for key in ("server_rx", "server_tx", "client_rx"):
        if counts[key] != expect:
            failures.append(f"{key} moved {counts[key]} bytes, "
                            f"expected {expect}")

    gbps = 2 * expect * 8 / elapsed / 1e9
    sim = {
        "sim_ops_per_s": rpcs / elapsed,
        "sim_goodput_gbps": gbps,
        "sim_cpu_pct_per_gbps": cpu_pct / gbps,
    }
    _latency(sim, rtts)
    return {
        "ops": rpcs,
        "flows": 1,
        "attempted": rpcs,
        "failures": failures,
        "sim": sim,
        "samples": len(rtts),
        "layer": {"transports.rdma.sim_gbps": gbps},
    }


# -- bulk-mix -----------------------------------------------------------------

#: Elephant pairs on the k=4 fat-tree: (kind, sender host, receiver host).
#: RDMA and cross-tenant TCP pairs cross pods (hosts 0-3 are pod 0, ...);
#: overlay pairs cross pods through the per-host routers; shm pairs stay
#: on one host.  Every kind has two pairs.
BULK_PLAN = (
    ("rdma", 0, 8), ("rdma", 4, 12),
    ("tcp", 1, 13), ("tcp", 5, 9),
    ("overlay", 2, 10), ("overlay", 6, 14),
    ("shm", 3, 3), ("shm", 11, 11),
)
#: The paper's order of per-pair elephant goodput.
GOODPUT_ORDER = ("shm", "rdma", "tcp", "overlay")
#: Elephant message size and per-pair window (closed loop).
ELEPHANT_BYTES = MIB
ELEPHANT_WINDOW = 2
#: Mouse size and Poisson arrival rate over all pairs (open loop, sim s).
MOUSE_BYTES = 4096
MICE_PER_S = 200_000.0
#: Sim seconds of offered traffic per round.
BULK_SIM_S = 0.025
#: Sim-time limit for draining in-flight messages after offering stops.
BULK_DRAIN_LIMIT_S = 1.0


def bulk_mix(seed: int, probe, sim_s: float = BULK_SIM_S) -> dict:
    """Elephants and Poisson mice over shm, RDMA, TCP and overlay pairs."""
    env, cluster, network = quickstart_cluster(hosts=16, fat_tree_k=4)
    fabric = cluster.hosts[0].fabric
    overlay = OverlayModeNetwork(env)
    pending = []
    for index, (kind, src_host, dst_host) in enumerate(BULK_PLAN):
        src = cluster.submit(ContainerSpec(
            f"p{index}a", tenant="blue", pinned_host=f"host{src_host}"))
        dst = cluster.submit(ContainerSpec(
            f"p{index}b", tenant="green" if kind == "tcp" else "blue",
            pinned_host=f"host{dst_host}"))
        pending.append((kind, src, dst))

    pairs = []

    def connect():
        for kind, src, dst in pending:
            if kind == "overlay":
                conn = overlay.connect(src, dst)
                pairs.append((kind, conn.mode.value, conn.a, conn.b))
                continue
            network.attach(src)
            network.attach(dst)
            flow = yield from network.connect_containers(src.name, dst.name)
            pairs.append((kind, flow.mechanism.value, flow.a, flow.b))

    probe.mark("connect", env)
    env.run(until=env.process(connect()))
    probe.mark("connected", env)

    rng = RandomStream(seed, "perfbench.bulk-mix")
    start = env.now
    stop = start + sim_s
    # Open-loop arrivals, drawn up front: (time, pair, direction).
    arrivals = []
    when = start + rng.expovariate(MICE_PER_S)
    while when < stop:
        arrivals.append((when, rng.randrange(len(pairs)), rng.randrange(2)))
        when += rng.expovariate(MICE_PER_S)

    sent = [[0, 0] for _ in pairs]          # messages offered, a->b / b->a
    got = [[0, 0] for _ in pairs]           # messages delivered
    sent_bytes = [[0, 0] for _ in pairs]
    got_bytes = [[0, 0] for _ in pairs]
    elephant_bytes = [0] * len(pairs)       # delivered before ``stop``
    in_window = {"messages": 0, "bytes": 0}
    mouse_lat = Series()
    # Elephants reaching the receiver out of send order.  Reported, not
    # gated: the fat-tree lets a new flowlet overtake an older one still
    # queued on a congested path, and the transports above do not
    # reorder; FlowletTracer checks order only within one flowlet.
    disorder = [0]

    def receiver(index, direction, end, tokens):
        expect_seq = 0
        while True:
            message = yield from end.recv()
            tag = message.payload
            got[index][direction] += 1
            got_bytes[index][direction] += message.size_bytes
            if env.now <= stop:
                in_window["messages"] += 1
                in_window["bytes"] += message.size_bytes
            if tag[0] == "m":
                mouse_lat.add(env.now - tag[1])
                continue
            if tag[1] != expect_seq:
                disorder[0] += 1
            expect_seq = tag[1] + 1
            if env.now <= stop:
                elephant_bytes[index] += message.size_bytes
            yield tokens.put(1)

    def elephant(index, end, tokens):
        seq = 0
        while env.now < stop:
            yield tokens.get(1)
            sent[index][0] += 1
            sent_bytes[index][0] += ELEPHANT_BYTES
            yield from end.send(ELEPHANT_BYTES, ("e", seq))
            seq += 1

    def mouse(end, due):
        yield from end.send(MOUSE_BYTES, ("m", due))

    def mice():
        for due, index, direction in arrivals:
            yield env.timeout(due - env.now)
            end = pairs[index][2 + direction]
            sent[index][direction] += 1
            sent_bytes[index][direction] += MOUSE_BYTES
            env.process(mouse(end, due))

    for host in cluster.hosts:
        host.reset_accounting()
    probe.mark("setup", env)
    for index, (_kind, _mech, end_a, end_b) in enumerate(pairs):
        tokens = Tank(env, capacity=ELEPHANT_WINDOW, initial=ELEPHANT_WINDOW)
        env.process(receiver(index, 0, end_b, tokens))
        env.process(receiver(index, 1, end_a, None))
        env.process(elephant(index, end_a, tokens))
    env.process(mice())
    env.run(until=stop)
    cpu_pct = sum(host_utilisation(h)["cpu_pct"] for h in cluster.hosts)
    core = [link.utilisation() for link in fabric.topology.links()
            if link.tier == "agg-core"]
    max_link = max(fabric.topology.link_utilisation().values())

    def drain():
        deadline = env.now + BULK_DRAIN_LIMIT_S
        while got != sent and env.now < deadline:
            yield env.timeout(1e-4)

    env.run(until=env.process(drain()))
    probe.mark("measured", env)

    failures = []
    kinds_seen = {}
    for kind, mechanism, _a, _b in pairs:
        if mechanism != kind:
            failures.append(f"{kind} pair got mechanism {mechanism}")
        kinds_seen[kind] = kinds_seen.get(kind, 0) + 1
    for kind in GOODPUT_ORDER:
        if kinds_seen.get(kind, 0) != 2:
            failures.append(f"planned 2 {kind} pairs, have "
                            f"{kinds_seen.get(kind, 0)}")
    for index in range(len(pairs)):
        for direction in (0, 1):
            if (got[index][direction] != sent[index][direction]
                    or got_bytes[index][direction]
                    != sent_bytes[index][direction]):
                failures.append(
                    f"pair {index} direction {direction}: delivered "
                    f"{got[index][direction]}/{got_bytes[index][direction]}B"
                    f" of {sent[index][direction]}/"
                    f"{sent_bytes[index][direction]}B")
    reorders = fabric.reorders()
    if reorders:
        failures.append(f"{reorders} fabric reorders")
    per_pair = {kind: [] for kind in GOODPUT_ORDER}
    for index, (kind, _m, _a, _b) in enumerate(pairs):
        per_pair[kind].append(elephant_bytes[index] * 8 / sim_s / 1e9)
    for faster, slower in zip(GOODPUT_ORDER, GOODPUT_ORDER[1:]):
        if not min(per_pair[faster]) > max(per_pair[slower]):
            failures.append(
                f"elephant goodput order broken: {faster} "
                f"{min(per_pair[faster]):.2f} <= {slower} "
                f"{max(per_pair[slower]):.2f} Gb/s")

    attempted = sum(map(sum, sent)) + 2
    gbps = in_window["bytes"] * 8 / sim_s / 1e9
    sim = {
        "sim_ops_per_s": in_window["messages"] / sim_s,
        "sim_goodput_gbps": gbps,
        "sim_cpu_pct_per_gbps": cpu_pct / gbps,
    }
    _latency(sim, mouse_lat)

    def mean(values):
        return sum(values) / len(values)

    return {
        "ops": sum(map(sum, got)),
        "flows": len(pairs),
        "attempted": attempted,
        "failures": failures,
        "sim": sim,
        "samples": len(mouse_lat),
        "layer": {
            "netstack.reorders": reorders,
            "transports.out_of_order": disorder[0],
            "netstack.flowlet_rehashes": fabric.selector.rehashes,
            "netstack.tcp_sim_gbps": mean(per_pair["tcp"]),
            "netstack.overlay_sim_gbps": mean(per_pair["overlay"]),
            "transports.shm.sim_gbps": mean(per_pair["shm"]),
            "transports.rdma.sim_gbps": mean(per_pair["rdma"]),
            # Peak over mean, not over min: an idle core link would make
            # max/min infinite.
            "hardware.core_link_spread": max(core) / mean(core),
            "hardware.max_link_util": max_link,
        },
    }


# -- fleet-churn --------------------------------------------------------------

#: Fleet shape: hosts, racks, containers per host.  At about 55 KiB of
#: resident memory per flow, a round stays near 150 MiB.
FLEET_HOSTS = 64
FLEET_RACKS = 8
FLEET_PER_HOST = 4
FLEET_FLOWS = 2000
#: Host lease TTL (sim seconds); keepalives go out every TTL/3.
LEASE_TTL_S = 1.0
#: Poll step and limit while waiting for detection and repair (sim s).
FLEET_POLL_S = 1e-3
FLEET_WAIT_LIMIT_S = 10.0


def fleet_churn(seed: int, probe, hosts: int = FLEET_HOSTS,
                racks: int = FLEET_RACKS, flows: int = FLEET_FLOWS) -> dict:
    """Serial flow setup on a lease-backed fleet, then a silent rack."""
    env = Environment()
    fabric = Fabric(env)
    strategy = RackAwareStrategy()
    cluster = ClusterOrchestrator(env, strategy=strategy,
                                  host_lease_ttl_s=LEASE_TTL_S)
    strategy.cluster = cluster
    for i in range(hosts):
        cluster.add_host(Host(env, f"host{i}", fabric=fabric),
                         rack=f"rack{i % racks}")
    network = FreeFlowNetwork(cluster)
    network.reconciler.start()
    names = []
    for i in range(hosts * FLEET_PER_HOST):
        container = cluster.submit(ContainerSpec(f"c{i}"))
        network.attach(container)
        names.append(container.name)

    rng = RandomStream(seed, "perfbench.fleet-churn")
    total = len(names)
    plan = []
    for _ in range(flows):
        a = rng.randrange(total)
        b = rng.randrange(total - 1)
        plan.append((names[a], names[b + (b >= a)]))
    opened = []
    connect_lat = Series()

    def connect():
        for src, dst in plan:
            began = env.now
            flow = yield from network.connect_containers(src, dst)
            connect_lat.add(env.now - began)
            opened.append(flow)

    probe.mark("setup", env)
    probe.mark("connect", env)
    sim0 = env.now
    env.run(until=env.process(connect()))
    connect_sim_s = env.now - sim0
    probe.mark("connected", env)
    probe.mark("measured", env)

    failures = []
    inactive = sum(1 for flow in opened if flow.state is not FlowState.ACTIVE)
    if inactive:
        failures.append(f"{inactive} flows not ACTIVE after connect")

    def wait_for(predicate):
        def poll():
            deadline = env.now + FLEET_WAIT_LIMIT_S
            while not predicate() and env.now < deadline:
                yield env.timeout(FLEET_POLL_S)

        env.run(until=env.process(poll()))
        return predicate()

    victims = [host.name for host in cluster.rack_hosts("rack0")]
    lost = [name for host in victims for name in cluster.containers_on(host)]
    affected = {}
    for name in lost:
        for flow in network.flows.flows_for(name):
            affected[flow.flow_id] = flow
    affected = list(affected.values())
    silenced_at = env.now
    for host in victims:
        cluster.silence_keepalives(host)
    detected = wait_for(lambda: all(f.state is FlowState.BROKEN
                                    for f in affected))
    if not detected:
        failures.append("silenced rack's flows not all BROKEN")
    detect_s = env.now - silenced_at
    expired = sum(1 for host in victims if cluster.host_lease(host) is None)

    resubmit_at = env.now
    for name in lost:
        network.attach(cluster.submit(ContainerSpec(name)))
    repaired = wait_for(lambda: all(f.state is FlowState.ACTIVE
                                    for f in affected))
    repair_s = env.now - resubmit_at
    not_active = sum(1 for f in affected if f.state is not FlowState.ACTIVE)
    if not repaired:
        failures.append(f"{not_active} affected flows not ACTIVE after "
                        "repair")

    reconciler = network.reconciler
    kvs = (cluster.kv, network.orchestrator.kv)
    events = sum(kv.dispatch_events for kv in kvs)
    checks = sum(kv.dispatch_checks for kv in kvs)
    sim = {
        "sim_ops_per_s": flows / connect_sim_s,
        "sim_detect_ms": detect_s * 1e3,
        "sim_repair_ms": repair_s * 1e3,
    }
    _latency(sim, connect_lat)
    return {
        "ops": flows,
        "flows": flows,
        "attempted": flows + len(affected),
        "failures": failures,
        "failed": inactive + not_active + (not detected),
        "sim": sim,
        "samples": len(connect_lat),
        "layer": {
            "core.rebinds": reconciler.rebinds + reconciler.repairs,
            "core.rebind_retries": reconciler.retries,
            "cluster.dispatch_checks_per_event": checks / events,
            "cluster.lease_expiries": expired,
        },
    }


#: Workload name -> function.
WORKLOADS = {
    "rpc-small": rpc_small,
    "bulk-mix": bulk_mix,
    "fleet-churn": fleet_churn,
}
