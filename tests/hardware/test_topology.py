"""Unit tests for the fat-tree topology and multi-path fabric."""

import pytest

from repro.errors import RoutingError
from repro.hardware import (Fabric, FatTreeFabric, FatTreeTopology, Host,
                            PhysicalNic, to_gbps)
from repro.hardware.topology import FlowletTracer


# ---------------------------------------------------------------- topology


def test_fat_tree_shape_k4(env):
    topo = FatTreeTopology(env, k=4)
    assert len(topo.edges) == 4 and all(len(t) == 2 for t in topo.edges)
    assert len(topo.aggs) == 4 and all(len(t) == 2 for t in topo.aggs)
    assert len(topo.cores) == 4
    assert topo.host_capacity == 16
    links = topo.links()
    # 4 pods x (2 edge x 2 agg) cables + 4 cores x 4 pods cables,
    # two directed links per cable.
    assert len(links) == (4 * 4 + 4 * 4) * 2
    assert sum(1 for link in links if link.tier == "edge-agg") == 32
    assert sum(1 for link in links if link.tier == "agg-core") == 32


def test_fat_tree_rejects_bad_arity(env):
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=3)
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=0)
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=4, core_rate_scale=0)


def test_core_wiring_one_agg_per_pod(env):
    """Core group g connects to agg index g in every pod."""
    topo = FatTreeTopology(env, k=4)
    for core in topo.cores:
        for pod in range(4):
            agg = topo.pod_aggs(pod)[core.group]
            assert topo.link(agg, core).up
            assert topo.link(core, agg).up
    for agg_row in topo.aggs:
        for agg in agg_row:
            assert [c.group for c in topo.agg_cores(agg)] == [agg.index] * 2


def test_edge_for_port_is_pod_major(env):
    topo = FatTreeTopology(env, k=4)
    assert topo.edge_for_port(0).name == "edge0.0"
    assert topo.edge_for_port(1).name == "edge0.0"
    assert topo.edge_for_port(2).name == "edge0.1"
    assert topo.edge_for_port(4).name == "edge1.0"
    assert topo.edge_for_port(15).name == "edge3.1"
    with pytest.raises(ValueError):
        topo.edge_for_port(16)


def test_fail_cable_downs_both_directions_and_bumps_version(env):
    topo = FatTreeTopology(env, k=4)
    version = topo.version
    pair = topo.fail_cable("agg0.0", "core0.0")
    assert all(not link.up for link in pair)
    assert len(topo.down_links()) == 2
    assert topo.version == version + 1
    topo.heal_cable("agg0.0", "core0.0")
    assert not topo.down_links()
    assert topo.version == version + 2
    with pytest.raises(ValueError):
        topo.fail_cable("agg0.0", "nope")


def test_tier_utilisation_keys(env):
    topo = FatTreeTopology(env, k=4)
    util = topo.tier_utilisation()
    assert set(util) == {"edge-agg", "agg-core"}
    assert all(value == 0.0 for value in util.values())
    assert len(topo.link_utilisation()) == 64


# ---------------------------------------------------------------- tracer


def test_flowlet_tracer_counts_inversions():
    tracer = FlowletTracer()
    tracer.observe(("f", 0, 0), 0)
    tracer.observe(("f", 0, 0), 1)
    tracer.observe(("f", 0, 0), 3)
    assert tracer.reorders == 0
    tracer.observe(("f", 0, 0), 2)
    assert tracer.reorders == 1
    assert tracer.violations == [(("f", 0, 0), 3, 2)]
    # A different flowlet key is a fresh sequence space.
    tracer.observe(("f", 1, 0), 0)
    assert tracer.reorders == 1


def test_flowlet_tracer_state_is_bounded():
    tracer = FlowletTracer()
    for i in range(tracer.MAX_FLOWLETS + 100):
        tracer.observe(("f", i, 0), 0)
    assert len(tracer._last_seq) <= tracer.MAX_FLOWLETS


# ---------------------------------------------------------------- fabric


def _tree(env, **kwargs):
    fabric = FatTreeFabric(env, k=4, **kwargs)
    nics = [PhysicalNic(env) for _ in range(6)]
    for nic in nics:
        fabric.attach(nic)
    return fabric, nics


def test_attach_assigns_ports_and_pods(env):
    fabric, nics = _tree(env)
    assert [fabric.port_of(nic) for nic in nics] == list(range(6))
    assert fabric.edge_of(nics[0]).name == "edge0.0"
    assert fabric.pod_of(nics[0]) == 0
    assert fabric.pod_of(nics[4]) == 1


def test_attach_rejects_overflow(env):
    fabric = FatTreeFabric(env, k=2)
    for _ in range(fabric.topology.host_capacity):
        fabric.attach(PhysicalNic(env))
    with pytest.raises(ValueError):
        fabric.attach(PhysicalNic(env))


def test_send_rejects_foreign_and_loopback(env):
    fabric, nics = _tree(env)
    other = PhysicalNic(env)
    with pytest.raises(ValueError):
        next(fabric.send(nics[0], other, 1, lambda: None))
    with pytest.raises(ValueError):
        next(fabric.send(nics[0], nics[0], 1, lambda: None))


def test_interpod_transfer_matches_closed_form(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]  # pod0 -> pod1: four hops
    done = []

    def go():
        yield from fabric.send(src, dst, 64 * 1024, lambda: done.append(env.now))

    env.process(go())
    env.run()
    rate = src.spec.goodput_bytes
    assert done == [pytest.approx(fabric.path_latency(64 * 1024, rate))]


def test_cross_pod_conservation_and_order(env):
    fabric, nics = _tree(env)
    delivered = []

    def stream(src, dst, count, tag):
        def go():
            for i in range(count):
                yield from fabric.send(
                    src, dst, 4096, lambda i=i: delivered.append((tag, i))
                )
        env.process(go())

    stream(nics[0], nics[4], 20, "a")
    stream(nics[1], nics[5], 20, "b")
    env.run()
    assert len(delivered) == 40
    for tag in ("a", "b"):
        seqs = [i for t, i in delivered if t == tag]
        assert seqs == sorted(seqs)
    assert fabric.reorders() == 0
    assert fabric.tracer.checked == 40


def test_core_failure_reroutes_and_conserves(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]
    delivered = []

    def burst(count):
        def go():
            for i in range(count):
                yield from fabric.send(
                    src, dst, 4096, lambda: delivered.append(env.now)
                )
        return env.process(go())

    env.run(until=burst(10))
    busy = fabric.busiest_core_link()
    assert busy.pipe.bytes_moved > 0
    fabric.fail_link(busy.src.name, busy.dst.name)
    # A frame already on the wire finishes its hop; once the fabric
    # quiesces the dead link is byte-frozen.
    env.run()
    frozen = busy.pipe.bytes_moved
    env.run(until=burst(10))
    env.run()
    assert len(delivered) == 20
    assert busy.pipe.bytes_moved == frozen
    assert fabric.reorders() == 0
    fabric.heal_link(busy.src.name, busy.dst.name)
    assert not fabric.topology.down_links()


def test_fail_link_mid_flight_detours_queued_traffic(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]
    delivered = []

    def sender():
        for _ in range(5):
            yield from fabric.send(
                src, dst, 64 * 1024, lambda: delivered.append(env.now)
            )

    def killer():
        # Land the cut while messages are queued inside the tree.
        yield env.timeout(20e-6)
        busy = fabric.busiest_core_link()
        fabric.fail_link(busy.src.name, busy.dst.name)

    env.process(sender())
    env.process(killer())
    env.run()
    assert len(delivered) == 5
    assert fabric.reorders() == 0


def test_no_alive_path_raises(env):
    fabric = FatTreeFabric(env, k=2)
    a, b = PhysicalNic(env), PhysicalNic(env)
    fabric.attach(a)
    fabric.attach(b)
    # k=2: one edge per pod, one agg per pod, one core.
    fabric.fail_link("edge0.0", "agg0.0")

    def go():
        yield from fabric.send(a, b, 4096, lambda: None)

    env.process(go())
    with pytest.raises(RoutingError):
        env.run()


def test_partition_parks_until_heal(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]
    fabric.partition([src], [dst])
    delivered = []

    def go():
        yield from fabric.send(src, dst, 4096, lambda: delivered.append(env.now))

    env.process(go())
    env.run()
    assert not delivered

    def mend():
        yield env.timeout(1e-3)
        fabric.heal()

    env.process(mend())
    env.run()
    assert len(delivered) == 1
    assert delivered[0] >= 1e-3


@pytest.mark.parametrize("fabric_cls", [Fabric, FatTreeFabric])
def test_partition_parks_message_waiting_for_ingress(env, fabric_cls):
    """A message already past propagation but still queued behind a
    large one for the destination NIC's ingress is parked by a cut made
    now, on the single switch as on the fat-tree (same edge: the
    zero-hop route on both)."""
    fabric = fabric_cls(env)
    src, dst = PhysicalNic(env), PhysicalNic(env)
    fabric.attach(src)
    fabric.attach(dst)
    delivered = {}

    def sender():
        for size in (1 << 20, 64):
            yield from fabric.send(
                src, dst, size,
                lambda size=size: delivered.setdefault(size, env.now),
            )

    def cut():
        yield env.timeout(300e-6)
        # The 64 B message has landed but the 1 MiB one holds ingress.
        assert not delivered
        fabric.partition([src], [dst])
        yield env.timeout(700e-6)
        fabric.heal()

    env.process(sender())
    env.process(cut())
    env.run()
    # The 1 MiB frame was already on the ingress wire at the cut.
    assert delivered[1 << 20] < 1e-3
    assert delivered[64] >= 1e-3


def _rdma_gbps(env, fabric, hosts, a, b, duration=0.02):
    from repro.transports import RdmaChannel

    channel = RdmaChannel(hosts[a], hosts[b])
    got = {"bytes": 0}

    def sender():
        while env.now < duration:
            yield from channel.a.send(1 << 20)

    def receiver():
        while True:
            message = yield from channel.b.recv()
            got["bytes"] += message.size_bytes

    env.process(sender())
    env.process(receiver())
    env.run(until=duration)
    return to_gbps(got["bytes"] / duration)


def _oversubscribed_tree(env):
    """k=4 tree with 4:1 agg-core links and static ECMP."""
    fabric = FatTreeFabric(env, k=4, core_rate_scale=0.25,
                           flowlet_gap_s=float("inf"))
    hosts = [Host(env, f"h{i}", fabric=fabric) for i in range(5)]
    return fabric, hosts


def test_oversubscribed_core_caps_cross_pod_traffic(env):
    """One cross-pod flow pins one 4:1 core path: about a quarter of
    the 40G NIC rate."""
    fabric, hosts = _oversubscribed_tree(env)
    nic_gbps = to_gbps(hosts[0].nic.spec.goodput_bytes)
    rate = _rdma_gbps(env, fabric, hosts, 0, 4)
    assert rate == pytest.approx(0.25 * nic_gbps, rel=0.15)


def test_same_edge_traffic_keeps_full_rate(env):
    """Below the core the tree is non-blocking: a same-edge flow never
    touches the skinny agg-core links."""
    fabric, hosts = _oversubscribed_tree(env)
    assert fabric.edge_of(hosts[0].nic) is fabric.edge_of(hosts[1].nic)
    assert _rdma_gbps(env, fabric, hosts, 0, 1) == pytest.approx(38.8,
                                                                  rel=0.1)


def test_quickstart_fat_tree_cluster():
    from repro import quickstart_cluster

    env, cluster, network = quickstart_cluster(hosts=5, fat_tree_k=4)
    fabric = cluster.host("host0").nic.fabric
    assert isinstance(fabric, FatTreeFabric)
    assert fabric.pod_of(cluster.host("host4").nic) == 1
