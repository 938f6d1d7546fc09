"""E22 (extension) — rack locality on an oversubscribed fabric.

The paper's fabric assumption ("managed network fabrics") hides a
datacenter reality: the uplinks toward the core are usually
oversubscribed.  A k=4 multi-path fat-tree with ``core_rate_scale``
0.25 (10 Gb/s agg-core links, 4:1 oversubscribed) makes the point.  The
locality ladder is same host > same edge ≈ same pod > cross pod,
because the tree is non-blocking *below* the core: only traffic that
must climb to a core switch pays the skinny uplinks, and ECMP/flowlet
routing spreads it over the four equal-cost core paths without ever
reordering a flowlet.

So placement has tiers of leverage beyond co-location: shared memory on
one host, full NIC rate under an edge or inside a pod, the shared core
between pods.
"""

import pytest

from repro import ContainerSpec
from repro.cluster import ClusterOrchestrator
from repro.core import FreeFlowNetwork
from repro.hardware import FatTreeFabric, Host
from repro.metrics import run_stream
from repro.sim import Environment

from common import fmt_table, record

#: Fat-tree agg-core capacity as a fraction of the edge links (4:1).
CORE_RATE_SCALE = 0.25


def _build_fat_tree():
    """8 hosts on a k=4 tree: ports 0-3 are pod 0, ports 4-7 pod 1."""
    env = Environment()
    fabric = FatTreeFabric(env, k=4, core_rate_scale=CORE_RATE_SCALE)
    cluster = ClusterOrchestrator(env)
    hosts = []
    for index in range(8):
        host = Host(env, f"host{index}", fabric=fabric)
        cluster.add_host(host)
        hosts.append(host)
    network = FreeFlowNetwork(cluster)
    return env, cluster, network, hosts, fabric


#: placement -> [(src host, dst host)].  Each pair gets its own sender
#: NIC so the fabric, not a shared uplink, is what differentiates the
#: tiers.
TREE_PLACEMENTS = {
    "same host": [("host0", "host0"), ("host0", "host0")],
    "same edge": [("host0", "host1"), ("host1", "host0")],
    "same pod": [("host0", "host2"), ("host1", "host3")],
    "cross pod": [("host0", "host4"), ("host1", "host5")],
}


def _measure(placement: str):
    env, cluster, network, hosts, fabric = _build_fat_tree()
    pairs = TREE_PLACEMENTS[placement]
    endpoint_pairs = []
    for i, (loc_a, loc_b) in enumerate(pairs):
        a = cluster.submit(ContainerSpec(f"a{i}", pinned_host=loc_a))
        b = cluster.submit(ContainerSpec(f"b{i}", pinned_host=loc_b))
        network.attach(a)
        network.attach(b)

        def go(i=i):
            connection = yield from network.connect_containers(
                f"a{i}", f"b{i}"
            )
            return connection

        connection = env.run(until=env.process(go()))
        endpoint_pairs.append((connection.a, connection.b))
    result = run_stream(env, endpoint_pairs, duration_s=0.02, hosts=hosts)
    return result.gbps, fabric.reorders()


def test_rack_locality(benchmark):
    rows = []
    data = {}

    def run():
        for placement in TREE_PLACEMENTS:
            gbps, reorders = _measure(placement)
            data[placement] = (gbps, reorders)
            rows.append([placement, gbps])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "E22", "extension — 2 FreeFlow pairs per placement tier "
               f"(fat-tree k=4 at {CORE_RATE_SCALE:g}x core rate)",
        fmt_table(["placement", "aggregate Gb/s"], rows),
        "placement leverage has tiers: shared memory on one host, full "
        "NIC rate under an edge or inside a pod, the shared "
        "oversubscribed core between pods",
    )

    tree = {p: data[p][0] for p in TREE_PLACEMENTS}

    assert tree["same host"] > tree["same edge"]
    # Non-blocking below the core: an edge hop costs no bandwidth vs
    # staying under one edge switch.
    assert tree["same pod"] == pytest.approx(tree["same edge"], rel=0.1)
    # Only pod-crossing traffic pays the 4:1 oversubscription...
    assert tree["cross pod"] < 0.6 * tree["same pod"]
    # ...but flowlet re-hashing spreads the two flows over all four
    # skinny core paths, beating the 2 x 10 Gb/s static-ECMP ceiling
    # while staying under the core's total capacity.
    assert tree["cross pod"] > 2 * CORE_RATE_SCALE * 40
    assert tree["cross pod"] <= 4 * CORE_RATE_SCALE * 40 * 1.05
    # Multi-path routing never reordered a flowlet.
    assert all(r == 0 for _, r in data.values())
