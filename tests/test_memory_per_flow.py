"""Memory gate: the bytes a connected flow keeps alive.

The cost per flow bounds how large a fleet the simulator can model (one
agent per host, one relay path per container pair).  Each flow builds a
dozen or so Stores and Tanks plus a latency series per lane; their wait
queues are lists and their reservoir RNGs are built on first overflow,
which keeps a flow near 16 KiB of traced allocations.  Eager deques and
RNGs put it near 47 KiB, so the gate below catches either coming back.
"""

import gc
import tracemalloc

from repro import quickstart_cluster
from repro.cluster import ContainerSpec
from repro.core import FlowState
from repro.sim.rand import RandomStream

FLOWS = 200
HOSTS = 8
CONTAINERS_PER_HOST = 4
#: Ceiling on traced bytes per open flow.
MAX_KIB_PER_FLOW = 24


def test_open_flows_stay_under_memory_gate():
    env, cluster, network = quickstart_cluster(hosts=HOSTS)
    names = []
    for i in range(HOSTS * CONTAINERS_PER_HOST):
        container = cluster.submit(ContainerSpec(f"c{i}"))
        network.attach(container)
        names.append(container.name)
    rng = RandomStream(1, "test.memory-per-flow")
    plan = []
    for _ in range(FLOWS):
        a = rng.randrange(len(names))
        b = rng.randrange(len(names) - 1)
        plan.append((names[a], names[b + (b >= a)]))
    opened = []

    def connect():
        for src, dst in plan:
            opened.append((yield from network.connect_containers(src, dst)))

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        env.run(until=env.process(connect()))
        gc.collect()
        kib_per_flow = (tracemalloc.get_traced_memory()[0] - before) / FLOWS / 1024
    finally:
        tracemalloc.stop()
    assert len(opened) == FLOWS
    assert all(flow.state is FlowState.ACTIVE for flow in opened)
    assert kib_per_flow <= MAX_KIB_PER_FLOW, (
        f"{kib_per_flow:.1f} KiB per open flow (gate {MAX_KIB_PER_FLOW} KiB)")
