"""Physical network fabric: links between hosts through switches.

The default model is a non-blocking switch (standard for a managed
datacenter fabric, which the paper assumes: "deployed over managed
network fabrics") with store-and-forward latency.  Each host's NIC
contributes its own egress and ingress pipes, so the bottlenecks are the
end links — which is where 40 Gb/s RDMA tops out — while the fabric core
never congests.

Every topology runs on the one forwarding engine defined here: a message
is a :class:`_Transit` that walks its route's inter-switch hops through
per-link FIFO workers, then lands in a per-(src, dst) delivery stage
(propagation wait, partition park, destination NIC ingress, delivery).
The single switch is simply the route with no inter-switch hop; the
k-ary fat-tree (:class:`~repro.hardware.topology.FatTreeFabric`) supplies
multi-hop routes, and its ``core_rate_scale`` models an oversubscribed
core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..sim.resources import Store
from ..telemetry import registry as _registry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .nic import PhysicalNic

__all__ = ["Fabric"]


class _Transit:
    """One message crossing the fabric: route + bookkeeping, mutable."""

    __slots__ = ("src", "dst", "wire_bytes", "priority", "deliver", "path",
                 "hop", "ready_at", "dst_edge", "flowlet_key", "seq")

    def __init__(self, src, dst, wire_bytes, priority, deliver, path=(),
                 dst_edge=None, flowlet_key=None, seq=0) -> None:
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.priority = priority
        self.deliver = deliver
        #: Inter-switch hops still to cross (empty on a single switch).
        self.path = path
        self.hop = 0
        self.ready_at = 0.0
        #: Multi-path routing state (fat-tree only): the destination
        #: edge switch for detours, and the flowlet identity and send
        #: sequence number the delivery-order tracer checks.
        self.dst_edge = dst_edge
        self.flowlet_key = flowlet_key
        self.seq = seq


class Fabric:
    """A switched network connecting every attached NIC to every other."""

    def __init__(
        self,
        env: "Environment",
        switch_latency_s: float = 0.6e-6,
        propagation_s: float = 0.4e-6,
    ) -> None:
        self.env = env
        self.switch_latency_s = switch_latency_s
        self.propagation_s = propagation_s
        self._nics: list["PhysicalNic"] = []
        #: Per-(src, dst) delivery queues: arrivals at a destination NIC
        #: from one source are processed strictly in order, so a small
        #: message can never overtake a large one on the same pair.
        self._deliveries: dict[tuple[int, int], Store] = {}
        #: Active partitions: (side_a, side_b) pairs of NIC id-sets whose
        #: cross traffic is parked at the delivery stage until :meth:`heal`.
        self._partitions: list[tuple[frozenset[int], frozenset[int]]] = []
        self._heal_event = None
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_fabric(self)

    def attach(self, nic: "PhysicalNic") -> None:
        """Plug a NIC into the fabric."""
        if nic in self._nics:
            raise ValueError(f"{nic!r} already attached")
        self._nics.append(nic)
        nic.fabric = self

    @property
    def nics(self) -> tuple["PhysicalNic", ...]:
        return tuple(self._nics)

    # -- partitions ----------------------------------------------------------

    def partition(self, side_a, side_b) -> None:
        """Cut connectivity between the NICs in ``side_a`` and ``side_b``.

        In-flight and newly sent traffic crossing the cut is *parked* at
        the fabric's delivery stage — not dropped — and resumes after
        :meth:`heal`, modelling a reliable link layer that retransmits
        until the path returns (byte conservation holds across the
        outage).  Traffic within either side is unaffected.  Multiple
        partitions stack; ``heal()`` clears them all.
        """
        a = frozenset(id(nic) for nic in side_a)
        b = frozenset(id(nic) for nic in side_b)
        if not a or not b:
            raise ValueError("both partition sides must be non-empty")
        if a & b:
            raise ValueError("partition sides overlap")
        self._partitions.append((a, b))

    def heal(self) -> None:
        """Remove every active partition and release parked traffic."""
        self._partitions.clear()
        event, self._heal_event = self._heal_event, None
        if event is not None:
            event.succeed()

    def partitioned(self, src: "PhysicalNic", dst: "PhysicalNic") -> bool:
        """True while ``src`` → ``dst`` traffic is cut by a partition."""
        src_id, dst_id = id(src), id(dst)
        for side_a, side_b in self._partitions:
            if (src_id in side_a and dst_id in side_b) or (
                src_id in side_b and dst_id in side_a
            ):
                return True
        return False

    def _healed(self):
        """The event parked delivery workers wait on (created lazily)."""
        if self._heal_event is None:
            self._heal_event = self.env.event()
        return self._heal_event

    @property
    def one_way_latency_s(self) -> float:
        """Propagation + switching delay, excluding serialisation."""
        return self.switch_latency_s + self.propagation_s

    def _check_pair(self, src: "PhysicalNic", dst: "PhysicalNic") -> None:
        if src.fabric is not self or dst.fabric is not self:
            raise ValueError("both NICs must be attached to this fabric")
        if src is dst:
            raise ValueError("use host-local channels for loopback traffic")

    def send(
        self,
        src: "PhysicalNic",
        dst: "PhysicalNic",
        wire_bytes: float,
        deliver: Callable[[], None],
        priority: int = 0,
        flow=None,
    ):
        """Carry ``wire_bytes`` from ``src`` to ``dst`` (generator).

        The calling process pays the *egress* serialisation; propagation
        and the destination's ingress happen in the delivery stage so
        that back-to-back sends pipeline, as on a real wire.  ``deliver``
        is invoked once the last byte has cleared the destination NIC.

        ``flow`` is an optional hashable flow identity.  The single
        switch has one path, so it is ignored here; the fat-tree
        subclass (:class:`~repro.hardware.topology.FatTreeFabric`)
        ECMP-hashes it to pick among equal-cost paths.
        """
        del flow  # single-path fabric: no routing decision to make
        self._check_pair(src, dst)
        yield from src.egress.transfer(wire_bytes, priority=priority)
        self._forward(_Transit(src, dst, wire_bytes, priority, deliver))

    # -- the forwarding engine -----------------------------------------------

    def _forward(self, transit: _Transit) -> None:
        """Queue ``transit`` at its next hop (or the delivery stage)."""
        transit.ready_at = self.env.now + self.one_way_latency_s
        while transit.hop < len(transit.path):
            link = transit.path[transit.hop]
            if link.up:
                link.queue.put(transit)
                return
            self._detour(transit)
        self._delivery_queue(transit.src, transit.dst).put(transit)

    def _link_worker(self, link):
        """FIFO server for one directed link (store-and-forward)."""
        while True:
            transit = yield link.queue.get()
            if not link.up:
                # Drained-and-missed race guard: re-route instead of
                # transmitting over a dead link.
                self._detour(transit)
                self._forward(transit)
                continue
            wait = transit.ready_at - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            yield from link.pipe.transfer(transit.wire_bytes,
                                          priority=transit.priority)
            transit.hop += 1
            self._forward(transit)

    def _delivery_queue(self, src: "PhysicalNic",
                        dst: "PhysicalNic") -> Store:
        key = (id(src), id(dst))
        queue = self._deliveries.get(key)
        if queue is None:
            queue = self._deliveries[key] = Store(self.env)
            self.env.process(self._delivery_worker(src, dst, queue))
        return queue

    def _delivery_worker(self, src, dst, queue):
        """Per-(src, dst) final stage: propagation wait, partition park,
        destination-NIC ingress, delivery.

        While a partition cuts the pair the worker parks on the fabric's
        heal event, holding the message (and everything queued behind
        it, preserving order) until connectivity returns.
        """
        while True:
            transit = yield queue.get()
            wait = transit.ready_at - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            while self.partitioned(src, dst):
                yield self._healed()
            yield from dst.ingress.transfer(transit.wire_bytes,
                                            priority=transit.priority)
            self._delivered(transit)
            transit.deliver()

    def _detour(self, transit: _Transit) -> None:
        """Re-route ``transit`` around the dead link at its next hop.

        The single switch has no inter-switch links to fail.
        """
        raise NotImplementedError

    def _delivered(self, transit: _Transit) -> None:
        """Hook run just before ``transit.deliver()``."""

    def path_latency(self, wire_bytes: float, rate_bytes: float) -> float:
        """Closed-form uncontended one-way latency (for sanity checks)."""
        return wire_bytes / rate_bytes * 2 + self.one_way_latency_s
