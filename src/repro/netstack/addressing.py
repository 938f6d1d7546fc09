"""IP address management for the overlay network (substrate S4).

FreeFlow keeps the overlay control plane of existing solutions: every
container gets a location-independent IP from an overlay subnet, and that
IP follows the container across hosts and migrations ("IP assignments is
independent to container's locations", §2.4).  This module is the IPAM:
deterministic, reusable allocation out of a configurable pool, with
support for manual (configuration-pinned) assignment, as §4 allows
("Container IPs can be assigned automatically by network agents via DHCP,
or manually assigned by containers' configurations").
"""

from __future__ import annotations

import heapq
import ipaddress
from typing import Optional

from ..errors import AddressError, AddressExhausted

__all__ = ["IpPool", "OverlaySubnets"]


class IpPool:
    """Allocates host addresses from one overlay subnet.

    Addresses are handed out in order, lowest-free-first, and released
    addresses are reused — matching the behaviour of the DHCP-style agent
    allocation the paper describes.

    Allocation is O(log n) amortised, not a scan from the bottom of the
    subnet: a cursor marks the lowest offset never handed out, and a
    min-heap holds the released offsets below it.  Pinned addresses stay
    in ``_allocated`` and are skipped when the cursor or the heap meets
    them.
    """

    def __init__(self, cidr: str = "10.32.0.0/16") -> None:
        try:
            self.network = ipaddress.ip_network(cidr, strict=True)
        except ValueError as exc:
            raise AddressError(f"bad CIDR {cidr!r}: {exc}") from exc
        if self.network.num_addresses < 4:
            raise AddressError(f"subnet {cidr} too small for allocation")
        self._allocated: set[str] = set()
        # Reserve network and broadcast addresses plus the gateway (.1).
        self._reserved = {
            str(self.network.network_address),
            str(self.network.broadcast_address),
            str(self.network.network_address + 1),
        }
        # Assignable offsets run from 2 (above the gateway) to the one
        # below the broadcast address.  Every offset under the cursor is
        # either in _allocated or in the _released heap.
        self._cursor = 2
        self._last = self.network.num_addresses - 2
        self._released: list[int] = []

    @property
    def cidr(self) -> str:
        return str(self.network)

    @property
    def gateway(self) -> str:
        return str(self.network.network_address + 1)

    @property
    def allocated(self) -> frozenset[str]:
        return frozenset(self._allocated)

    @property
    def capacity(self) -> int:
        """Number of assignable addresses in the pool."""
        return self.network.num_addresses - len(self._reserved)

    def __contains__(self, ip: str) -> bool:
        try:
            return ipaddress.ip_address(ip) in self.network
        except ValueError:
            return False

    def _take(self, offset: int) -> Optional[str]:
        text = str(self.network.network_address + offset)
        if text in self._allocated:
            return None
        self._allocated.add(text)
        return text

    def allocate(self, requested: Optional[str] = None) -> str:
        """Grab a free address (or pin ``requested`` if it is free)."""
        if requested is not None:
            if requested not in self:
                raise AddressError(
                    f"{requested} is outside the overlay subnet {self.cidr}"
                )
            if requested in self._reserved:
                raise AddressError(f"{requested} is reserved")
            if requested in self._allocated:
                raise AddressError(f"{requested} is already allocated")
            self._allocated.add(requested)
            return requested
        released = self._released
        while released:
            # A released offset may since have been pinned (or pushed
            # twice); such stale entries are dropped here.
            text = self._take(heapq.heappop(released))
            if text is not None:
                return text
        while self._cursor <= self._last:
            text = self._take(self._cursor)
            self._cursor += 1
            if text is not None:
                return text
        raise AddressExhausted(f"no free addresses in {self.cidr}")

    def release(self, ip: str) -> None:
        """Return an address to the pool."""
        if ip not in self._allocated:
            raise AddressError(f"{ip} was not allocated from {self.cidr}")
        self._allocated.remove(ip)
        offset = int(ipaddress.ip_address(ip)) - int(self.network.network_address)
        if 2 <= offset < self._cursor:
            heapq.heappush(self._released, offset)


class OverlaySubnets:
    """Carves one supernet into per-tenant (or per-network) subnets.

    Mirrors how multi-tenant overlays (Docker networks, Weave subnets)
    isolate address spaces while sharing the physical fabric.
    """

    def __init__(self, supernet: str = "10.32.0.0/12", subnet_prefix: int = 16) -> None:
        try:
            self.supernet = ipaddress.ip_network(supernet, strict=True)
        except ValueError as exc:
            raise AddressError(f"bad supernet {supernet!r}: {exc}") from exc
        if subnet_prefix <= self.supernet.prefixlen:
            raise AddressError(
                f"subnet prefix /{subnet_prefix} must be longer than "
                f"supernet /{self.supernet.prefixlen}"
            )
        self.subnet_prefix = subnet_prefix
        self._subnet_iter = self.supernet.subnets(new_prefix=subnet_prefix)
        self._pools: dict[str, IpPool] = {}

    def pool(self, tenant: str) -> IpPool:
        """Get (or carve) the pool for ``tenant``."""
        if tenant not in self._pools:
            try:
                subnet = next(self._subnet_iter)
            except StopIteration:
                raise AddressExhausted(
                    f"supernet {self.supernet} has no free /{self.subnet_prefix}"
                ) from None
            self._pools[tenant] = IpPool(str(subnet))
        return self._pools[tenant]

    def tenant_of(self, ip: str) -> Optional[str]:
        """Reverse lookup: which tenant's subnet contains ``ip``."""
        for tenant, pool in self._pools.items():
            if ip in pool:
                return tenant
        return None
