"""Unit tests for the IPAM."""

import ipaddress

import pytest

from repro.errors import AddressError, AddressExhausted
from repro.netstack import IpPool, OverlaySubnets
from repro.sim.rand import RandomStream


class ScanPool(IpPool):
    """Reference IPAM: scan the subnet from the bottom on every call.

    This is the original O(n)-per-call allocator; the cursor-and-heap
    pool must hand out exactly the addresses it would.
    """

    def allocate(self, requested=None):
        if requested is not None:
            return super().allocate(requested)
        for address in self.network.hosts():
            text = str(address)
            if text not in self._reserved and text not in self._allocated:
                self._allocated.add(text)
                return text
        raise AddressExhausted(f"no free addresses in {self.cidr}")

    def release(self, ip):
        if ip not in self._allocated:
            raise AddressError(f"{ip} was not allocated from {self.cidr}")
        self._allocated.remove(ip)


def _outcome(call, *args):
    try:
        return call(*args)
    except AddressError as exc:
        return type(exc).__name__


class TestIpPool:
    def test_allocates_lowest_free_first(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.allocate() == "10.32.0.2"  # .1 is the gateway
        assert pool.allocate() == "10.32.0.3"

    def test_gateway_reserved(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.gateway == "10.32.0.1"
        with pytest.raises(AddressError):
            pool.allocate("10.32.0.1")

    def test_release_enables_reuse(self):
        pool = IpPool("10.32.0.0/24")
        first = pool.allocate()
        pool.release(first)
        assert pool.allocate() == first

    def test_release_unallocated_raises(self):
        pool = IpPool("10.32.0.0/24")
        with pytest.raises(AddressError):
            pool.release("10.32.0.5")

    def test_manual_assignment(self):
        pool = IpPool("10.32.0.0/24")
        assert pool.allocate("10.32.0.77") == "10.32.0.77"
        with pytest.raises(AddressError):
            pool.allocate("10.32.0.77")  # double allocation

    def test_manual_assignment_outside_subnet(self):
        pool = IpPool("10.32.0.0/24")
        with pytest.raises(AddressError):
            pool.allocate("192.168.0.1")

    def test_exhaustion(self):
        pool = IpPool("10.32.0.0/29")  # 8 addresses, 3 reserved
        for _ in range(pool.capacity):
            pool.allocate()
        with pytest.raises(AddressExhausted):
            pool.allocate()

    def test_contains(self):
        pool = IpPool("10.32.0.0/24")
        assert "10.32.0.200" in pool
        assert "10.33.0.1" not in pool
        assert "garbage" not in pool

    def test_bad_cidr_rejected(self):
        with pytest.raises(AddressError):
            IpPool("not-a-cidr")
        with pytest.raises(AddressError):
            IpPool("10.0.0.1/24")  # host bits set (strict)

    def test_tiny_subnet_rejected(self):
        with pytest.raises(AddressError):
            IpPool("10.0.0.0/31")

    def test_allocated_snapshot_is_frozen(self):
        pool = IpPool("10.32.0.0/24")
        ip = pool.allocate()
        assert ip in pool.allocated
        with pytest.raises(AttributeError):
            pool.allocated.add("x")


class TestIpPoolMatchesScan:
    """Random allocate/release/pin sequences against the reference scan."""

    @pytest.mark.parametrize("cidr", ["10.32.0.0/27", "10.32.0.0/30",
                                      "fd00::/123"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_match_reference(self, cidr, seed):
        rng = RandomStream(seed, "test.ipam")
        pool, reference = IpPool(cidr), ScanPool(cidr)
        network = ipaddress.ip_network(cidr)
        live = []
        for _ in range(400):
            roll = rng.random()
            if roll < 0.5:
                got = _outcome(pool.allocate)
                assert got == _outcome(reference.allocate)
            elif roll < 0.65:
                # Pin any address of the subnet, free or not, reserved
                # or not: both pools must agree on accept or refuse.
                ip = str(network.network_address
                         + rng.randrange(network.num_addresses))
                got = _outcome(pool.allocate, ip)
                assert got == _outcome(reference.allocate, ip)
            elif live:
                got = live.pop(rng.randrange(len(live)))
                pool.release(got)
                reference.release(got)
                continue
            else:
                continue
            if not got.startswith("Address"):
                live.append(got)
            assert pool.allocated == reference.allocated

    def test_fleet_sized_pool_allocates_in_order(self):
        pool = IpPool("10.32.0.0/16")
        ips = [pool.allocate() for _ in range(1000)]
        assert ips[0] == "10.32.0.2" and ips[-1] == "10.32.3.233"
        pool.release("10.32.1.0")
        pool.release("10.32.0.9")
        assert pool.allocate() == "10.32.0.9"
        assert pool.allocate() == "10.32.1.0"
        assert pool.allocate() == "10.32.3.234"

    def test_released_noncanonical_pin_of_gateway_is_not_handed_out(self):
        # "fd00:0::1" passes the string check against the reserved
        # "fd00::1"; once released it must not reach the allocator.
        pool, reference = IpPool("fd00::/120"), ScanPool("fd00::/120")
        for p in (pool, reference):
            p.allocate("fd00:0::1")
            p.release("fd00:0::1")
        assert pool.allocate() == reference.allocate() == "fd00::2"


class TestOverlaySubnets:
    def test_per_tenant_pools_disjoint(self):
        subnets = OverlaySubnets("10.32.0.0/12", subnet_prefix=16)
        a = subnets.pool("tenant-a")
        b = subnets.pool("tenant-b")
        assert a is subnets.pool("tenant-a")
        assert a.cidr != b.cidr
        ip_a = a.allocate()
        assert ip_a in a and ip_a not in b

    def test_tenant_reverse_lookup(self):
        subnets = OverlaySubnets()
        pool = subnets.pool("team1")
        ip = pool.allocate()
        assert subnets.tenant_of(ip) == "team1"
        assert subnets.tenant_of("192.168.1.1") is None

    def test_prefix_must_be_longer_than_supernet(self):
        with pytest.raises(AddressError):
            OverlaySubnets("10.0.0.0/16", subnet_prefix=16)

    def test_supernet_exhaustion(self):
        subnets = OverlaySubnets("10.0.0.0/28", subnet_prefix=30)
        for tenant in "abcd":  # exactly four /30s fit in a /28
            subnets.pool(tenant)
        with pytest.raises(AddressExhausted):
            subnets.pool("e")
