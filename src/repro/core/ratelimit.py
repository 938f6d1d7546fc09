"""Rate limiting for kernel-bypass traffic (paper §1 + §7).

The paper's intro notes that kernel bypass "offers less isolation (...
kernel cannot provide protections like rate limiting and firewalls)".
The firewall half is :mod:`repro.core.middlebox`; this module restores
the rate-limiting half: a token-bucket limiter enforced in the FreeFlow
library layer, where every bypass byte already passes.

A :class:`TokenBucket` can be shared across lanes (per-tenant limits) or
private to one connection.  Enforcement is work-conserving: senders are
delayed, never dropped — the shaping a cloud operator applies to tame a
noisy tenant without breaking it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..transports.base import DuplexChannel, Lane, Mechanism

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["TokenBucket", "RateLimitedLane", "limit_channel"]


class TokenBucket:
    """A classic token bucket in simulated time.

    Tokens are bytes; they accrue at ``rate_bytes_per_s`` up to
    ``burst_bytes``.  ``take`` is a generator that parks the caller until
    the requested tokens exist, then consumes them — concurrent takers
    are served in arrival order via a turnstile.
    """

    def __init__(
        self,
        env: "Environment",
        rate_bytes_per_s: float,
        burst_bytes: float = 1 << 20,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.burst = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_refill = env.now
        from ..sim.resources import Resource

        self._turnstile = Resource(env, capacity=1)
        self.bytes_shaped = 0
        self.delays_imposed = 0

    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    def take(self, nbytes: float):
        """Generator: consume ``nbytes`` tokens, waiting if necessary."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        with self._turnstile.request() as turn:
            if not turn.processed:
                yield turn
            self._refill()
            if nbytes <= self._tokens:
                self._tokens -= nbytes
            else:
                # Drain what exists, then wait for exactly the deficit to
                # accrue; that accrual belongs to this request, so the
                # refill clock restarts at the wake-up instant.
                deficit = nbytes - self._tokens
                self._tokens = 0.0
                self._last_refill = self.env.now
                self.delays_imposed += 1
                yield self.env.timeout(deficit / self.rate)
                self._last_refill = self.env.now
            self.bytes_shaped += nbytes


class RateLimitedLane:
    """Lane wrapper that charges a token bucket before each send.

    Duck-types the lane surface, like
    :class:`~repro.core.middlebox.InspectedLane`, and composes with it.
    """

    def __init__(self, inner: Lane, bucket: TokenBucket) -> None:
        self.inner = inner
        self.bucket = bucket
        self.env = inner.env

    @property
    def mechanism(self) -> Mechanism:
        return self.inner.mechanism

    @property
    def stats(self):
        return self.inner.stats

    @property
    def inbox(self):
        return self.inner.inbox

    @property
    def closed(self) -> bool:
        return self.inner.closed

    @property
    def on_deliver(self):
        return self.inner.on_deliver

    @on_deliver.setter
    def on_deliver(self, hook) -> None:
        self.inner.on_deliver = hook

    def send(self, nbytes: int, payload: Any = None):
        yield from self.bucket.take(nbytes)
        message = yield from self.inner.send(nbytes, payload)
        return message

    def recv(self):
        message = yield from self.inner.recv()
        return message

    def adopt(self, message: Any) -> None:
        self.inner.adopt(message)

    def eject_receivers(self, exception: BaseException) -> None:
        self.inner.eject_receivers(exception)

    def close(self) -> None:
        self.inner.close()


def limit_channel(
    channel: DuplexChannel,
    bucket_ab: TokenBucket,
    bucket_ba: Optional[TokenBucket] = None,
) -> DuplexChannel:
    """Shape a channel: one bucket per direction (shared if one given)."""
    from ..transports.base import ChannelEnd

    channel.lane_ab = RateLimitedLane(channel.lane_ab, bucket_ab)
    channel.lane_ba = RateLimitedLane(
        channel.lane_ba, bucket_ba if bucket_ba is not None else bucket_ab
    )
    channel.a = ChannelEnd(channel.lane_ab, channel.lane_ba)
    channel.b = ChannelEnd(channel.lane_ba, channel.lane_ab)
    return channel
