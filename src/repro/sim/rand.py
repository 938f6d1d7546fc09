"""Deterministic random streams for reproducible experiments.

Every stochastic element of the simulation (workload inter-arrivals,
payload sizes, jitter) draws from a named :class:`RandomStream`, derived
from a single experiment seed.  Two runs with the same seed produce
byte-identical results; changing one component's stream does not perturb
the draws seen by any other component (the streams are independent).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Sequence, TypeVar

__all__ = ["RandomStream", "StreamFactory"]

T = TypeVar("T")


class RandomStream:
    """A named, seeded random source (thin wrapper over ``random.Random``)."""

    #: (n, skew) -> (cumulative Zipf weights, their total), built on the
    #: stream's first draw for that pair.
    _zipf_cdfs: "dict[tuple[int, float], tuple[list[float], float]] | None" = None

    def __init__(self, seed: int, name: str = "default") -> None:
        self.name = name
        self.seed = seed
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        """A float in [0, 1) — the primitive behind sampling decisions."""
        return self._rng.random()

    def randrange(self, n: int) -> int:
        """An int in [0, n) (reservoir-sampling slot selection)."""
        return self._rng.randrange(n)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` — fault-injection coin flips."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return self._rng.random() < p

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival with mean ``1/rate``."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self._rng.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(items, k)

    def pareto_size(self, shape: float, minimum: float, cap: float) -> float:
        """Heavy-tailed message size (bounded Pareto), common in DC traffic."""
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        value = minimum * self._rng.paretovariate(shape)
        return min(value, cap)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Zipf-distributed index in [0, n): used for KV key popularity."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if self._zipf_cdfs is None:
            self._zipf_cdfs = {}
        cdf = self._zipf_cdfs.get((n, skew))
        if cdf is None:
            weights = [1.0 / (i + 1) ** skew for i in range(n)]
            cdf = self._zipf_cdfs[(n, skew)] = (
                list(accumulate(weights)), sum(weights))
        cumulative, total = cdf
        point = self._rng.uniform(0, total)
        # First index whose running sum reaches the point; a point past
        # the last sum (rounding) falls to the last index.
        return min(bisect_left(cumulative, point), n - 1)


class StreamFactory:
    """Hands out independent named streams derived from one master seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Get (or create) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.seed, name)
        return self._streams[name]

    def names(self) -> Iterable[str]:
        return tuple(self._streams)
