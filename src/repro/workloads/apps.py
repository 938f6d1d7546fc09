"""Containerized application models (paper §1's motivating workloads).

The intro motivates FreeFlow with "big data analytics, key-value stores,
machine learning" — distributed apps whose tiers are containers.  Two of
them are modelled end-to-end on the public API:

* :class:`KeyValueStoreApp` — a KV server container serving GET/PUT over
  FreeFlow sockets, with Zipf-popular keys (the FaRM/Cassandra shape);
* :class:`ParameterServerApp` — synchronous data-parallel training:
  workers compute, then allreduce gradients over FreeFlow MPI.

Both are used by the examples and by the application-level benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.mpi import Communicator
from ..core.sockets import SocketLayer
from ..sim.monitor import Series
from ..sim.rand import RandomStream

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.container import Container
    from ..core.network import FreeFlowNetwork
    from ..sim.scheduler import Environment

__all__ = ["KeyValueStoreApp", "ParameterServerApp"]

_GET_HEADER = 64
_PUT_ACK = 16


class KeyValueStoreApp:
    """An in-memory KV store served over FreeFlow sockets."""

    def __init__(
        self,
        network: "FreeFlowNetwork",
        server: "Container",
        port: int = 6379,
        value_bytes: int = 4096,
        keys: int = 1024,
        zipf_skew: float = 0.99,
    ) -> None:
        self.network = network
        self.env: "Environment" = network.env
        self.server = server
        self.port = port
        self.value_bytes = value_bytes
        self.keys = keys
        self.zipf_skew = zipf_skew
        self.layer = SocketLayer(network)
        self.store: dict[int, str] = {}
        self.gets_served = 0
        self.puts_served = 0
        self.get_latencies = Series()
        #: Clients created so far; numbers each client's key stream.
        self.clients_created = 0
        self._listener = self.layer.listen(server, port)
        self.env.process(self._accept_loop())

    # -- server side ---------------------------------------------------------------

    def _accept_loop(self):
        while True:
            sock = yield from self._listener.accept()
            self.env.process(self._serve(sock))

    def _serve(self, sock):
        while True:
            __, request = yield from sock.recv()
            if request is None:
                continue
            op, key, value = request
            if op == "GET":
                data = self.store.get(key, "")
                yield from sock.send(
                    max(1, self.value_bytes), payload=("VAL", key, data)
                )
                self.gets_served += 1
            elif op == "PUT":
                self.store[key] = value
                yield from sock.send(_PUT_ACK, payload=("OK", key, None))
                self.puts_served += 1
            elif op == "QUIT":
                return

    # -- client side -----------------------------------------------------------------

    def client(self, container: "Container"):
        """Generator: returns a connected :class:`KvClient`."""
        sock = self.layer.socket(container)
        yield from sock.connect(self.server.ip, self.port)
        return KvClient(self, sock)


class KvClient:
    """One client connection to a :class:`KeyValueStoreApp`."""

    def __init__(self, app: KeyValueStoreApp, sock) -> None:
        self.app = app
        self.sock = sock
        self.env = app.env
        # Named from the app and the client's ordinal, so identically
        # built runs draw identical keys.
        app.clients_created += 1
        self.rng = RandomStream(
            0, f"kv-{app.server.name}:{app.port}/{app.clients_created}")

    def put(self, key: int, value: str):
        """Generator: PUT one key."""
        yield from self.sock.send(
            _GET_HEADER + self.app.value_bytes, payload=("PUT", key, value)
        )
        yield from self.sock.recv()

    def get(self, key: int):
        """Generator: GET one key; returns the value."""
        started = self.env.now
        yield from self.sock.send(_GET_HEADER, payload=("GET", key, None))
        __, reply = yield from self.sock.recv()
        self.app.get_latencies.add(self.env.now - started)
        return reply[2] if reply is not None else None

    def random_get(self):
        """Generator: GET a Zipf-popular key."""
        key = self.rng.zipf_index(self.app.keys, self.app.zipf_skew)
        value = yield from self.get(key)
        return value

    def close(self):
        """Generator: tell the server this session is over."""
        yield from self.sock.send(16, payload=("QUIT", 0, None))
        self.sock.close()


@dataclass
class TrainingStats:
    """Per-experiment outcome of a parameter-server run."""

    steps: int = 0
    step_times: Series = field(default_factory=Series)
    final_values: dict = field(default_factory=dict)


class ParameterServerApp:
    """Synchronous data-parallel training over FreeFlow MPI.

    Each step: every worker "computes" for ``compute_s`` (pure delay —
    GPU work does not contend for host network CPU), then the gradient
    of ``gradient_bytes`` is allreduced.  Network quality directly sets
    the step time, which is why container networking matters for ML.
    """

    def __init__(
        self,
        network: "FreeFlowNetwork",
        workers: list["Container"],
        gradient_bytes: int = 16 * 1024 * 1024,
        compute_s: float = 5e-3,
    ) -> None:
        if len(workers) < 2:
            raise ValueError("training needs at least two workers")
        self.env: "Environment" = network.env
        self.comm = Communicator(network, workers)
        self.gradient_bytes = gradient_bytes
        self.compute_s = compute_s
        self.stats = TrainingStats()

    def run(self, steps: int):
        """Generator: run ``steps`` synchronous training steps."""
        if steps <= 0:
            raise ValueError("steps must be positive")

        def worker(rank: int):
            endpoint = self.comm.endpoint(rank)
            gradient = float(rank + 1)
            for __ in range(steps):
                yield self.env.timeout(self.compute_s)
                gradient = yield from endpoint.allreduce(
                    gradient, self.gradient_bytes
                )
                gradient /= self.comm.size
            self.stats.final_values[rank] = gradient

        started = self.env.now
        procs = [
            self.env.process(worker(rank)) for rank in range(self.comm.size)
        ]
        for proc in procs:
            yield proc
        self.stats.steps = steps
        self.stats.step_times.add((self.env.now - started) / steps)
