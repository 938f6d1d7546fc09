"""Shared, contended resources for the simulated testbed.

Three families, mirroring the classic DES toolkit:

* :class:`Resource` — ``capacity`` identical slots with a FIFO wait queue.
  Used for CPU cores, NIC processing engines and the like.
* :class:`Store` — an unbounded-or-bounded queue of Python objects.  Used
  for packet queues, completion queues, mailbox-style channels.
* :class:`Tank` — a continuous level (named to avoid clashing with the
  Docker sense of "container").  Used for buffer accounting.

Requests are events, so processes write::

    with cpu.request() as req:
        if not req.processed:
            yield req
        yield env.timeout(work_seconds)

The ``with`` form guarantees release even if the process is interrupted —
important for migration and failure-injection experiments.  A plain
``yield req`` also works on a granted request; it just costs one event.

Performance notes: ``Store`` and ``Tank`` operations that can complete
immediately (a ``get`` against a non-empty buffer with no queued waiters,
a ``put`` into free space) take a *fast path*: the event is triggered on
the spot without touching the wait queues or re-running the matching loop.
Queued waiters always win over a newcomer — the fast path is only taken
when the relevant wait queue is empty, so FIFO ordering and the
no-starvation property are preserved exactly (see
``tests/sim/test_resources.py::TestStoreFastPath``).

A ``Resource`` request on a free slot with nobody queued is granted
synchronously: the request is appended to ``users`` and born processed,
with nothing scheduled, so a holder that checks ``processed`` runs on in
the same step.  Grant order is unchanged (FIFO within a priority, no
newcomer overtakes a waiter), but the holder now runs before other
events already queued at that instant instead of after them.  The wait
queue is kept sorted by (priority, arrival), so a release grants with
``pop(0)`` (see ``TestResourceSyncGrant`` and ``TestResourceGrantOrder``).

Memory notes: the wait queues (``Store._put_queue``/``_get_queue``,
``Tank._puts``/``_gets``, ``Resource.queue``) are plain lists, not
deques.  A simulated flow builds over a dozen stores and tanks, most of
whose queues never hold a waiter and the rest one parked worker; an
empty list costs 56 B against 760 B for an empty deque, and ``pop(0)``
on a queue that short is as cheap as ``popleft``.  Only ``Store.items``,
the data buffer that runs deep under load, stays a deque.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Environment

__all__ = [
    "Resource",
    "Request",
    "Release",
    "Store",
    "StorePut",
    "StoreGet",
    "Tank",
    "TankPut",
    "TankGet",
]


def _notify(resource: Any, kind: str, event: Event, amount: Any) -> None:
    """Report one resource operation to the engine's observers."""
    for observer in resource.env._observers:
        observer.on_resource_op(resource, kind, event, amount)


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager: exiting the ``with`` block releases the
    slot (or cancels the claim if it never triggered).
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._add_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if held, or withdraw from the wait queue."""
        self.resource._remove_request(self)

    def _abandon(self) -> None:
        self.cancel()


class Release(Event):
    """Event that triggers once a request's slot has been released."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._remove_request(request)
        self.succeed()


class Resource:
    """``capacity`` interchangeable slots with FIFO (or priority) queuing.

    ``priority`` on a request: lower value is served first; equal
    priorities keep FIFO order.  The plain ``request()`` uses priority 0,
    so a pure-FIFO resource just never passes the argument.
    """

    __slots__ = ("env", "_capacity", "users", "queue", "on_change", "label")

    def __init__(
        self,
        env: "Environment",
        capacity: int = 1,
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        #: Optional human-readable name, surfaced by diagnostics (the
        #: wait-for graph reports) instead of an anonymous repr.
        self.label = label
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []
        #: Optional hooks, called as f(resource) after each grant/release.
        self.on_change: list[Callable[["Resource"], None]] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event triggers when granted.

        On a free slot with nobody queued the request comes back already
        processed (granted, nothing scheduled).
        """
        request = Request(self, priority)
        if self.env._observers:
            _notify(self, "lock", request, None)
        return request

    def release(self, request: Request) -> Release:
        """Release a granted slot (also done by the ``with`` form)."""
        return Release(self, request)

    # -- internals --------------------------------------------------------

    def _add_request(self, request: Request) -> None:
        users = self.users
        queue = self.queue
        if not queue and len(users) < self._capacity:
            # Synchronous grant: a free slot and nobody queued ahead.  The
            # request is born processed (nothing scheduled), so a holder
            # that checks ``claim.processed`` carries on in the same step.
            request._ok = True
            request._value = None
            request._callbacks = None
            users.append(request)
            for hook in self.on_change:
                hook(self)
            return
        # Keep the queue sorted by (priority, arrival): insert after every
        # request of equal or better priority, so a grant is pop(0).
        priority = request.priority
        index = len(queue)
        while index and queue[index - 1].priority > priority:
            index -= 1
        queue.insert(index, request)
        self._trigger()

    def _remove_request(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger()
        elif request in self.queue:
            self.queue.remove(request)

    def _trigger(self) -> None:
        queue = self.queue
        users = self.users
        while queue and len(users) < self._capacity:
            request = queue.pop(0)
            users.append(request)
            request.succeed()
        for hook in self.on_change:
            hook(self)


class StorePut(Event):
    """Pending put into a :class:`Store` (waits if the store is full)."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        if not store._put_queue and len(store.items) < store.capacity:
            # Fast path: free space and nobody queued ahead — accept the
            # item on the spot.  Triggering before waking any parked gets
            # keeps the event order identical to the queued path.
            self.succeed()
            store.items.append(item)
            if store._get_queue:
                store._trigger()
            return
        store._put_queue.append(self)
        store._trigger()

    def _abandon(self) -> None:
        try:
            self.store._put_queue.remove(self)
        except ValueError:  # pragma: no cover - already satisfied
            pass


class StoreGet(Event):
    """Pending get from a :class:`Store` (waits if the store is empty)."""

    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.env)
        self.store = store
        self.predicate = predicate
        if not store._get_queue and store.items:
            # Fast path: an immediate handoff from the buffer, bypassing
            # the wait queue entirely.  Only taken when no getter is
            # queued ahead of us, so FIFO order among getters holds.
            if predicate is None:
                self.succeed(store.items.popleft())
            else:
                match = store._find(predicate)
                if match is None:
                    store._get_queue.append(self)
                    return
                index, item = match
                del store.items[index]
                self.succeed(item)
            if store._put_queue:
                # Our take freed a slot: admit the oldest blocked put.
                store._trigger()
            return
        store._get_queue.append(self)
        store._trigger()

    def _abandon(self) -> None:
        try:
            self.store._get_queue.remove(self)
        except ValueError:  # pragma: no cover - already satisfied
            pass


class Store:
    """FIFO object queue with optional capacity and filtered gets.

    ``get(predicate)`` retrieves the first item matching ``predicate``,
    which the verbs layer uses to match completions to a specific queue
    pair without draining unrelated completions.
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue", "label")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.label = label
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the event triggers once there is room."""
        return StorePut(self, item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the oldest item (matching ``predicate`` if given)."""
        event = StoreGet(self, predicate)
        if self.env._observers:
            _notify(self, "store-get", event, None)
        return event

    def try_get(self) -> Any:
        """Non-blocking get: pop the oldest item or return None."""
        if not self.items:
            return None
        item = self.items.popleft()
        if self._put_queue or self._get_queue:
            self._trigger()
        return item

    def drain(self) -> list[Any]:
        """Non-blocking drain: take *every* buffered item in FIFO order.

        The bulk counterpart of :meth:`try_get` — one call, one list, no
        per-item trigger churn.  Blocked puts are admitted afterwards
        (the drain freed capacity), so a bounded store keeps flowing;
        items admitted that way stay in the buffer for the *next* drain,
        preserving the rule that a drain only returns what had already
        been delivered when it was called.
        """
        if not self.items:
            return []
        items = list(self.items)
        self.items.clear()
        if self._put_queue or self._get_queue:
            self._trigger()
        return items

    def fail_getters(self, exception: BaseException) -> None:
        """Fail every parked get with ``exception``, in FIFO order."""
        pending = self._get_queue
        self._get_queue = []
        for get in pending:
            get.fail(exception)

    # -- internals --------------------------------------------------------

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit puts while capacity allows.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy gets that have a matching item.
            if self._get_queue and self.items:
                for get in tuple(self._get_queue):
                    match = self._find(get.predicate)
                    if match is None:
                        continue
                    index, item = match
                    del self.items[index]
                    self._get_queue.remove(get)
                    get.succeed(item)
                    progressed = True

    def _find(self, predicate: Optional[Callable[[Any], bool]]):
        for index, item in enumerate(self.items):
            if predicate is None or predicate(item):
                return index, item
        return None


class TankPut(Event):
    """Pending put of ``amount`` into a :class:`Tank` (waits for room)."""

    __slots__ = ("tank", "amount")

    def __init__(self, tank: "Tank", amount: float) -> None:
        super().__init__(tank.env)
        self.tank = tank
        self.amount = amount

    def _abandon(self) -> None:
        try:
            self.tank._puts.remove(self)
        except ValueError:  # pragma: no cover - already satisfied
            pass


class TankGet(Event):
    """Pending get of ``amount`` from a :class:`Tank` (waits for level)."""

    __slots__ = ("tank", "amount")

    def __init__(self, tank: "Tank", amount: float) -> None:
        super().__init__(tank.env)
        self.tank = tank
        self.amount = amount

    def _abandon(self) -> None:
        try:
            self.tank._gets.remove(self)
        except ValueError:  # pragma: no cover - already satisfied
            pass


class Tank:
    """A continuous level between 0 and ``capacity``.

    ``put``/``get`` block until the operation fits.  Used for shared-memory
    buffer pools and NIC ring occupancy accounting.
    """

    __slots__ = ("env", "capacity", "_level", "_puts", "_gets", "label")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        initial: float = 0.0,
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= initial <= capacity:
            raise ValueError(f"initial level {initial} outside [0, {capacity}]")
        self.env = env
        self.label = label
        self.capacity = capacity
        self._level = float(initial)
        self._puts: list[TankPut] = []
        self._gets: list[TankGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks while it would overflow capacity."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        if not self._puts and self._level + amount <= self.capacity:
            # Fast path: the put fits and nobody is queued ahead (puts are
            # served head-of-line, so an empty queue is required).
            self._level += amount
            event = Event(self.env)
            event.succeed()
            if self._gets:
                self._trigger()
        else:
            event = TankPut(self, amount)
            self._puts.append(event)
            # No _trigger: the head put still does not fit (queue was non-empty
            # or this put overflows), and the level did not change, so no
            # queued get can have become satisfiable either.
        if self.env._observers:
            _notify(self, "tank-put", event, amount)
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks while the level is insufficient."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        if not self._gets and self._level >= amount:
            self._level -= amount
            event = Event(self.env)
            event.succeed()
            if self._puts:
                self._trigger()
        else:
            event = TankGet(self, amount)
            self._gets.append(event)
        if self.env._observers:
            _notify(self, "tank-get", event, amount)
        return event

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts:
                put = self._puts[0]
                if self._level + put.amount <= self.capacity:
                    self._puts.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._gets:
                get = self._gets[0]
                if self._level >= get.amount:
                    self._gets.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
