"""The simulation environment: virtual clock plus event queue.

:class:`Environment` owns the queues of scheduled events and the current
simulated time.  All FreeFlow experiments run inside one environment, so a
whole cluster — hosts, NICs, agents, containers, the orchestrator — advances
deterministically in virtual time.

Time unit convention for this project: **seconds** (floats).  Hardware
models convert from cycles / bytes / bits internally.

Performance notes: the classic single-heap design pays O(log n) per event,
but almost no event in a FreeFlow run actually needs it.  The environment
therefore keeps three internally-sorted structures and ``step()`` pops the
globally smallest ``(time, priority, eid)`` key, which makes the execution
order *identical* to a single heap — time, then priority, then creation
order — while the common cases are O(1):

* ``_ready`` — FIFO deque of immediate events (``succeed()`` with no
  delay: store handoffs, process resumes, resource grants).  Naturally
  sorted: appended at the current time with increasing event ids, and the
  clock never moves backwards.
* ``_tail`` — deque of *delayed* events whose keys arrive in
  non-decreasing order (the dominant pattern: fixed service latencies
  re-armed as time advances).  A schedule whose key is not ``>=`` the
  tail's last entry falls back to the heap.
* ``_queue`` — heap for everything else: urgent (interrupt) events and
  out-of-order delayed inserts.

Instrumentation (the runtime sanitizer, the engine profiler, the
wait-for graph) plugs in through one seam: an :class:`Observer` attached
with :meth:`Environment.attach` sees every event popped by ``step()``,
every normal return of ``run()`` and every blocking-capable resource
operation.  While any observer is attached ``run()`` drives the queues
through ``step()``; with none attached it runs its inlined loop, and the
resources skip their notification with one tuple truth test.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Iterable, Optional

from .events import NO_CALLBACKS, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGen

__all__ = ["Environment", "EmptySchedule", "Observer", "StopSimulation"]

#: Scheduling priorities: URGENT events (interrupts) run before NORMAL
#: events that share the same timestamp.
URGENT = 0
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by ``step()`` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to end ``run(until=event)`` early."""


class Observer:
    """Base class for engine instrumentation; every hook is a no-op.

    ``entry`` is the ``(time, priority, eid, event)`` queue entry being
    processed.  ``after_step`` runs even when a callback raises, so a
    tool can account for the failing event too.  ``kind`` of a resource
    operation is one of ``"lock"`` (:meth:`Resource.request`),
    ``"store-get"``, ``"tank-get"`` or ``"tank-put"``; ``amount`` is the
    tank amount (None otherwise) and ``event`` the returned event.
    """

    __slots__ = ()

    def before_step(self, env: "Environment", entry: tuple) -> None:
        """Called by ``step()`` before it pops ``entry``."""

    def after_step(self, env: "Environment", entry: tuple) -> None:
        """Called by ``step()`` after ``entry``'s callbacks ran (or raised)."""

    def after_run(self, env: "Environment") -> None:
        """Called when ``run()`` returns normally."""

    def on_resource_op(
        self, resource: Any, kind: str, event: Event, amount: Any
    ) -> None:
        """Called after a resource request/get/put created ``event``."""


class Environment:
    """Discrete-event execution environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds).
    """

    #: Process-wide observers, in attach order (see :meth:`attach`).  A
    #: class attribute because arming a tool (``REPRO_SANITIZE=1``) arms
    #: every environment in the process.
    _observers: "tuple[Observer, ...]" = ()

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of urgent / out-of-order delayed events.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: FIFO of zero-delay NORMAL-priority events (the common case).
        self._ready: deque[tuple[float, int, int, Event]] = deque()
        #: Monotone deque of delayed NORMAL events (keys non-decreasing).
        self._tail: deque[tuple[float, int, int, Event]] = deque()
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Total events processed by :meth:`step` (perf accounting).
        self.events_processed: int = 0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- event creation helpers ------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGen) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` succeeds."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any event in ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling and execution -----------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay == 0.0 and priority == NORMAL:
            # Fast path: immediate events keep FIFO order on a deque; no
            # heap, no log-n sift.
            self._ready.append((self._now, NORMAL, next(self._eid), event))
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        entry = (self._now + delay, priority, next(self._eid), event)
        if priority == NORMAL:
            tail = self._tail
            if not tail or entry >= tail[-1]:
                # Monotone insert (fixed service latencies re-armed as the
                # clock advances): O(1) append instead of a heap sift.
                tail.append(entry)
                return
        heapq.heappush(self._queue, entry)

    def _front(self) -> "Optional[tuple[float, int, int, Event]]":
        """The globally next entry of the three queues, or None if empty."""
        best = self._ready[0] if self._ready else None
        tail = self._tail
        if tail and (best is None or tail[0] < best):
            best = tail[0]
        queue = self._queue
        if queue and (best is None or queue[0] < best):
            best = queue[0]
        return best

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        entry = self._front()
        return float("inf") if entry is None else entry[0]

    # -- observers ----------------------------------------------------------

    @classmethod
    def attach(cls, observer: "Observer") -> None:
        """Add ``observer`` to every environment in the process."""
        if observer not in cls._observers:
            cls._observers = cls._observers + (observer,)

    @classmethod
    def detach(cls, observer: "Observer") -> None:
        """Remove ``observer`` (a no-op if it is not attached)."""
        cls._observers = tuple(
            attached for attached in cls._observers if attached is not observer
        )

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        observers = self._observers
        if observers:
            entry = self._front()
            if entry is None:
                raise EmptySchedule()
            for observer in observers:
                observer.before_step(self, entry)
        # Pop the globally smallest (time, priority, eid) of the three
        # internally-sorted structures (keep in sync with run()'s drain
        # loop).  Each branch below compares at most two front keys.
        ready = self._ready
        tail = self._tail
        queue = self._queue
        if ready:
            best = ready[0]
            if tail and tail[0] < best:
                best = tail[0]
                if queue and queue[0] < best:
                    self._now, _, _, event = heapq.heappop(queue)
                else:
                    self._now, _, _, event = tail.popleft()
            elif queue and queue[0] < best:
                self._now, _, _, event = heapq.heappop(queue)
            else:
                self._now, _, _, event = ready.popleft()
        elif tail:
            if queue and queue[0] < tail[0]:
                self._now, _, _, event = heapq.heappop(queue)
            else:
                self._now, _, _, event = tail.popleft()
        elif queue:
            self._now, _, _, event = heapq.heappop(queue)
        else:
            raise EmptySchedule()
        self.events_processed += 1

        try:
            # Inlined Event._mark_processed + dispatch: the compact
            # callback representation means no list is built for 0/1-
            # waiter events.
            callbacks = event._callbacks
            event._callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(event)
            elif callbacks is not NO_CALLBACKS:
                callbacks(event)

            if not event._ok and not event.defused:
                # A failure that nobody consumed: surface it loudly.
                raise event._value
        finally:
            if observers:
                for observer in observers:
                    observer.after_step(self, entry)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        stop_at = float("inf")
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if not stop_event.processed:
                stop_event._add_callback(self._stop_on)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )

        try:
            if stop_event is not None and stop_event.processed:
                pass  # nothing to run for
            elif self._observers:
                # Checked loop: every event goes through step() and so
                # past every observer.
                while True:
                    entry = self._front()
                    if entry is None or entry[0] > stop_at:
                        break
                    self.step()
            else:
                # No observers: drain the queues with step()'s body
                # inlined (keep in sync with step()) — the per-event method
                # call is measurable at millions of events per run.  Ready
                # entries sit at the current time, which never passes
                # ``stop_at``, so only a tail or heap front can lie beyond
                # the bound.
                ready = self._ready
                tail = self._tail
                queue = self._queue
                heappop = heapq.heappop
                events = 0
                try:
                    while ready or tail or queue:
                        if ready and not queue and (
                            not tail or tail[0][0] > ready[0][0]
                        ):
                            # Batched same-timestamp drain.  Every pending
                            # ready entry shares one timestamp (ready
                            # entries are appended at the current time and
                            # the clock cannot advance past one), and the
                            # tail/heap heads are strictly later — so the
                            # whole run pops FIFO with no per-event
                            # three-way compare, in heap-identical order
                            # (appends during the run land at the same
                            # time with larger eids, i.e. after).  A rack
                            # failure fanning out thousands of same-tick
                            # callbacks rides this loop.  Bail out to the
                            # careful loop if an URGENT event lands on the
                            # heap mid-run (it must preempt the rest), or
                            # if a mid-run append seeds an empty tail at
                            # the current instant (sub-ulp delays round
                            # to now).
                            popleft = ready.popleft
                            while ready:
                                self._now, _, _, event = popleft()
                                events += 1
                                callbacks = event._callbacks
                                event._callbacks = None
                                if type(callbacks) is list:
                                    for callback in callbacks:
                                        callback(event)
                                elif callbacks is not NO_CALLBACKS:
                                    callbacks(event)
                                if not event._ok and not event.defused:
                                    raise event._value
                                if queue or (
                                    tail and tail[0][0] <= self._now
                                ):
                                    break
                            continue
                        if ready:
                            best = ready[0]
                            if tail and tail[0] < best:
                                best = tail[0]
                                if queue and queue[0] < best:
                                    self._now, _, _, event = heappop(queue)
                                else:
                                    self._now, _, _, event = tail.popleft()
                            elif queue and queue[0] < best:
                                self._now, _, _, event = heappop(queue)
                            else:
                                self._now, _, _, event = ready.popleft()
                        elif tail:
                            if queue and queue[0] < tail[0]:
                                if queue[0][0] > stop_at:
                                    break
                                self._now, _, _, event = heappop(queue)
                            else:
                                if tail[0][0] > stop_at:
                                    break
                                self._now, _, _, event = tail.popleft()
                        else:
                            if queue[0][0] > stop_at:
                                break
                            self._now, _, _, event = heappop(queue)
                        events += 1
                        callbacks = event._callbacks
                        event._callbacks = None
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not NO_CALLBACKS:
                            callbacks(event)
                        if not event._ok and not event.defused:
                            raise event._value
                finally:
                    self.events_processed += events
        except StopSimulation as stop:
            stop_event = stop.args[0]
        else:
            if stop_event is not None and not stop_event.processed:
                raise RuntimeError(
                    "simulation ran out of events before `until` event triggered"
                )
            if stop_at != float("inf"):
                self._now = stop_at

        if stop_event is not None and not stop_event._ok:
            raise stop_event._value
        for observer in self._observers:
            observer.after_run(self)
        return None if stop_event is None else stop_event._value

    @staticmethod
    def _stop_on(event: Event) -> None:
        event.defused = True
        raise StopSimulation(event)
