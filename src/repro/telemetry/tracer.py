"""Span-based flow tracer: where does a message's time actually go?

The paper's argument is *per-layer* — FreeFlow wins by deleting stack
layers (veth → bridge → overlay router → kernel TCP) from the data path —
so the reproduction needs to show **where** sim-time goes inside a path,
not just end-to-end Gb/s.  The tracer records, per sampled message, a
sequence of named *segments* (``queue``, ``copy``, ``nic``, ``wire``,
``kernel``, …) with absolute sim timestamps; anything between two
recorded segments (inbox waits, scheduler hand-offs) is attributed to
``wait`` at breakdown time, so segment sums always equal the end-to-end
latency exactly.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Hot paths guard every hook
   with ``tracer.ACTIVE is None`` — one module-attribute load and a
   pointer compare per message, nothing else.  The tracer rows of
   ``bench_observability.py`` measure the 0%/1%/100% sampling cost, and
   the engine smoke's events/sec floor polices the disabled path.
2. **Deterministic sampling.**  Each flow gets its own seeded
   :class:`repro.sim.rand.RandomStream` (derived from ``sha256(seed:flow)``),
   so two runs with the same seed trace the *same* messages, and tracing
   one flow never perturbs the sampling decisions of another.  No tracer
   randomness bypasses ``repro.sim.rand`` (simlint rule SIM001).
3. **Bounded memory.**  At most ``max_traces_per_flow`` finished traces
   are kept per flow; excess messages are counted in ``dropped`` and not
   traced at all (cheaper than tracing and discarding).

Enable with :func:`repro.telemetry.session` (context manager) or by
calling :func:`enable` / :func:`disable` directly.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..sim.rand import RandomStream

__all__ = [
    "ACTIVE",
    "SEGMENT_ORDER",
    "MessageTrace",
    "Tracer",
    "enable",
    "disable",
]

#: The currently active tracer, or None when tracing is disabled.  Hot
#: paths check this module attribute directly; keeping it a plain global
#: (instead of a getter) is what makes the disabled path near-free.
ACTIVE: Optional["Tracer"] = None

#: Canonical display order for the per-hop breakdown.  Segments not in
#: this list sort after it, alphabetically.
SEGMENT_ORDER = (
    "post",      # verbs/library posting cost (CPU)
    "queue",     # admission: ring/window backpressure + per-message CPU
    "copy",      # memcpy through the host memory bus
    "nic",       # NIC message engine + DMA latency
    "wire",      # serialisation onto the link / fabric transfer
    "overlay",   # user-space overlay router service
    "kernel",    # kernel stack CPU + syscall/stack latency (or notify)
    "consume",   # receiver-side per-message CPU + ring/window release
    "wait",      # unattributed gaps: inbox waits, scheduler hand-offs
)

_ORDER_INDEX = {name: index for index, name in enumerate(SEGMENT_ORDER)}


def _segment_sort_key(name: str) -> tuple:
    return (_ORDER_INDEX.get(name, len(SEGMENT_ORDER)), name)


class MessageTrace:
    """The span record of one sampled message crossing one flow.

    Segments are ``(name, start_s, end_s)`` triples in absolute sim
    time.  They are recorded by the hot paths as the message advances;
    :meth:`breakdown` turns them into per-segment durations with gaps
    attributed to ``wait`` (overlaps are clipped so durations always sum
    to ``end_s - start_s``).
    """

    __slots__ = ("flow", "mechanism", "start_s", "end_s", "segments")

    def __init__(self, flow: str, mechanism: str, start_s: float) -> None:
        self.flow = flow
        self.mechanism = mechanism
        self.start_s = start_s
        self.end_s = math.nan
        self.segments: list[tuple[str, float, float]] = []

    def add(self, name: str, start_s: float, end_s: float) -> None:
        """Record one named segment (absolute sim times)."""
        # Bounded by the pipeline depth: one entry per hop of one message
        # (~6 for the deepest mechanism).  simlint: disable=SIM004
        self.segments.append((name, start_s, end_s))

    @property
    def closed(self) -> bool:
        return self.end_s == self.end_s  # not NaN

    @property
    def total_s(self) -> float:
        """End-to-end sim time from send entry to receive return."""
        return self.end_s - self.start_s

    def breakdown(self) -> dict[str, float]:
        """Per-segment durations; gaps become ``wait``; sums to total.

        Overlapping segments (rare — instrumentation points are chosen
        to be sequential per message) are clipped against the sweep
        cursor so no sim time is counted twice.
        """
        out: dict[str, float] = {}
        cursor = self.start_s
        wait = 0.0
        for name, start, end in sorted(
            self.segments, key=lambda seg: (seg[1], seg[2])
        ):
            if start > cursor:
                wait += start - cursor
                cursor = start
            if end > cursor:
                out[name] = out.get(name, 0.0) + (end - cursor)
                cursor = end
        if self.closed and self.end_s > cursor:
            wait += self.end_s - cursor
        if wait > 0.0:
            out["wait"] = wait
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.total_s * 1e6:.2f}us" if self.closed else "open"
        return (
            f"<MessageTrace {self.flow} {len(self.segments)} segments "
            f"{state}>"
        )


class Tracer:
    """Collects sampled :class:`MessageTrace` records across all flows."""

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0x7E1E,
        max_traces_per_flow: int = 512,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate {sample_rate} outside [0, 1]")
        if max_traces_per_flow <= 0:
            raise ValueError("max_traces_per_flow must be positive")
        self.sample_rate = sample_rate
        self.seed = seed
        self.max_traces_per_flow = max_traces_per_flow
        #: Finished traces in completion order (the exporters walk this).
        self.traces: list[MessageTrace] = []
        #: Stored-trace counts per flow (enforces the per-flow cap).
        self.counts: dict[str, int] = {}
        #: Messages not traced because their flow hit the storage cap.
        self.dropped = 0
        #: Sampling decisions made (traced + skipped), for rate checks.
        self.offered = 0
        self._samplers: dict[str, RandomStream] = {}
        self._open = 0

    # -- sampling ---------------------------------------------------------

    def _flow_rng(self, flow: str) -> RandomStream:
        # One seeded stream per flow (sha256(seed:flow) derivation inside
        # RandomStream — the same scheme this method used to hand-roll),
        # so sampling decisions are replay-deterministic and independent
        # across flows.  All tracer randomness flows through
        # repro.sim.rand (simlint rule SIM001).
        return RandomStream(self.seed, flow)

    def begin(
        self, flow: str, mechanism: str, now: float
    ) -> Optional[MessageTrace]:
        """Start a trace for one message, or None if not sampled.

        The per-flow RNG makes the decision sequence deterministic given
        (seed, flow, message order within the flow) — independent of any
        other flow's traffic.
        """
        self.offered += 1
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0:
            rng = self._samplers.get(flow)
            if rng is None:
                # One small RNG per flow label, scoped to the session;
                # deliberate so one flow's traffic never perturbs
                # another's sampling sequence.
                # simlint: disable=SIM009
                rng = self._samplers[flow] = self._flow_rng(flow)
            if rng.random() >= rate:
                return None
        if self.counts.get(flow, 0) >= self.max_traces_per_flow:
            self.dropped += 1
            return None
        self._open += 1
        return MessageTrace(flow, mechanism, now)

    def finish(self, trace: MessageTrace, now: float) -> None:
        """Close a trace at receive time and store it (idempotent)."""
        if trace.closed:
            return
        trace.end_s = now
        self._open -= 1
        # One counter per flow label, session-scoped, capped reads via
        # max_traces_per_flow.  simlint: disable=SIM009
        self.counts[trace.flow] = self.counts.get(trace.flow, 0) + 1
        # Bounded upstream: begin() stops sampling a flow once it reaches
        # max_traces_per_flow, so this list is capped at
        # flows * max_traces_per_flow.  simlint: disable=SIM004
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)

    # -- aggregation ------------------------------------------------------

    def flows(self) -> list[str]:
        """Flow names with at least one stored trace, in first-seen order."""
        return list(self.counts)

    def breakdown(
        self, flow: Optional[str] = None, start: int = 0
    ) -> dict:
        """Aggregate mean per-segment durations over stored traces.

        ``flow`` filters to one flow; ``start`` restricts to traces
        stored at index >= start (callers snapshot ``len(tracer)`` before
        a measurement to scope the aggregate to it).  Returns::

            {"count": n, "mean_total_s": t,
             "segments": {name: mean_seconds, ...}}   # display order
        """
        selected = [
            trace for trace in self.traces[start:]
            if flow is None or trace.flow == flow
        ]
        if not selected:
            return {"count": 0, "mean_total_s": 0.0, "segments": {}}
        sums: dict[str, float] = {}
        total = 0.0
        for trace in selected:
            total += trace.total_s
            for name, duration in trace.breakdown().items():
                sums[name] = sums.get(name, 0.0) + duration
        n = len(selected)
        segments = {
            name: sums[name] / n
            for name in sorted(sums, key=_segment_sort_key)
        }
        return {
            "count": n,
            "mean_total_s": total / n,
            "segments": segments,
        }

    def by_flow(self, start: int = 0) -> dict[str, dict]:
        """Per-flow aggregates (see :meth:`breakdown`), first-seen order."""
        flows: list[str] = []
        for trace in self.traces[start:]:
            if trace.flow not in flows:
                flows.append(trace.flow)
        return {flow: self.breakdown(flow=flow, start=start)
                for flow in flows}


def enable(
    sample_rate: float = 1.0,
    seed: int = 0x7E1E,
    max_traces_per_flow: int = 512,
) -> Tracer:
    """Install (and return) a fresh tracer as the active one."""
    global ACTIVE
    ACTIVE = Tracer(sample_rate, seed, max_traces_per_flow)
    return ACTIVE


def disable() -> Optional[Tracer]:
    """Remove the active tracer (returns it, for inspection)."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    return tracer
