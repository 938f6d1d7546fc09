"""CPU model: a set of cores as a contended resource with accounting.

All software costs in the simulation — kernel stack traversal, memcpy,
verbs posting, overlay routing — are expressed in *cycles* and executed
here, so CPU utilisation (the paper's third metric) falls out of the same
mechanism that limits throughput.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.monitor import IntervalRecorder
from ..sim.resources import Request, Resource
from .specs import CpuSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["CpuSet", "CoreClaim"]


class CoreClaim:
    """A long-lived hold on one core (e.g. a DPDK poll-mode thread).

    Created via :meth:`CpuSet.dedicate`; call :meth:`release` to give the
    core back.  The core counts as busy for the whole claim, matching how
    a spinning PMD thread shows up in ``top``.
    """

    def __init__(self, cpu: "CpuSet", request: Request) -> None:
        self._cpu = cpu
        self._request = request
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._request.cancel()
        self._cpu.recorder.idle()


class CpuSet:
    """``spec.cores`` identical cores at ``spec.frequency_hz``.

    The main entry point is :meth:`execute`, a generator that occupies one
    core for the wall time of ``cycles`` of work::

        yield from cpu.execute(spec.kernel.syscall_cycles)
    """

    def __init__(self, env: "Environment", spec: Optional[CpuSpec] = None) -> None:
        self.env = env
        self.spec = spec or CpuSpec()
        self._cores = Resource(env, capacity=self.spec.cores)
        self.recorder = IntervalRecorder(env)

    @property
    def cores(self) -> int:
        return self.spec.cores

    @property
    def busy_cores(self) -> float:
        """How many cores are busy right now."""
        return self.recorder.active

    def seconds_for(self, cycles: float) -> float:
        """Wall time for ``cycles`` on one core (no queueing)."""
        return self.spec.seconds_for(cycles)

    def execute(self, cycles: float, priority: int = 0):
        """Run ``cycles`` of work on one core (generator; yield from it).

        Queues if all cores are busy; the wait time is how CPU saturation
        turns into throughput loss in the experiments.
        """
        if cycles < 0:
            raise ValueError(f"negative cycles {cycles}")
        if cycles == 0:
            return
        with self._cores.request(priority=priority) as claim:
            if not claim.processed:
                yield claim
            self.recorder.busy()
            try:
                yield self.env.timeout(self.seconds_for(cycles))
            finally:
                self.recorder.idle()

    def hold(self, seconds: float, priority: int = 0):
        """Occupy one core for a fixed wall time (for stall-dominated work
        such as memcpy waiting on the memory bus)."""
        if seconds < 0:
            raise ValueError(f"negative seconds {seconds}")
        with self._cores.request(priority=priority) as claim:
            if not claim.processed:
                yield claim
            self.recorder.busy()
            try:
                yield self.env.timeout(seconds)
            finally:
                self.recorder.idle()

    def dedicate(self) -> CoreClaim:
        """Permanently claim a core (DPDK PMD thread).

        The claim is granted immediately if a core is free; otherwise this
        raises, because a real PMD pin would simply starve — surfacing the
        misconfiguration is more useful in experiments.
        """
        request = self._cores.request(priority=-1)
        if not request.triggered:
            request.cancel()
            raise RuntimeError(
                f"no free core to dedicate ({self._cores.count}/{self.cores} busy)"
            )
        self.recorder.busy()
        return CoreClaim(self, request)

    def utilisation(self) -> float:
        """Mean busy cores over the measurement window (1.0 = one core)."""
        return self.recorder.utilisation()

    def utilisation_percent(self) -> float:
        """Paper-style CPU usage: 200.0 means two cores' worth."""
        return self.recorder.utilisation_percent()

    def reset_accounting(self) -> None:
        self.recorder.reset()
