"""MetricsRegistry: one queryable namespace for every counter in the sim.

Before this module, every layer kept its own ad-hoc stats object
(``LaneStats``, ``TcpStats``, ``AgentStats``, per-host utilisation
recorders, orchestrator query counters, …) and each benchmark hand-picked
the ones it knew about.  The registry gives them all one namespace::

    repro.lane.shm.messages_delivered     (gauge, reads LaneStats)
    repro.lane.rdma.latency_s             (histogram view over lanes)
    repro.host.h0.cpu_pct                 (gauge, reads CpuSet)
    repro.orchestrator.cache_hits         (gauge, reads FreeFlowNetwork)
    repro.socket.bytes_sent               (counter, socket layer bumps it)
    repro.bench.pingpong.latency_s        (histogram, run_pingpong feeds it)

Two integration styles, chosen for hot-path cost:

* **Pull (gauges / series views)** — lanes, hosts and control-plane
  objects register a *closure* once at construction; the registry reads
  it lazily at :meth:`MetricsRegistry.snapshot` time.  Zero per-message
  cost, which is why the existing stats objects stay where they are and
  the registry becomes the query layer over them.
* **Push (counters / histograms)** — translation layers (sockets, MPI)
  and the measurement harness bump counters explicitly; these sites are
  per-call, not per-byte, and every helper no-ops in one compare when
  the registry is disabled (``ACTIVE is None``).

Histograms are backed by :class:`repro.sim.monitor.StreamingSeries`, so
a metric fed millions of samples stays O(1) memory.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..sim.monitor import StreamingSeries

__all__ = [
    "ACTIVE",
    "KNOWN_FAMILIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enable",
    "disable",
    "counter_inc",
    "histogram_observe",
    "host_utilisation",
]

#: The currently active registry, or None when metrics are disabled.
ACTIVE: Optional["MetricsRegistry"] = None

#: Metric families bumped from *outside* this module (push-style call
#: sites: socket/MPI translation layers, the vNIC, the bench harness).
#: The pull-style families (``repro.lane``, ``repro.host``,
#: ``repro.orchestrator``, ``repro.flows``) are implied by the
#: ``register_*`` methods below.  simlint's SIM005 rule cross-checks
#: every metric-name literal in the tree against the union of both, so
#: a typo'd namespace ("repro.sokcet.sends") fails the lint gate instead
#: of silently minting a new family.
KNOWN_FAMILIES = (
    "repro.bench",
    "repro.chaos",
    "repro.cluster",
    "repro.fabric",
    "repro.mpi",
    "repro.socket",
    "repro.telemetry",
    "repro.verbs",
    "repro.vnic",
)


def _host_readers(host) -> tuple:
    """The per-host utilisation readers, defined once.

    :meth:`MetricsRegistry.register_host` builds its gauges from this
    table and :func:`host_utilisation` evaluates it directly, so the
    bench harness and the registry can never disagree about what
    "host utilisation" means (they used to duplicate these reads).
    """
    return (
        ("cpu_pct", host.cpu.utilisation_percent),
        ("nic_engine_util", host.nic.engine_utilisation),
        ("link_util", host.nic.link_utilisation),
        ("membus_util", host.memory.pipe.utilisation),
    )


def host_utilisation(host) -> dict[str, float]:
    """One host's utilisation snapshot: suffix -> value (floats)."""
    return {suffix: float(reader()) for suffix, reader in _host_readers(host)}


class Counter:
    """Monotonically increasing value (calls, bytes, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time value: either set explicitly or read from a closure."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Distribution metric backed by a bounded StreamingSeries."""

    __slots__ = ("name", "series")

    def __init__(
        self,
        name: str,
        reservoir: int = StreamingSeries.DEFAULT_RESERVOIR,
        series: Optional[StreamingSeries] = None,
    ) -> None:
        self.name = name
        self.series = series if series is not None else StreamingSeries(
            reservoir=reservoir
        )

    def observe(self, sample: float) -> None:
        self.series.add(sample)

    def summary(self) -> dict[str, float]:
        if not len(self.series):
            return {"count": 0.0}
        return self.series.summary()


def _merged_summary(series_list: Iterable[StreamingSeries]) -> dict:
    """Summary over several StreamingSeries without merging their state.

    Count/sum/min/max combine exactly; percentiles come from the
    concatenated reservoirs (each a uniform sample of its stream —
    the union is only approximately uniform when stream sizes differ,
    which is fine for a breakdown table).
    """
    populated = [s for s in series_list if len(s)]
    if not populated:
        return {"count": 0.0}
    count = sum(s.count for s in populated)
    total = sum(s.total() for s in populated)
    merged = StreamingSeries()
    for series in populated:
        merged.extend(series.samples)
    return {
        "count": float(count),
        "mean": total / count,
        "min": min(s.minimum() for s in populated),
        "p50": merged.percentile(50),
        "p99": merged.percentile(99),
        "max": max(s.maximum() for s in populated),
    }


class MetricsRegistry:
    """Named counters, gauges and histograms with a dotted namespace."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        #: mechanism key -> list of lane-stats objects (pull aggregation)
        self._lane_stats: dict[str, list] = {}
        #: metric name -> list of StreamingSeries summarised at snapshot
        self._series_views: dict[str, list] = {}

    # -- metric creation (get-or-create, type-checked) --------------------

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric
        return None

    def counter(self, name: str) -> Counter:
        metric = self._get(name, Counter)
        if metric is None:
            # Keyspace is the dotted metric namespace — fixed by the
            # instrumentation sites in the program text (SIM005 audits
            # every name), not by traffic volume.
            # simlint: disable=SIM009
            metric = self._metrics[name] = Counter(name)
        return metric

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        metric = self._get(name, Gauge)
        if metric is None:
            # Same bounded metric namespace as counter() above.
            # simlint: disable=SIM009
            metric = self._metrics[name] = Gauge(name, fn)
        return metric

    def histogram(
        self,
        name: str,
        reservoir: int = StreamingSeries.DEFAULT_RESERVOIR,
        series: Optional[StreamingSeries] = None,
    ) -> Histogram:
        metric = self._get(name, Histogram)
        if metric is None:
            # Same bounded metric namespace as counter() above.
            # simlint: disable=SIM009
            metric = self._metrics[name] = Histogram(name, reservoir, series)
        return metric

    # -- pull-style registration ------------------------------------------

    def register_lane(self, lane) -> None:
        """Publish one transport lane's stats under its mechanism.

        Aggregates across all lanes of the mechanism; the gauges read the
        live stats objects, so there is no per-delivery cost at all.
        """
        mechanism = getattr(lane, "mechanism", None)
        key = getattr(mechanism, "value", None) or str(mechanism)
        # Keyspace is the Mechanism enum (shm/rdma/dpdk/tcp/...).
        # simlint: disable=SIM009
        bucket = self._lane_stats.setdefault(key, [])
        bucket.append(lane.stats)
        if len(bucket) > 1:
            return
        prefix = f"repro.lane.{key}"
        self.gauge(f"{prefix}.lanes", fn=lambda b=bucket: float(len(b)))
        self.gauge(
            f"{prefix}.messages_sent",
            fn=lambda b=bucket: float(sum(s.messages_sent for s in b)),
        )
        self.gauge(
            f"{prefix}.messages_delivered",
            fn=lambda b=bucket: float(sum(s.messages_delivered for s in b)),
        )
        self.gauge(
            f"{prefix}.payload_bytes",
            fn=lambda b=bucket: float(sum(s.payload_bytes for s in b)),
        )
        # One view per mechanism — same enum-bounded keyspace.
        # simlint: disable=SIM009
        self._series_views[f"{prefix}.latency_s"] = bucket

    def register_host(self, host) -> None:
        """Publish one host's utilisation gauges (CPU, NIC, memory bus)."""
        prefix = f"repro.host.{host.name}"
        if f"{prefix}.cpu_pct" in self._metrics:
            return
        for suffix, reader in _host_readers(host):
            self.gauge(f"{prefix}.{suffix}", fn=reader)

    def register_network(self, network) -> None:
        """Publish a FreeFlowNetwork's control-plane gauges."""
        prefix = "repro.orchestrator"
        if f"{prefix}.cache_hits" in self._metrics:
            return
        self.gauge(f"{prefix}.cache_hits",
                   fn=lambda n=network: float(n.cache_hits))
        self.gauge(f"{prefix}.cache_misses",
                   fn=lambda n=network: float(n.cache_misses))
        self.gauge(f"{prefix}.queries_served",
                   fn=lambda n=network: float(n.orchestrator.queries_served))
        self.gauge(f"{prefix}.connections",
                   fn=lambda n=network: float(len(n.connections)))
        table = getattr(network, "flows", None)
        if table is not None:
            from ..core.flows import FlowState

            flows = "repro.flows"
            self.gauge(f"{flows}.open", fn=lambda t=table: float(len(t)))
            self.gauge(
                f"{flows}.active",
                fn=lambda t=table: float(t.count(FlowState.ACTIVE)),
            )
            self.gauge(
                f"{flows}.broken",
                fn=lambda t=table: float(t.count(FlowState.BROKEN)),
            )
            self.gauge(f"{flows}.closed_total",
                       fn=lambda t=table: float(t.closed_total))
            self.gauge(f"{flows}.transitions",
                       fn=lambda t=table: float(t.transitions))

    def register_fabric(self, fabric) -> None:
        """Publish the physical fabric's gauges (attached NICs, active
        partitions; on a fat-tree also link counts, selector state and
        per-tier link utilisation rollups)."""
        prefix = "repro.fabric"
        if f"{prefix}.nics" in self._metrics:
            return
        self.gauge(f"{prefix}.nics",
                   fn=lambda f=fabric: float(len(f.nics)))
        self.gauge(f"{prefix}.partitions",
                   fn=lambda f=fabric: float(len(f._partitions)))
        topology = getattr(fabric, "topology", None)
        if topology is None:
            return
        self.gauge(f"{prefix}.links",
                   fn=lambda t=topology: float(len(t.links())))
        self.gauge(f"{prefix}.links_down",
                   fn=lambda t=topology: float(len(t.down_links())))
        selector = fabric.selector
        self.gauge(f"{prefix}.flows_tracked",
                   fn=lambda s=selector: float(s.flow_count()))
        self.gauge(f"{prefix}.rehashes",
                   fn=lambda s=selector: float(s.rehashes))
        self.gauge(f"{prefix}.detours",
                   fn=lambda s=selector: float(s.detours))
        self.gauge(f"{prefix}.reorders_seen",
                   fn=lambda f=fabric: float(f.tracer.reorders))
        # One gauge per link tier ("edge-agg", "agg-core"): a fixed
        # two-entry keyspace set by the topology model, not by traffic.
        for tier in ("edge-agg", "agg-core"):
            self.gauge(
                f"{prefix}.util.{tier}",
                fn=lambda t=topology, tier=tier: float(
                    t.tier_utilisation()[tier]
                ),
            )

    def register_cluster(self, orchestrator) -> None:
        """Publish fleet-level lifecycle gauges for a ClusterOrchestrator."""
        prefix = "repro.cluster"
        if f"{prefix}.hosts" in self._metrics:
            return
        self.gauge(f"{prefix}.hosts",
                   fn=lambda o=orchestrator: float(len(o._hosts)))
        self.gauge(f"{prefix}.hosts_down",
                   fn=lambda o=orchestrator: float(len(o._down_hosts)))
        self.gauge(f"{prefix}.vms",
                   fn=lambda o=orchestrator: float(len(o._vms)))
        self.gauge(f"{prefix}.containers",
                   fn=lambda o=orchestrator: float(len(o._containers)))

    def register_telemetry(self, tracer=None, events=None, flows=None,
                           rollups=None) -> None:
        """Publish the flight recorder's *own* loss counters as gauges.

        A bounded recorder necessarily drops data (ring evictions,
        sampling skips, record-table evictions); these gauges make the
        truncation visible inside the record itself instead of silent.
        """
        prefix = "repro.telemetry"
        if tracer is not None:
            self.gauge(f"{prefix}.traces_kept",
                       fn=lambda t=tracer: float(len(t.traces)))
            self.gauge(f"{prefix}.traces_dropped",
                       fn=lambda t=tracer: float(t.dropped))
            self.gauge(f"{prefix}.traces_offered",
                       fn=lambda t=tracer: float(t.offered))
        if events is not None:
            self.gauge(f"{prefix}.events_kept",
                       fn=lambda e=events: float(len(e.events)))
            self.gauge(f"{prefix}.events_evicted",
                       fn=lambda e=events: float(e.evicted))
        if flows is not None:
            self.gauge(f"{prefix}.flow_messages",
                       fn=lambda r=flows: float(r.messages))
            self.gauge(f"{prefix}.flow_records",
                       fn=lambda r=flows: float(len(r.records)))
            self.gauge(f"{prefix}.flow_record_evictions",
                       fn=lambda r=flows: float(r.record_evictions))
        if rollups is not None:
            self.gauge(f"{prefix}.rollup_windows",
                       fn=lambda r=rollups: float(len(r.windows)))
            self.gauge(f"{prefix}.rollup_evicted",
                       fn=lambda r=rollups: float(r.evicted))

    # -- queries ----------------------------------------------------------

    def names(self) -> list[str]:
        """All metric names, sorted."""
        return sorted(set(self._metrics) | set(self._series_views))

    def query(self, prefix: str) -> dict:
        """Snapshot of every metric whose name starts with ``prefix``."""
        return {
            name: value
            for name, value in self.snapshot().items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """Evaluate every metric: name -> float (counter/gauge) or
        summary dict (histogram / lane latency view).  Sorted by name."""
        out: dict[str, object] = {}
        for name, metric in self._metrics.items():
            if type(metric) is Counter:
                out[name] = metric.value
            elif type(metric) is Gauge:
                out[name] = metric.value
            else:
                out[name] = metric.summary()
        for name, bucket in self._series_views.items():
            out[name] = _merged_summary(s.latencies for s in bucket)
        return dict(sorted(out.items()))


def enable() -> MetricsRegistry:
    """Install (and return) a fresh registry as the active one."""
    global ACTIVE
    ACTIVE = MetricsRegistry()
    return ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Remove the active registry (returns it, for inspection)."""
    global ACTIVE
    registry, ACTIVE = ACTIVE, None
    return registry


# -- push helpers for instrumented call sites -----------------------------
#
# One compare when disabled; get-or-create dict hit when enabled.  Used by
# per-call (not per-byte) paths: socket/MPI translation, bench harness.


def counter_inc(name: str, amount: float = 1.0) -> None:
    registry = ACTIVE
    if registry is not None:
        registry.counter(name).inc(amount)


def histogram_observe(name: str, sample: float) -> None:
    registry = ACTIVE
    if registry is not None:
        registry.histogram(name).observe(sample)
