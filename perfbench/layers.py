"""Per-layer tracing for the benchmark: spans around public entry points.

The wrappers live here, outside the simulator, and are installed only for
a traced round.  Each wrapped call opens a span that records its name,
the span that caused it (the span running when it was called), a
per-operation id (a root call starts an operation; everything it calls
shares the id), host time and sim time.

Many entry points are generators driven with ``yield from``.  For those,
host time is the time spent inside the generator's resumes and the sim
span runs from the call until the generator returns.  Self time is host
time minus the part covered by spans nested inside it, so summed self
times never exceed the enclosing span.

Aggregates cover every span; full span records are kept in memory for
the first :data:`MAX_SPANS` spans and written out by :meth:`Tracer.dump`
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

#: Full span records kept per tracer (aggregates cover every span).
MAX_SPANS = 200_000


def _pipe_wait(tracer, pipe, args, kwargs, result, sim_span):
    """``BandwidthPipe.transfer``: sim time beyond pure serialisation."""
    nbytes = args[0] if args else kwargs["nbytes"]
    return sim_span - pipe.seconds_for(nbytes)


def _batch_len(tracer, cq, args, kwargs, result, sim_span):
    return len(result)


def _sim_span(tracer, obj, args, kwargs, result, sim_span):
    return sim_span


def _by_mechanism(tracer, end, args, kwargs, result, sim_span):
    """``ChannelEnd.send``: count sends per data-plane mechanism."""
    key = f"transports.{end.mechanism.value}.sends"
    tracer.counts[key] = tracer.counts.get(key, 0) + 1
    return 0.0


#: (span name, module, class, attribute, extra) for every traced entry
#: point.  ``extra(tracer, self, args, kwargs, result, sim_span)`` returns
#: a number summed per span name (waits, batch sizes).  The kernel-TCP
#: send path is traced at ``_Direction.send``: ``TcpEnd.send`` (overlay
#: pairs) and the FreeFlow TCP lane both enter the kernel stack there.
TARGETS = (
    ("hardware.pipe", "repro.hardware.bandwidth", "BandwidthPipe",
     "transfer", _pipe_wait),
    ("hardware.fabric", "repro.hardware.link", "Fabric", "send", None),
    ("hardware.fabric", "repro.hardware.topology", "FatTreeFabric", "send",
     None),
    ("netstack.tcp_send", "repro.netstack.tcp", "_Direction", "send", None),
    ("netstack.overlay_submit", "repro.netstack.overlay", "OverlayRouter",
     "submit", None),
    ("netstack.route", "repro.netstack.pathsel", "PathSelector", "route",
     None),
    ("transports.send", "repro.transports.base", "ChannelEnd", "send",
     _by_mechanism),
    ("transports.recv", "repro.transports.base", "ChannelEnd", "recv",
     _sim_span),
    ("core.socket_send", "repro.core.sockets", "FreeFlowSocket", "send",
     None),
    ("core.socket_recv", "repro.core.sockets", "FreeFlowSocket",
     "recv_exactly", None),
    ("core.qp_post", "repro.core.verbs", "QueuePair", "post_send", None),
    ("core.cq_wait_batch", "repro.core.verbs", "CompletionQueue",
     "wait_batch", _batch_len),
    ("core.connect", "repro.core.network", "FreeFlowNetwork",
     "connect_containers", _sim_span),
    ("core.decide", "repro.core.orchestrator", "NetworkOrchestrator",
     "decide", None),
    ("core.build", "repro.core.flows", "ChannelFactory", "build", None),
    ("core.rebind", "repro.core.network", "FreeFlowNetwork", "rebind", None),
    ("core.repair", "repro.core.flows", "FlowReconciler", "repair_flow",
     None),
    ("core.host_failed", "repro.core.flows", "FlowReconciler", "host_failed",
     None),
    ("cluster.kv_put", "repro.cluster.kvstore", "KeyValueStore", "put", None),
    ("cluster.keepalive", "repro.cluster.kvstore", "KeyValueStore",
     "keepalive", None),
    ("cluster.submit", "repro.cluster.orchestrator", "ClusterOrchestrator",
     "submit", None),
    ("cluster.add_host", "repro.cluster.orchestrator", "ClusterOrchestrator",
     "add_host", None),
)


class _Agg:
    """Running totals for one span name."""

    __slots__ = ("calls", "host_s", "self_s", "sim_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.host_s = 0.0
        self.self_s = 0.0
        self.sim_s = 0.0
        self.extra = 0.0

    def snapshot(self) -> tuple:
        return (self.calls, self.host_s, self.self_s, self.sim_s, self.extra)


class Tracer:
    """Span store plus the wrappers that feed it.

    Use as a context manager: entering installs the wrappers on the
    target classes, leaving restores the originals.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.aggs: dict[str, _Agg] = {}
        # Columnar span records: ids, causes, operations, name indexes,
        # (host start, host time, self time) and (sim start, sim end).
        self._span = array("q")
        self._cause = array("q")
        self._op = array("q")
        self._name = array("i")
        self._host = array("d")
        self._sim = array("d")
        self.spans_seen = 0
        self._ops = 0
        #: Open frames: [span id, op id, host time covered by children].
        self._stack: list[list] = []
        #: Environment of the latest ``run`` call: the sim clock for
        #: entry points whose object carries no ``env`` of its own.
        self.env = None
        self._saved: list[tuple] = []
        #: Host time of Environment.run calls, and of root spans inside.
        self.run_host_s = 0.0
        self.root_in_run_s = 0.0
        #: Counters kept by the ``extra`` hooks.
        self.counts: dict[str, int] = {}
        self._in_run = 0

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module, cls_name, attr, extra in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, extra))
        from repro.sim.scheduler import Environment

        run = Environment.__dict__["run"]
        self._saved.append((Environment, "run", run))
        setattr(Environment, "run", self._wrap_run(run))
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def _agg(self, name: str) -> _Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return agg

    def _open(self, name: str):
        """Allocate a span id; returns (span id, cause id, op id)."""
        span_id = self.spans_seen
        self.spans_seen += 1
        if self._stack:
            cause, op = self._stack[-1][0], self._stack[-1][1]
        else:
            cause = -1
            self._ops += 1
            op = self._ops
        return span_id, cause, op

    def _close(self, name, span_id, cause, op, host0, host_s, sim0, sim1,
               self_s) -> None:
        if span_id < MAX_SPANS:
            self._span.append(span_id)
            self._cause.append(cause)
            self._op.append(op)
            self._name.append(self._name_ids[name])
            self._host.extend((host0, host_s, self_s))
            self._sim.extend((sim0, sim1))

    def _resume_done(self, frame, elapsed: float) -> float:
        """Account one finished resume; returns its self time."""
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += elapsed
        elif self._in_run:
            self.root_in_run_s += elapsed
        return elapsed - frame[2]

    def _wrap(self, name, original, extra):
        agg = self._agg(name)
        tracer = self
        clock = perf_counter
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def traced_gen(obj, *args, **kwargs):
                span_id, cause, op = tracer._open(name)
                env = getattr(obj, "env", None) or tracer.env
                sim0 = env.now
                host0 = clock()
                gen = original(obj, *args, **kwargs)
                value = None
                error = None
                self_s = 0.0
                host_s = 0.0
                while True:
                    frame = [span_id, op, 0.0]
                    tracer._stack.append(frame)
                    start = clock()
                    try:
                        if error is None:
                            item = gen.send(value)
                        else:
                            item = gen.throw(error)
                    except StopIteration as stop:
                        elapsed = clock() - start
                        self_s += tracer._resume_done(frame, elapsed)
                        host_s += elapsed
                        result = stop.value
                        break
                    except BaseException:
                        elapsed = clock() - start
                        self_s += tracer._resume_done(frame, elapsed)
                        host_s += elapsed
                        tracer._finish(agg, name, span_id, cause, op, host0,
                                       sim0, env.now, host_s, self_s, None,
                                       obj, args, kwargs, None)
                        raise
                    elapsed = clock() - start
                    self_s += tracer._resume_done(frame, elapsed)
                    host_s += elapsed
                    try:
                        value = yield item
                        error = None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # noqa: BLE001 - forwarded
                        value = None
                        error = exc
                tracer._finish(agg, name, span_id, cause, op, host0, sim0,
                               env.now, host_s, self_s, extra, obj, args,
                               kwargs, result)
                return result

            return traced_gen

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            span_id, cause, op = tracer._open(name)
            frame = [span_id, op, 0.0]
            tracer._stack.append(frame)
            env = getattr(obj, "env", None) or tracer.env
            sim0 = env.now
            start = clock()
            try:
                result = original(obj, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s = tracer._resume_done(frame, elapsed)
            tracer._finish(agg, name, span_id, cause, op, start, sim0,
                           env.now, elapsed, self_s, extra, obj, args,
                           kwargs, result)
            return result

        return traced

    def _finish(self, agg, name, span_id, cause, op, host0, sim0, sim1,
                host_s, self_s, extra, obj, args, kwargs, result) -> None:
        agg.calls += 1
        agg.host_s += host_s
        agg.self_s += self_s
        agg.sim_s += sim1 - sim0
        if extra is not None:
            agg.extra += extra(self, obj, args, kwargs, result, sim1 - sim0)
        self._close(name, span_id, cause, op, host0, host_s, sim0, sim1,
                    self_s)

    def _wrap_run(self, run):
        tracer = self

        @functools.wraps(run)
        def traced_run(env, *args, **kwargs):
            tracer.env = env
            tracer._in_run += 1
            start = perf_counter()
            try:
                return run(env, *args, **kwargs)
            finally:
                tracer.run_host_s += perf_counter() - start
                tracer._in_run -= 1

        return traced_run

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: name -> (calls, host_s, self_s, sim_s, extra)."""
        snap = {name: agg.snapshot() for name, agg in self.aggs.items()}
        snap["sim.run"] = (0, self.run_host_s, 0.0, 0.0, 0.0)
        snap["sim.root_in_run"] = (0, self.root_in_run_s, 0.0, 0.0, 0.0)
        for key, count in self.counts.items():
            snap[key] = (count, 0.0, 0.0, 0.0, 0.0)
        return snap

    def spans(self) -> list[dict]:
        """The kept span records, oldest first."""
        out = []
        for i in range(len(self._span)):
            out.append({
                "span": self._span[i],
                "cause": self._cause[i],
                "op": self._op[i],
                "name": self.names[self._name[i]],
                "host_start": self._host[3 * i],
                "host_s": self._host[3 * i + 1],
                "self_s": self._host[3 * i + 2],
                "sim_start": self._sim[2 * i],
                "sim_end": self._sim[2 * i + 1],
            })
        return out

    def dump(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(spans)


def delta(after: dict, before: dict) -> dict:
    """Per-name difference of two :meth:`Tracer.snapshot` results."""
    zero = (0, 0.0, 0.0, 0.0, 0.0)
    return {
        name: tuple(a - b for a, b in zip(values, before.get(name, zero)))
        for name, values in after.items()
    }


#: Per-layer metrics of a traced run: (name, unit).  The last block holds
#: the end-to-end metrics that only some workloads have; they carry no
#: bound, come from the untraced rounds and read 0 where they do not apply.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_op", "count"),
    ("sim.run_host_s", "s"),
    ("sim.stores_per_flow", "count"),
    ("sim.tanks_per_flow", "count"),
    ("sim.alloc_kib_per_flow", "KiB"),
    ("hardware.pipe_transfers_per_op", "count"),
    ("hardware.pipe_host_s", "s"),
    ("hardware.pipe_wait_sim_us", "us"),
    ("hardware.fabric_sends", "count"),
    ("hardware.fabric_send_host_s", "s"),
    ("hardware.core_link_spread", "ratio"),
    ("hardware.max_link_util", "ratio"),
    ("netstack.tcp_sends", "count"),
    ("netstack.tcp_send_host_s", "s"),
    ("netstack.overlay_submits", "count"),
    ("netstack.overlay_host_s", "s"),
    ("netstack.route_calls", "count"),
    ("netstack.route_host_s", "s"),
    ("netstack.flowlet_rehashes", "count"),
    ("netstack.reorders", "count"),
    ("netstack.tcp_sim_gbps", "Gb/s"),
    ("netstack.overlay_sim_gbps", "Gb/s"),
    ("transports.shm.sends", "count"),
    ("transports.rdma.sends", "count"),
    ("transports.tcp.sends", "count"),
    ("transports.send_host_s", "s"),
    ("transports.shm.sim_gbps", "Gb/s"),
    ("transports.rdma.sim_gbps", "Gb/s"),
    ("transports.recv_wait_sim_us", "us"),
    ("transports.alloc_kib_per_flow", "KiB"),
    ("transports.out_of_order", "count"),
    ("core.socket_send_host_s", "s"),
    ("core.socket_recv_host_s", "s"),
    ("core.qp_posts", "count"),
    ("core.msgs_per_post", "ratio"),
    ("core.cq_batch_mean", "count"),
    ("core.connect_host_s", "s"),
    ("core.connect_sim_us", "us"),
    ("core.decide_host_s", "s"),
    ("core.build_host_s", "s"),
    ("core.alloc_kib_per_flow", "KiB"),
    ("core.rebinds", "count"),
    ("core.rebind_retries", "count"),
    ("core.rebind_host_s", "s"),
    ("cluster.kv_puts", "count"),
    ("cluster.kv_put_host_s", "s"),
    ("cluster.dispatch_checks_per_event", "ratio"),
    ("cluster.keepalives", "count"),
    ("cluster.alloc_kib_per_flow", "KiB"),
    ("cluster.submit_host_s", "s"),
    ("cluster.add_host_host_s", "s"),
    ("cluster.lease_expiries", "count"),
    ("runtime.gc_collections", "count"),
    ("runtime.gc_pause_host_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
    ("sim_goodput_gbps", "Gb/s"),
    ("sim_cpu_pct_per_gbps", "%/Gb/s"),
    ("rss_kib_per_flow", "KiB"),
    ("sim_detect_ms", "ms"),
    ("sim_repair_ms", "ms"),
    ("fail_ratio", "ratio"),
)


def span_metrics(phase: dict, ops: int) -> dict:
    """Per-layer metrics derived from span totals.

    ``phase`` maps a phase name (``setup``, ``connect``, ``measured``,
    ``tail``, ``round``) to a :func:`delta` of tracer snapshots.  Work in
    the measured phase is what ``host_ops_per_s`` pays for; set-up calls
    are read from the set-up phase, connects from the connect interval,
    reconciler work from the tail after the measured phase, and the
    control-plane store, which is busy in every phase, over the round.
    """
    zero = (0, 0.0, 0.0, 0.0, 0.0)

    def get(where, name):
        return phase[where].get(name, zero)

    def calls(name, where="measured"):
        return get(where, name)[0]

    def self_s(name, where="measured"):
        return get(where, name)[2]

    def mean_extra(name, where="measured", scale=1.0):
        count, _h, _s, _sim, extra = get(where, name)
        return extra / count * scale if count else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    run = get("measured", "sim.run")[1] - get("measured", "sim.root_in_run")[1]
    connect = get("connect", "core.connect")
    return {
        "sim.run_host_s": run,
        "hardware.pipe_transfers_per_op": ratio(calls("hardware.pipe"), ops),
        "hardware.pipe_host_s": self_s("hardware.pipe"),
        "hardware.pipe_wait_sim_us": mean_extra("hardware.pipe", scale=1e6),
        "hardware.fabric_sends": calls("hardware.fabric"),
        "hardware.fabric_send_host_s": self_s("hardware.fabric"),
        "netstack.tcp_sends": calls("netstack.tcp_send"),
        "netstack.tcp_send_host_s": self_s("netstack.tcp_send"),
        "netstack.overlay_submits": calls("netstack.overlay_submit"),
        "netstack.overlay_host_s": self_s("netstack.overlay_submit"),
        "netstack.route_calls": calls("netstack.route"),
        "netstack.route_host_s": self_s("netstack.route"),
        "transports.shm.sends": calls("transports.shm.sends"),
        "transports.rdma.sends": calls("transports.rdma.sends"),
        "transports.tcp.sends": calls("transports.tcp.sends"),
        "transports.send_host_s": self_s("transports.send"),
        "transports.recv_wait_sim_us": mean_extra("transports.recv",
                                                  scale=1e6),
        "core.socket_send_host_s": self_s("core.socket_send"),
        "core.socket_recv_host_s": self_s("core.socket_recv"),
        "core.qp_posts": calls("core.qp_post"),
        "core.msgs_per_post": ratio(calls("core.socket_send"),
                                    calls("core.qp_post")),
        "core.cq_batch_mean": mean_extra("core.cq_wait_batch"),
        "core.connect_host_s": self_s("core.connect", "connect"),
        "core.connect_sim_us": ratio(connect[4], connect[0]) * 1e6,
        "core.decide_host_s": self_s("core.decide", "connect"),
        "core.build_host_s": self_s("core.build", "connect"),
        "core.rebind_host_s": sum(
            self_s(name, "tail")
            for name in ("core.rebind", "core.repair", "core.host_failed")),
        "cluster.kv_puts": calls("cluster.kv_put", "round"),
        "cluster.kv_put_host_s": self_s("cluster.kv_put", "round"),
        "cluster.keepalives": calls("cluster.keepalive", "round"),
        "cluster.submit_host_s": self_s("cluster.submit", "setup"),
        "cluster.add_host_host_s": self_s("cluster.add_host", "setup"),
    }
