#!/usr/bin/env python3
"""The repository benchmark: one workload per process, timed or traced.

Run from the repository root::

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 10 --trace 0

A run repeats rounds of one workload until ``--seconds`` of host time have
passed.  Every round builds a fresh testbed from the same seed, so its
inputs and sim results are the same; host-time metrics are the median
over rounds.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced rounds, adds one allocation pass over the
connect phase, and reports the per-layer metrics (see ``README.md``).

``--workload all`` runs the three workloads one after another, each in
its own process, and merges their results (metric names get the
workload as a prefix).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 1 when a correctness check failed and 2 when the simulator sources
(``src/repro``) are missing.  The cyclic garbage collector stays on, as
users run the simulator; its cost shows as ``runtime.gc_*``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where a traced run writes its spans (one file per workload).
SPAN_DIR = os.path.join(HERE, "out")

#: End-to-end metrics every workload reports, each with a bound in
#: BENCHMARK.json: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("host_ops_per_s", "ops/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ops_per_s", "ops/s"),
)
#: End-to-end metrics printed per workload but kept out of the bounded
#: set, because some workload lacks them or has them constant (every
#: fleet-churn connect takes one 50 us policy query).  Traced runs report
#: them with the per-layer metrics.
SIM_LATENCY = (("sim_latency_p50_us", "us"), ("sim_latency_p99_us", "us"))
WORKLOAD_ONLY = {
    "rpc-small": SIM_LATENCY + (("sim_goodput_gbps", "Gb/s"),
                                ("sim_cpu_pct_per_gbps", "%/Gb/s")),
    "bulk-mix": SIM_LATENCY + (("sim_goodput_gbps", "Gb/s"),
                               ("sim_cpu_pct_per_gbps", "%/Gb/s")),
    "fleet-churn": SIM_LATENCY + (("rss_kib_per_flow", "KiB"),
                                  ("sim_detect_ms", "ms"),
                                  ("sim_repair_ms", "ms")),
}
#: Share of a round's host time spent afterwards on set-up-only passes.
SETUP_SHARE = 0.05
SHAPE_NOTE = ("model checked for shape only (mechanism mix, goodput order, "
              "conservation); no absolute-error figure is claimed")


class StopRound(Exception):
    """Raised from a probe hook to end a round early."""


class Probe:
    """Host clock, event count and hooks at a workload's phase marks."""

    def __init__(self, hooks=()) -> None:
        self.hooks = hooks
        self.host: dict[str, float] = {}
        self.events: dict[str, int] = {}
        self.start = perf_counter()

    def mark(self, name: str, env) -> None:
        for hook in self.hooks:
            hook(name, env)
        self.events[name] = env.events_processed
        self.host[name] = perf_counter()


def resident_kib() -> int:
    """Current resident set size of this process (KiB)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class Round:
    """What one round measured."""

    def __init__(self, result: dict, probe: Probe) -> None:
        at = probe.host
        self.setup_s = at["setup"] - probe.start
        self.host_s = at["measured"] - at["setup"]
        self.ops = result["ops"]
        self.ops_per_s = self.ops / self.host_s
        self.events = probe.events["measured"] - probe.events["setup"]
        self.attempted = result["attempted"]
        self.failures = result["failures"]
        self.failed = max(result.get("failed", 0), len(self.failures))
        self.sim = result["sim"]
        self.samples = result["samples"]
        self.flows = result["flows"]
        self.layer = result["layer"]
        #: Everything that must repeat exactly for one seed.
        self.fingerprint = dict(self.sim, **self.layer)
        self.fingerprint["sim.events"] = self.events


class GcWatch:
    """Collections and pause time of the cyclic GC, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = perf_counter()
        else:
            self.collections += 1
            self.pause_s += perf_counter() - self._began


def run_round(fn, seed: int, hooks=()) -> Round:
    probe = Probe(hooks)
    return Round(fn(seed, probe), probe)


def rss_hook(into: dict):
    def hook(name, env):
        if name in ("connect", "connected"):
            into[name] = resident_kib()
    return hook


def phase_hook(marks: dict, read):
    """Store ``read()`` at every mark (GC counters, tracer totals)."""
    def hook(name, env):
        marks[name] = read()
    return hook


def alloc_pass(fn, seed: int) -> dict:
    """Allocations and Store/Tank objects made while flows open.

    Traces allocations with :mod:`tracemalloc` from the ``connect`` mark
    to the ``connected`` mark, groups what is still live by package, then
    ends the round.
    """
    from repro.sim.resources import Store, Tank

    made = {"stores": 0, "tanks": 0}
    saved = []

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            made[key] += 1
            original(self, *args, **kwargs)

        saved.append((cls, original))
        cls.__init__ = init

    out = {}

    def hook(name, env):
        if name == "connect":
            counting(Store, "stores")
            counting(Tank, "tanks")
            tracemalloc.start()
        elif name == "connected":
            snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
            by_package: dict[str, int] = {}
            for stat in snapshot.statistics("filename"):
                path = stat.traceback[0].filename.replace(os.sep, "/")
                package = "other"
                if "/repro/" in path:
                    package = path.split("/repro/")[-1].split("/")[0]
                by_package[package] = by_package.get(package, 0) + stat.size
            out.update(made)
            out["bytes"] = by_package
            raise StopRound

    probe = Probe([hook])
    try:
        fn(seed, probe)
    except StopRound:
        pass
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for cls, original in saved:
            cls.__init__ = original
    return out


def setup_pass(fn, seed: int) -> float:
    """Host seconds from the start of a round to its ``setup`` mark."""
    probe = Probe()

    def hook(name, env):
        if name == "setup":
            probe.host[name] = perf_counter()
            raise StopRound

    probe.hooks = [hook]
    try:
        fn(seed, probe)
    except StopRound:
        pass
    return probe.host["setup"] - probe.start


def timed(fn, seed: int, seconds: float) -> dict:
    """Full rounds until ``seconds`` have passed (at least one round).
    After each round, set-up-only passes take :data:`SETUP_SHARE` of its
    time, so a set-up of a few milliseconds still gets many samples."""
    began = perf_counter()
    rounds, setups = [], []
    rss = {}
    while True:
        round_began = perf_counter()
        hooks = [rss_hook(rss)] if not rounds else []
        rounds.append(run_round(fn, seed, hooks))
        gc.collect()
        passes_until = perf_counter() + SETUP_SHARE * (
            perf_counter() - round_began)
        while True:
            setups.append(setup_pass(fn, seed))
            if perf_counter() >= passes_until:
                break
        gc.collect()
        if perf_counter() - began >= seconds:
            break
    return {"rounds": rounds, "setups": setups, "rss": rss}


def traced(fn, seed: int, seconds: float, span_path=None) -> dict:
    import layers

    began = perf_counter()
    plain, wrapped, gcs, phases = [], [], [], []
    rss = {}
    alloc = None
    watch = GcWatch()
    gc.callbacks.append(watch)
    try:
        while True:
            gc_marks = {}
            hooks = [phase_hook(gc_marks, lambda: (watch.collections,
                                                   watch.pause_s))]
            if not plain:
                hooks.append(rss_hook(rss))
            plain.append(run_round(fn, seed, hooks))
            gcs.append(tuple(b - a for a, b in zip(gc_marks["setup"],
                                                   gc_marks["measured"])))
            gc.collect()
            tracer = layers.Tracer()
            marks = {}
            with tracer:
                marks["start"] = tracer.snapshot()
                wrapped.append(run_round(
                    fn, seed, [phase_hook(marks, tracer.snapshot)]))
                marks["end"] = tracer.snapshot()
            phases.append({
                "setup": layers.delta(marks["setup"], marks["start"]),
                "connect": layers.delta(marks["connected"], marks["connect"]),
                "measured": layers.delta(marks["measured"], marks["setup"]),
                "tail": layers.delta(marks["end"], marks["measured"]),
                "round": layers.delta(marks["end"], marks["start"]),
            })
            if len(wrapped) == 1 and span_path is not None:
                tracer.dump(span_path)
            del tracer
            gc.collect()
            if alloc is None:
                alloc = alloc_pass(fn, seed)
                gc.collect()
            if perf_counter() - began >= seconds:
                break
    finally:
        gc.callbacks.remove(watch)
    return {"rounds": plain, "wrapped": wrapped, "gc": gcs,
            "phases": phases, "alloc": alloc, "rss": rss, "setups": []}


def median(values):
    return statistics.median(values)


def low_decile(samples) -> float:
    """10th percentile of set-up times.

    Host speed on the development box switches between two levels about
    1.8x apart in phases of several seconds; a median of short samples
    flips between the levels from run to run, the low decile follows the
    faster one.  A single sample (a one-round traced run) is its own.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[0]


def ops_per_s(rounds) -> float:
    """Operations over host seconds, summed across rounds.

    Summing rather than taking the median of per-round rates damps the
    box's slow swings in CPU speed, which last longer than a round.
    """
    return sum(r.ops for r in rounds) / sum(r.host_s for r in rounds)


def end_to_end(workload: str, run: dict) -> dict:
    rounds = run["rounds"]
    first = rounds[0]
    values = {
        "setup_s": low_decile([r.setup_s for r in rounds] + run["setups"]),
        "host_ops_per_s": ops_per_s(rounds),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(first.sim)
    if workload == "fleet-churn":
        rss = run["rss"]
        values["rss_kib_per_flow"] = (
            (rss["connected"] - rss["connect"]) / first.flows)
    return values


def per_layer(workload: str, run: dict, e2e: dict,
              fail_ratio: float) -> dict:
    import layers

    plain, wrapped = run["rounds"], run["wrapped"]
    first = plain[0]
    ops = first.ops
    derived = [layers.span_metrics(phase, ops) for phase in run["phases"]]
    values = {name: 0.0 for name, _unit in layers.PER_LAYER}
    for name in derived[0]:
        values[name] = median(d[name] for d in derived)
    values.update(first.layer)
    values["sim.events"] = first.events
    values["sim.events_per_op"] = first.events / ops
    flows = first.flows
    alloc = run["alloc"]
    values["sim.stores_per_flow"] = alloc["stores"] / flows
    values["sim.tanks_per_flow"] = alloc["tanks"] / flows
    for package in ("sim", "transports", "core", "cluster"):
        values[f"{package}.alloc_kib_per_flow"] = (
            alloc["bytes"].get(package, 0) / 1024.0 / flows)
    values["runtime.gc_collections"] = median(g[0] for g in run["gc"])
    values["runtime.gc_pause_host_s"] = median(g[1] for g in run["gc"])
    values["trace.overhead_ratio"] = ops_per_s(wrapped) / ops_per_s(plain)
    for name, _unit in WORKLOAD_ONLY[workload]:
        values[name] = e2e[name]
    values["fail_ratio"] = fail_ratio
    return values


def check(run: dict) -> tuple[list[str], int]:
    """Failures across rounds and the operations they cost.  A round
    whose sim results differ from the first round's counts as one."""
    rounds = run["rounds"] + run.get("wrapped", [])
    failures, failed = [], 0
    reference = rounds[0].fingerprint
    for r in rounds:
        failures.extend(r.failures)
        failed += r.failed
        if r.fingerprint != reference:
            diff = sorted(k for k in reference
                          if r.fingerprint.get(k) != reference[k])
            failures.append("sim results differ between rounds of one "
                            f"seed (traced or not): {diff}")
            failed += 1
    return failures, failed


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_ONLY:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_ONLY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of rounds to run (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import layers
    import workloads

    fn = workloads.WORKLOADS[args.workload]
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        run = traced(fn, args.seed, args.seconds, os.path.join(
            SPAN_DIR, f"{args.workload}.spans.jsonl"))
    else:
        run = timed(fn, args.seed, args.seconds)
    failures, failed = check(run)
    attempted = sum(r.attempted
                    for r in run["rounds"] + run.get("wrapped", []))
    fail_ratio = failed / attempted
    e2e = end_to_end(args.workload, run)

    first = run["rounds"][0]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"rounds={len(run['rounds'])} traced_rounds="
          f"{len(run.get('wrapped', []))} latency_samples={first.samples} "
          f"ops_per_round={first.ops}")
    for name, unit in END_TO_END + WORKLOAD_ONLY[args.workload]:
        print(f"  {name:<24} {e2e[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<24} {fail_ratio:>14.6g} ratio")
    print(f"  host_ops_per_s by round: "
          + " ".join(f"{r.ops_per_s:.0f}" for r in run["rounds"]))
    print(f"  note: {SHAPE_NOTE}")
    for failure in failures:
        print(f"  FAIL: {failure}")
    print("sim_fingerprint " + json.dumps(first.fingerprint, sort_keys=True))

    if args.trace:
        units = layers.PER_LAYER
        values = per_layer(args.workload, run, e2e, fail_ratio)
        for name, unit in units:
            print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    else:
        units = END_TO_END
        values = e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
