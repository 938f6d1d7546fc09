#!/usr/bin/env python
"""Telemetry overhead benchmark: what do tracing and flow accounting cost?

The flow tracer and the flight recorder (``repro.telemetry`` rollups +
flow records) hook the same hot delivery paths and obey the same
contract: one pointer compare when off, small bounded cost when armed at
the production sampling rate.  Every row is shm messages/sec, and the
configurations take turns within each repeat:

* ``shm_off``      — tracer and recorder off (the default).  Baseline
  for the overhead rows.
* ``shm_sample_0`` / ``shm_sample_1`` / ``shm_sample_100`` — tracer on
  at 0% (every message pays the guard and an RNG-free shortcut, no
  trace allocated), 1% (the recommended production setting) and 100%
  sampling (every message fully traced).  Informational; not gated.
* ``shm_armed_1``  — recorder armed at 1% flow sampling with rollups
  every 1 ms of sim time: the recommended production setting.  In
  ``--smoke`` mode the overhead must stay within ``--budget`` (default
  5%) — the CI trip wire for the hot-path contract.  (Rollup
  frequency is the knob that matters: each roll snapshots the whole
  registry, so a 100 us interval on a millisecond-scale sim pays ~10%.)
* ``shm_armed_100``— 100% sampling, every delivery fully accounted
  (informational; not gated).

Each tracer and recorder row reports ``overhead_pct`` relative to
``shm_off``.  Two correctness gates ride along because they are cheap
and catch the failure modes that matter for an accountant:

* ``bounded_memory``  — a recorder fed 10x the distinct flows must stay
  under the static cap ``3*top_k + max_records + label_cache`` (sketches
  + record table + label cache are all individually capped).
* ``topk_ground_truth`` — the Space-Saving top-10 on a skewed synthetic
  stream must identify the exact true top-10.

Each run without ``--no-write`` appends one line to ``BENCH_history.jsonl``::

    PYTHONPATH=src python benchmarks/bench_observability.py
    PYTHONPATH=src python benchmarks/bench_observability.py --smoke --no-write
"""

from __future__ import annotations

from repro import telemetry
from repro.hardware import Fabric, Host
from repro.sim import Environment
from repro.sim.rand import RandomStream
from repro.telemetry.flowrecords import FlowRecorder
from repro.telemetry.sketches import SpaceSaving
from repro.transports import ShmChannel

from common import best_of, finish, message_rate, perf_parser

#: Tracer sampling rates (percent) measured next to the recorder rows.
TRACER_PCTS = (0, 1, 100)
#: Flight-recorder flow sampling rates (percent).
RECORDER_PCTS = (1, 100)


def shm_rate(n_msgs: int) -> dict:
    """End-to-end shm messages/sec — the hook-dense delivery path."""
    env = Environment()
    return message_rate(env, ShmChannel(Host(env, "h0", fabric=Fabric(env))),
                        n_msgs)


def check_bounded_memory(base_flows: int = 5_000) -> dict:
    """state_size() must stay under the static cap at 10x the flows."""
    top_k, max_records, label_cache = 32, 64, 256
    cap = 3 * top_k + max_records + label_cache

    def fill(n_flows: int) -> int:
        recorder = FlowRecorder(seed=3, sample_rate=0.01, top_k=top_k,
                                max_records=max_records,
                                label_cache=label_cache)
        for i in range(n_flows):
            recorder.on_deliver(f"f{i}:h{i % 64}->h{(i + 7) % 64}",
                                4096, i * 1e-6)
        return recorder.state_size()

    size_1x = fill(base_flows)
    size_10x = fill(10 * base_flows)
    return {
        "flows_1x": base_flows,
        "state_size_1x": size_1x,
        "state_size_10x": size_10x,
        "state_cap": cap,
        "bounded": size_1x <= cap and size_10x <= cap,
    }


def check_topk_ground_truth(draws: int = 20_000, keys: int = 2_000) -> dict:
    """Sketch top-10 on a skewed stream must match the exact top-10."""
    sketch = SpaceSaving(capacity=128)
    exact: dict[str, float] = {}
    rng = RandomStream(17, name="bench.topk")
    for _ in range(draws):
        key = f"flow{rng.zipf_index(keys, skew=1.4)}"
        weight = float(rng.randint(512, 4096))
        sketch.update(key, weight)
        exact[key] = exact.get(key, 0.0) + weight
    want = [k for k, _ in sorted(exact.items(),
                                 key=lambda kv: (-kv[1], kv[0]))[:10]]
    got = [key for key, _, _ in sketch.top(10)]
    return {
        "draws": draws,
        "distinct_keys": len(exact),
        "capacity": 128,
        "matches": got == want,
    }


def run_suite(smoke: bool, repeats: int = 3) -> dict:
    scale = 0.25 if smoke else 1.0
    n_msgs = max(5_000, int(20_000 * scale))

    def traced(pct):
        with telemetry.session(sample_rate=pct / 100.0) as handle:
            result = shm_rate(n_msgs)
        result["sample_rate"] = pct / 100.0
        result["traces"] = len(handle.tracer)
        return result

    def armed(pct):
        with telemetry.session(sample_rate=0.0,
                               flow_sample_rate=pct / 100.0,
                               rollup_interval_s=1e-3) as handle:
            result = shm_rate(n_msgs)
        result["flow_sample_rate"] = pct / 100.0
        result["sampled_flows"] = handle.flows.sampled_flows
        result["rollup_windows"] = len(handle.rollups.windows)
        return result

    # The gated recorder rows run right after the baseline, so the pair
    # the budget compares is measured back to back.
    configs = {"shm_off": lambda: shm_rate(n_msgs)}
    for pct in RECORDER_PCTS:
        configs[f"shm_armed_{pct}"] = lambda pct=pct: armed(pct)
    for pct in TRACER_PCTS:
        configs[f"shm_sample_{pct}"] = lambda pct=pct: traced(pct)
    results = best_of(repeats, "messages_per_sec", **configs)
    baseline = results["shm_off"]["messages_per_sec"]
    for key, row in results.items():
        if key != "shm_off":
            row["overhead_pct"] = 100.0 * (
                1.0 - row["messages_per_sec"] / baseline
            )

    results["bounded_memory"] = check_bounded_memory()
    results["topk_ground_truth"] = check_topk_ground_truth()
    return results


def main(argv=None) -> int:
    parser = perf_parser(
        __doc__.splitlines()[0],
        "reduced workload + gate 1%% recorder overhead against --budget "
        "and the two correctness checks (CI trip wire)",
        repeats=True,
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=5.0,
        help="maximum acceptable overhead_pct for shm_armed_1 in "
        "--smoke mode",
    )
    args = parser.parse_args(argv)

    results = run_suite(smoke=args.smoke, repeats=args.repeats)
    if (args.smoke
            and results["shm_armed_1"]["overhead_pct"] > args.budget):
        # One retry before failing: a single background-load spike on a
        # shared CI box can dwarf the few-percent effect being gated.
        retry = run_suite(smoke=True, repeats=args.repeats)
        if (retry["shm_armed_1"]["overhead_pct"]
                < results["shm_armed_1"]["overhead_pct"]):
            results = retry

    print(f"observability benchmark ({'smoke' if args.smoke else 'full'} mode)")
    print(f"  shm (all off)        {results['shm_off']['messages_per_sec']:>12,.0f} msgs/s")
    for pct in TRACER_PCTS:
        row = results[f"shm_sample_{pct}"]
        print(
            f"  shm (traced {pct:>3d}%)    {row['messages_per_sec']:>12,.0f} msgs/s"
            f"  ({row['overhead_pct']:+5.1f}% vs off, {row['traces']} traces)"
        )
    for pct in RECORDER_PCTS:
        row = results[f"shm_armed_{pct}"]
        print(
            f"  shm (armed {pct:>3d}%)     {row['messages_per_sec']:>12,.0f} msgs/s"
            f"  ({row['overhead_pct']:+5.1f}% vs off, "
            f"{row['rollup_windows']} windows)"
        )
    bounded = results["bounded_memory"]
    print(
        f"  bounded memory       state_size {bounded['state_size_1x']} @1x"
        f" vs {bounded['state_size_10x']} @10x flows, cap "
        f"{bounded['state_cap']} ({'ok' if bounded['bounded'] else 'FAIL'})"
    )
    topk = results["topk_ground_truth"]
    print(
        f"  top-10 ground truth  {'ok' if topk['matches'] else 'FAIL'}"
        f" ({topk['distinct_keys']} keys through capacity"
        f" {topk['capacity']})"
    )

    failures = []
    if not bounded["bounded"]:
        failures.append(
            f"state_size exceeded cap {bounded['state_cap']}: "
            f"{bounded['state_size_1x']} @1x, "
            f"{bounded['state_size_10x']} @10x"
        )
    if not topk["matches"]:
        failures.append("sketch top-10 diverged from exact ground truth")
    if args.smoke:
        overhead = results["shm_armed_1"]["overhead_pct"]
        if overhead > args.budget:
            failures.append(
                f"1% sampling overhead {overhead:.1f}% exceeds budget "
                f"{args.budget:.1f}%"
            )
        else:
            print(
                f"  smoke budget ok ({overhead:+.1f}% <= "
                f"{args.budget:.1f}%)"
            )
    return finish(args, "observability", results, failures)


if __name__ == "__main__":
    raise SystemExit(main())
