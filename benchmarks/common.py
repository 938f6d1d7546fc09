"""Shared plumbing for the experiment benchmarks (E1-E16 in DESIGN.md)
and for the perf scripts.

Each bench module reproduces one paper figure/table: it builds the
simulated testbed, runs the workload, prints the same rows/series the
paper reports, and asserts the paper's *shape* (ordering, rough ratios).
Results are registered here and echoed in the terminal summary, so
``pytest benchmarks/ --benchmark-only`` shows every regenerated artifact
without needing ``-s``.

The perf scripts (``bench_engine.py``, ``bench_datacenter.py``, ...)
share one command line (:func:`perf_parser`: ``--smoke``, ``--no-write``
and, where a script gates on them, ``--floor`` and ``--repeats``), one
way to measure (:func:`best_of`, :func:`message_rate`,
:func:`peak_rss_kb`), one gate (:func:`check_floor`) and one exit path
(:func:`finish`).  Every run without ``--no-write`` appends one JSON line
``{"bench", "commit", "python", "smoke", "results"}`` to
``BENCH_history.jsonl``; nothing in the ledger is ever rewritten, so the
perf trajectory is the file read top to bottom, keyed by commit.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter  # simlint: disable=SIM001 (harness wall clock)
from typing import Callable, Optional, Sequence

from repro import ContainerSpec, quickstart_cluster
from repro.metrics import run_pingpong, run_stream

#: exp id -> rendered report block, echoed by conftest at session end.
REPORTS: dict[str, str] = {}


def record(exp_id: str, title: str, table: str, notes: str = "") -> None:
    """Register one experiment's regenerated artifact."""
    block = [f"[{exp_id}] {title}", table.rstrip()]
    if notes:
        block.append(f"  note: {notes}")
    REPORTS[exp_id] = "\n".join(block)


def fmt_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    rendered = [[_fmt_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in rendered))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  " + "  ".join(str(h).ljust(widths[i])
                         for i, h in enumerate(headers)),
        "  " + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append(
            "  " + "  ".join(row[i].rjust(widths[i]) if i else
                             row[i].ljust(widths[i])
                             for i in range(len(row)))
        )
    return "\n".join(lines)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def make_testbed(hosts: int = 2, spec=None, **network_kwargs):
    """Fresh simulated testbed (2 paper-spec hosts by default)."""
    return quickstart_cluster(hosts=hosts, spec=spec, **network_kwargs)


def deploy_pair(cluster, network, host_a: str, host_b: str,
                names=("a", "b"), tenants=("t", "t")):
    """Submit+attach two containers pinned to the given hosts."""
    a = cluster.submit(ContainerSpec(names[0], tenant=tenants[0],
                                     pinned_host=host_a))
    b = cluster.submit(ContainerSpec(names[1], tenant=tenants[1],
                                     pinned_host=host_b))
    network.attach(a)
    network.attach(b)
    return a, b


def freeflow_connect(env, network, src: str, dst: str):
    """Resolve + build a FreeFlow connection, running the control plane."""

    def go():
        connection = yield from network.connect_containers(src, dst)
        return connection

    process = env.process(go())
    return env.run(until=process)


def stream(env, channel, hosts, duration_s: float = 0.03,
           message_bytes: int = 1 << 20, pairs=None):
    """Streaming measurement over one channel (or explicit pairs)."""
    endpoint_pairs = pairs if pairs is not None else [(channel.a, channel.b)]
    return run_stream(env, endpoint_pairs, duration_s=duration_s,
                      message_bytes=message_bytes, hosts=hosts)


def pingpong(env, channel, rounds: int = 100, message_bytes: int = 4096):
    return run_pingpong(env, channel.a, channel.b, rounds=rounds,
                        message_bytes=message_bytes)


# -- perf-script plumbing ----------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
#: The append-only results ledger: one JSON line per writing run.
LEDGER = ROOT / "BENCH_history.jsonl"


def perf_parser(description: str, smoke_help: str,
                floor: Optional[float] = None, floor_help: str = "",
                repeats: bool = False) -> argparse.ArgumentParser:
    """The options every perf script shares; each adds its own after."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    if floor is not None:
        parser.add_argument("--floor", type=float, default=floor,
                            help=floor_help)
    parser.add_argument("--no-write", action="store_true",
                        help=f"print results without appending to "
                             f"{LEDGER.name}")
    if repeats:
        parser.add_argument("--repeats", type=int, default=3,
                            help="best-of-N repeats per configuration")
    return parser


def best_of(repeats: int, rate_key: str,
            **configs: Callable[[], dict]) -> dict[str, dict]:
    """Run every config ``repeats`` times; keep each one's fastest run.

    The configs take turns within each repeat, so clock drift (frequency
    ramps, background load) hits all of them alike instead of biasing
    whichever ran first.  Each run starts from a collected heap, so no
    run pays for the cyclic garbage the previous one left behind.
    """
    best: dict[str, dict] = {}
    for _ in range(repeats):
        for key, run in configs.items():
            gc.collect()
            result = run()
            if key not in best or result[rate_key] > best[key][rate_key]:
                best[key] = result
    for result in best.values():
        result["repeats"] = repeats
    return best


def message_rate(env, channel, n_msgs: int, msg_bytes: int = 4096) -> dict:
    """Wall-clock messages/sec pushing ``n_msgs`` one way through a
    channel to a receiver draining its other end."""

    def sender(end):
        for _ in range(n_msgs):
            yield from end.send(msg_bytes)

    def receiver(end):
        for _ in range(n_msgs):
            yield from end.recv()

    env.process(sender(channel.a))
    done = env.process(receiver(channel.b))
    start = perf_counter()
    env.run(until=done)
    wall = perf_counter() - start
    return {
        "messages": n_msgs,
        "message_bytes": msg_bytes,
        "wall_s": wall,
        "messages_per_sec": n_msgs / wall,
        "sim_s": env.now,
    }


def peak_rss_kb() -> int:
    """Max resident set size so far, in KiB (Linux ru_maxrss unit)."""
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def check_floor(failures: list, what: str, value: float, floor: float,
                unit: str, fmt: str = ",.0f") -> None:
    """Gate ``value >= floor``: record a failure, or say that it held."""
    if value < floor:
        failures.append(f"{what} {value:{fmt}} {unit} below floor "
                        f"{floor:{fmt}}")
    else:
        print(f"  floor ok: {what} {value:{fmt}} >= {floor:{fmt}} {unit}")


def git_commit() -> str:
    """``git describe --always --dirty`` of this checkout, or "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return described or "unknown"


def finish(args, bench: str, results: dict, failures: Sequence[str]) -> int:
    """Append the run to the ledger (unless ``--no-write``), report the
    failures, and return the exit status: 1 if any gate failed."""
    if not args.no_write:
        line = {
            "bench": bench,
            "commit": git_commit(),
            "python": platform.python_version(),
            "smoke": args.smoke,
            "results": results,
        }
        with LEDGER.open("a") as ledger:
            ledger.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"  -> appended to {LEDGER.name} at {line['commit']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
