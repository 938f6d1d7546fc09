"""Sim results repeat exactly across processes and hash seeds.

Each workload runs one round per process; the ``sim_fingerprint`` line
holds every sim-time metric and the measured phase's event count.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def fingerprint(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"]
    line = next(l for l in lines if l.startswith("sim_fingerprint "))
    return json.loads(line.split(" ", 1)[1])


@pytest.mark.parametrize("workload", ["rpc-small", "bulk-mix", "fleet-churn"])
def test_same_seed_same_sim_results_across_hash_seeds(workload):
    first = fingerprint(workload, 1, 0)
    assert first == fingerprint(workload, 1, 1)
    assert "sim.events" in first
    assert first != fingerprint(workload, 2, 0)


def test_exits_nonzero_without_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
