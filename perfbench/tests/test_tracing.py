"""The traced-run tooling on tiny workloads.

Checks that self times add up to no more than the enclosing span, that
wrapping the entry points leaves every sim result unchanged, and that a
traced run emits every per-layer metric.
"""

import functools
import math

import pytest

import layers
import run
import workloads

TINY = {
    "rpc-small": functools.partial(workloads.rpc_small, rpcs=300, window=16),
    "bulk-mix": functools.partial(workloads.bulk_mix, sim_s=0.002),
    "fleet-churn": functools.partial(workloads.fleet_churn, hosts=8,
                                     racks=2, flows=60),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_pair(request):
    """One untraced and one traced round of a tiny workload."""
    fn = TINY[request.param]
    plain = run.run_round(fn, 7)
    tracer = layers.Tracer()
    with tracer:
        wrapped = run.run_round(fn, 7)
    return request.param, plain, wrapped, tracer


def test_self_time_within_enclosing_span(traced_pair):
    _name, _plain, _wrapped, tracer = traced_pair
    spans = tracer.spans()
    assert spans, "the traced round recorded no spans"
    by_id = {span["span"]: span for span in spans}
    children = {}
    per_op_self = {}
    for span in spans:
        assert -1e-9 <= span["self_s"] <= span["host_s"] + 1e-9
        children[span["cause"]] = children.get(span["cause"], 0.0) \
            + span["host_s"]
        per_op_self[span["op"]] = per_op_self.get(span["op"], 0.0) \
            + span["self_s"]
    for parent, covered in children.items():
        if parent in by_id:
            assert covered <= by_id[parent]["host_s"] * (1 + 1e-9) + 1e-9
    roots = {span["op"]: span for span in spans if span["cause"] == -1}
    for op, total_self in per_op_self.items():
        root = roots[op]
        assert total_self <= root["host_s"] * (1 + 1e-9) + 1e-9


def test_tracing_leaves_sim_results_unchanged(traced_pair):
    _name, plain, wrapped, _tracer = traced_pair
    assert wrapped.fingerprint == plain.fingerprint
    assert not plain.failures and not wrapped.failures


def test_wrappers_are_removed_after_the_traced_round(traced_pair):
    from repro.hardware.bandwidth import BandwidthPipe
    from repro.sim.scheduler import Environment

    assert BandwidthPipe.transfer.__module__ == "repro.hardware.bandwidth"
    assert Environment.run.__module__ == "repro.sim.scheduler"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = run.traced(TINY[workload], 3, 0.0, str(spans))
    assert run.check(result) == ([], 0)
    e2e = run.end_to_end(workload, result)
    values = run.per_layer(workload, result, e2e, 0.0)
    assert sorted(values) == sorted(name for name, _u in layers.PER_LAYER)
    for name, value in values.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    assert values["sim.events"] > 0 and values["trace.overhead_ratio"] > 0
    assert spans.read_text().count("\n") > 0
    busy = {
        "rpc-small": ("core.qp_posts", "core.socket_send_host_s",
                      "transports.rdma.sends", "hardware.fabric_sends"),
        "bulk-mix": ("netstack.overlay_submits", "netstack.tcp_sends",
                     "netstack.route_calls", "transports.shm.sends",
                     "hardware.pipe_host_s"),
        "fleet-churn": ("core.connect_host_s", "core.build_host_s",
                        "cluster.kv_puts", "core.rebinds",
                        "sim.stores_per_flow"),
    }[workload]
    for name in busy:
        assert values[name] > 0, name
