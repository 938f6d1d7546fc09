"""Tests for the containerized application models (KV store, training)."""

import pytest

from repro.cluster import ContainerSpec
from repro.workloads import KeyValueStoreApp, ParameterServerApp


@pytest.fixture
def kv_setup(cluster, network):
    server = cluster.submit(ContainerSpec("kv-server", pinned_host="h1"))
    local = cluster.submit(ContainerSpec("local-client", pinned_host="h1"))
    remote = cluster.submit(ContainerSpec("remote-client", pinned_host="h2"))
    for c in (server, local, remote):
        network.attach(c)
    app = KeyValueStoreApp(network, server, value_bytes=2048)
    return app, server, local, remote


class TestKeyValueStore:
    def test_put_then_get_roundtrip(self, env, kv_setup, runner):
        app, __, local, __ = kv_setup

        def flow():
            client = yield from app.client(local)
            yield from client.put(1, "value-one")
            value = yield from client.get(1)
            yield from client.close()
            return value

        assert runner(flow()) == "value-one"
        assert app.puts_served == 1
        assert app.gets_served == 1

    def test_get_missing_key_returns_empty(self, env, kv_setup, runner):
        app, __, local, __ = kv_setup

        def flow():
            client = yield from app.client(local)
            value = yield from client.get(999)
            return value

        assert runner(flow()) == ""

    def test_two_clients_share_the_store(self, env, kv_setup, runner):
        app, __, local, remote = kv_setup

        def flow():
            writer = yield from app.client(local)
            yield from writer.put(7, "shared")
            reader = yield from app.client(remote)
            value = yield from reader.get(7)
            return value

        assert runner(flow()) == "shared"

    def test_remote_client_latency_higher_than_local(self, env, kv_setup,
                                                     runner):
        app, __, local, remote = kv_setup

        def flow():
            local_client = yield from app.client(local)
            remote_client = yield from app.client(remote)
            yield from local_client.put(1, "x")
            for _ in range(20):
                yield from local_client.get(1)
            local_mean = app.get_latencies.mean()
            count = len(app.get_latencies)
            for _ in range(20):
                yield from remote_client.get(1)
            remote_samples = app.get_latencies.samples[count:]
            remote_mean = sum(remote_samples) / len(remote_samples)
            return local_mean, remote_mean

        local_mean, remote_mean = runner(flow())
        assert remote_mean > local_mean

    def test_random_get_stays_in_keyspace(self, env, kv_setup, runner):
        app, __, local, __ = kv_setup

        def flow():
            client = yield from app.client(local)
            for _ in range(10):
                yield from client.random_get()

        runner(flow())
        assert app.gets_served == 10


class TestParameterServer:
    def _workers(self, cluster, network, n, split=True):
        workers = []
        for i in range(n):
            host = "h2" if (split and i >= n // 2) else "h1"
            c = cluster.submit(ContainerSpec(f"worker{i}", pinned_host=host))
            network.attach(c)
            workers.append(c)
        return workers

    def test_training_converges_to_mean(self, env, cluster, network, runner):
        workers = self._workers(cluster, network, 4)
        app = ParameterServerApp(network, workers,
                                 gradient_bytes=1 << 20, compute_s=1e-4)

        def flow():
            yield from app.run(steps=3)

        runner(flow())
        assert app.stats.steps == 3
        values = list(app.stats.final_values.values())
        assert len(values) == 4
        # Allreduce keeps every worker identical.
        assert all(v == pytest.approx(values[0]) for v in values)

    def test_needs_two_workers(self, cluster, network):
        worker = cluster.submit(ContainerSpec("solo"))
        network.attach(worker)
        with pytest.raises(ValueError):
            ParameterServerApp(network, [worker])

    def test_steps_validated(self, env, cluster, network):
        workers = self._workers(cluster, network, 2, split=False)
        app = ParameterServerApp(network, workers)
        process = env.process(app.run(steps=0))
        with pytest.raises(ValueError):
            env.run(until=process)

    def test_step_time_scales_with_gradient_size(self, env, cluster,
                                                 network, runner):
        workers = self._workers(cluster, network, 2, split=False)
        small = ParameterServerApp(network, workers,
                                   gradient_bytes=1 << 16, compute_s=0)

        def flow_small():
            yield from small.run(steps=2)

        runner(flow_small())
        small_time = small.stats.step_times.mean()

        big = ParameterServerApp(network, workers,
                                 gradient_bytes=1 << 24, compute_s=0)

        def flow_big():
            yield from big.run(steps=2)

        runner(flow_big())
        assert big.stats.step_times.mean() > small_time


def _build_kv_app():
    from repro import quickstart_cluster

    env, cluster, network = quickstart_cluster(hosts=2)
    server = cluster.submit(ContainerSpec("kv-server", pinned_host="host0"))
    client_box = cluster.submit(ContainerSpec("kv-client", pinned_host="host1"))
    for container in (server, client_box):
        network.attach(container)
    return env, KeyValueStoreApp(network, server, keys=512), client_box


def _draw_keys(env, app, client_box, draws=40):
    keys = []

    def flow():
        first = yield from app.client(client_box)
        second = yield from app.client(client_box)
        for _ in range(draws):
            keys.append((first.rng.zipf_index(app.keys, app.zipf_skew),
                         second.rng.zipf_index(app.keys, app.zipf_skew)))

    env.run(until=env.process(flow()))
    return keys


def test_identically_built_kv_apps_draw_the_same_keys():
    # Both apps stay alive, so no object identity can repeat between them.
    one = _build_kv_app()
    two = _build_kv_app()
    keys_one = _draw_keys(*one)
    keys_two = _draw_keys(*two)
    assert keys_one == keys_two
    # Each client of one app still gets its own stream.
    assert [a for a, _ in keys_one] != [b for _, b in keys_one]
