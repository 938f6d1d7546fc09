"""Instrumentation composition: sanitizer + profiler + wait-for graph.

All three instruments attach an observer to the engine
(``Environment.attach``) instead of replacing its methods, so they must
compose in ANY install order and unwind in ANY uninstall order.  This
file runs one workload under every install permutation crossed with
every uninstall permutation and proves (a) every instrument observes the
run, (b) teardown leaves no observer attached, and (c) no class method
of the engine was ever touched.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import sanitizer, waitfor
from repro.sim import Environment
from repro.sim.process import Process
from repro.sim.resources import Resource, Store, Tank
from repro.telemetry import profiler as profiler_mod

PRISTINE_STEP = Environment.__dict__["step"]
PRISTINE_RUN = Environment.__dict__["run"]
PRISTINE_PROCESS_STEP = Process.__dict__["_step"]


def _run_workload():
    """Exercise every instrumented surface: engine stepping (sanitizer,
    profiler), a lock park, a blocking store get, and tank traffic
    (wait-for graph)."""
    env = Environment()
    lock = Resource(env, label="wl-lock")
    inbox = Store(env, label="wl-inbox")
    credits = Tank(env, capacity=16, initial=16, label="wl-credits")
    got = []

    def consumer():
        with lock.request() as claim:
            yield claim
            yield credits.get(4)
            item = yield inbox.get()
            got.append(item)
            yield credits.put(4)

    def contender():
        with lock.request() as claim:  # parks behind consumer
            yield claim

    def producer():
        yield env.timeout(1e-6)
        inbox.put("payload")

    env.process(consumer())
    env.process(contender())
    env.process(producer())
    env.run()
    assert got == ["payload"]
    return env


INSTRUMENTS = {
    "sanitizer": (sanitizer.install, sanitizer.uninstall),
    "profiler": (profiler_mod.install, profiler_mod.uninstall),
    "waitfor": (waitfor.install, waitfor.uninstall),
}
ORDERS = list(itertools.permutations(INSTRUMENTS))


@pytest.fixture
def bare_engine():
    """Run the test with all suite-wide instrumentation stripped, so
    every permutation starts from (and must return to) an engine with no
    observers."""
    had_sanitizer = sanitizer.installed()
    had_waitfor = waitfor.installed()
    saved_profiler = profiler_mod.uninstall()
    waitfor.uninstall()
    sanitizer.uninstall()
    assert Environment._observers == ()
    yield
    if had_sanitizer:
        sanitizer.install()
    if had_waitfor:
        waitfor.install()
    if saved_profiler is not None:
        profiler_mod.install(saved_profiler)


@pytest.mark.parametrize("setup", ORDERS, ids="+".join)
def test_any_install_order_composes_and_unwinds(setup, bare_engine):
    """Install in ``setup`` order, then uninstall in each of the six
    orders in turn (36 install x uninstall cases in all)."""
    for teardown in ORDERS:
        profiler = None
        for name in setup:
            result = INSTRUMENTS[name][0]()
            if name == "profiler":
                profiler = result
        assert len(Environment._observers) == 3
        try:
            env = _run_workload()
            assert sanitizer.stats()["engine_step"] == env.events_processed
            assert profiler.events_total == env.events_processed
            assert waitfor.stats()["parks"] >= 1
            assert waitfor.stats()["violations"] == 0
        finally:
            for name in teardown:
                INSTRUMENTS[name][1]()

        assert Environment._observers == (), teardown
        assert Environment.__dict__["step"] is PRISTINE_STEP
        assert Environment.__dict__["run"] is PRISTINE_RUN
        assert Process.__dict__["_step"] is PRISTINE_PROCESS_STEP
        assert not sanitizer.installed()
        assert not profiler_mod.installed()
        assert not waitfor.installed()


def test_nested_uninstall_mid_stack_leaves_outer_layers_working(
        bare_engine):
    """The chaos runner arms waitfor inside an already-sanitized run and
    removes it first; removing the sanitizer first must leave waitfor
    working just the same."""
    sanitizer.install()
    waitfor.install()
    _run_workload()
    sanitizer.uninstall()
    waitfor.reset_stats()
    _run_workload()  # waitfor must still be live and functional
    assert waitfor.stats()["parks"] >= 1
    waitfor.uninstall()
    assert Environment._observers == ()
