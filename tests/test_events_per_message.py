"""Engine-work gate: scheduled events per message on the flat fabric.

Every event the engine processes costs host time, so events per message
is the machine-independent unit of the data path's cost (wall-clock on a
shared box swings too widely to gate on).  The shape is the
``bench_engine`` channel benchmark: one sender pumps 4 KiB messages
over a two-host :class:`~repro.hardware.Fabric` and one receiver drains
them.  Each fabric crossing passes one per-pair delivery stage
(propagation wait, partition park, NIC ingress); one more Store hand-off
per crossing shows up here as two more events per message.  A claim on
a free CPU core, NIC engine or pipe lane is granted without an event, so
an uncontended hold costs only its service timeout; a grant that goes
back through the scheduler shows up here as one more event per hold.
"""

import pytest

from repro.hardware import Fabric, Host
from repro.sim import Environment
from repro.transports import DpdkChannel, RdmaChannel, TcpFallbackChannel

MESSAGES = 2000
MESSAGE_BYTES = 4096
#: Fixed per-run events that no message pays for: process starts and
#: the first-use spawn of each per-pair worker (9-12 in practice).
SETUP_EVENTS = 16


@pytest.mark.parametrize("channel_cls, max_events", [
    (RdmaChannel, 26),
    (DpdkChannel, 21),
    (TcpFallbackChannel, 19),
], ids=["rdma", "dpdk", "tcp"])
def test_events_per_message_gate(channel_cls, max_events):
    env = Environment()
    fabric = Fabric(env)
    channel = channel_cls(Host(env, "h1", fabric=fabric),
                          Host(env, "h2", fabric=fabric))
    received = []

    def sender():
        for _ in range(MESSAGES):
            yield from channel.a.send(MESSAGE_BYTES)

    def receiver():
        for _ in range(MESSAGES):
            received.append((yield from channel.b.recv()))

    env.process(sender())
    env.run(until=env.process(receiver()))
    assert len(received) == MESSAGES
    per_message = (env.events_processed - SETUP_EVENTS) / MESSAGES
    assert per_message <= max_events, (
        f"{per_message:.3f} events per message (gate {max_events})")
