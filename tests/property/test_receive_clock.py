"""An IPoIB client socket's kernel receive against its closed form.

The client's kernel receive is serial CPU per connection: a response is
handed to the client once it has arrived and the socket finished
receiving the one before it, ``cpu_recv`` later. On a 1x1 cluster every
response of a batched ``mget`` comes from one server over one socket, in
send order, so the instant the client takes response *i* is the
sequential sum

    taken[i] = max(delivered_at[i], taken[i - 1]) + cpu_recv

Drawing ``cpu_recv`` as picosecond counts makes the sums arbitrary
floats, so the check is exact, and large draws make a batch's responses
queue behind each other (the busy branch) while small ones do not. The
sequential sum is the reference, as in ``test_worker_clock.py``.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster, profiles
from repro.client.client import MemcachedClient
from repro.core.cluster import ClusterSpec
from repro.net.params import FDR_IPOIB
from repro.net.transport import IPoIBEndpoint
from repro.server.protocol import Response
from repro.units import KB, MB


def _run(cpu_recv, batches, value_length):
    """Preload the keys, then one ``mget`` per batch size. Returns the
    response messages in send order and ``(instant, payload)`` of each
    response the client took."""
    sent, taken = [], []
    send, on_response = IPoIBEndpoint.send, MemcachedClient._on_response

    def spy_send(endpoint, payload, nbytes, one_sided=False, at=None):
        msg = send(endpoint, payload, nbytes, one_sided, at)
        if isinstance(payload, Response):
            sent.append((msg, payload))
        return msg

    def spy_response(client, conn, msg):
        taken.append((client.sim.now, msg.payload))
        on_response(client, conn, msg)

    params = dataclasses.replace(FDR_IPOIB, cpu_recv=cpu_recv)
    with mock.patch.object(IPoIBEndpoint, "send", spy_send), \
            mock.patch.object(MemcachedClient, "_on_response", spy_response):
        cluster = build_cluster(profiles.IPOIB_MEM, spec=ClusterSpec(
            server_mem=32 * MB, ipoib_params=params))
        client, sim = cluster.clients[0], cluster.sim
        keys = [b"rx%d" % i for i in range(max(batches))]
        cluster.servers[0].preload((key, value_length) for key in keys)

        def app():
            for n in batches:
                reqs = yield from client.mget(keys[:n])
                assert [r.status for r in reqs] == ["HIT"] * n

        sim.run(until=sim.spawn(app()))
    return sent, taken


@settings(max_examples=60, deadline=None)
@given(cpu_recv=st.integers(0, 20_000_000).map(lambda ps: ps * 1e-12),
       batches=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       value_length=st.integers(1, 64 * KB))
def test_each_response_is_taken_at_the_sequential_sum(cpu_recv, batches,
                                                      value_length):
    sent, taken = _run(cpu_recv, batches, value_length)
    assert len(sent) == sum(batches)
    expected, previous = [], 0.0
    for msg, payload in sent:
        start = max(msg.delivered_at, previous)
        previous = start + cpu_recv
        expected.append((previous, payload))
    assert taken == expected
