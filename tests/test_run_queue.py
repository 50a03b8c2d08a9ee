"""Contract of the real-time nodes' run queue and timers
(:mod:`repro.runtime.nodes`).

A :class:`~repro.runtime.cluster.RealtimeCluster` without servers of its own
hosts *scripted kernels* (duck-typed, as in ``test_kernel_host.py``), so each
test states exactly which messages and timers exist: delivery order,
re-entrancy, fairness towards the rest of the loop, where an exception ends
up, and what runs before ``start()`` and after ``stop()``.
"""

import asyncio
import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.common.kernel import (
    ClientAddr,
    Complete,
    PutOutcome,
    Send,
    ServerAddr,
    SetTimer,
    TimerSpec,
)
from repro.errors import ConfigurationError, RuntimeBackendError
from repro.metrics.overheads import OverheadCounters
from repro.runtime.cluster import RealtimeCluster, drive_closed_loops
from repro.runtime.nodes import RealtimeClient, RealtimeServer
from repro.workload.generator import Operation


class ServerScript:
    """A server kernel that logs its inputs and answers from two callables
    (each returns the effect list; default: no effects)."""

    dc_id = 0

    def __init__(self, partition, on_message=None, on_timer=None, timers=()):
        self.partition_index = partition
        self.node_id = f"server-dc0-p{partition}"
        self.counters = OverheadCounters()
        self.current_trace = None
        self.messages = []
        self.timers = []
        self._on_message = on_message or (lambda sender, message: [])
        self._on_timer = on_timer or (lambda tag, payload: [])
        self._periodic = tuple(timers)

    def periodic_timers(self):
        return self._periodic

    def on_message(self, sender, message, now):
        self.messages.append((sender, message))
        return self._on_message(sender, message)

    def on_timer(self, tag, payload, now):
        self.timers.append(tag)
        return self._on_timer(tag, payload)


class ClientScript:
    """A client kernel: every operation is one request to ``server`` and is
    complete at the reply; raises on reply number ``raise_on``."""

    dc_id = 0

    def __init__(self, client_id, server, raise_on=None):
        self.client_id = client_id
        self.server = server
        self.current_trace = None
        self.replies = 0
        self.raise_on = raise_on

    def start_operation(self, operation, sequence, now):
        return [Send(self.server, ("request", sequence))]

    def on_message(self, message, now):
        self.replies += 1
        if self.replies == self.raise_on:
            raise ValueError(f"reply {self.replies} is poisoned")
        return [Complete("put", PutOutcome("k", self.replies, 0))]


def put():
    return Operation("put", ("0:1",), value_size=8)


class Puts:
    """A workload generator of nothing but :func:`put`."""

    def next_operation(self):
        return put()


def reply_to_sender(sender, message):
    return [Send(sender, ("reply", message))]


def host_cluster():
    """A cluster whose only nodes are the ones a test attaches."""
    return RealtimeCluster("contrarian", ClusterConfig.test_scale(),
                           workload_clients=False, server_ids=())


def add_server(cluster, kernel):
    server = RealtimeServer(cluster, kernel)
    cluster.servers[(kernel.dc_id, kernel.partition_index)] = server
    cluster.transport.register_local(server.addr, server)
    return server


def add_client(cluster, kernel, generator=None):
    client = RealtimeClient(cluster, kernel, generator=generator)
    cluster.clients.append(client)
    cluster.transport.register_local(client.addr, client)
    return client


async def passes(count):
    """Let the loop run ``count`` rounds of its ready queue."""
    for _ in range(count):
        await asyncio.sleep(0)


A, B = ClientAddr("a"), ClientAddr("b")


class TestDelivery:
    def test_each_node_sees_its_messages_in_delivery_order(self):
        async def main():
            cluster = host_cluster()
            first = add_server(cluster, ServerScript(0))
            second = add_server(cluster, ServerScript(1))
            await cluster.start()
            try:
                for index in range(6):
                    sender = (A, B)[index % 2]
                    first.deliver(sender, ("first", index))
                    second.deliver(sender, ("second", index))
                    if index == 2:
                        await passes(2)  # some served, the rest queued behind
                await passes(2)
            finally:
                await cluster.stop()
            return first.kernel.messages, second.kernel.messages

        first, second = asyncio.run(main())
        assert first == [((A, B)[i % 2], ("first", i)) for i in range(6)]
        assert second == [((A, B)[i % 2], ("second", i)) for i in range(6)]

    def test_deliver_never_dispatches_re_entrantly(self):
        """A kernel that sends to its own address sees that message in a
        later pass: after its own call returned, and after whatever the loop
        had been asked to run in between."""
        async def main():
            log = []
            loop = asyncio.get_running_loop()
            cluster = host_cluster()

            def on_message(sender, message):
                log.append(("enter", message))
                effects = []
                if message == "first":
                    loop.call_soon(log.append, "the loop's turn")
                    effects = [Send(ServerAddr(0, 0), "to myself")]
                log.append(("exit", message))
                return effects

            server = add_server(cluster, ServerScript(0, on_message))
            await cluster.start()
            try:
                server.deliver(A, "first")
                assert log == []  # not even the first one runs inside deliver
                await passes(3)
            finally:
                await cluster.stop()
            return log

        assert asyncio.run(main()) == [
            ("enter", "first"), ("exit", "first"), "the loop's turn",
            ("enter", "to myself"), ("exit", "to myself")]

    def test_a_message_chain_does_not_starve_the_rest_of_the_loop(self):
        """Every message of the chain enqueues the next, so the run queue is
        never empty; a pass serves only what was queued when it started, so
        a due timer and another coroutine still get their turn."""
        limit = 200_000  # the chain ends by itself if the loop IS starved

        async def main():
            cluster = host_cluster()
            kernel = ServerScript(0, lambda sender, message: (
                [Send(ServerAddr(0, 0), message + 1)] if message < limit
                else []))
            server = add_server(cluster, kernel)
            await cluster.start()
            fired_after = []
            try:
                server.deliver(A, 0)
                asyncio.get_running_loop().call_later(
                    0, lambda: fired_after.append(len(kernel.messages)))
                await passes(20)
                seen = len(kernel.messages)
            finally:
                await cluster.stop()
            return fired_after, seen

        fired_after, seen = asyncio.run(main())
        assert fired_after and fired_after[0] <= 5
        assert 10 <= seen <= 25  # one message per pass, one pass per round

    def test_messages_delivered_before_start_are_served_after_it(self):
        async def main():
            cluster = host_cluster()
            server = add_server(cluster, ServerScript(0, reply_to_sender))
            client = add_client(cluster, ClientScript("early", server.addr))
            client.issue(put())  # sends, and the server's reply is a second hop
            await passes(3)
            before = list(server.kernel.messages)
            await cluster.start()
            try:
                await passes(3)
            finally:
                await cluster.stop()
            return before, server.kernel.messages, client.outcome

        before, after, outcome = asyncio.run(main())
        assert before == []
        assert after == [(ClientAddr("early"), ("request", 1))]
        assert outcome == PutOutcome("k", 1, 0)


class TestFailures:
    def test_a_raising_message_or_timer_stops_only_its_own_node(self):
        async def main():
            def poisoned(sender, message):
                raise KeyError("bad message")

            def bad_timer(tag, payload):
                raise LookupError("bad timer")

            cluster = host_cluster()
            healthy = add_server(cluster, ServerScript(0, reply_to_sender))
            by_message = add_server(cluster, ServerScript(1, poisoned))
            by_timer = add_server(cluster, ServerScript(
                2, lambda sender, message: [SetTimer(0.001, "boom")],
                bad_timer))
            client = add_client(cluster, ClientScript("c", healthy.addr))
            await cluster.start()
            try:
                by_message.deliver(A, "poison")
                by_message.deliver(A, "never served")
                by_timer.deliver(A, "arm")
                await asyncio.sleep(0.02)
                by_timer.deliver(A, "never served")
                for _ in range(3):
                    await client.perform(put(), timeout=5.0)
            finally:
                await cluster.stop()
            return cluster, healthy, by_message, by_timer, client

        cluster, healthy, by_message, by_timer, client = asyncio.run(main())
        assert isinstance(by_message.failure, KeyError)
        assert by_message.kernel.messages == [(A, "poison")]
        assert isinstance(by_timer.failure, LookupError)
        assert by_timer.kernel.messages == [(A, "arm")]
        assert by_timer.kernel.timers == ["boom"]
        assert healthy.failure is None and client.failure is None
        assert client.kernel.replies == 3
        # Servers in construction order, so the first one that failed.
        assert cluster.first_failure() is by_message.failure

    def test_perform_that_cannot_send_leaves_the_client_usable(self):
        """The send raises synchronously (no server anywhere): both calls
        must report that, not 'already has an operation in flight'."""
        async def main():
            cluster = host_cluster()
            client = cluster.add_client(0, 0)
            await cluster.start()
            try:
                for _ in range(2):
                    with pytest.raises(ConfigurationError,
                                       match="no server at DC 0"):
                        await client.perform(put(), timeout=1.0)
                    assert client.operation is None
            finally:
                await cluster.stop()

        asyncio.run(main())

    def test_a_dead_closed_loop_fails_the_run_at_once(self):
        async def main():
            cluster = host_cluster()
            server = add_server(cluster, ServerScript(0, reply_to_sender))
            add_client(cluster, ClientScript("ok", server.addr), Puts())
            add_client(cluster, ClientScript("dies", server.addr, raise_on=3),
                       Puts())
            await cluster.start()
            started = time.perf_counter()
            try:
                with pytest.raises(ValueError, match="reply 3 is poisoned"):
                    await drive_closed_loops(cluster, duration_seconds=30)
            finally:
                await cluster.stop()
            return time.perf_counter() - started

        assert asyncio.run(main()) < 1.0


class TestLifecycle:
    def test_nothing_is_served_after_stop(self):
        async def main():
            kernel = ServerScript(
                0, lambda sender, message: [SetTimer(0.005, "one-shot")],
                timers=[TimerSpec("periodic", 0.001)])
            cluster = host_cluster()
            server = add_server(cluster, kernel)
            await cluster.start()
            server.deliver(A, "arms a timer that is due after stop")
            await asyncio.sleep(0.003)
            server.deliver(A, "queued when stop is called")
            await cluster.stop()
            seen = len(kernel.messages), len(kernel.timers)
            server.deliver(A, "delivered to a stopped cluster")
            await asyncio.sleep(0.03)
            return seen, (len(kernel.messages), len(kernel.timers)), kernel

        seen, later, kernel = asyncio.run(main())
        assert later == seen
        assert kernel.messages == [(A, "arms a timer that is due after stop")]
        assert "periodic" in kernel.timers and "one-shot" not in kernel.timers

    @pytest.mark.parametrize("workload_clients", [True, False])
    def test_perform_on_a_stopped_cluster_fails_at_once(self, workload_clients):
        """An inproc cluster is terminal after ``stop()``, like a TCP one:
        nobody drains its run queue, so ``perform`` must not wait for the
        timeout — and must leave the client as it found it."""
        async def main():
            cluster = RealtimeCluster(
                "contrarian", ClusterConfig.test_scale(clients_per_dc=1),
                workload_clients=workload_clients)
            client = (cluster.clients[0] if workload_clients
                      else cluster.add_client(0, 0))
            await cluster.start()
            await client.perform(put(), timeout=5.0)
            await cluster.stop()
            started = time.perf_counter()
            with pytest.raises(RuntimeBackendError, match="cluster is closed"):
                await client.perform(put(), timeout=2.0)
            return time.perf_counter() - started, cluster, client

        elapsed, cluster, client = asyncio.run(main())
        assert elapsed < 0.1
        assert len(cluster._run_queue) == 0
        assert client._op_future is None and client._broken is None

    def test_a_second_start_does_not_double_the_periodic_timers(self):
        async def main():
            kernel = ServerScript(0, timers=[TimerSpec("tick", 0.01)])
            cluster = host_cluster()
            add_server(cluster, kernel)
            await cluster.start()
            await cluster.start()
            await asyncio.sleep(0.1)
            await cluster.stop()
            return len(kernel.timers)

        assert asyncio.run(main()) <= 11

    def test_an_inproc_cluster_owns_no_tasks(self):
        async def main():
            cluster = RealtimeCluster("contrarian", ClusterConfig.test_scale())
            await cluster.start()
            try:
                await asyncio.sleep(0.02)  # timers and heartbeats are running
                return len(asyncio.all_tasks()), cluster.overhead()
            finally:
                await cluster.stop()

        tasks, overhead = asyncio.run(main())
        assert tasks == 1  # this coroutine
        assert overhead.messages_sent > 0

    def test_periodic_timers_keep_their_rate_on_a_busy_loop(self):
        """Deadlines are absolute: the time a fire spends waiting for its
        turn (here ~0.5 ms behind a chain of busy handlers that never lets
        the loop idle) must not stretch the period."""
        interval, window = 0.005, 0.5

        async def main():
            def busy(sender, message):
                until = time.perf_counter() + 0.0005
                while time.perf_counter() < until:
                    pass
                return [Send(ServerAddr(0, 0), message)]

            kernel = ServerScript(0, busy, timers=[TimerSpec("tick", interval)])
            cluster = host_cluster()
            server = add_server(cluster, kernel)
            await cluster.start()
            server.deliver(A, "spin")
            await asyncio.sleep(window)
            await cluster.stop()
            return len(kernel.timers)

        assert asyncio.run(main()) >= 0.9 * window / interval
