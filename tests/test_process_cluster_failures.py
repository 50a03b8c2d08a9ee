"""The multi-process control plane under failure.

A worker that is killed, that crashes before it says hello, or that reports
an error must fail the call that is waiting on it — by name, with what it
hosts and how it ended — within a bounded time, and ``stop()`` must then
leave no child process and no listening control socket behind.  These spawn
real processes, so they carry the ``slow`` marker like their sibling
``test_tcp_cluster.py`` (tier-1 still runs them).
"""

import asyncio
import multiprocessing
import socket
import time

import pytest

from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.errors import RuntimeBackendError
from repro.runtime.process import ProcessCluster, WorkerReady, WorkerRole
from repro.workload.parameters import WorkloadParameters

#: 2 DCs x 2 partitions -> server workers 0..3, client workers 4 and 5.
CONFIG = ClusterConfig.test_scale(num_partitions=2, num_dcs=2,
                                  clients_per_dc=2, warmup_seconds=0.05)
WORKLOAD = WorkloadParameters(rot_size=2)
SERVER_WORKER, CLIENT_WORKER = 0, 4

#: Wall-clock bounds (seconds) on this 2-CPU class of host.
FAIL_BOUND = 1.0
STOP_BOUND = 3.0


def make_cluster() -> ProcessCluster:
    return ProcessCluster("contrarian", CONFIG, WORKLOAD,
                          checker=StreamingChecker.offline())


async def stop_and_check(cluster: ProcessCluster, control_port=None) -> None:
    """``stop()`` is bounded and leaves nothing behind."""
    started = time.perf_counter()
    await cluster.stop()
    assert time.perf_counter() - started < STOP_BOUND
    assert multiprocessing.active_children() == []
    if control_port is not None:
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", control_port), 0.5).close()


def control_port_of(cluster: ProcessCluster) -> int:
    return cluster._control.sockets[0].getsockname()[1]


async def run_with_kill(victim: int) -> tuple[ProcessCluster, Exception, float]:
    """Kill ``victim`` 0.3 s into a 1 s run; how and when the run failed."""
    cluster, port = make_cluster(), None
    try:
        await cluster.start()
        port = control_port_of(cluster)
        loop = asyncio.get_running_loop()
        killed_at = []

        def kill() -> None:
            killed_at.append(time.perf_counter())
            cluster._workers[victim].process.kill()

        loop.call_later(0.3, kill)
        with pytest.raises(RuntimeBackendError) as raised:
            await cluster.run_workload(1.0)
        failed_after = time.perf_counter() - killed_at[0]
    finally:
        await stop_and_check(cluster, port)
    return cluster, raised.value, failed_after


@pytest.mark.slow
class TestKilledWorkers:
    def test_killed_server_worker_fails_the_run_by_name(self):
        cluster, error, failed_after = asyncio.run(
            run_with_kill(SERVER_WORKER))
        message = str(error)
        assert "worker 0 (server [(0, 0)])" in message
        assert "closed its control connection" in message
        assert "exit code -9" in message
        assert failed_after < FAIL_BOUND
        # The same error is what the experiment runner re-raises after stop.
        assert cluster.first_failure() is error

    def test_killed_client_worker_fails_the_run_by_name(self):
        cluster, error, failed_after = asyncio.run(
            run_with_kill(CLIENT_WORKER))
        message = str(error)
        assert "worker 4 (clients [(0, 0), (0, 1)])" in message
        assert "exit code -9" in message
        assert failed_after < FAIL_BOUND
        assert cluster.first_failure() is error


@pytest.mark.slow
class TestWorkersThatFailOnTheirOwn:
    def test_crash_before_hello_fails_start(self):
        async def scenario():
            cluster = make_cluster()
            # Partition 7 does not exist: building the worker's slice raises
            # before it ever connects.
            lying = WorkerRole(0, ((0, 7),), ())
            cluster.roles = (lying,) + cluster.roles[1:]
            port = None
            try:
                started = time.perf_counter()
                with pytest.raises(RuntimeBackendError) as raised:
                    await cluster.start()
                failed_after = time.perf_counter() - started
                port = control_port_of(cluster)
            finally:
                await stop_and_check(cluster, port)
            return cluster, raised.value, failed_after

        cluster, error, failed_after = asyncio.run(scenario())
        # Spawn + import + the crash itself; no start-up timeout involved.
        assert failed_after < STOP_BOUND
        message = str(error)
        assert "worker 0 (server [(0, 7)])" in message
        assert "exited before it connected" in message
        assert "exit code 1" in message
        assert cluster.first_failure() is error

    def test_worker_error_frame_fails_the_run_with_its_traceback(self):
        async def scenario():
            cluster, port = make_cluster(), None
            try:
                await cluster.start()
                port = control_port_of(cluster)
                # A message no worker expects from its parent.
                cluster._send([cluster._workers[SERVER_WORKER]],
                              WorkerReady(SERVER_WORKER))
                started = time.perf_counter()
                with pytest.raises(RuntimeBackendError) as raised:
                    await cluster.run_workload(1.0)
                failed_after = time.perf_counter() - started
            finally:
                await stop_and_check(cluster, port)
            return cluster, raised.value, failed_after

        cluster, error, failed_after = asyncio.run(scenario())
        message = str(error)
        assert "worker 0 (server [(0, 0)]) failed" in message
        assert "unexpected control message WorkerReady" in message
        assert failed_after < FAIL_BOUND
        assert cluster.first_failure() is error


@pytest.mark.slow
class TestLifecycleEdges:
    def test_second_run_is_refused_before_anything_is_sent(self):
        async def scenario():
            cluster, port = make_cluster(), None
            try:
                await cluster.start()
                port = control_port_of(cluster)
                await cluster.run_workload(0.3)
                measured = (cluster.metrics.rots_issued,
                            cluster.checker.recorded_rots)
                assert measured[0] > 0 and measured[1] > 0
                started = time.perf_counter()
                with pytest.raises(RuntimeBackendError, match="already run"):
                    await cluster.run_workload(0.3)
                assert time.perf_counter() - started < 0.1
                assert (cluster.metrics.rots_issued,
                        cluster.checker.recorded_rots) == measured
            finally:
                await stop_and_check(cluster, port)
            # Refusing a call is not a failure of the run that did happen.
            assert cluster.first_failure() is None

        asyncio.run(scenario())

    def test_stop_before_start_and_stop_twice(self):
        async def scenario():
            unstarted = make_cluster()
            await stop_and_check(unstarted)
            with pytest.raises(RuntimeBackendError, match="closed"):
                await unstarted.start()

            cluster = make_cluster()
            await cluster.start()
            port = control_port_of(cluster)
            await stop_and_check(cluster, port)
            await stop_and_check(cluster, port)
            assert cluster.first_failure() is None

        asyncio.run(scenario())
