"""The timed realtime run: one repetition of the end-to-end measurement.

Warm-up, loaded window (8 clients per DC), idle window (1 client per DC);
tracing and checker off.  The job dictionary comes from ``run.py`` (times in
wall-clock seconds); the result is JSON-serialisable.  This module imports
only what the measured run needs, because ``setup_s`` counts its imports.
"""

from __future__ import annotations

import asyncio

from layers.host import peak_rss_mb, setup_cost
from layers.rt import (ClosedLoops, Deployment, Window, idle_clients,
                       measure_windows)
from layers.workloads import IDLE_CLIENTS_PER_DC, RT_WORKLOADS

#: Between stopping the loaded clients and opening the idle window: lets the
#: replication backlog of the loaded window drain out of the idle numbers.
SETTLE_SECONDS = 0.1


def issued(registries) -> int:
    return sum(r.rots_issued + r.puts_issued for r in registries)


def completed(registries) -> int:
    return sum(r.rots_completed + r.puts_completed for r in registries)


def outcome(deployment: Deployment, loops: ClosedLoops) -> dict:
    """What every run reports about its own health."""
    failure = deployment.first_failure()
    return {"errors": loops.errors,
            "first_failure": None if failure is None else repr(failure)}


async def loaded_then_idle(deployment: Deployment, loops: ClosedLoops,
                            job: dict, after_warm=None, after_loaded=None
                            ) -> tuple[list[Window], list[Window]]:
    """Warm up, measure the loaded window, drop to the idle clients, measure
    the idle window; each as back-to-back chunks of ``job["chunk"]`` seconds
    (one chunk when the job names none).  The hooks run at the two boundaries
    of the loaded window with nothing awaited in between, so what they read
    (span totals, counters) describes exactly that window."""
    loops.start(deployment.clients)
    await asyncio.sleep(job["warm"])
    if after_warm is not None:
        after_warm()
    loaded = await measure_windows(deployment.clients, job["loaded"],
                                   job.get("chunk", job["loaded"]))
    if after_loaded is not None:
        after_loaded(loaded)
    idle = idle_clients(deployment, IDLE_CLIENTS_PER_DC)
    await loops.stop([c for c in deployment.clients if c not in idle])
    await asyncio.sleep(SETTLE_SECONDS)
    idle_windows = await measure_windows(idle, job["idle"],
                                         job.get("chunk", job["idle"]))
    await loops.stop(idle)
    return loaded, idle_windows


async def _timed_rt(job: dict) -> dict:
    deployment = Deployment(RT_WORKLOADS[job["workload"]], job["seed"])
    loops = ClosedLoops()
    warm_registry = deployment.client_side.metrics
    await deployment.start()
    try:
        setup = setup_cost()
        loaded, idle = await loaded_then_idle(deployment, loops, job)
    finally:
        await deployment.stop()
    registries = [warm_registry, *(w.registry for w in loaded + idle)]
    return {
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": issued(registries),
        "failed": issued(registries) - completed(registries),
        "loaded": [window.summary() for window in loaded],
        "idle": [window.summary() for window in idle],
        **outcome(deployment, loops),
    }


def timed_rt(job: dict) -> dict:
    return asyncio.run(_timed_rt(job))
