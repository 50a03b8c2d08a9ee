"""repro — a reproduction of "Causal Consistency and Latency Optimality:
Friend or Foe?" (Didona, Guerraoui, Wang, Zwaenepoel — VLDB 2018).

The package contains:

* the **Contrarian** protocol (the paper's contribution) plus the **Cure**
  and **CC-LO / COPS-SNOW** baselines, implemented as sans-I/O protocol
  kernels (:mod:`repro.core`) that run on three interchangeable backends:
  a discrete-event simulation of a partitioned, optionally geo-replicated
  key-value store (``"sim"``, :mod:`repro.sim`), and a wall-clock asyncio
  runtime (:mod:`repro.runtime`) serving every node from one loop
  (``"inproc"``) or every partition server from its own OS process over
  TCP (``"tcp"``);
* a workload generator and experiment harness that regenerate every table
  and figure of the paper's evaluation section; and
* an executable rendition of the paper's theoretical result (Theorem 1: the
  cost of latency-optimal ROTs grows linearly with the number of clients).

Quickstart::

    from repro import CausalStore

    store = CausalStore(protocol="contrarian")
    store.put("album:acl")
    store.put("album:photos")
    print(store.rot(["album:acl", "album:photos"]).values)

    # The same API served on wall-clock time ("inproc" or "tcp"):
    with CausalStore(protocol="contrarian", backend="inproc") as store:
        store.put("album:acl")

    from repro import ClusterConfig, run_experiment
    outcome = run_experiment("contrarian")
    print(outcome.result.as_row())
    # One wall-clock second, the same row:
    outcome = run_experiment("contrarian",
                             ClusterConfig.test_scale(duration_seconds=1.0),
                             backend="tcp")

A load sweep is one full simulation per load point; every multi-run study
is a list of ``RunSpec``s executed by ``run_specs`` (or, grouped by series,
``run_series``), over worker processes with rows identical for every worker
count::

    from repro import load_sweep, run_specs, sweep_specs
    rows = load_sweep("contrarian", (4, 16, 48), max_workers=4)
    rows = run_specs(sweep_specs("cure", (4, 16)), max_workers=2)

Runs can execute deterministic fault scenarios (partitions, degraded links,
slow nodes, load spikes) with per-phase metrics and consistency checking::

    from repro import ClusterConfig, Scenario, run_experiment
    config = ClusterConfig.test_scale(num_dcs=2, duration_seconds=2.4,
                                      warmup_seconds=0.2)
    scenario = Scenario.at(0.8).partition_dc(1).at(1.6).heal()
    outcome = run_experiment("contrarian", config, scenario=scenario,
                             check_consistency=True)

Exports resolve lazily (PEP 562), so importing a sans-I/O kernel module —
e.g. ``repro.core.vector.kernel`` — never loads the simulator.
"""

from repro._lazy import make_lazy

__version__ = "1.1.0"

_EXPORTS = {
    "CausalStore": "repro.api",
    "ClusterConfig": "repro.cluster.config",
    "ConfigurationError": "repro.errors",
    "ConsistencyViolation": "repro.errors",
    "DEFAULT_WORKLOAD": "repro.workload.parameters",
    "FaultController": "repro.faults",
    "FaultEvent": "repro.faults",
    "OperationResult": "repro.api",
    "ParallelExecutionError": "repro.harness.parallel",
    "ProcessCluster": "repro.runtime.process",
    "ProtocolError": "repro.errors",
    "ReproError": "repro.errors",
    "RunResult": "repro.metrics.collectors",
    "RunSpec": "repro.harness.parallel",
    "Scenario": "repro.faults",
    "SimulationError": "repro.errors",
    "TheoryError": "repro.errors",
    "TransportError": "repro.errors",
    "WireFormatError": "repro.errors",
    "WorkloadError": "repro.errors",
    "WorkloadParameters": "repro.workload.parameters",
    "get_scenario": "repro.faults",
    "load_sweep": "repro.harness.runner",
    "register_protocol": "repro.core.registry",
    "run_experiment": "repro.harness.runner",
    "run_series": "repro.harness.parallel",
    "run_specs": "repro.harness.parallel",
    "sweep_specs": "repro.harness.parallel",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())
