"""Cross-commit determinism of the simulator: pinned result fingerprints.

The simulated backend promises bit-identical results for a fixed seed — not
only run to run (``tests/test_harness_parallel.py`` checks that) but commit
to commit: a refactor of the drivers, the registry or the cost accounting
must not move a single event.  Each case below runs one small fixed-seed
experiment and compares a SHA-256 of the full ``RunResult`` JSON, the number
of simulator events and the history the clients recorded for the checker
(every PUT's timestamp and dependencies, every ROT's reads) against a digest
committed here.

The cases are the classes PR 4 verified by hand: the three protocols, the
2-round and logical-clock ablations of Contrarian, one DC partition per
protocol (the fault controller's version-retention rules differ between the
vector protocols and CC-LO); and two CC-LO runs whose reader records actually
expire.  Under the default 500 ms window none of the other cases drops a
single record (``entries_expired == 0`` on every server), so the paper's GC
optimisation and the uncompressed readers check were unpinned; with a 20 ms
window every server expires 6-7 thousand records (67-78 thousand
uncompressed), lazily in readers checks and eagerly in the 50 ms GC timer.

A digest that changes means simulated behaviour changed.  If that is
intended (a protocol fix, a cost-model change), regenerate with::

    PYTHONPATH=src python tests/test_sim_golden.py

and say so in the PR; if it is not intended, the change is wrong.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.causal.streaming import ObservationBuffer
from repro.cluster.config import ClusterConfig
from repro.faults.library import dc_partition
from repro.harness.runner import run_experiment

_SMALL = dict(seed=7, num_dcs=2, clients_per_dc=2, warmup_seconds=0.05,
              duration_seconds=0.2)

_SHORT_WINDOW = dict(_SMALL, clients_per_dc=4, cclo_gc_window_ms=20.0)

#: name -> (protocol, ClusterConfig.test_scale overrides, scenario factory)
CASES = {
    "contrarian": ("contrarian", _SMALL, None),
    "cure": ("cure", _SMALL, None),
    "cc-lo": ("cc-lo", _SMALL, None),
    "contrarian-2-rounds": ("contrarian", dict(_SMALL, rot_rounds=2.0), None),
    "contrarian-logical-clock": (
        "contrarian", dict(_SMALL, clock_mode="logical"), None),
    "contrarian-dc-partition": (
        "contrarian", dict(_SMALL, duration_seconds=0.3),
        lambda: dc_partition(start=0.1, heal=0.2)),
    "cure-dc-partition": (
        "cure", dict(_SMALL, duration_seconds=0.3),
        lambda: dc_partition(start=0.1, heal=0.2)),
    "cc-lo-dc-partition": (
        "cc-lo", dict(_SMALL, duration_seconds=0.3),
        lambda: dc_partition(start=0.1, heal=0.2)),
    "cc-lo-short-gc-window": ("cc-lo", _SHORT_WINDOW, None),
    "cc-lo-uncompressed": (
        "cc-lo", dict(_SHORT_WINDOW, cclo_one_id_per_client=False), None),
}

#: Generated at the parent of the kernel-host refactor (commit 18a964f); the
#: two short-window cases at the parent of the indexed reader records (commit
#: 261fd26), on the scan implementation that ``tests/cclo_readers_oracle.py``
#: keeps; the two vector DC-partition cases at commit dcd3a4c, while
#: in-flight ROTs were still tracked by a registry the kernels called.
GOLDEN = {
    "contrarian": "f2515aa9dc194bdaa4c70916bfb83a4d76c0506fc6f3286e2fdb2d7c1fce2654",
    "cure": "b35bb96e8ddfab576ff54a146d4ccded447ea89a2a6d05dda8867e81ae88dde1",
    "cc-lo": "c52e082e662007748292ff74cd0c49c5784fc6415992a89f8793547a1727fccd",
    "contrarian-2-rounds": "e6d33551d4d833aad1ac365438c80e5afde946ab5dc6ecd834f414cc4faa541c",
    "contrarian-logical-clock": "b9b0fe07c52ac12c3613a18e1fbdf346f70f20ad15ed29e5421d17e9457982fe",
    "contrarian-dc-partition": "28fa3c285c1e190b31d2128325eaab53cc06e8add463ffb470c92b733ab6cca8",
    "cure-dc-partition": "e9cbbead54b30f8263c590e814d749aa87efddf872ec752f62cfc37b4ad1dc17",
    "cc-lo-dc-partition": "9455b672d650bcff00eda8747a4e1249f03bfe568b2149fbeb2edff3764ccbf1",
    "cc-lo-short-gc-window": "318371c92ad638df2cf9eaaa2e9c674a2603d0a5238291f0ab1b67ae6abbd264",
    "cc-lo-uncompressed": "1a735f6d737f18b7eb00b9cf85e7e90cfb0f578c5b81185e1714adcbe3a55dcf",
}


def fingerprint(name: str) -> str:
    """SHA-256 over result row, event count and recorded history of a case."""
    protocol, overrides, scenario = CASES[name]
    recorder = ObservationBuffer()
    outcome = run_experiment(
        protocol, ClusterConfig.test_scale(**overrides), checker=recorder,
        scenario=scenario() if scenario is not None else None)
    puts, rots = recorder.drain()
    payload = {"result": outcome.result.as_json_dict(),
               "events_processed": outcome.cluster.sim.events_processed,
               "history": [repr(record) for record in (*puts, *rots)]}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_run_matches_the_committed_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":  # regenerate the table above
    for case in CASES:
        print(f'    "{case}": "{fingerprint(case)}",')
