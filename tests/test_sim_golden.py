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
protocol (a partition freezes the GSS, so the vector servers' snapshot floor
stalls and their chains grow until the heal; on CC-LO servers the fault
controller vetoes the window trim for in-flight ROTs); and two CC-LO runs
whose reader records actually expire.  Under the default 500 ms window none
of the other cases drops a single record (``entries_expired == 0`` on every
server), so the paper's GC optimisation and the uncompressed readers check
were unpinned; with a 20 ms window every server expires 6-7 thousand
records (67-78 thousand uncompressed), lazily in readers checks and eagerly
in the 50 ms GC timer.

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

#: Regenerated when the vector servers' snapshot-floor version GC replaced
#: the store's keep-newest-16 cap: the floor and the stabilization message's
#: new field moved the six vector digests, the cap's removal moved
#: ``cc-lo-dc-partition``, and the other three CC-LO digests moved only by
#: the ``snapshot_misses`` key the overhead counters gained.
GOLDEN = {
    "contrarian": "4ac47d367239c816612e23509272b13d5a27a6e17dd6bf727c23c922497c10c6",
    "cure": "6570c7ce3332b5a7c667fd2f8d4dae93a14bfec7898e27ba75fa29415aa73db2",
    "cc-lo": "6fc2791788c6364d8a19f7648548371d49dbf5e9f6992207513e2f8c85be0e5a",
    "contrarian-2-rounds": "3fd90e7f09d476570f45c0aa7b40aa7d0965d83bfde012809e537d2261ef304a",
    "contrarian-logical-clock": "f51a2533eeab77718fe9d9bcbc5ea89364826d55640f55056ad3af5d9f1303f0",
    "contrarian-dc-partition": "b6a3d740a8c2ce78993f549f0d8cf45b9b2e78192d10679ca25d7ab645dd3c8a",
    "cure-dc-partition": "70178f99384f4abb21fae39a44fa78cffd6a2b5b1dcc1848495f76097103c5e0",
    "cc-lo-dc-partition": "125fb841c15fdcc15c53b9fd9d08ca492535e14515360817ed74ebfa6517082a",
    "cc-lo-short-gc-window": "8fbdf269385ab3981b2f862c787486dd547dd30df2bfaca58a832125cd5f0036",
    "cc-lo-uncompressed": "678a3c3eea95135f32cc6b922baaa325136fcb18eca9d30c883e5eae5b1ca080",
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
