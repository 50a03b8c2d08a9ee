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
stalls and their chains grow until the heal; CC-LO runs the same rules as
without a fault, its backlog of replicated versions draining after the
heal); and two CC-LO runs
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

#: The six vector digests were regenerated when the vector servers'
#: snapshot-floor version GC replaced the store's keep-newest-16 cap.  The
#: four CC-LO digests were regenerated when CC-LO servers began to keep each
#: key's chain in ``(timestamp, origin_dc)`` order and to hold every
#: replicated version's local readers-check leg until its dependencies are
#: visible: a read now returns a replicated version that arrived before an
#: older one of its origin, and a replicated version whose dependency on its
#: own partition is not visible yet waits for it.  Five vector digests (all
#: but "cure") were regenerated when Contrarian and Cure servers began to keep
#: each key's chain in that order too: a read returns the newest version its
#: snapshot admits in timestamp order, not the last to arrive.
GOLDEN = {
    # Chains in timestamp order.
    "contrarian": "ed037a09308a7709417cae29c3938e0402b41c74738bc48bb09d6657b7d63d18",
    "cure": "6570c7ce3332b5a7c667fd2f8d4dae93a14bfec7898e27ba75fa29415aa73db2",
    # Chains in timestamp order and the local leg's dependency wait.
    "cc-lo": "75187d686a9491ae9f76fce299d70445f06e73abaa7ea6ad3e0adc14f72d99f9",
    # Chains in timestamp order.
    "contrarian-2-rounds": "e81da5ebf45960440b7b76d4cbdb69e8f686b04652360144d05b090c9d4ee29f",
    # Chains in timestamp order.
    "contrarian-logical-clock": "16052c82cbe0627beb5748855969b9b5e2cd99ef62d12fdb07f751b525799b6e",
    # Chains in timestamp order.
    "contrarian-dc-partition": "c6841f07f7a7461dd2cb4a8744ac1feee0f478a183a71d50321014eb362358ba",
    # Chains in timestamp order.
    "cure-dc-partition": "5d0ddbd270e6e43875dbebd136f926bca3f055c0a2c228491df6689b1adc4b6c",
    # As "cc-lo", and the fault controller no longer parks a replicated
    # version's finalize behind an older one of its origin or vetoes trims.
    "cc-lo-dc-partition": "2c7ec8c633ceed14636ecdb80874b19f12299817ccd64776af6a02d1beb6c0cf",
    # As "cc-lo".
    "cc-lo-short-gc-window": "86a763c22ea64f347091320e9e54823f289ca6b2c45198fe34a4af7acf9647d1",
    # As "cc-lo".
    "cc-lo-uncompressed": "7ae9144aaef1c0d771214ac62d1b4a25017674800eae7d64b1f9624596ca23de",
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
