"""Theorem 1 / Lemmas 1-2 — the inherent cost of latency-optimal ROTs.

Two parts:

1. The executable proof construction: a protocol that communicates reader
   identities satisfies Lemma 1 (different readers, different messages) and
   never produces an inconsistent snapshot, while the straw-man protocol that
   only ships a Lamport timestamp collides on communication and yields the
   forbidden snapshot (X0, Y1) in the E* schedule.
2. The measured counterpart: a CC-LO run exchanges at least |D| bits of reader
   identity per readers check, and the amount grows with the number of
   clients.
"""

from repro.harness.runner import load_sweep
from repro.theory.executions import (
    LamportOnlyProtocol,
    ReaderTrackingProtocol,
    find_causal_violation,
    lemma1_holds,
)
from repro.theory.lower_bound import (
    executions_count,
    lower_bound_bits,
    verify_bound_against_measurement,
)

from bench_utils import run_once

CLIENTS = tuple(f"c{i}" for i in range(8))


def test_lemma1_and_estar_construction(benchmark):
    def construct():
        return (lemma1_holds(ReaderTrackingProtocol(), CLIENTS),
                lemma1_holds(LamportOnlyProtocol(), CLIENTS),
                find_causal_violation(LamportOnlyProtocol(), CLIENTS),
                find_causal_violation(ReaderTrackingProtocol(), CLIENTS))

    tracking_ok, strawman_ok, strawman_violation, tracking_violation = \
        run_once(benchmark, construct)

    print(f"\nLemma 1 holds for reader-tracking protocol: {tracking_ok}")
    print(f"Lemma 1 holds for Lamport-only straw man:   {strawman_ok}")
    print(f"Straw-man E* violation: {strawman_violation.late_read_results}")
    assert tracking_ok
    assert not strawman_ok
    assert strawman_violation is not None
    assert strawman_violation.violates_causal_consistency()
    assert tracking_violation is None
    # Lemma 2 numbers for this client population.
    assert executions_count(len(CLIENTS)) == 2 ** len(CLIENTS)
    assert lower_bound_bits(len(CLIENTS)) == len(CLIENTS)


def test_measured_readers_check_meets_the_bound(benchmark, bench_config):
    def measure():
        return load_sweep("cc-lo", (8, 32), bench_config)

    results = run_once(benchmark, measure)
    rows = []
    for result in results:
        comparison = verify_bound_against_measurement(result)
        rows.append((result.clients, comparison.lower_bound_bits,
                     comparison.measured_bits, comparison.ratio))
        assert comparison.measured_exceeds_bound
    print("\nclients | bound (bits) | measured (bits) | ratio")
    for clients, bound, measured, ratio in rows:
        print(f"{clients:7d} | {bound:12d} | {measured:15.0f} | {ratio:5.1f}")
    # The measured communication grows with the number of clients, as the
    # bound requires.
    assert rows[1][2] > rows[0][2]
