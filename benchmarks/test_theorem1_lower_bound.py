"""Theorem 1 / Lemmas 1-2 — the inherent cost of latency-optimal ROTs.

Two parts:

1. The proof's construction on the real kernels: with |D| = 8 readers,
   CC-LO's PUTs communicate differently for each of the 2^|D| subsets of
   readers (Lemma 1) and no E* schedule makes the checker flag it; its
   Lamport-only straw man collides and every E* run is flagged; Contrarian
   and Cure collide on every subset (their PUTs send nothing between
   partitions) yet are never flagged, because their ROTs are not one-round.
2. The measured counterpart: a CC-LO run exchanges at least |D| bits of reader
   identity per readers check, and the amount grows with the number of
   clients.
"""

from repro.harness.report import format_table
from repro.harness.runner import load_sweep
from repro.theory.executions import LAMPORT_ONLY, construction_summary
from repro.theory.lower_bound import (
    executions_count,
    lower_bound_bits,
    verify_bound_against_measurement,
)

from bench_utils import run_once

READERS = 8
PROTOCOLS = ("cc-lo", LAMPORT_ONLY, "contrarian", "cure")


def test_lemma1_and_estar_construction(benchmark):
    def construct():
        return {getattr(protocol, "name", protocol):
                construction_summary(protocol, READERS)
                for protocol in PROTOCOLS}

    table = run_once(benchmark, construct)
    executions = executions_count(READERS)
    estar_runs = READERS * executions // 2
    print(f"\n|D| = {READERS}: {executions} executions E(R), "
          f"{estar_runs} E*(R, {{c}})")
    print(format_table(["protocol", "distinct signatures", "E* flagged",
                        "max signature bits"],
                       [[name, *row] for name, row in table.items()]))
    assert table["cc-lo"][:2] == (executions, 0)
    assert table["cc-lo"][2] >= lower_bound_bits(READERS)
    assert table["lamport-only"][0] < executions
    assert table["lamport-only"][1] == estar_runs
    assert table["contrarian"] == table["cure"] == (1, 0, 0)


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
