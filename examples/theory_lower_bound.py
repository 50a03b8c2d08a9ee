#!/usr/bin/env python3
"""The Theorem 1 construction, executed on the real kernels (Section 6).

For every subset R of |D| potential readers, execution E(R) runs the proof's
schedule on two partitions of one data center: a writer's PUT(x); PUT(y),
the readers' ROT({x, y}), then PUT(x, X1); PUT(y, Y1).  The table reports,
per protocol:

* how many distinct inter-partition communications (wire bytes exchanged
  between PUT(x, X1) and the completion of PUT(y, Y1)) the 2^|D| executions
  produce — Lemma 1 demands 2^|D| from a latency-optimal protocol;
* how many E*(R, {c}) runs, where reader c's read of y is held back until
  PUT(y, Y1) completed, the consistency checker flags;
* the most bits one execution communicates, against Lemma 2's |D|.

CC-LO pays per reader on every PUT; the Lamport-only straw man saves that and
returns (X0, Y1); Contrarian and Cure communicate nothing, because their ROTs
are not one-round.

Run with::

    python examples/theory_lower_bound.py
"""

from repro.harness.report import format_table
from repro.theory import (
    LAMPORT_ONLY,
    build_execution,
    construction_summary,
    lower_bound_bits,
)

READERS = 4
PROTOCOLS = ("cc-lo", LAMPORT_ONLY, "contrarian", "cure")


def main() -> None:
    print(f"=== Theorem 1 construction, |D| = {READERS} readers "
          f"(Lemma 2 bound: {lower_bound_bits(READERS)} bits) ===")
    rows = [[getattr(protocol, "name", protocol),
             *construction_summary(protocol, READERS)]
            for protocol in PROTOCOLS]
    print(format_table(["protocol", "distinct signatures (of 16)",
                        "E* flagged (of 32)", "max signature bits"], rows))
    violation = build_execution(LAMPORT_ONLY, (1, 2), delayed_readers=(1,))
    print(f"\nstraw man, E*({{1, 2}}, {{1}}): reader 1 observes "
          f"{violation.snapshots[1]}; the checker reports "
          f"{violation.report.snapshot_violations[0]}")


if __name__ == "__main__":
    main()
