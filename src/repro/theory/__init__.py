"""Theoretical results of the paper (Section 6).

Theorem 1 states that any causally consistent system with latency-optimal
ROTs must, before every *dangerous* PUT completes, exchange information whose
worst-case size grows linearly with the number of clients.  This package
provides:

* :mod:`repro.theory.executions` — the proof's construction run on the real
  kernels: the executions ``E(R)`` indexed by the subset ``R`` of readers,
  each one's inter-partition communication as wire bytes (Lemma 1), and the
  execution ``E*`` judged by the consistency checker.  CC-LO communicates
  differently for every ``R``; its Lamport-only straw man
  (:data:`~repro.theory.executions.LAMPORT_ONLY`) collides and ``E*`` makes
  it return a causally inconsistent snapshot.
* :mod:`repro.theory.lower_bound` — the counting argument of Lemma 2: with
  ``|D|`` potential readers there are ``2^|D|`` executions that must all
  induce different communication, so at least ``|D|`` bits must flow in the
  worst case; plus helpers to compare the bound against the overhead measured
  in the CC-LO simulation.
"""

from repro.theory.executions import (
    LAMPORT_ONLY,
    ExecutionOutcome,
    build_execution,
    communication_signature,
    construction_summary,
    find_causal_violation,
    lemma1_holds,
)
from repro.theory.lower_bound import (
    executions_count,
    lower_bound_bits,
    measured_bits_per_dangerous_put,
    verify_bound_against_measurement,
)

__all__ = [
    "ExecutionOutcome",
    "LAMPORT_ONLY",
    "build_execution",
    "communication_signature",
    "construction_summary",
    "executions_count",
    "find_causal_violation",
    "lemma1_holds",
    "lower_bound_bits",
    "measured_bits_per_dangerous_put",
    "verify_bound_against_measurement",
]
