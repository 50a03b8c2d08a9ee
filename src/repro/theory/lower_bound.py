"""The counting argument of Lemma 2 and its empirical counterpart.

Lemma 2: index the executions of ``E`` by the subset ``R`` of the ``|D|``
potential readers; there are ``2^|D|`` of them, and by Lemma 1 each must
induce a different inter-partition communication string before ``PUT(y, Y1)``
completes.  A set of ``2^|D|`` distinct strings cannot all be shorter than
``|D|`` bits, so in at least one execution the communication carries at least
``log2(2^|D|) = |D|`` bits — linear in the number of clients.

The module also links the bound back to the measurements: the CC-LO
simulation reports how many ROT identifiers a readers check collects
(Figure 6); converting them to bits gives the measured communication that
Theorem 1 says cannot be avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TheoryError
from repro.metrics.collectors import RunResult

#: Bits counted per ROT identifier of a readers check: 8 bytes, a stated
#: conservative floor.  On the wire an id costs more: a ``ReadersCheckReply``
#: row is a length byte, an 8-byte logical time and the id string, 26 bytes
#: for ``client-dc0-12#345``; the Theorem 1 construction
#: (:mod:`repro.theory.executions`) measures CC-LO's PUTs sending 23 bytes
#: more per reader with ids like ``client-dc0-1#1``.
ROT_ID_BITS = 64


def executions_count(num_clients: int) -> int:
    """Number of executions in the set ``E`` (``2^|D|``)."""
    if num_clients < 0:
        raise TheoryError("the number of clients cannot be negative")
    return 2 ** num_clients


def lower_bound_bits(num_clients: int) -> int:
    """Worst-case communication (bits) required before a dangerous PUT completes.

    This is the ``L(|D|)`` of Lemma 2: linear in the number of potential
    readers, i.e. in the number of clients.
    """
    if num_clients < 0:
        raise TheoryError("the number of clients cannot be negative")
    return num_clients


def measured_bits_per_dangerous_put(result: RunResult) -> float:
    """Average bits of reader identifiers exchanged per readers check.

    Every PUT whose dependencies have been read (the common case in the
    paper's workloads) is dangerous in the sense of Theorem 1, and in CC-LO
    its readers check carries ``distinct ids x 64`` bits of reader identity.
    """
    return result.overhead.average_distinct_ids_per_check() * ROT_ID_BITS


@dataclass(frozen=True)
class BoundComparison:
    """Comparison of the theoretical bound with a measured run."""

    clients: int
    lower_bound_bits: int
    measured_bits: float

    @property
    def measured_exceeds_bound(self) -> bool:
        """Whether the measured communication is at least the lower bound."""
        return self.measured_bits >= self.lower_bound_bits

    @property
    def ratio(self) -> float:
        """Measured bits divided by the bound (>= 1 for a correct LO system)."""
        if self.lower_bound_bits == 0:
            return float("inf") if self.measured_bits > 0 else 1.0
        return self.measured_bits / self.lower_bound_bits


def verify_bound_against_measurement(result: RunResult) -> BoundComparison:
    """Compare a measured CC-LO run against the Lemma 2 lower bound."""
    return BoundComparison(
        clients=result.clients,
        lower_bound_bits=lower_bound_bits(result.clients),
        measured_bits=measured_bits_per_dangerous_put(result))


__all__ = [
    "BoundComparison",
    "ROT_ID_BITS",
    "executions_count",
    "lower_bound_bits",
    "measured_bits_per_dangerous_put",
    "verify_bound_against_measurement",
]
