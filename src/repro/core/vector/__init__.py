"""The coordinator-based, vector-clock protocol family.

Contrarian and Cure share almost all of their machinery (Section 4 of the
paper explicitly presents Contrarian as an improvement of the
Orbe/GentleRain/Cure design): items carry per-DC dependency vectors, a
stabilization protocol computes the Global Stable Snapshot, and ROTs read a
coordinator-chosen snapshot vector.  The two systems differ in the clock used
to timestamp events (HLC vs physical) and in the number of communication
rounds of a ROT (1½ vs 2), so both are implemented as configurations of the
same kernel pair: the protocol state machines live in
:mod:`repro.core.vector.kernel` (sans-I/O).  Exports resolve lazily so
kernel imports stay simulator-free.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "ContrarianKernel": "repro.core.vector.kernel",
    "CureKernel": "repro.core.vector.kernel",
    "VectorClientKernel": "repro.core.vector.kernel",
    "VectorServerKernel": "repro.core.vector.kernel",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())
