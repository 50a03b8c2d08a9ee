"""CC-LO — the latency-optimal baseline (the COPS-SNOW design).

CC-LO implements ROTs that are nonblocking, one-version and **one-round** —
the three properties the SNOW paper calls latency-optimal.  The price is paid
on PUTs: before a PUT completes, the writing partition must collect from every
partition storing one of the PUT's causal dependencies the identifiers of the
"old readers" — the ROTs that observed a snapshot which must not include the
new version — and attach them to the version (the *readers check*).  The
paper's two published optimisations are implemented and on by default:
aggressive garbage collection of reader records (500 ms instead of 5 s) and
at most one ROT id per client in each readers-check response.

The protocol state machines live in :mod:`repro.core.cclo.kernel`
(sans-I/O).  Exports resolve lazily so kernel imports stay simulator-free.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "CcloClientKernel": "repro.core.cclo.kernel",
    "CcloKernel": "repro.core.cclo.kernel",
    "PROTOCOL_NAME": "repro.core.cclo.kernel",
    "ReaderRecords": "repro.core.cclo.readers",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())
