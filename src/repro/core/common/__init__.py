"""Machinery shared by all protocol implementations.

:mod:`repro.core.common.kernel` defines the sans-I/O side (effects,
addresses, kernel base classes); :mod:`repro.core.common.messages` the wire
messages both backends exchange; :mod:`repro.core.common.host` the
backend-free kernel hosts both backends' drivers are built on.  Exports
resolve lazily so kernel imports stay simulator-free.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "ClientAddr": "repro.core.common.kernel",
    "ClientKernel": "repro.core.common.kernel",
    "Complete": "repro.core.common.kernel",
    "Send": "repro.core.common.kernel",
    "ServerAddr": "repro.core.common.kernel",
    "ServerKernel": "repro.core.common.kernel",
    "SetTimer": "repro.core.common.kernel",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())
