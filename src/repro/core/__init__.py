"""Protocol implementations: sans-I/O kernels plus one backend-free host.

Every protocol is a pair of **kernels** — pure state machines in
``core/<family>/kernel.py`` with the API ``on_message(msg, now) /
on_timer(tag, payload, now) -> list[Effect]``, where effects are ``Send``,
``SetTimer`` and ``Complete`` (see :mod:`repro.core.common.kernel`).  Kernels
import neither the simulator nor any event loop, so the same protocol logic
serves the discrete-event backend, the real-time asyncio backend
(:mod:`repro.runtime`) and isolated unit tests.

Nothing else is per protocol.  :mod:`repro.core.common.host` feeds a kernel
and carries out its effects for both backends; the backend drivers
(:mod:`repro.sim.drivers`, :mod:`repro.runtime.nodes`) add only their clock,
their send and their timers; :mod:`repro.core.registry` maps a protocol name
to its kernel classes and builds them.

The families:

* :mod:`repro.core.vector` — Contrarian, the paper's contribution
  (nonblocking, one-version ROTs in 1½ (or 2) rounds using HLCs and the GSS
  stabilization protocol, with cheap PUTs), and the Cure baseline (the same
  coordinator-based design with physical clocks and two rounds, which makes
  ROTs blocking under clock skew), as two configurations of one kernel pair.
* :mod:`repro.core.cclo` — the latency-optimal baseline (the COPS-SNOW
  design): one-round, one-version, nonblocking ROTs paid for by the readers
  check performed on every PUT.

Exports resolve lazily (PEP 562) so that importing a kernel module never
drags in the registry.
"""

from repro._lazy import make_lazy

_EXPORTS = {
    "ProtocolSpec": "repro.core.registry",
    "protocol_properties": "repro.core.registry",
    "register_protocol": "repro.core.registry",
    "resolve_spec": "repro.core.registry",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = make_lazy(__name__, _EXPORTS, globals())
