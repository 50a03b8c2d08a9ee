"""Cure baseline (Akkoorath et al., ICDCS 2016).

Cure uses the same coordinator-based design and GSS stabilization protocol as
Contrarian, but timestamps events with loosely synchronised *physical* clocks
and always runs ROTs in two rounds.  Because a physical clock cannot be moved
forward to match an incoming snapshot timestamp, a partition whose clock lags
the snapshot must wait — making ROTs blocking and adding a latency penalty of
the order of the clock skew (Figure 4 of the paper).

The paper adapts Cure to the API of Section 2; this implementation does the
same (the original Cure exposes CRDT objects, which are irrelevant to the
latency/throughput dynamics studied here).
"""

from __future__ import annotations

from repro.core.vector.kernel import CureClientKernel, CureKernel

PROTOCOL_NAME = "cure"

__all__ = ["CureClientKernel", "CureKernel", "PROTOCOL_NAME"]
