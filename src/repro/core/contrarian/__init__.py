"""Contrarian — the paper's contribution.

Contrarian provides causally consistent ROTs that are nonblocking and
one-version and complete in 1½ rounds of client-server communication
(configurable to 2 rounds), while keeping PUTs as cheap as in any
non-latency-optimal design.  It uses Hybrid Logical Clocks so snapshots are
fresh (the GSS advances with physical time) yet partitions can still move
their clock forward to serve a snapshot without blocking.

The clock mode and the number of rounds come from
:class:`repro.cluster.config.ClusterConfig` (``clock_mode`` and
``rot_rounds``), which is also how the clock/rounds ablation benchmarks are
expressed.
"""

from __future__ import annotations

from repro.core.vector.kernel import ContrarianClientKernel, ContrarianKernel

PROTOCOL_NAME = "contrarian"

__all__ = ["ContrarianClientKernel", "ContrarianKernel", "PROTOCOL_NAME"]
