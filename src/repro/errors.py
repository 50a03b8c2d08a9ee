"""Exception hierarchy for the ``repro`` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a cluster, workload or protocol configuration is invalid."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class ClockError(ReproError):
    """Raised when a clock is used incorrectly (e.g. non-monotonic update)."""


class ProtocolError(ReproError):
    """Raised when a protocol implementation observes an impossible message."""


class ConsistencyViolation(ReproError):
    """Raised by the causal-consistency checker when a history is invalid.

    The checker raises this exception when a read-only transaction observed a
    snapshot that is not causally consistent, or when a session guarantee
    (read-your-writes / monotonic reads) is violated.
    """


class WorkloadError(ReproError):
    """Raised when a workload specification cannot be generated."""


class TheoryError(ReproError):
    """Raised by the theoretical machinery (execution construction) on misuse."""


class RuntimeBackendError(ReproError):
    """A failure of the real-time (asyncio) backend: an operation timed out,
    a task died, or the runtime was used after :meth:`close`."""


class WireFormatError(ReproError):
    """Raised by the wire codec on malformed, truncated or unknown-version
    frames, and on attempts to encode unregistered or unencodable values."""


class TransportError(ReproError):
    """Raised by a message transport: an unroutable destination, a peer that
    cannot be reached, or a connection that failed mid-run."""
