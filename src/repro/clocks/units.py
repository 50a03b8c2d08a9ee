"""Time-unit conversions shared by clocks, kernels and the simulator.

All run time in this library — simulated or wall-clock — is a float measured
in **seconds**; protocol timestamps are integer microseconds (so they can be
mixed with logical counters in hybrid clocks).  These helpers are the single
place the conversions live; the sans-I/O protocol kernels import them from
here so they carry no dependency on the simulator.
"""

from __future__ import annotations

#: Convenience conversion factors.  Time is expressed in seconds.
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MILLISECOND


def as_milliseconds(value: float) -> float:
    """Convert seconds to milliseconds (for reporting)."""
    return value / MILLISECOND


def as_microseconds(value: float) -> float:
    """Convert seconds to microseconds (for reporting)."""
    return value / MICROSECOND


__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "as_microseconds",
    "as_milliseconds",
    "microseconds",
    "milliseconds",
]
