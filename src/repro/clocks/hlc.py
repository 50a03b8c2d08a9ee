"""Hybrid Logical Physical Clocks (HLC).

Contrarian (Section 4 of the paper) uses HLCs [Kulkarni et al., OPODIS 2014]
to get the best of both clock families:

* like a *physical* clock, an HLC advances spontaneously with real time, so
  the stabilization protocol identifies fresh snapshots even on idle
  partitions;
* like a *logical* clock, an HLC can be moved forward to match the timestamp
  of an incoming ROT request, which keeps ROTs nonblocking.

An HLC timestamp is a pair ``(physical_component, logical_component)``.  The
physical component is the largest physical-clock reading the node has seen;
the logical component disambiguates events that share the same physical
component.  We encode the pair into a single integer (``physical * 2**16 +
logical``) so protocol code can treat HLC timestamps exactly like scalar
Lamport timestamps; the encoding preserves the HLC ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.physical import PhysicalClock
from repro.errors import ClockError

#: Number of bits reserved for the logical component in the packed encoding.
LOGICAL_BITS = 16
_LOGICAL_MASK = (1 << LOGICAL_BITS) - 1


@dataclass(frozen=True, order=True)
class HLCTimestamp:
    """An HLC timestamp: physical part (microseconds) plus logical counter."""

    physical: int
    logical: int

    def pack(self) -> int:
        """Encode into a single comparable integer."""
        if self.logical > _LOGICAL_MASK:
            # Overflow of the logical component is folded into the physical
            # part; extremely unlikely in practice (needs 65k events at the
            # same microsecond) but must not silently invert ordering.
            return ((self.physical + self.logical // (_LOGICAL_MASK + 1)) << LOGICAL_BITS) \
                | (self.logical & _LOGICAL_MASK)
        return (self.physical << LOGICAL_BITS) | self.logical

    @staticmethod
    def unpack(packed: int) -> "HLCTimestamp":
        """Decode a packed integer back into an :class:`HLCTimestamp`."""
        if packed < 0:
            raise ClockError(f"packed HLC timestamp must be non-negative, got {packed}")
        return HLCTimestamp(physical=packed >> LOGICAL_BITS,
                            logical=packed & _LOGICAL_MASK)


class HybridLogicalClock:
    """An HLC bound to a server's physical clock.

    The public operations mirror :class:`~repro.clocks.lamport.LamportClock`
    so protocol code can swap clock implementations (used by the clock
    ablation benchmark):

    * :meth:`tick` — timestamp a local event (e.g. a PUT).
    * :meth:`update` — merge a timestamp received in a message.
    * :meth:`advance_to` — move the clock forward to serve a snapshot
      (the nonblocking read path).
    * :meth:`value` / :meth:`now` — read without advancing.
    """

    def __init__(self, physical: PhysicalClock) -> None:
        self._physical = physical
        # The latest timestamp generated or observed, kept packed: every
        # operation below is then integer arithmetic (a carry out of the
        # logical bits lands in the physical part, as ``pack`` folds it).
        # Starts below the physical clock so the first event at a fresh
        # microsecond gets logical component 0.
        self._latest = 0

    # ------------------------------------------------------------------ reads
    @property
    def latest(self) -> HLCTimestamp:
        """The latest timestamp generated or observed (no side effect)."""
        return HLCTimestamp.unpack(self._latest)

    def now(self) -> int:
        """Packed reading reflecting physical time, without recording an event."""
        fresh = self._physical.now_us() << LOGICAL_BITS
        return fresh if fresh > self._latest else self._latest

    @property
    def value(self) -> int:
        """Packed value of the latest recorded timestamp."""
        return self._latest

    # ----------------------------------------------------------------- events
    def tick(self) -> int:
        """Timestamp a local event and return the packed timestamp."""
        fresh = self._physical.now_us() << LOGICAL_BITS
        self._latest = fresh if fresh > self._latest else self._latest + 1
        return self._latest

    def update(self, observed_packed: int) -> int:
        """Merge a timestamp observed in a message and timestamp the receipt."""
        if observed_packed < 0:
            raise ClockError("packed HLC timestamp must be non-negative, got "
                             f"{observed_packed}")
        fresh = self._physical.now_us() << LOGICAL_BITS
        seen = max(self._latest, observed_packed)
        # A physical clock ahead of both starts a fresh microsecond; otherwise
        # the receipt is the event after the later of the two.
        self._latest = fresh if fresh > seen else seen + 1
        return self._latest

    def advance_to(self, target_packed: int) -> int:
        """Move the clock forward to at least ``target_packed``.

        This is the operation physical clocks cannot perform and the reason
        Contrarian's ROTs never block: a partition that receives a snapshot
        timestamp ahead of its HLC simply adopts it.
        """
        if target_packed > self._latest:
            self._latest = target_packed
        return self._latest

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        latest = self.latest
        return f"HybridLogicalClock({latest.physical}, {latest.logical})"


__all__ = ["HLCTimestamp", "HybridLogicalClock", "LOGICAL_BITS"]
