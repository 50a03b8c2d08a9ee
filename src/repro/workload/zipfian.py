"""Zipfian key-popularity sampling.

The paper draws keys within a partition from a zipfian distribution with
parameter ``z`` (0.99 by default, the YCSB "strong skew" setting; 0 means
uniform).  The sampler below uses the classic YCSB approach (Gray et al.'s
"Quickly generating billion-record synthetic databases" formula): constant-time
sampling after a one-off O(n) computation of the generalised harmonic number.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache

from repro.errors import WorkloadError


@lru_cache(maxsize=256)
def _cached_zeta(n: int, theta: float) -> float:
    """Generalised harmonic number ``sum_{i=1..n} 1/i^theta``.

    Every client of a run builds its own sampler over the same
    ``(keys_per_partition, skew)`` point, and a load sweep repeats that for
    every point, so the O(n) zeta computation used to dominate cluster
    construction.  The cache is keyed on the exact ``(n, theta)`` pair and
    shared across samplers, runs and worker processes' lifetimes.
    """
    return sum(1.0 / (i ** theta) for i in range(1, n + 1))


@lru_cache(maxsize=64)
def _harmonic_cdf(n: int) -> tuple[float, ...]:
    """Cumulative harmonic sums ``H_1..H_n`` for the ``theta == 1`` skew.

    Sampling for the harmonic case inverts the CDF; precomputing the
    cumulative sums once per ``n`` turns every draw from an O(n) linear scan
    into an O(log n) bisect.
    """
    sums = []
    cumulative = 0.0
    for index in range(n):
        cumulative += 1.0 / (index + 1)
        sums.append(cumulative)
    return tuple(sums)


class ZipfianSampler:
    """Samples integers in ``[0, num_items)`` with zipfian popularity.

    Item 0 is the most popular.  A ``skew`` of 0 degenerates to the uniform
    distribution (and skips the harmonic-number computation entirely).
    """

    def __init__(self, num_items: int, skew: float, rng: random.Random) -> None:
        if num_items < 1:
            raise WorkloadError(f"num_items must be >= 1, got {num_items}")
        if skew < 0:
            raise WorkloadError(f"skew must be >= 0, got {skew}")
        self._num_items = num_items
        self._skew = skew
        self._rng = rng
        self._uniform = skew == 0 or num_items == 1
        self._last = num_items - 1
        if not self._uniform:
            self._zetan = self._zeta(num_items, skew)
            # ``u * zetan`` below this draws item 1 (below 1.0, item 0).
            self._second = 1.0 + 0.5 ** skew
            self._alpha = 1.0 / (1.0 - skew) if skew != 1.0 else float("inf")
            self._zeta2 = self._zeta(2, skew)
            self._cdf = _harmonic_cdf(num_items) if skew == 1.0 else ()
            if skew == 1.0 or num_items <= 2:
                # The eta shortcut degenerates for two items (zeta2 == zetan)
                # and for skew exactly 1; those cases use inverse-CDF sampling.
                self._eta = 0.0
            else:
                self._eta = ((1.0 - (2.0 / num_items) ** (1.0 - skew))
                             / (1.0 - self._zeta2 / self._zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        """Generalised harmonic number (cached module-wide, see above)."""
        return _cached_zeta(n, theta)

    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def skew(self) -> float:
        return self._skew

    def sample(self) -> int:
        """Draw one item index.

        Every workload key is one call: the constants are computed once in
        ``__init__`` and the float operations are the formula's, in its
        order, so a seed draws the same indices on every tree.
        """
        if self._uniform:
            return self._rng.randrange(self._num_items)
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._second:
            return 1
        if self._cdf:
            # Harmonic case: invert the precomputed CDF with a bisect.  The
            # old linear scan gave the first index with H_{i+1} >= target;
            # bisect_left on the same cumulative sums returns it in O(log n).
            index = bisect_left(self._cdf, uz)
        else:
            index = int(self._num_items
                        * (self._eta * u - self._eta + 1.0) ** self._alpha)
            if index < 0:
                return 0
        return index if index < self._last else self._last

    def probability_of(self, index: int) -> float:
        """Theoretical probability of drawing ``index`` (for tests)."""
        if not 0 <= index < self._num_items:
            raise WorkloadError(f"index {index} out of range")
        if self._uniform:
            return 1.0 / self._num_items
        return (1.0 / ((index + 1) ** self._skew)) / self._zetan


def expected_head_mass(num_items: int, skew: float, head: int) -> float:
    """Probability mass of the ``head`` most popular items (analysis helper)."""
    if skew == 0:
        return min(1.0, head / num_items)
    total = sum(1.0 / (i ** skew) for i in range(1, num_items + 1))
    head_sum = sum(1.0 / (i ** skew) for i in range(1, min(head, num_items) + 1))
    return head_sum / total


__all__ = ["ZipfianSampler", "expected_head_mass"]
