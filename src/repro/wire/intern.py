"""Bounded key interning for the replication hot path.

Replication traffic repeats a bounded key space at a high rate: every
decoded ``ReplicateUpdate`` used to allocate a fresh ``str`` for a key the
server has seen thousands of times, and every downstream dict lookup
(store install, partitioner hashing, readers-check indexes) re-hashed it.
:func:`intern_key` maps equal key strings onto one canonical object, so

* decode allocates each distinct key once instead of once per message, and
* downstream ``dict``/``set`` operations hit the pointer-equality fast path
  (CPython compares identical string objects without touching the bytes).

The cache is a plain dict bounded by :data:`MAX_INTERNED_KEYS`: once full it
stops admitting new entries (returning the argument unchanged) instead of
evicting, because the workload key space is fixed per run — eviction churn
would only help adversarial streams, which simply degrade to no interning.
``sys.intern`` is deliberately not used: it pins strings for the process
lifetime and is reserved for identifier-shaped strings.
"""

from __future__ import annotations

#: Upper bound on distinct cached keys (~64k entries; a few MB worst case).
MAX_INTERNED_KEYS = 1 << 16

_CACHE: dict[str, str] = {}


def intern_key(key: str) -> str:
    """The canonical object for ``key`` (``key`` itself on cache overflow)."""
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if len(_CACHE) < MAX_INTERNED_KEYS:
        _CACHE[key] = key
    return key


def clear_interned() -> None:
    """Drop the cache (tests only; never needed on the hot path)."""
    _CACHE.clear()


__all__ = ["MAX_INTERNED_KEYS", "clear_interned", "intern_key"]
