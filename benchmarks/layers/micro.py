"""Wire micro-timings on envelopes captured from the workload's own traffic.

``wire.codec`` and ``wire.batch`` are called from inside the transport's
flush and read callbacks, which the benchmark cannot wrap from outside
without patching module globals; so their cost per message is timed here,
on the public functions, over the envelopes the traced ``tcp-contrarian-read``
run actually sent (client requests, server replies — the replication and
stabilization traffic stays inside the server-side transport).  Best of
:data:`ROUNDS`, so a preempted round does not count, scaled to reference
host speed like every other timing.
"""

from __future__ import annotations

from typing import Callable, Sequence

from layers.host import REFERENCE_SPIN_SECONDS, cpu_clock, spin

from repro.wire.batch import encode_batch
from repro.wire.codec import decode, encode

ROUNDS = 5
#: Below this many captured envelopes the timings are not reported.
MIN_ENVELOPES = 2000


def _best_seconds(work: Callable[[], None]) -> float:
    """Best round of ``work``, at reference host speed: scaled by the best
    spin taken between the rounds (both are the host's quietest moment)."""
    best = best_spin = float("inf")
    for _ in range(ROUNDS):
        best_spin = min(best_spin, spin())
        started = cpu_clock()
        work()
        best = min(best, cpu_clock() - started)
    return best * REFERENCE_SPIN_SECONDS / best_spin


def _batch_timings(envelopes: Sequence, size: int) -> tuple[float, float, float]:
    """(encode us/msg, decode us/msg, bytes/msg) at one batch size."""
    chunks = [envelopes[start:start + size]
              for start in range(0, len(envelopes) - size + 1, size)]
    messages = len(chunks) * size
    blobs = [encode_batch(chunk) for chunk in chunks]

    def encode_all() -> None:
        for chunk in chunks:
            encode_batch(chunk)

    def decode_all() -> None:
        for blob in blobs:
            decode(blob)

    return (_best_seconds(encode_all) / messages * 1e6,
            _best_seconds(decode_all) / messages * 1e6,
            sum(map(len, blobs)) / messages)


def wire_metrics(envelopes: Sequence) -> dict[str, float]:
    """The ``wire.*`` per-layer metrics; empty when too few were captured."""
    if len(envelopes) < MIN_ENVELOPES:
        return {}
    blobs = [encode(envelope) for envelope in envelopes]

    def encode_all() -> None:
        for envelope in envelopes:
            encode(envelope)

    def decode_all() -> None:
        for blob in blobs:
            decode(blob)

    count = len(envelopes)
    metrics = {
        "wire.codec.encode_us_per_msg": _best_seconds(encode_all) / count * 1e6,
        "wire.codec.decode_us_per_msg": _best_seconds(decode_all) / count * 1e6,
        "wire.codec.bytes_per_msg": sum(map(len, blobs)) / count,
    }
    for size in (8, 128):
        encode_us, decode_us, size_bytes = _batch_timings(envelopes, size)
        metrics[f"wire.batch.encode_b{size}_us_per_msg"] = encode_us
        metrics[f"wire.batch.decode_b{size}_us_per_msg"] = decode_us
        if size == 128:
            metrics["wire.batch.bytes_b128_per_msg"] = size_bytes
    return metrics
