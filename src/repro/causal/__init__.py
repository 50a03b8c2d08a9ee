"""Causality metadata: dependency vectors, snapshots, stabilization, checking."""

from repro.causal.checker import CheckerReport
from repro.causal.dependencies import ClientDependencyContext
from repro.causal.stabilization import GlobalStableSnapshot
from repro.causal.streaming import ObservationBuffer, StreamingChecker
from repro.causal.synth import SynthParameters, generate_history, materialize
from repro.causal.vectors import (
    entrywise_max,
    entrywise_min,
    vector_leq,
    zero_vector,
)

__all__ = [
    "CheckerReport",
    "ClientDependencyContext",
    "GlobalStableSnapshot",
    "ObservationBuffer",
    "StreamingChecker",
    "SynthParameters",
    "entrywise_max",
    "entrywise_min",
    "generate_history",
    "materialize",
    "vector_leq",
    "zero_vector",
]
