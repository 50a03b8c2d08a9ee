"""Shared helpers for the benchmark suite (imported by every module).

Kept separate from ``conftest.py`` so the helpers can be imported explicitly
(``conftest`` modules are reserved for fixtures and can shadow each other
between the root directory and this one).
"""

import os

#: Client counts (per DC) used by the benchmark load sweeps.
BENCH_SWEEP = (4, 16, 48)

#: Client counts used by the readers-check overhead benchmark (Figure 6).
BENCH_CLIENT_GROWTH = (4, 8, 16, 32)

#: Directory where benchmarks persist the regenerated series/tables.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def dump_results(name, text):
    """Persist a regenerated figure/table so it survives output capturing.

    Benchmarks print their series, but pytest captures stdout unless ``-s`` is
    given; writing the same text under ``benchmarks/results/`` keeps a copy of
    the regenerated evaluation for EXPERIMENTS.md regardless of capture mode.
    The ``results/*.txt`` files are checked in: a run whose figures differ
    from the committed ones shows up as a diff.  The directory is created
    before the write in case a checkout lacks it.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
