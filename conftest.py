"""Pytest root configuration.

Makes the in-tree ``src`` layout importable even when the package has not
been installed (e.g. on an offline machine where ``pip install -e .`` cannot
build an editable wheel).  When the package *is* installed, the installed
copy and this path point at the same files, so the shim is harmless.

Also registers the ``nightly`` hypothesis profile and the ``slow`` marker
that separates the fast tier (unit tests, run on every PR with ``-m "not
slow"``, optionally ``-n auto`` under pytest-xdist) from the long
integration/checker tests and the figure benchmarks (run nightly and locally
with a plain ``pytest``).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

try:
    from hypothesis import settings
except ImportError:  # the figure benchmarks run without it
    pass
else:
    # ``--hypothesis-profile=nightly``: ten times the default examples for
    # the tests that leave ``max_examples`` to the profile (the wire
    # round-trip and fuzz tests, the CC-LO reader-records state machines and
    # the vector client's fold-once test; every other test pins its own
    # count).
    settings.register_profile(
        "nightly", max_examples=10 * settings.default.max_examples)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running integration/benchmark tests; the CI PR job "
        "deselects them with -m \"not slow\"")
