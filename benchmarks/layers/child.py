#!/usr/bin/env python
"""One run of one workload in a fresh interpreter.

``run.py`` starts this script once per repetition with a JSON job on the
command line and reads one JSON object from the last line of its output.  A
fresh interpreter per run is what makes ``setup_s`` (spawn to first
operation: imports, cluster build, keyspace preload, transport start) and
``peak_rss_mb`` measurements of the workload rather than of whatever ran
before it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    # Make ``layers`` and ``repro`` importable.  The script directory is
    # replaced, not kept: it holds a ``trace.py`` that must not shadow the
    # standard library's for anyone importing by bare name.
    sys.path[0] = os.path.dirname(_HERE)
    sys.path.insert(1, os.path.join(_HERE, os.pardir, os.pardir, "src"))

#: job kind -> (module, function).  Imported on demand: ``setup_s`` counts
#: the imports of the run that was asked for, not of every other kind.
RUNNERS = {
    "timed-rt": ("layers.rtruns", "timed_rt"),
    "traced-rt": ("layers.rtlayers", "traced_rt"),
    "validated-rt": ("layers.rtlayers", "validated_rt"),
    "timed-sim": ("layers.simruns", "timed_sim"),
    "traced-sim": ("layers.simlayers", "traced_sim"),
    "validated-sim": ("layers.simlayers", "validated_sim"),
}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    module, function = RUNNERS[job["kind"]]
    result = getattr(importlib.import_module(module), function)(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
