"""``run.py --compare A.json B.json``: one row per metric per workload.

The baseline is the *first* set of runs in ``A``, the candidate the *last*
set in ``B`` — so comparing the committed ``BENCH_layers.json`` with itself
compares its two sets (same code, seeds 1 and 2), and comparing it with a
fresh result file compares baseline with candidate.

Per end-to-end metric the bound of ``BENCHMARK.json`` decides:

* ``unresolved`` — the quartile spread of either side (q3 - q1 of its
  repetitions over the reported value) is wider than the bound, so neither
  "same" nor "worse" can be told;
* ``regressed`` — the candidate's value is worse than the baseline's by
  more than the bound;
* ``ok`` — otherwise.
"""

from __future__ import annotations

import json


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric of one workload."""
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    change = new["value"] / base["value"] - 1.0
    worse = -change if better == "higher" else change
    return "regressed" if worse > bound else "ok"


def compare_files(base_path: str, new_path: str, contract: dict) -> int:
    """Print the comparison; 1 when any metric regressed, else 0."""
    with open(base_path, encoding="utf-8") as handle:
        base_set = json.load(handle)["sets"][0]
    with open(new_path, encoding="utf-8") as handle:
        new_set = json.load(handle)["sets"][-1]
    print(f"baseline: {base_path} seed {base_set['seed']}   "
          f"candidate: {new_path} seed {new_set['seed']}")
    print(f"{'workload':<24} {'metric':<18} {'baseline':>12} "
          f"{'candidate':>12} {'change':>8} {'spread':>7} {'bound':>6}  "
          f"verdict")
    regressed = 0
    for workload, base in base_set["workloads"].items():
        new = new_set["workloads"].get(workload)
        if new is None:
            continue
        for spec in contract["end_to_end"]:
            name = spec["name"]
            before, after = base["end_to_end"][name], new["end_to_end"][name]
            status = verdict(before, after, spec["better"], spec["bound"])
            regressed += status == "regressed"
            print(f"{workload:<24} {name:<18} {before['value']:>12.4f} "
                  f"{after['value']:>12.4f} "
                  f"{after['value'] / before['value'] - 1.0:>+8.1%} "
                  f"{max(_spread(before), _spread(after)):>7.1%} "
                  f"{spec['bound']:>6.0%}  {status}")
    return 1 if regressed else 0
