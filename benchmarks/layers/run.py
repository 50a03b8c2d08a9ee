#!/usr/bin/env python
"""The layered benchmark: four workloads, end-to-end and per-layer metrics.

One command, two ways to call it.

* ``python benchmarks/layers/run.py`` runs every workload (or ``--workload
  NAME``) for every ``--seed``, timed repetitions first, then the traced and
  the validated run, prints every metric by name and unit, applies the
  correctness gate and writes ``results/BENCH_layers.json`` (``--output``).
  ``--smoke`` shrinks every window to under a second.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` is the form the
  benchmark driver uses (``BENCHMARK.json``): one workload, one kind of run,
  and the result as one JSON object on the last line of standard output —
  the end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``.

``--compare A.json B.json`` compares two result files under the bounds of
``BENCHMARK.json`` instead of running anything.

Every run happens in a fresh child interpreter (``child.py``), one after
another; this process only plans, aggregates and reports.  The exit status
is non-zero when the gate fails: an operation failed, a node or transport
reported a failure, the checker found a violation, trace events were lost,
a Contrarian read blocked, or the simulator was not deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.normpath(os.path.join(_HERE, os.pardir, os.pardir))
if __name__ == "__main__":
    # Run as a script: make ``layers`` and ``repro`` importable.  See
    # child.py for why the script directory is replaced, not kept.
    sys.path[0] = os.path.dirname(_HERE)
    sys.path.insert(1, os.path.join(_ROOT, "src"))

from layers.compare import compare_files  # noqa: E402 - path set up above
from layers.host import REFERENCE_SPIN_SECONDS  # noqa: E402
from layers.simlayers import row_metrics  # noqa: E402
from layers.workloads import RT_WORKLOADS, WORKLOAD_NAMES  # noqa: E402

CHILD = os.path.join(_HERE, "child.py")
RESULTS_DIR = os.path.join(_HERE, "results")
DEFAULT_OUTPUT = os.path.join(RESULTS_DIR, "BENCH_layers.json")

#: Repetitions (fresh interpreters) of the timed run of an ``rt`` workload.
RT_REPETITIONS = 6
#: The simulator's passes: every sub-seed is simulated this many times.
SIM_SEEDS = 3
SIM_PASSES_PER_SEED = 2
#: The loaded and the idle window of an ``rt`` repetition are measured as
#: back-to-back chunks of about this many seconds, each scaled by its own
#: host-speed index; a simulator pass is one chunk.  The reported value is
#: the midmean over the chunks of all repetitions (see ``_midmean``).
RT_CHUNK_SECONDS = 1.0
#: A child that runs longer than this is killed and counts as aborted.
CHILD_TIMEOUT_SECONDS = 170.0


def load_contract() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- plans
def sub_seed(seed: int, index: int) -> int:
    """The workload seed of one repetition.  A run draws its operations from
    several seeds, because the seed alone moves the numbers (same code, same
    host, ten runs: ``throughput_ops_s`` of an ``rt`` workload spread 0.4%
    with one seed and 3% across seeds; the simulator's PUT tail 25-40 ms):
    what a run reports should describe the program, not one operation
    stream."""
    return seed * 1000 + index


def timed_jobs(workload: str, seed: int, seconds: float,
               smoke: bool) -> list[dict]:
    """The repetitions of the end-to-end measurement of one workload."""
    if workload in RT_WORKLOADS:
        repetitions = 1 if smoke else RT_REPETITIONS
        share = min(seconds, 1.0) if smoke else seconds / repetitions
        return [{"kind": "timed-rt", "workload": workload,
                 "seed": sub_seed(seed, index), "warm": 0.08 * share,
                 "loaded": 0.62 * share, "idle": 0.30 * share,
                 "chunk": RT_CHUNK_SECONDS}
                for index in range(repetitions)]
    # Every sub-seed is simulated SIM_PASSES_PER_SEED times, so that the gate
    # can compare the passes row for row.  A pass over 1/60 virtual second of
    # each of its six experiments takes 0.7-1.2 s of wall clock.
    passes = 1 if smoke else SIM_SEEDS * SIM_PASSES_PER_SEED
    virtual = round(0.008 if smoke else seconds / passes / 60.0, 4)
    return [{"kind": "timed-sim", "seed": sub_seed(seed, index % SIM_SEEDS),
             "loaded_virtual": virtual, "idle_virtual": virtual}
            for index in range(passes)]


def layer_jobs(workload: str, seed: int, seconds: float,
               smoke: bool) -> dict[str, dict]:
    """The traced and the validated run of one workload."""
    trace_path = os.path.join(RESULTS_DIR, f"TRACE_{workload}.json")
    seed = sub_seed(seed, 0)  # the operations of the first timed repetition
    if workload in RT_WORKLOADS:
        loaded = 0.4 if smoke else seconds / 6.0
        common = {"workload": workload, "seed": seed,
                  "warm": 0.1 if smoke else 0.4, "loaded": loaded}
        return {
            "traced": {"kind": "traced-rt", **common,
                       "idle": 0.2 if smoke else seconds / 16.0,
                       "trace_path": trace_path},
            "validated": {"kind": "validated-rt", **common},
        }
    # About the virtual span of a timed pass: both runs are slower per event,
    # and the validated one must fit its events into the bus ring.
    virtual = round(0.004 if smoke else seconds / 320.0, 4)
    return {
        "traced": {"kind": "traced-sim", "seed": seed,
                   "loaded_virtual": virtual, "trace_path": trace_path},
        "validated": {"kind": "validated-sim", "seed": seed,
                      "loaded_virtual": virtual},
    }


def reference_job(workload: str, seed: int, seconds: float) -> dict:
    """One plain repetition: what the traced runs of a ``--trace 1`` call are
    compared with (the full run compares with its timed repetitions)."""
    job = timed_jobs(workload, seed, seconds, smoke=False)[0]
    if workload in RT_WORKLOADS:
        share = seconds / 4.0
        job.update(warm=0.1 * share, loaded=0.8 * share, idle=0.1 * share)
    return job


# ------------------------------------------------------------------ children
def run_child(job: dict) -> Optional[dict]:
    """Run one job in a fresh interpreter; ``None`` when it aborted."""
    # A fixed hash seed: str hashing (dict collisions, set order) is one
    # less thing that differs between two interpreters running the same job.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                              capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"  child {job['kind']} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"  child {job['kind']} exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------- aggregation
def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, high


#: End-to-end metrics of the loaded and of the idle window: (name, key in
#: the window's summary, is a rate).  Rates are divided, times multiplied by
#: the host-speed index.
LOADED_METRICS = (("throughput_ops_s", "throughput_ops_s", True),
                  ("rot_p50_ms", "rot_p50_ms", False),
                  ("rot_p99_ms", "rot_p99_ms", False),
                  ("put_p50_ms", "put_p50_ms", False),
                  ("put_p99_ms", "put_p99_ms", False))
IDLE_METRICS = (("rot_idle_p50_ms", "rot_p50_ms", False),
                ("put_idle_p50_ms", "put_p50_ms", False))


def _scaled(rep: dict) -> dict[str, list[float]]:
    """The end-to-end metrics of one repetition at reference host speed, one
    value per chunk: each chunk is scaled by its own host-speed index."""
    values: dict[str, list[float]] = {
        "setup_s": [rep["setup_s"] * rep["setup_host_speed_index"]],
        "peak_rss_mb": [rep["peak_rss_mb"]]}
    for chunks, metrics in ((rep["loaded"], LOADED_METRICS),
                            (rep["idle"], IDLE_METRICS)):
        for name, key, is_rate in metrics:
            values[name] = [
                chunk[key] / chunk["host_speed_index"] if is_rate
                else chunk[key] * chunk["host_speed_index"]
                for chunk in chunks]
    return values


def _midmean(values: list[float]) -> float:
    """What is reported of the chunks' values: the mean of their middle
    half.  Like the median it ignores a quarter of the chunks on either side,
    so a burst of interference does not count; unlike it, it averages what is
    left, and the p50 of a loaded chunk wanders by 10% from one second to the
    next on a quiet host."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def aggregate_timed(reps: list[Optional[dict]], contract: dict) -> dict:
    """Per end-to-end metric: the midmean over the chunks of all
    repetitions, and beside it the quartiles of the repetitions' midmeans."""
    finished = [rep for rep in reps if rep is not None]
    scaled = [_scaled(rep) for rep in finished]
    end_to_end = {}
    for spec in contract["end_to_end"]:
        name = spec["name"]
        chunks = [value for rep in scaled for value in rep[name]]
        low, high = _quartiles([_midmean(rep[name]) for rep in scaled])
        end_to_end[name] = {"value": _midmean(chunks),
                            "unit": spec["unit"], "q1": low, "q3": high,
                            "n": len(chunks)}
    gate = []
    if len(finished) < len(reps):
        gate.append(f"{len(reps) - len(finished)} repetition(s) aborted")
    for rep in finished:
        gate.extend(rep["errors"])
        if rep["first_failure"]:
            gate.append(f"first_failure: {rep['first_failure']}")
    attempted = sum(rep["attempted"] for rep in finished)
    failed = sum(rep["failed"] for rep in finished)
    # An aborted repetition counts as one attempted and failed operation.
    attempted += len(reps) - len(finished)
    failed += len(reps) - len(finished)
    if failed:
        gate.append(f"{failed} of {attempted} operations failed")
    result = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "repetitions": [{"raw": {key: rep[key] for key in
                                 ("setup_s", "setup_host_speed_index",
                                  "peak_rss_mb", "loaded", "idle")},
                         "scaled": values}
                        for rep, values in zip(finished, scaled)],
        "gate": gate,
    }
    if finished and "rows" in finished[0]:
        first_of_seed: dict[int, dict] = {}
        for rep in finished:
            if rep["rows"] != first_of_seed.setdefault(rep["seed"],
                                                       rep)["rows"]:
                gate.append(f"simulator passes of seed {rep['seed']} are not "
                            f"row-for-row identical")
        # The exact per-layer metrics, and the digest that says whether they
        # changed, are those of the first sub-seed.
        result["rows"] = finished[0]["rows"]
        result["digest"] = finished[0]["digest"]
    return result


def reference_digest(seed: int, seconds: float, smoke: bool) -> Optional[str]:
    """The simulator digest the committed baseline holds for this plan."""
    try:
        with open(DEFAULT_OUTPUT, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        return None
    for entry in baseline.get("sets", ()):
        if (entry["seed"], entry["seconds"], entry["smoke"]) == (
                seed, seconds, smoke):
            return entry["workloads"].get("sim-three-protocols",
                                          {}).get("digest")
    return None


def aggregate_layers(workload: str, runs: dict[str, Optional[dict]],
                     timed: dict, committed_digest: Optional[str],
                     contract: dict) -> dict:
    """Merge the per-layer metrics of the traced and the validated run; a
    metric no run of this workload produced reads 0 (the layer did no work
    here).  ``timed`` is the aggregate the traced runs are compared with."""
    gate = []
    values: dict[str, float] = {}
    for name, run in runs.items():
        if run is None:
            gate.append(f"{name} run aborted")
            continue
        values.update(run["metrics"])
        gate.extend(run["errors"])
        if run["failed"]:
            gate.append(f"{name} run: {run['failed']} operation(s) failed")
        if run["first_failure"]:
            gate.append(f"{name} run first_failure: {run['first_failure']}")
    # All three throughputs are at reference host speed.
    reference = timed["end_to_end"]["throughput_ops_s"]["value"]
    if reference:
        if runs.get("traced"):
            values["budget.tracing_overhead_share"] = (
                1.0 - runs["traced"]["throughput_ops_s"] / reference)
        if runs.get("validated"):
            values["obs.traced_throughput_share"] = (
                runs["validated"]["throughput_ops_s"] / reference)
    if "rows" in timed:
        values.update(row_metrics(timed["rows"], reference))
        values["sim.result_digest_changed"] = float(
            committed_digest is not None
            and committed_digest != timed["digest"])
        contrarian_blocked = sum(row["blocked_reads"] for row in timed["rows"]
                                 if row["protocol"] == "contrarian")
    else:
        contrarian_blocked = (
            values.get("core.vector.blocked_reads_share", 0.0)
            if RT_WORKLOADS[workload].protocol == "contrarian" else 0.0)
    if contrarian_blocked:
        gate.append("Contrarian reads blocked (core.vector.blocked_reads)")
    if values.get("causal.streaming.violations"):
        gate.append(f"{values['causal.streaming.violations']:.0f} checker "
                    f"violation(s)")
    if values.get("obs.dropped_events"):
        gate.append(f"{values['obs.dropped_events']:.0f} trace event(s) lost")
    known = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    unknown = sorted(set(values) - set(known))
    if unknown:
        gate.append(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        "per_layer": {name: {"value": values.get(name, 0.0), "unit": unit}
                      for name, unit in known.items()},
        "gate": gate,
    }


# ------------------------------------------------------------------ printing
def print_metrics(title: str, metrics: dict) -> None:
    print(f"{title}:")
    for name, metric in metrics.items():
        line = f"  {name:<52} {metric['value']:>14.4f} {metric['unit']}"
        if "q1" in metric:
            line += (f"   (q1 {metric['q1']:.4f}, q3 {metric['q3']:.4f}, "
                     f"n={metric['n']})")
        print(line)


def contract_line(result: dict, kind: str) -> str:
    """The driver's result object (last line of standard output)."""
    return json.dumps({
        "correct": not result["gate"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result[kind].items()},
    })


# ----------------------------------------------------------------------- run
def run_timed(workload: str, seed: int, seconds: float, smoke: bool,
              contract: dict) -> dict:
    reps = [run_child(job)
            for job in timed_jobs(workload, seed, seconds, smoke)]
    if not any(reps):
        raise SystemExit(f"{workload}: every timed repetition aborted")
    return aggregate_timed(reps, contract)


def run_layers(workload: str, seed: int, seconds: float, smoke: bool,
               timed: dict, contract: dict) -> dict:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    committed = reference_digest(seed, seconds, smoke)
    runs = {name: run_child(job) for name, job
            in layer_jobs(workload, seed, seconds, smoke).items()}
    return aggregate_layers(workload, runs, timed, committed, contract)


def run_workload(workload: str, seed: int, seconds: float, smoke: bool,
                 trace: Optional[int], contract: dict) -> dict:
    """Run what was asked for of one workload, print it, return it."""
    print(f"== {workload} (seed {seed}) ==")
    if trace == 1:
        reference = run_child(reference_job(workload, seed, seconds))
        if reference is None:
            raise SystemExit(f"{workload}: the reference run aborted")
        result = aggregate_timed([reference], contract)
    else:
        result = run_timed(workload, seed, seconds, smoke, contract)
        print_metrics("end to end (midmean of the chunks; CPU clock, at "
                      "reference host speed)",
                      result["end_to_end"])
        print(f"  {'failed_ops_share':<52} "
              f"{result['failed_ops_share']:>14.4f} ratio   "
              f"({result['failed']} of {result['attempted']})")
    if trace != 0:
        layers = run_layers(workload, seed, seconds, smoke, result, contract)
        result["per_layer"] = layers["per_layer"]
        result["gate"] = result["gate"] + layers["gate"]
        print_metrics("per layer", result["per_layer"])
    for failure in result["gate"]:
        print(f"  GATE: {failure}")
    return result


def main(argv: Optional[list[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="workload seed(s); one set of runs per seed")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="seconds one kind of run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics only, "
                             "1 = per-layer metrics only; prints the result "
                             "object as the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every window to under a second")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where the full run writes its JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare the first set of A with the last of B")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare, contract)
    if args.trace is not None and (args.workload is None
                                   or len(args.seed) != 1):
        parser.error("--trace needs --workload and exactly one --seed")

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    sets = []
    failures = 0
    for seed in args.seed:
        results = {}
        for workload in workloads:
            results[workload] = result = run_workload(
                workload, seed, args.seconds, args.smoke, args.trace,
                contract)
            failures += len(result["gate"])
        sets.append({"seed": seed, "seconds": args.seconds,
                     "smoke": args.smoke, "workloads": results})
    if args.trace is not None:
        print(contract_line(
            sets[0]["workloads"][args.workload],
            "end_to_end" if args.trace == 0 else "per_layer"))
        return 1 if failures else 0
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump({
            "benchmark": "layers",
            "claim": None,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "reference_spin_seconds": REFERENCE_SPIN_SECONDS,
            "sets": sets,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}; gate failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
