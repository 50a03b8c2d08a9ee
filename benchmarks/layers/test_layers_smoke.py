"""Smoke test of the layered benchmark (``run.py --smoke``).

Checks the benchmark's own contract rather than any number: every metric
named in ``BENCHMARK.json`` is reported with its unit on every workload and
nothing else is, no operation fails at smoke scale, and the correctness gate
turns an injected consistency violation into a non-zero exit status.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from layers import rtlayers
from layers import run as bench

from repro.causal.streaming import StreamingChecker


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of the whole command: (stdout, result file)."""
    output = tmp_path_factory.mktemp("layers") / "BENCH_layers.json"
    done = subprocess.run(
        [sys.executable, bench.__file__, "--smoke", "--output", str(output)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(output, encoding="utf-8") as handle:
        return done.stdout, json.load(handle)


def test_reports_exactly_the_metrics_of_the_contract(smoke):
    stdout, report = smoke
    contract = bench.load_contract()
    assert report["claim"] is None
    workloads = report["sets"][0]["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in contract["workloads"])
    for result in workloads.values():
        for kind in ("end_to_end", "per_layer"):
            expected = {spec["name"]: spec["unit"] for spec in contract[kind]}
            reported = {name: metric["unit"]
                        for name, metric in result[kind].items()}
            assert reported == expected
    for kind in ("end_to_end", "per_layer"):
        for spec in contract[kind]:
            assert f"  {spec['name']} " in stdout


def test_no_operation_fails_and_the_gate_is_quiet(smoke):
    _stdout, report = smoke
    for name, result in report["sets"][0]["workloads"].items():
        assert result["failed_ops_share"] == 0, name
        assert result["gate"] == [], name
        for metric in result["end_to_end"].values():
            assert metric["value"] > 0, name


class ForgetfulRecorder(StreamingChecker):
    """Records every tenth ROT as if its reads had returned nothing, which a
    client that had already observed one of the keys may never see."""

    def __init__(self) -> None:
        super().__init__()
        self._rots = 0

    def record_rot(self, rot, **kwargs) -> None:
        self._rots += 1
        if self._rots % 10 == 0:
            rot = replace(rot, reads=tuple(
                replace(read, timestamp=None) for read in rot.reads))
        super().record_rot(rot, **kwargs)


def test_injected_violation_fails_the_command(monkeypatch, capsys):
    run_child = bench.run_child

    def tampered(job):
        if job["kind"] == "validated-rt":
            return rtlayers.validated_rt(job, checker=ForgetfulRecorder())
        return run_child(job)

    monkeypatch.setattr(bench, "run_child", tampered)
    status = bench.main(["--workload", "inproc-contrarian-read", "--smoke",
                         "--seconds", "2", "--trace", "1"])
    assert status != 0
    assert "checker violation" in capsys.readouterr().out
