"""Round-trip tests for RunResult JSON serialisation (BENCH_*.json artifacts)."""

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.faults.library import dc_partition
from repro.harness.runner import run_experiment
from repro.metrics.collectors import (
    SCHEMA_VERSION,
    MetricsRegistry,
    PhaseSlice,
    RunResult,
)
from repro.metrics.latency import LatencySummary
from repro.metrics.overheads import OverheadCounters


def _synthetic_result(**overrides) -> RunResult:
    summary = LatencySummary(count=10, mean_ms=1.5, p50_ms=1.2, p95_ms=3.0,
                             p99_ms=4.5, max_ms=9.0)
    overhead = OverheadCounters(messages_sent=123, bytes_sent=456,
                                readers_checks=7, rot_ids_distinct=21)
    fields = dict(protocol="contrarian", num_dcs=2, clients=16,
                  throughput_kops=42.5, rot_latency=summary,
                  put_latency=summary, rots_completed=1000,
                  puts_completed=50, overhead=overhead,
                  cpu_utilization=0.73, label="test")
    fields.update(overrides)
    return RunResult(**fields)


class TestRunResultRoundTrip:
    def test_payload_carries_schema_version(self):
        payload = _synthetic_result().as_json_dict()
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_round_trip_preserves_payload_exactly(self):
        original = _synthetic_result().as_json_dict()
        restored = RunResult.from_json_dict(original).as_json_dict()
        assert restored == original

    def test_round_trip_survives_json_encoding(self):
        original = _synthetic_result()
        wire = json.dumps(original.as_json_dict(), sort_keys=True)
        restored = RunResult.from_json_dict(json.loads(wire))
        assert restored.throughput_kops == original.throughput_kops
        assert restored.rot_latency == original.rot_latency
        assert restored.overhead.messages_sent == original.overhead.messages_sent
        assert restored.as_row() == original.as_row()

    def test_round_trip_with_phases(self):
        summary = LatencySummary(count=5, mean_ms=0.5, p50_ms=0.4, p95_ms=0.9,
                                 p99_ms=1.0, max_ms=1.1)
        phase = PhaseSlice(name="partition", start=0.5, end=1.0,
                           rots_completed=100, puts_completed=10,
                           throughput_kops=2.2, rot_latency=summary,
                           put_latency=summary,
                           gauges={"held_messages_max": 12.0})
        original = _synthetic_result(phases=(phase,)).as_json_dict()
        restored = RunResult.from_json_dict(original)
        assert restored.phases[0] == phase
        assert restored.as_json_dict() == original

    def test_schema_version_1_accepted_without_phases(self):
        payload = _synthetic_result().as_json_dict()
        payload.pop("schema_version")
        payload.pop("phases")
        restored = RunResult.from_json_dict(payload)
        assert restored.phases == ()

    def test_unsupported_schema_version_rejected(self):
        payload = _synthetic_result().as_json_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError):
            RunResult.from_json_dict(payload)

    def test_measured_result_round_trips(self):
        config = ClusterConfig.test_scale(num_dcs=1, clients_per_dc=2,
                                          duration_seconds=0.3,
                                          warmup_seconds=0.1)
        result = run_experiment("contrarian", config).result
        payload = result.as_json_dict()
        assert RunResult.from_json_dict(payload).as_json_dict() == payload

    @pytest.mark.slow
    def test_fault_run_round_trips_with_phases(self):
        config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=2,
                                          duration_seconds=1.0,
                                          warmup_seconds=0.1)
        scenario = dc_partition(start=0.3, heal=0.6, dc=1)
        result = run_experiment("contrarian", config, scenario=scenario).result
        payload = json.loads(json.dumps(result.as_json_dict()))
        restored = RunResult.from_json_dict(payload)
        assert [phase.name for phase in restored.phases] == \
            [phase.name for phase in result.phases]
        assert restored.as_json_dict() == payload


class TestPhaseRegistry:
    def test_begin_phase_replaces_zero_width_phase(self):
        registry = MetricsRegistry(warmup_seconds=0.0)
        registry.begin_phase("baseline", 0.0)
        registry.begin_phase("override", 0.0)
        registry.begin_phase("next", 1.0)
        result = registry.finalize(protocol="p", num_dcs=1, clients=1,
                                   measurement_seconds=2.0,
                                   overhead=OverheadCounters(),
                                   cpu_utilization=0.0)
        assert [phase.name for phase in result.phases] == ["override", "next"]

    def test_records_split_by_phase_and_warmup(self):
        registry = MetricsRegistry(warmup_seconds=0.5)
        registry.begin_phase("baseline", 0.0)
        registry.record_rot(0.1, 0.2)   # warmup: dropped everywhere
        registry.record_rot(0.6, 0.7)
        registry.begin_phase("fault", 1.0)
        registry.record_rot(1.1, 1.2)
        registry.record_gauge("held", 5.0)
        registry.record_gauge("held", 3.0)
        result = registry.finalize(protocol="p", num_dcs=1, clients=1,
                                   measurement_seconds=1.5,
                                   overhead=OverheadCounters(),
                                   cpu_utilization=0.0)
        baseline, fault = result.phases
        assert baseline.rots_completed == 1
        assert fault.rots_completed == 1
        assert fault.gauges == {"held_max": 5.0, "held_mean": 4.0}
        # Phase window excludes warmup; throughput uses the effective window.
        assert baseline.start == 0.0 and baseline.end == 1.0
        assert baseline.throughput_kops == pytest.approx(1 / 0.5 / 1000.0)
        assert fault.end == 2.0
