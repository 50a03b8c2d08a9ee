"""Cross-process metric merging: ``MetricsRegistry.absorb`` and friends.

Worker processes ship raw latency samples, issue counts and overhead
counters to the parent (see :mod:`repro.runtime.process`); the parent folds
them into its registry with ``absorb`` and merges the counters.  These tests
pin the merge semantics: samples are verbatim (the worker already applied
its warmup filter), counts add, gauges stay phase-local, and the overhead
merge is element-wise.
"""

from repro.metrics.collectors import MetricsRegistry
from repro.metrics.overheads import OverheadCounters


def _registry_with_local_traffic() -> MetricsRegistry:
    registry = MetricsRegistry(warmup_seconds=1.0)
    registry.note_issue(True)
    registry.note_issue(False)
    registry.record_put(1.0, 1.5)    # after warmup: recorded
    registry.record_rot(2.0, 2.25)   # after warmup: recorded
    registry.record_rot(0.1, 0.2)    # completes during warmup: dropped
    return registry


class TestAbsorb:
    def test_samples_and_counts_fold_in_verbatim(self):
        registry = _registry_with_local_traffic()
        registry.absorb(rot_samples=(0.010, 0.020), put_samples=(0.005,),
                        rots_issued=4, puts_issued=3)
        # Completed counts equal sample counts by construction (workers
        # pre-filter warmup completions).
        assert registry.rots_completed == 1 + 2
        assert registry.puts_completed == 1 + 1
        assert registry.rots_issued == 1 + 4
        assert registry.puts_issued == 1 + 3
        assert set(registry.rot_latencies.samples()) == {0.25, 0.010, 0.020}
        assert set(registry.put_latencies.samples()) == {0.5, 0.005}

    def test_absorb_bypasses_the_parent_warmup_filter(self):
        # A worker's samples were measured against *its* warmup window; the
        # parent must not re-filter them even when they look warmup-early.
        registry = MetricsRegistry(warmup_seconds=100.0)
        registry.absorb(rot_samples=(0.001,), put_samples=())
        assert registry.rots_completed == 1
        assert registry.rot_latencies.count == 1

    def test_multiple_workers_accumulate(self):
        registry = MetricsRegistry()
        for worker in range(3):
            registry.absorb(rot_samples=(0.01 * (worker + 1),),
                            put_samples=(0.02,),
                            rots_issued=2, puts_issued=1)
        assert registry.rots_completed == 3
        assert registry.puts_completed == 3
        assert registry.rots_issued == 6
        assert registry.puts_issued == 3
        summary = registry.put_latencies.summary()
        assert summary.count == 3
        assert summary.mean_ms == 20.0

    def test_absorb_defaults_leave_issue_counts_alone(self):
        registry = MetricsRegistry()
        registry.absorb(rot_samples=(0.01,), put_samples=())
        assert registry.rots_issued == 0
        assert registry.puts_issued == 0

    def test_absorbed_samples_reach_the_finalized_result(self):
        registry = MetricsRegistry()
        registry.absorb(rot_samples=(0.010, 0.030), put_samples=(0.020,))
        result = registry.finalize(
            protocol="contrarian", num_dcs=2, clients=4,
            measurement_seconds=1.0, overhead=OverheadCounters(),
            cpu_utilization=0.0)
        assert result.rots_completed == 2
        assert result.puts_completed == 1
        assert result.throughput_kops == 3 / 1000.0
        assert result.rot_latency.mean_ms == 20.0
        assert result.put_latency.mean_ms == 20.0


class TestGaugeSamples:
    def test_gauges_attach_to_the_current_phase_only(self):
        registry = MetricsRegistry()
        registry.record_gauge("stalled_rots", 5.0)  # no phase open: dropped
        registry.begin_phase("healthy", 0.0)
        registry.record_gauge("stalled_rots", 1.0)
        registry.record_gauge("stalled_rots", 3.0)
        registry.begin_phase("faulty", 5.0)
        registry.record_gauge("stalled_rots", 9.0)
        result = registry.finalize(
            protocol="contrarian", num_dcs=2, clients=4,
            measurement_seconds=10.0, overhead=OverheadCounters(),
            cpu_utilization=0.0)
        healthy = result.phase("healthy")
        faulty = result.phase("faulty")
        assert healthy.gauges["stalled_rots_max"] == 3.0
        assert healthy.gauges["stalled_rots_mean"] == 2.0
        assert faulty.gauges["stalled_rots_max"] == 9.0

    def test_absorb_does_not_pollute_phase_gauges(self):
        registry = MetricsRegistry()
        registry.begin_phase("only", 0.0)
        registry.absorb(rot_samples=(0.01,), put_samples=(0.02,))
        result = registry.finalize(
            protocol="cure", num_dcs=2, clients=1,
            measurement_seconds=1.0, overhead=OverheadCounters(),
            cpu_utilization=0.0)
        assert result.phase("only").gauges == {}


class TestOverheadCounterMerge:
    def test_scalars_and_check_sums_add(self):
        a = OverheadCounters()
        a.messages_sent = 10
        a.bytes_sent = 1000
        a.record_readers_check(3, 5, 2)
        b = OverheadCounters()
        b.messages_sent = 5
        b.bytes_sent = 500
        b.record_readers_check(1, 1, 1)
        b.record_readers_check(2, 4, 2)
        a.merge(b)
        assert a.messages_sent == 15
        assert a.bytes_sent == 1500
        assert a.readers_checks == 3
        assert a.rot_ids_distinct == 3 + 1 + 2
        assert a.rot_ids_cumulative == 5 + 1 + 4
        assert a.average_distinct_ids_per_check() == (3 + 1 + 2) / 3
        assert a.average_cumulative_ids_per_check() == (5 + 1 + 4) / 3
        assert a.average_partitions_per_check() == (2 + 1 + 2) / 3

    def test_merge_is_identity_for_empty_counters(self):
        a = OverheadCounters()
        a.messages_sent = 7
        a.stabilization_messages = 2
        before = (a.messages_sent, a.stabilization_messages)
        a.merge(OverheadCounters())
        assert (a.messages_sent, a.stabilization_messages) == before
