"""Tests for the experiment harness: builder, sweeps, reports, figures, tables."""

import pytest

from repro.causal.streaming import StreamingChecker
from repro.cluster.config import ClusterConfig
from repro.harness.builder import build_cluster
from repro.harness.figures import FigureResult, figure6_readers_check_overhead
from repro.harness.report import (
    crossover_load,
    format_series,
    format_table,
    latency_at_lowest_load,
    peak_throughput,
)
from repro.harness.runner import load_sweep, run_experiment
from repro.harness.tables import table1_workloads, table2_characterization
from repro.replication.accounting import summarize_replication
from repro.workload.parameters import DEFAULT_WORKLOAD


def tiny_config(**overrides):
    defaults = dict(clients_per_dc=3, duration_seconds=0.3, warmup_seconds=0.05,
                    keys_per_partition=32)
    defaults.update(overrides)
    return ClusterConfig.test_scale(**defaults)


class TestBuilder:
    def test_builds_requested_topology(self):
        cluster = build_cluster("contrarian", tiny_config(num_dcs=2),
                                DEFAULT_WORKLOAD)
        assert len(list(cluster.topology.all_servers())) == 8
        assert len(cluster.topology.clients) == 6

    def test_keyspace_is_preloaded_everywhere(self):
        config = tiny_config()
        cluster = build_cluster("cc-lo", config, DEFAULT_WORKLOAD)
        for server in cluster.topology.all_servers():
            assert len(server.store) == config.keys_per_partition

    def test_checker_only_created_on_request(self):
        assert build_cluster("cure", tiny_config(), DEFAULT_WORKLOAD).checker is None
        checker = StreamingChecker()
        assert build_cluster("cure", tiny_config(), DEFAULT_WORKLOAD,
                             checker=checker).checker is checker

    def test_stop_cancels_background_tasks(self):
        cluster = build_cluster("contrarian", tiny_config(), DEFAULT_WORKLOAD)
        cluster.start()
        cluster.sim.run(until=0.1)
        cluster.stop()
        # After stop, the only remaining events drain quickly: the simulation
        # must terminate on its own rather than being cut off at `until`.
        cluster.sim.run(until=10.0)
        assert cluster.sim.now < 10.0 or cluster.sim.pending_events == 0


class TestRunnerAndSweep:
    def test_run_experiment_uses_defaults(self):
        outcome = run_experiment("contrarian", tiny_config())
        assert outcome.result.protocol == "contrarian"
        assert outcome.checker_report is None

    def test_load_sweep_returns_one_result_per_point(self):
        results = load_sweep("contrarian", (2, 4), tiny_config())
        assert [result.clients for result in results] == [2, 4]


class TestReportHelpers:
    def _fake_results(self, protocol, latencies, throughputs):
        results = []
        for clients, (latency, throughput) in enumerate(zip(latencies, throughputs), 1):
            outcome = run_experiment(protocol, tiny_config(clients_per_dc=2))
            results.append(outcome.result)
        return results

    def test_format_table_alignment(self):
        text = format_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_series_contains_all_systems(self):
        results = load_sweep("contrarian", (2,), tiny_config())
        text = format_series({"contrarian": results}, include_p99=True)
        assert "contrarian" in text
        assert "ROT p99" in text

    def test_peak_and_lowest_load_helpers(self):
        results = load_sweep("contrarian", (2, 5), tiny_config())
        assert peak_throughput(results) == max(r.throughput_kops for r in results)
        assert latency_at_lowest_load(results) == results[0].rot_mean_ms
        assert peak_throughput([]) == 0.0
        assert latency_at_lowest_load([]) == 0.0

    def test_crossover_load(self):
        reference = load_sweep("cure", (2, 4), tiny_config())
        challenger = load_sweep("contrarian", (2, 4), tiny_config())
        crossover = crossover_load(reference, challenger)
        assert crossover is None or crossover > 0.0


class TestFiguresAndTables:
    def test_figure_result_to_text(self):
        result = FigureResult(name="Figure X", caption="test",
                              series={"contrarian": load_sweep(
                                  "contrarian", (2,), tiny_config())},
                              extra_rows=[{"clients": 2, "ids": 1.0}])
        text = result.to_text()
        assert "Figure X" in text
        assert "clients" in text

    def test_figure6_reports_readers_check_growth(self):
        # max_workers=1 keeps this unit test in-process; the pool path is
        # covered by tests/test_harness_parallel.py.
        figure = figure6_readers_check_overhead(client_counts=(2, 4),
                                                config=tiny_config(),
                                                max_workers=1)
        assert len(figure.extra_rows) == 2
        assert figure.extra_rows[0]["clients"] < figure.extra_rows[1]["clients"]
        assert all(row["readers_checks"] > 0 for row in figure.extra_rows)

    def test_table1_lists_all_parameters(self):
        text = table1_workloads()
        assert "Write/read ratio" in text
        assert "0.05*" in text
        assert "zipfian" in text

    def test_table2_contains_every_system(self):
        text = table2_characterization()
        for name in ("COPS", "Eiger", "Cure", "Contrarian", "COPS-SNOW"):
            assert name in text

    def test_table2_with_measured_rows(self):
        outcome = run_experiment("contrarian", tiny_config())
        text = table2_characterization({"contrarian": outcome.result})
        assert "Measured overhead" in text


class TestReplicationAccounting:
    @pytest.mark.slow
    def test_summary_aggregates_counters(self):
        outcome = run_experiment("cc-lo", tiny_config(num_dcs=2, clients_per_dc=3))
        servers = outcome.cluster.topology.all_servers()
        summary = summarize_replication(server.counters for server in servers)
        assert summary.replication_messages > 0
        assert summary.rot_ids_per_check >= 0.0
        assert summary.dependencies_per_update >= 0.0

    def test_empty_summary(self):
        summary = summarize_replication([])
        assert summary.replication_messages == 0
        assert summary.dependencies_per_update == 0.0
        assert summary.rot_ids_per_check == 0.0
