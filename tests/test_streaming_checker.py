"""Streaming GSS-windowed checker tests: equivalence, windows, streaming.

The core contract is **byte-identical reports**: on any history whose causal
references stay inside the retirement horizon, the streaming checker must
produce exactly the monolithic checker's :class:`CheckerReport` — same
violation strings in the same order — at every window size, and whether
the history arrives at once or as per-worker chunks.  The rest pins the
windowing machinery (seal gate, force seal, retirement), the observation
buffer, the wire round-trip of observation chunks, and the end-to-end TCP
capture path, which is the same for both checkers.
"""

import pytest

from repro.causal.checker import (CausalConsistencyChecker, RecordedPut,
                                  RecordedRead, RecordedRot)
from repro.causal.streaming import (ObservationBuffer, StreamingChecker,
                                    iter_session_order)
from repro.causal.synth import SynthParameters, materialize
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError, SimulationError
from repro.harness.runner import run_experiment

PROTOCOLS = ("contrarian", "cure", "cc-lo")


def put(key, ts, client="writer", seq=1, deps=(), origin=0):
    return RecordedPut(key=key, timestamp=ts, origin_dc=origin,
                       client=client, sequence=seq,
                       dependencies=tuple(deps))


def rot(rot_id, reads, client="reader", seq=1):
    return RecordedRot(rot_id=rot_id, client=client, sequence=seq,
                       reads=tuple(RecordedRead(key=k, timestamp=t,
                                                origin_dc=o)
                                   for k, t, o in reads))


def monolithic_report(puts, rots):
    checker = CausalConsistencyChecker()
    for p in puts:
        checker.record_put(p)
    for r in rots:
        checker.record_rot(r)
    return checker.check()


def streaming_report(puts, rots, **kwargs):
    checker = StreamingChecker(**kwargs)
    checker.record_history(puts, rots)
    return checker.finish()


def assert_reports_identical(mono, stream):
    assert mono.puts == stream.puts
    assert mono.rots == stream.rots
    assert mono.snapshot_violations == stream.snapshot_violations
    assert mono.session_violations == stream.session_violations


def snapshot_violation_history():
    """x@2 depends on y@1; a ROT pairing x@2 with initial y@0 is stale."""
    puts = [put("y", 1, client="w", seq=1),
            put("x", 2, client="w", seq=2, deps=[("y", 1, 0)])]
    rots = [rot("r1", [("x", 2, 0), ("y", 0, 0)], client="rd", seq=1)]
    return puts, rots


def session_violation_history():
    """A client observes x@4 then reads its ancestor x@3."""
    puts = [put("x", 3, client="w", seq=1),
            put("x", 4, client="w", seq=2, deps=[("x", 3, 0)])]
    rots = [rot("r1", [("x", 4, 0)], client="rd", seq=1),
            rot("r2", [("x", 3, 0)], client="rd", seq=2)]
    return puts, rots


class TestEquivalenceOnProtocolHistories:
    """Identical reports on real recorded histories from all protocols."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_two_dc_history_reports_are_identical(self, protocol):
        config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=4,
                                          duration_seconds=0.3,
                                          warmup_seconds=0.05)
        outcome = run_experiment(protocol, config, enable_checker=True)
        puts, rots = outcome.cluster.checker.recorded_history()
        assert puts and rots
        mono = outcome.checker_report
        for window_ops in (16, 512):
            stream = streaming_report(puts, rots, window_ops=window_ops)
            assert_reports_identical(mono, stream)

    def test_synthetic_history_reports_are_identical(self):
        puts, rots = materialize(4000, SynthParameters(seed=99))
        mono = monolithic_report(puts, rots)
        assert mono.ok
        for window_ops in (1, 7, 256, 4096):
            stream = streaming_report(puts, rots, window_ops=window_ops)
            assert_reports_identical(mono, stream)

    def test_single_op_ingestion_matches_batch(self):
        puts, rots = materialize(1200, SynthParameters(seed=3))
        mono = monolithic_report(puts, rots)
        checker = StreamingChecker(window_ops=64)
        for kind, op in iter_session_order(puts, rots):
            if kind == "put":
                checker.record_put(op)
            else:
                checker.record_rot(op)
        assert_reports_identical(mono, checker.finish())


class TestInjectedViolations:
    """Violations are caught wherever they fall relative to windows."""

    @pytest.mark.parametrize("make_history", [snapshot_violation_history,
                                              session_violation_history])
    def test_violation_inside_one_window(self, make_history):
        puts, rots = make_history()
        mono = monolithic_report(puts, rots)
        assert not mono.ok
        stream = streaming_report(puts, rots, window_ops=4096)
        assert_reports_identical(mono, stream)

    @pytest.mark.parametrize("make_history", [snapshot_violation_history,
                                              session_violation_history])
    @pytest.mark.parametrize("window_ops", [1, 2, 3])
    def test_violation_across_and_at_window_boundaries(self, make_history,
                                                       window_ops):
        # Three total ops with window sizes 1..3 put the offending ROT in
        # its own window, across a boundary, and flush at the boundary.
        puts, rots = make_history()
        mono = monolithic_report(puts, rots)
        assert not mono.ok
        stream = streaming_report(puts, rots, window_ops=window_ops)
        assert_reports_identical(mono, stream)

    def test_violations_surface_in_monolithic_order_across_windows(self):
        base_puts, base_rots = materialize(600, SynthParameters(seed=41))
        vp, vr = snapshot_violation_history()
        sp, sr = session_violation_history()
        puts = base_puts + vp + sp
        rots = base_rots + vr + sr
        mono = monolithic_report(puts, rots)
        assert len(mono.snapshot_violations) == 1
        assert len(mono.session_violations) == 1
        for window_ops in (8, 128):
            stream = streaming_report(puts, rots, window_ops=window_ops)
            assert_reports_identical(mono, stream)


class TestWindowMechanics:
    def test_single_source_windows_seal_by_op_count(self):
        puts, rots = materialize(1000, SynthParameters(seed=5))
        checker = StreamingChecker(window_ops=100)
        checker.record_history(puts, rots)
        assert checker.windows_sealed == 10
        assert checker.force_seals == 0

    def test_lagging_source_defers_the_seal_gate(self):
        checker = StreamingChecker(window_ops=2)
        # Source "b" has announced origin-0 progress only up to ts 1, so a
        # window whose high-water is ts 3 cannot seal yet.
        checker.record_history([put("z", 1, client="other", seq=1)], [],
                               source="b")
        checker.record_history(
            [put("x", 2, client="w", seq=1),
             put("x", 3, client="w", seq=2, deps=[("x", 2, 0)])],
            [], source="a")
        sealed_before = checker.windows_sealed
        # Once "b" catches up past ts 3, the frozen window seals.
        checker.record_history([put("y", 4, client="other", seq=2)], [],
                               source="b")
        assert checker.windows_sealed > sealed_before

    def test_stalled_source_triggers_the_force_seal_backstop(self):
        checker = StreamingChecker(window_ops=2, force_seal_factor=2)
        checker.record_history([put("z", 1, client="other", seq=1)], [],
                               source="stalled")
        puts = [put("x", ts, client="w", seq=ts,
                    deps=[("x", ts - 1, 0)] if ts > 2 else [])
                for ts in range(2, 12)]
        checker.record_history(puts, [], source="fast")
        assert checker.force_seals > 0
        assert checker.windows_sealed > 0

    def test_retirement_bounds_the_live_set(self):
        puts, rots = materialize(4000, SynthParameters(seed=13))
        checker = StreamingChecker(window_ops=64, retire_lag=1)
        for start in range(0, len(puts), 200):
            checker.record_history(puts[start:start + 200], ())
        checker.record_history((), rots)
        checker.finish()
        assert checker.versions_retired > 0
        assert checker.peak_live_versions < checker.recorded_puts

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(SimulationError):
            StreamingChecker(window_ops=0)
        with pytest.raises(SimulationError):
            StreamingChecker(retire_lag=0)
        with pytest.raises(SimulationError):
            StreamingChecker(force_seal_factor=0)


class TestOneIngestionPath:
    """``record_history(puts, rots, source=)`` is how a worker's chunk
    reaches either checker; what the verdict is must not depend on it."""

    @staticmethod
    def _worker_chunks(puts, rots, pieces=7):
        """One worker's log cut into ``pieces`` uneven chunks, in an order a
        flusher could have produced (every client's sequence ascending)."""
        ops = list(iter_session_order(puts, rots))
        cuts = sorted({len(ops) * share // 100
                       for share in (3, 11, 30, 34, 61, 93)})
        assert len(cuts) == pieces - 1
        for start, end in zip([0] + cuts, cuts + [len(ops)]):
            piece = ops[start:end]
            yield ([op for kind, op in piece if kind == "put"],
                   [op for kind, op in piece if kind == "rot"])

    @pytest.mark.parametrize("make_checker", [CausalConsistencyChecker,
                                              StreamingChecker])
    def test_chunked_per_worker_ingestion_gives_the_same_report(
            self, make_checker):
        config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=4,
                                          duration_seconds=0.3,
                                          warmup_seconds=0.05)
        outcome = run_experiment("contrarian", config, enable_checker=True)
        puts, rots = outcome.cluster.checker.recorded_history()
        at_once = make_checker()
        at_once.record_history(puts, rots)

        # One client worker per DC, as default_placement deploys them.
        clients = list(dict.fromkeys(op.client for op in (*puts, *rots)))
        workers = [clients[:len(clients) // 2], clients[len(clients) // 2:]]
        streams = [
            (f"worker-{number}", self._worker_chunks(
                [put for put in puts if put.client in hosted],
                [rot for rot in rots if rot.client in hosted]))
            for number, hosted in enumerate(workers, start=4)]
        chunked = make_checker()
        chunks = 0
        for _ in range(7):
            for source, stream in streams:
                chunk_puts, chunk_rots = next(stream)
                chunked.record_history(chunk_puts, chunk_rots, source=source)
                chunks += 1
        assert chunks == 14
        assert outcome.checker_report.rots > 0
        assert at_once.check() == outcome.checker_report
        assert chunked.check() == outcome.checker_report


class TestReentrantFinish:
    def test_midrun_check_then_more_operations(self):
        puts, rots = materialize(2000, SynthParameters(seed=17))
        mono = monolithic_report(puts, rots)
        checker = StreamingChecker(window_ops=64)
        half_p, half_r = len(puts) // 2, len(rots) // 2
        checker.record_history(puts[:half_p], rots[:half_r])
        mid = checker.finish()
        assert mid.puts == half_p and mid.rots == half_r
        checker.record_history(puts[half_p:], rots[half_r:])
        assert_reports_identical(mono, checker.finish())

    def test_finish_is_idempotent(self):
        puts, rots = materialize(500, SynthParameters(seed=2))
        checker = StreamingChecker(window_ops=32)
        checker.record_history(puts, rots)
        first = checker.finish()
        second = checker.finish()
        assert_reports_identical(first, second)


class TestConvergence:
    def test_divergent_cross_dc_finals_are_flagged(self):
        # Two concurrent writes to k from different DCs; each client's last
        # read returns a different one and neither precedes the other.
        puts = [put("k", 5, client="w0", seq=1, origin=0),
                put("k", 6, client="w1", seq=1, origin=1)]
        rots = [rot("r1", [("k", 5, 0)], client="ca", seq=1),
                rot("r2", [("k", 6, 1)], client="cb", seq=1)]
        checker = StreamingChecker(check_convergence=True)
        checker.record_history(puts, rots)
        report = checker.finish()
        assert len(report.convergence_violations) == 1
        assert "divergent final reads" in report.convergence_violations[0]
        assert not report.ok

    def test_causally_ordered_finals_are_not_divergence(self):
        puts = [put("k", 5, client="w0", seq=1, origin=0),
                put("k", 6, client="w1", seq=1, origin=1,
                    deps=[("k", 5, 0)])]
        rots = [rot("r1", [("k", 5, 0)], client="ca", seq=1),
                rot("r2", [("k", 6, 1)], client="cb", seq=1)]
        checker = StreamingChecker(check_convergence=True)
        checker.record_history(puts, rots)
        assert checker.finish().convergence_violations == []

    def test_convergence_is_off_by_default(self):
        puts = [put("k", 5, client="w0", seq=1, origin=0),
                put("k", 6, client="w1", seq=1, origin=1)]
        rots = [rot("r1", [("k", 5, 0)], client="ca", seq=1),
                rot("r2", [("k", 6, 1)], client="cb", seq=1)]
        report = streaming_report(puts, rots)
        assert report.convergence_violations == []
        assert report.ok


class TestObservationBuffer:
    def test_record_drain_cycle(self):
        buffer = ObservationBuffer()
        p = put("a", 1)
        r = rot("r1", [("a", 1, 0)])
        buffer.record_put(p)
        buffer.record_rot(r)
        assert buffer.pending == 2
        puts, rots = buffer.drain()
        assert puts == (p,) and rots == (r,)
        assert buffer.pending == 0
        assert buffer.drain() == ((), ())


class TestObservationWire:
    def test_observation_chunk_round_trips(self):
        from repro.runtime.process import ObservationChunk
        from repro.wire.codec import decode, encode

        puts, rots = materialize(200, SynthParameters(seed=7))
        chunk = ObservationChunk(worker_id=3, puts=tuple(puts),
                                 rots=tuple(rots))
        assert decode(encode(chunk)) == chunk
        one_sided = ObservationChunk(worker_id=4, puts=(), rots=tuple(rots))
        assert decode(encode(one_sided)) == one_sided


class TestRuntimeSelection:
    def test_a_checker_is_an_instance_and_needs_the_realtime_backend(self):
        from repro.api import CausalStore
        with pytest.raises(ConfigurationError, match="realtime"):
            CausalStore(backend="sim", checker=StreamingChecker())
        # The name a checker used to be selected by is not a recorder.
        with pytest.raises(ConfigurationError, match="record_put"):
            CausalStore(backend="realtime", checker="streaming")

    def test_experiment_rejects_what_is_not_a_recorder(self):
        from repro.runtime.experiment import run_realtime_experiment
        for transport in ("inproc", "tcp"):
            with pytest.raises(ConfigurationError, match="record_put"):
                run_realtime_experiment("cure", checker="bogus",
                                        transport=transport)


@pytest.mark.slow
class TestStreamingOverTcp:
    @pytest.mark.parametrize("make_checker", [lambda: None, StreamingChecker],
                             ids=["default-monolithic", "streaming"])
    def test_workers_stream_chunks_and_the_run_is_clean(self, make_checker):
        from repro.runtime.experiment import run_realtime_experiment
        from repro.workload.parameters import WorkloadParameters
        config = ClusterConfig.test_scale(num_partitions=2, num_dcs=2,
                                          clients_per_dc=2,
                                          warmup_seconds=0.05)
        checker = make_checker()
        outcome = run_realtime_experiment(
            "contrarian", config, WorkloadParameters(rot_size=2),
            duration_seconds=0.5, transport="tcp",
            check_consistency=True, checker=checker)
        cluster = outcome.cluster
        assert cluster.chunks_ingested > 0
        assert isinstance(cluster.checker, CausalConsistencyChecker
                          if checker is None else StreamingChecker)
        assert checker is None or cluster.checker is checker
        report = outcome.checker_report
        assert report.ok
        assert report.puts > 0 and report.rots > 0

    def test_inproc_realtime_run_with_streaming_checker(self):
        from repro.runtime.experiment import run_realtime_experiment
        checker = StreamingChecker()
        outcome = run_realtime_experiment(
            "cure", ClusterConfig.test_scale(), duration_seconds=0.4,
            transport="inproc", check_consistency=True, checker=checker)
        assert outcome.cluster.checker is checker
        assert outcome.checker_report.ok
        assert outcome.checker_report.rots > 0
