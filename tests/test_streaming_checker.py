"""Streaming checker mechanics: windows, streaming ingestion, re-entrancy.

What the checker decides is tested against the spec-replay oracle in
``tests/test_checker.py``.  The contract pinned here is that *how* a
history reaches the checker does not change its verdict: on any history
whose causal references stay inside the retirement horizon, a windowed
checker produces exactly the report of the offline one
(:meth:`StreamingChecker.offline`, one window that never retires) — same
violation strings in the same order — at every window size, whether the
history arrives at once, op by op or as per-worker chunks, and however
often it is checked mid-run.  The rest pins the windowing machinery (seal
gate, force seal, retirement), the observation buffer, the wire round-trip
of observation chunks, and the end-to-end TCP capture path.
"""

import sys

import pytest

from repro.causal.checker import RecordedPut, RecordedRead, RecordedRot
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


def report_of(puts, rots, checker=None):
    checker = checker or StreamingChecker.offline()
    checker.record_history(puts, rots)
    return checker.check()


def recorded_history(protocol):
    config = ClusterConfig.test_scale(num_dcs=2, clients_per_dc=4,
                                      duration_seconds=0.3,
                                      warmup_seconds=0.05)
    recorder = ObservationBuffer()
    run_experiment(protocol, config, checker=recorder)
    return recorder.drain()


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


class TestWindowedEqualsOffline:
    """Identical reports whatever the window size and ingestion path."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_two_dc_history_reports_are_identical(self, protocol):
        puts, rots = recorded_history(protocol)
        assert puts and rots
        offline = report_of(puts, rots)
        assert offline.ok
        for window_ops in (16, 512):
            assert report_of(puts, rots, StreamingChecker(
                window_ops=window_ops)) == offline

    def test_synthetic_history_reports_are_identical(self):
        puts, rots = materialize(4000, SynthParameters(seed=99))
        offline = report_of(puts, rots)
        assert offline.ok and offline.puts == len(puts)
        for window_ops in (1, 7, 256, 4096):
            assert report_of(puts, rots, StreamingChecker(
                window_ops=window_ops)) == offline

    def test_single_op_ingestion_matches_batch(self):
        puts, rots = materialize(1200, SynthParameters(seed=3))
        checker = StreamingChecker(window_ops=64)
        for kind, op in iter_session_order(puts, rots):
            if kind == "put":
                checker.record_put(op)
            else:
                checker.record_rot(op)
        assert checker.check() == report_of(puts, rots)

    def test_offline_is_one_window_that_never_fills(self):
        checker = StreamingChecker.offline()
        assert checker.window_ops == sys.maxsize
        puts, rots = materialize(1000, SynthParameters(seed=8))
        checker.record_history(puts[:300], rots[:300])
        assert checker.windows_sealed == 0
        checker.check()
        assert checker.windows_sealed == 1
        for start in range(300, 1000, 100):
            checker.record_history(puts[start:start + 100],
                                   rots[start:start + 100])
            checker.check()
        assert checker.versions_retired == 0
        assert checker.live_versions == len(puts)


class TestInjectedViolations:
    """Violations are caught wherever they fall relative to windows."""

    @pytest.mark.parametrize("make_history", [snapshot_violation_history,
                                              session_violation_history])
    @pytest.mark.parametrize("window_ops", [1, 2, 3, 4096])
    def test_violation_inside_across_and_at_window_boundaries(
            self, make_history, window_ops):
        # Three total ops with window sizes 1..3 put the offending ROT in
        # its own window, across a boundary, and flush at the boundary.
        puts, rots = make_history()
        offline = report_of(puts, rots)
        assert not offline.ok
        assert report_of(puts, rots, StreamingChecker(
            window_ops=window_ops)) == offline

    def test_violations_surface_in_the_same_order_across_windows(self):
        base_puts, base_rots = materialize(600, SynthParameters(seed=41))
        vp, vr = snapshot_violation_history()
        sp, sr = session_violation_history()
        puts = base_puts + vp + sp
        rots = base_rots + vr + sr
        offline = report_of(puts, rots)
        assert len(offline.snapshot_violations) == 1
        assert len(offline.session_violations) == 1
        for window_ops in (8, 128):
            assert report_of(puts, rots, StreamingChecker(
                window_ops=window_ops)) == offline


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
        checker.check()
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
    reaches the checker; what the verdict is must not depend on it."""

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

    @pytest.mark.parametrize("window_ops", [64, sys.maxsize])
    def test_chunked_per_worker_ingestion_gives_the_same_report(
            self, window_ops):
        puts, rots = recorded_history("contrarian")
        at_once = report_of(puts, rots)

        # One client worker per DC, as default_placement deploys them.
        clients = list(dict.fromkeys(op.client for op in (*puts, *rots)))
        workers = [clients[:len(clients) // 2], clients[len(clients) // 2:]]
        streams = [
            (f"worker-{number}", self._worker_chunks(
                [put for put in puts if put.client in hosted],
                [rot for rot in rots if rot.client in hosted]))
            for number, hosted in enumerate(workers, start=4)]
        chunked = StreamingChecker(window_ops=window_ops)
        chunks = 0
        for _ in range(7):
            for source, stream in streams:
                chunk_puts, chunk_rots = next(stream)
                chunked.record_history(chunk_puts, chunk_rots, source=source)
                chunks += 1
        assert chunks == 14
        assert at_once.ok and at_once.rots > 0
        assert chunked.check() == at_once


class TestReentrantCheck:
    def test_midrun_check_then_more_operations(self):
        puts, rots = materialize(2000, SynthParameters(seed=17))
        checker = StreamingChecker(window_ops=64)
        half_p, half_r = len(puts) // 2, len(rots) // 2
        checker.record_history(puts[:half_p], rots[:half_r])
        mid = checker.check()
        assert mid.puts == half_p and mid.rots == half_r
        checker.record_history(puts[half_p:], rots[half_r:])
        assert checker.check() == report_of(puts, rots)

    def test_check_is_idempotent(self):
        puts, rots = materialize(500, SynthParameters(seed=2))
        checker = StreamingChecker(window_ops=32)
        checker.record_history(puts, rots)
        assert checker.check() == checker.check()

    def test_midrun_checks_do_not_retire_what_a_session_still_needs(self):
        """A partial window a mid-run check seals does not count toward
        ``retire_lag``: x@2 (DC 0), whose past holds x@1 (DC 1), must stay
        live however often the history is checked, or the reader going
        back to x@1 is not seen."""
        checker = StreamingChecker()
        checker.record_put(put("x", 1, client="w1", seq=1, origin=1))
        checker.record_put(put("x", 2, client="w0", seq=1,
                               deps=[("x", 1, 1)]))
        for seq in range(1, 5):
            checker.record_rot(rot(f"r{seq}", [("x", 2, 0)], client="r",
                                   seq=seq))
            assert checker.check().ok
        checker.record_rot(rot("r9", [("x", 1, 1)], client="r", seq=9))
        assert checker.check().session_violations == [
            "client r: ROT r9 read x@1 after having observed 2 "
            "(origin DC 0)"]
        assert checker.versions_retired == 0

    def test_full_windows_still_retire_after_midrun_checks(self):
        puts, rots = materialize(3000, SynthParameters(seed=21))
        checker = StreamingChecker(window_ops=100, retire_lag=1)
        for start in range(0, len(puts), 50):
            checker.record_history(puts[start:start + 50], ())
            checker.check()
        assert checker.versions_retired > 0
        assert checker.peak_live_versions <= 300


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
        report = checker.check()
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
        assert checker.check().convergence_violations == []

    def test_same_origin_finals_are_not_divergence(self):
        # k@5 and k@6 are unrelated writes stamped by one server in DC 0:
        # the client that last read k@5 is merely behind.
        puts = [put("k", 5, client="w0", seq=1),
                put("k", 6, client="w1", seq=1)]
        rots = [rot("r1", [("k", 5, 0)], client="ca", seq=1),
                rot("r2", [("k", 6, 0)], client="cb", seq=1)]
        checker = StreamingChecker(check_convergence=True)
        checker.record_history(puts, rots)
        assert checker.check().convergence_violations == []

    def test_convergence_is_off_by_default(self):
        puts = [put("k", 5, client="w0", seq=1, origin=0),
                put("k", 6, client="w1", seq=1, origin=1)]
        rots = [rot("r1", [("k", 5, 0)], client="ca", seq=1),
                rot("r2", [("k", 6, 1)], client="cb", seq=1)]
        report = report_of(puts, rots)
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
        chunk = ObservationChunk(puts=tuple(puts), rots=tuple(rots))
        assert decode(encode(chunk)) == chunk
        one_sided = ObservationChunk(puts=(), rots=tuple(rots))
        assert decode(encode(one_sided)) == one_sided


class TestRuntimeSelection:
    def test_a_checker_is_an_instance_on_either_backend(self):
        from repro.api import CausalStore
        checker = StreamingChecker(window_ops=2)
        with CausalStore(checker=checker) as store:
            store.put("x")
            store.rot(["x"])
            assert store.check().ok
        assert checker.recorded_puts == 1 and checker.recorded_rots == 1
        # The name a checker used to be selected by is not a recorder.
        for backend in ("sim", "inproc"):
            with pytest.raises(ConfigurationError, match="record_put"):
                CausalStore(backend=backend, checker="streaming")

    def test_experiment_rejects_what_is_not_a_recorder(self):
        from repro.harness.runner import run_experiment
        for backend in ("inproc", "tcp"):
            with pytest.raises(ConfigurationError, match="record_put"):
                run_experiment("cure", checker="bogus", backend=backend)


@pytest.mark.slow
class TestStreamingOverTcp:
    @pytest.mark.parametrize("make_checker", [lambda: None, StreamingChecker],
                             ids=["default-offline", "streaming"])
    def test_workers_stream_chunks_and_the_run_is_clean(self, make_checker):
        from repro.harness.runner import run_experiment
        from repro.workload.parameters import WorkloadParameters
        config = ClusterConfig.test_scale(num_partitions=2, num_dcs=2,
                                          clients_per_dc=2,
                                          duration_seconds=0.5,
                                          warmup_seconds=0.05)
        checker = make_checker()
        outcome = run_experiment(
            "contrarian", config, WorkloadParameters(rot_size=2),
            backend="tcp", check_consistency=True, checker=checker)
        cluster = outcome.cluster
        assert cluster.chunks_ingested > 0
        assert isinstance(cluster.checker, StreamingChecker)
        assert (cluster.checker.window_ops == sys.maxsize if checker is None
                else cluster.checker is checker)
        report = outcome.checker_report
        assert report.ok
        assert report.puts > 0 and report.rots > 0

    def test_inproc_realtime_run_with_streaming_checker(self):
        from repro.harness.runner import run_experiment
        checker = StreamingChecker()
        outcome = run_experiment(
            "cure", ClusterConfig.test_scale(duration_seconds=0.4),
            backend="inproc", check_consistency=True, checker=checker)
        assert outcome.cluster.checker is checker
        assert outcome.checker_report.ok
        assert outcome.checker_report.rots > 0
