"""Table 2 — characterisation of CC systems with ROT support.

Regenerates the static columns of the paper's Table 2 from the protocol
registry and appends measured columns (throughput, latencies, messages, ROT
ids per readers check) from one bench-scale run per implemented system.
"""

from repro.harness.tables import measure_characterization, table2_characterization

from bench_utils import dump_results, run_once


def test_table2_characterization(benchmark, bench_config):
    def regenerate():
        measured = measure_characterization(clients=16, config=bench_config)
        return table2_characterization(measured), measured

    text, measured = run_once(benchmark, regenerate)
    print("\n" + text)
    dump_results("table2", text)

    # The static rows cover every system of the paper's table.
    for name in ("COPS", "Eiger", "ChainReaction", "Orbe", "GentleRain",
                 "Cure", "Occult", "POCC", "COPS-SNOW", "Contrarian"):
        assert name in text

    # Only the latency-optimal design pays a readers check on writes.
    assert measured["cc-lo"].overhead.readers_checks > 0
    assert measured["contrarian"].overhead.readers_checks == 0
    assert measured["cure"].overhead.readers_checks == 0
    # Only the physical-clock design blocks reads.
    assert measured["cure"].overhead.blocked_reads > 0
    assert measured["contrarian"].overhead.blocked_reads == 0
    assert measured["cc-lo"].overhead.blocked_reads == 0
