#!/usr/bin/env python3
"""Quickstart: the paper's API on a simulated causally consistent store.

Creates a small Contrarian cluster, performs a few PUTs and read-only
transactions (ROTs) through the :class:`repro.CausalStore` facade, shows the
simulated latency of every operation, and validates the whole history with
the causal-consistency checker.

Run with::

    python examples/quickstart.py
"""

from repro import CausalStore
from repro.harness import run_experiment


def drive_the_store() -> None:
    print("=== CausalStore quickstart (Contrarian, 4 partitions, 1 DC) ===")
    store = CausalStore(protocol="contrarian", num_partitions=4)

    # Single-key writes create new versions; the returned value is the
    # version's timestamp in the protocol's clock domain.
    cart = store.put("cart:alice")
    balance = store.put("balance:alice")
    print(f"PUT cart:alice    -> version {cart.values['cart:alice']} "
          f"({cart.latency_ms:.3f} ms simulated)")
    print(f"PUT balance:alice -> version {balance.values['balance:alice']} "
          f"({balance.latency_ms:.3f} ms simulated)")

    # A ROT reads multiple keys from one causally consistent snapshot.
    snapshot = store.rot(["cart:alice", "balance:alice"])
    print(f"ROT(cart, balance) -> {snapshot.values} "
          f"({snapshot.latency_ms:.3f} ms simulated)")

    # The recorded history can be validated against the causal model.
    report = store.check()
    violations = (len(report.snapshot_violations)
                  + len(report.session_violations)
                  + len(report.convergence_violations))
    print(f"history check: {report.puts} PUTs, {report.rots} ROTs, "
          f"violations={violations}")


def run_a_workload() -> None:
    print("\n=== Workload-driven run (default read-heavy workload) ===")
    outcome = run_experiment("contrarian")
    row = outcome.result.as_row()
    print(f"protocol={row['protocol']}  clients={row['clients']}  "
          f"throughput={row['throughput_kops']} Kops/s  "
          f"ROT avg={row['rot_avg_ms']} ms  p99={row['rot_p99_ms']} ms  "
          f"PUT avg={row['put_avg_ms']} ms")


def main() -> None:
    drive_the_store()
    run_a_workload()


if __name__ == "__main__":
    main()
