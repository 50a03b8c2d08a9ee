"""Protocol registry and static characterisation (Table 2).

The registry maps protocol names to a :class:`ProtocolSpec` — the sans-I/O
kernel classes every backend runs and the static properties the paper
tabulates in Table 2 — and is the one place kernels are built from a cluster
configuration.  It is *extensible*: :func:`register_protocol` adds (or
replaces) an entry, so an external design plugs into the harness, the
builder and the real-time backend by supplying two kernel classes, without
editing this module or writing a driver; a bad lookup raises
:class:`~repro.errors.ConfigurationError` listing every known name.

This module must stay importable without ``repro.sim``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.cluster.seeding import node_rng
from repro.core.cclo.kernel import CcloClientKernel, CcloKernel
from repro.core.common.kernel import client_node_id
from repro.core.vector.kernel import (
    ContrarianClientKernel,
    ContrarianKernel,
    CureClientKernel,
    CureKernel,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProtocolProperties:
    """Static, per-design properties reported in Table 2 of the paper."""

    name: str
    nonblocking: bool
    rot_rounds: str
    rot_versions: int
    write_cost_client_server: str
    write_cost_server_server: str
    metadata_client_server: str
    metadata_server_server: str
    clock: str
    latency_optimal: bool


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the builders know about one registered protocol.

    ``kernel`` / ``client_kernel`` are the sans-I/O state machines; each
    exposes a ``from_config(config, ...)`` factory (see
    :class:`repro.core.common.kernel.ServerKernel`).  Both backends build
    their kernels through :meth:`build_server_kernel` /
    :meth:`build_client_kernel`, so a node draws the same random streams
    wherever it is instantiated.

    ``transports`` lists the wall-clock backends the protocol supports
    (a subset of ``("inproc", "tcp")``, see
    :data:`repro.harness.runner.BACKENDS`).  The built-ins support both; an
    external design whose messages are not wire-registered can declare
    ``("inproc",)`` and :class:`~repro.runtime.process.ProcessCluster`
    refuses it with a typed error instead of failing mid-run.
    """

    name: str
    kernel: type
    client_kernel: type
    properties: Optional[ProtocolProperties] = None
    transports: tuple[str, ...] = ("inproc", "tcp")

    def build_server_kernel(self, config, dc: int, partition: int, *,
                            partitioner, time_source):
        """The kernel of partition ``partition`` in data center ``dc``.

        Its clock-skew offset is drawn from the node's own derived stream
        (kernels without a physical clock ignore it).
        """
        offset = config.skew_model.draw_offset(
            node_rng(config.seed, "clock-skew", dc, partition))
        return self.kernel.from_config(
            config, dc, partition, partitioner=partitioner,
            time_source=time_source, skew_offset_us=offset)

    def build_client_kernel(self, config, dc: int, index: int, *,
                            partitioner) -> tuple[object, random.Random]:
        """The kernel of client ``index`` in ``dc``, and the client's RNG.

        The kernel draws from that RNG (coordinator choices); a driver with
        draws of its own (the simulated client's start jitter) must take
        them from the same object to keep the interleaving of a seed stable.
        """
        rng = node_rng(config.seed, "client", dc, index)
        kernel = self.client_kernel.from_config(
            config, client_node_id(dc, index), dc, partitioner=partitioner,
            rng=rng)
        return kernel, rng


#: Live registry; mutated only through :func:`register_protocol`.
_SPECS: dict[str, ProtocolSpec] = {}


def register_protocol(name: str, *, kernel: type, client_kernel: type,
                      properties: Optional[ProtocolProperties] = None,
                      transports: tuple[str, ...] = ("inproc", "tcp"),
                      replace: bool = False) -> ProtocolSpec:
    """Register a runnable protocol under ``name``.

    Parameters
    ----------
    kernel / client_kernel:
        Sans-I/O kernel classes with the ``from_config`` factories of
        :class:`~repro.core.common.kernel.ServerKernel` /
        :class:`~repro.core.common.kernel.ClientKernel`; every backend
        hosts them unchanged.
    properties:
        Table-2 row for the design (optional).
    transports:
        Real-time transports the design supports; pass ``("inproc",)`` for
        a design whose message types are not wire-registered.
    replace:
        Allow overwriting an existing registration (default: refuse, so two
        plugins cannot silently shadow each other).
    """
    if not replace and name in _SPECS:
        raise ConfigurationError(
            f"protocol {name!r} is already registered; "
            f"pass replace=True to override")
    spec = ProtocolSpec(name=name, kernel=kernel, client_kernel=client_kernel,
                        properties=properties, transports=tuple(transports))
    _SPECS[name] = spec
    return spec


def unregister_protocol(name: str) -> None:
    """Remove a registration (primarily for tests of the registry itself)."""
    _SPECS.pop(name, None)


def resolve_spec(name: str) -> ProtocolSpec:
    """The full :class:`ProtocolSpec` of a registered protocol."""
    try:
        return _SPECS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown protocol {name!r}; known: {sorted(_SPECS)}") from exc


def protocol_properties(name: str) -> ProtocolProperties:
    """Table-2 properties of an implemented protocol."""
    spec = resolve_spec(name)
    if spec.properties is None:
        raise ConfigurationError(
            f"protocol {name!r} registered without Table-2 properties")
    return spec.properties


def implemented_protocols() -> tuple[str, ...]:
    """Names of protocols that can actually be run (on every backend)."""
    return tuple(_SPECS)


def transport_protocols(transport: str) -> tuple[str, ...]:
    """Names of protocols that support the given real-time transport."""
    return tuple(name for name, spec in _SPECS.items()
                 if transport in spec.transports)


# --------------------------------------------------------------------------
# Built-in registrations
# --------------------------------------------------------------------------

register_protocol(
    "contrarian",
    kernel=ContrarianKernel, client_kernel=ContrarianClientKernel,
    properties=ProtocolProperties(
        name="Contrarian", nonblocking=True, rot_rounds="1 1/2 (or 2)",
        rot_versions=1, write_cost_client_server="1",
        write_cost_server_server="-", metadata_client_server="M",
        metadata_server_server="-", clock="Hybrid", latency_optimal=False))

register_protocol(
    "cure",
    kernel=CureKernel, client_kernel=CureClientKernel,
    properties=ProtocolProperties(
        name="Cure", nonblocking=False, rot_rounds="2", rot_versions=1,
        write_cost_client_server="1", write_cost_server_server="-",
        metadata_client_server="M", metadata_server_server="-",
        clock="Physical", latency_optimal=False))

register_protocol(
    "cc-lo",
    kernel=CcloKernel, client_kernel=CcloClientKernel,
    properties=ProtocolProperties(
        name="COPS-SNOW (CC-LO)", nonblocking=True, rot_rounds="1",
        rot_versions=1, write_cost_client_server="1",
        write_cost_server_server="O(N)", metadata_client_server="|deps|",
        metadata_server_server="O(K)", clock="Logical", latency_optimal=True))


#: Table 2 rows for systems the paper surveys but does not evaluate; these are
#: reported verbatim for completeness of the generated table.
_SURVEYED_PROPERTIES: tuple[ProtocolProperties, ...] = (
    ProtocolProperties("COPS", True, "<= 2", 2, "1", "-", "|deps|", "-",
                       "Logical", False),
    ProtocolProperties("Eiger", True, "<= 2", 2, "1", "-", "|deps|", "-",
                       "Logical", False),
    ProtocolProperties("ChainReaction", False, ">= 2", 1, "1", ">= 1",
                       "|deps|", "M", "Logical", False),
    ProtocolProperties("Orbe", False, "2", 1, "1", "-", "NxM", "-",
                       "Logical", False),
    ProtocolProperties("GentleRain", False, "2", 1, "1", "-", "1", "-",
                       "Physical", False),
    ProtocolProperties("Occult", True, ">= 1", 1, "1", "-", "O(P)", "-",
                       "Hybrid", False),
    ProtocolProperties("POCC", False, "2", 1, "1", "-", "M", "-",
                       "Physical", False),
)


def surveyed_properties() -> tuple[ProtocolProperties, ...]:
    """Table-2 rows of systems the paper surveys but does not evaluate."""
    return _SURVEYED_PROPERTIES


__all__ = [
    "ProtocolProperties",
    "ProtocolSpec",
    "implemented_protocols",
    "protocol_properties",
    "register_protocol",
    "resolve_spec",
    "surveyed_properties",
    "transport_protocols",
    "unregister_protocol",
]
