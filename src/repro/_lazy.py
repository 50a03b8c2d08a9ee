"""Shared PEP 562 lazy-export machinery for the package ``__init__`` files.

Several packages resolve their exports lazily so that importing a sans-I/O
kernel module never drags in the simulator.  Each ``__init__`` declares an
``{export_name: defining_module}`` mapping and calls :func:`make_lazy` for
its ``__getattr__``/``__dir__`` pair — one implementation for all of them.

Attribute access falls back to submodules: ``repro.harness`` resolves even
though ``harness`` is not an export, matching the behaviour of the old eager
``__init__`` files (which imported their submodules as a side effect).

This module must stay importable without ``repro.sim`` (it only uses
:mod:`importlib`).
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Mapping


def make_lazy(package: str, exports: Mapping[str, str],
              namespace: dict) -> tuple[Callable, Callable]:
    """Build the ``(__getattr__, __dir__)`` pair for ``package``.

    Parameters
    ----------
    package:
        The package's ``__name__``.
    exports:
        ``{attribute: module}`` — where each lazily exported name lives.
    namespace:
        The package's ``globals()``; resolved values are cached there so the
        import machinery runs once per name.
    """

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is not None:
            value = getattr(import_module(module_name), name)
        else:
            # Submodule access (``repro.harness``), as eager packages allow.
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    # A real failure *inside* an existing submodule's import
                    # chain — masking it as AttributeError hides the cause.
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__all__ = ["make_lazy"]
