"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` lists its public names by defining submodule and
imports none of them::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".bitstream": ("StreamReader", "StreamWriter"),
        "repro.codec.entropy": ("available_entropy_backends",),
    })

``pkg.StreamReader`` (or ``from pkg import StreamReader``) imports
``pkg.bitstream`` on first access and caches the object in the
package's globals, so later lookups never reach ``__getattr__``;
``pkg.bitstream`` itself resolves the same way.  A command therefore
pays only for the modules it touches: ``repro serve`` loads the queue
and HTTP modules, not NumPy and the codec stack.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``,
    which maps each defining module (relative to ``package``, or
    absolute) to the names it exports."""
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            # a submodule, which an eager ``__init__`` used to bind
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__
