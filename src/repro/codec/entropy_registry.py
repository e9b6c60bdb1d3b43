"""The entropy-backend registry: backend names -> coder instances.

The coders live in :mod:`repro.codec.entropy` (``"cacm"``) and
:mod:`repro.codec.rans` (``"rans"``), both NumPy modules; the registry
names them as ``"module:attr"`` built-ins and imports one on its first
lookup.  So listing backends and validating a config's
``entropy_backend`` (:func:`validate_entropy_backend`) load no NumPy.
:mod:`repro.codec.entropy` re-exports every name here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._registry import Registry

if TYPE_CHECKING:
    from .entropy import EntropyBackend

__all__ = [
    "EntropyBackendError",
    "available_entropy_backends",
    "get_entropy_backend",
    "register_entropy_backend",
    "unregister_entropy_backend",
    "validate_entropy_backend",
]


class EntropyBackendError(ValueError):
    """Registration conflict or unknown-backend lookup."""


_ENTROPY_BACKENDS = Registry(
    "entropy backend",
    EntropyBackendError,
    builtins={
        "cacm": "repro.codec.entropy:CacmBackend",
        "rans": "repro.codec.rans:RansBackend",
    },
)


def register_entropy_backend(
    name: str, backend: EntropyBackend, *, overwrite: bool = False
) -> EntropyBackend:
    """Register an entropy backend instance under ``name``.

    Mirrors :func:`repro.pipeline.registry.register_codec`:
    re-registering an existing name raises unless ``overwrite=True``.
    """
    return _ENTROPY_BACKENDS.add(name, backend, overwrite=overwrite)


def unregister_entropy_backend(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown).
    The built-ins ``"cacm"`` and ``"rans"`` come back on the next
    lookup."""
    _ENTROPY_BACKENDS.remove(name)


def available_entropy_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return _ENTROPY_BACKENDS.names()


def get_entropy_backend(name: str) -> EntropyBackend:
    """Look up a backend, with a helpful unknown-name error."""
    return _ENTROPY_BACKENDS.get(name)


def validate_entropy_backend(name: str) -> None:
    """Refuse an unknown backend name with :func:`get_entropy_backend`'s
    error, without importing a built-in coder (the check every codec
    config runs at construction)."""
    _ENTROPY_BACKENDS.get(name, load=False)
