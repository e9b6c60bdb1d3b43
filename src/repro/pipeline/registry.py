"""String-keyed codec registry: the package's pluggable codec surface.

Callers name a codec (``"ctvc"``, ``"classical"``) instead of importing
and wiring a concrete class; new variants — including RD-model-backed
pseudo-codecs — plug in with one :func:`register_codec` call and every
facade/CLI/sweep path picks them up without modification.  This is the
first of the six seams mapped in ``docs/architecture.md``.  The
built-in codecs register by name (``"module:attr"``): a codec's module,
and with it NumPy and SciPy, loads on the first :func:`codec_spec` or
:func:`create_codec` of it, while :func:`available_codecs` and the
config classes (:mod:`repro.codec.configs`) load neither.

Note on distribution: sweep workers in other *processes* resolve codec
names against their own copy of this registry, so a custom codec must
be registered at import time of a module the worker also imports —
runtime registrations only reach the runner's in-process drain and,
under the ``fork`` start method, worker processes (see ``docs/distributed.md``).

>>> from repro.pipeline import available_codecs, create_codec
>>> available_codecs()
['classical', 'ctvc', 'rd-model']
>>> codec = create_codec("ctvc", channels=12, qstep=8.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro._registry import Registry
from repro.codec.configs import ClassicalCodecConfig, CTVCConfig, RDModelConfig
from repro.serialization import SerializableConfig

if TYPE_CHECKING:
    import numpy as np

    from repro.codec import DecoderSession, EncoderSession, SequenceBitstream

__all__ = [
    "CodecRegistryError",
    "CodecSpec",
    "VideoCodec",
    "available_codecs",
    "codec_config",
    "codec_spec",
    "create_codec",
    "register_codec",
    "unregister_codec",
]


class CodecRegistryError(ValueError):
    """Registration conflict or unknown-codec lookup."""


@runtime_checkable
class VideoCodec(Protocol):
    """What the pipeline requires of a codec.

    Both ``CTVCNet`` and ``ClassicalCodec`` satisfy this structurally;
    third-party codecs need the batch pair, the streaming session pair
    (``open_encoder``/``open_decoder`` — a buffering codec may emit
    zero or several packets per ``push``), and a ``config`` attribute.
    A codec that cannot stream should still define the session methods
    and raise a clear error from them (as the ``rd-model``
    pseudo-codec does).
    """

    config: Any

    def encode_sequence(self, frames: list[np.ndarray]) -> SequenceBitstream:
        ...

    def decode_sequence(self, stream: SequenceBitstream) -> list[np.ndarray]:
        ...

    def open_encoder(self) -> EncoderSession:
        ...

    def open_decoder(
        self, header: dict | None = None, version: int = 2
    ) -> DecoderSession:
        ...


@dataclass(frozen=True)
class CodecSpec:
    """One registry entry: how to build a codec and its config."""

    name: str
    factory: Callable[..., VideoCodec]
    config_cls: type[SerializableConfig]
    description: str = ""


#: built-in codecs: name -> (factory as "module:attr", config class,
#: description, whether the factory only simulates)
_BUILTINS = {
    "ctvc": (
        "repro.codec.ctvc:CTVCNet",
        CTVCConfig,
        "CTVC-Net CNN-Transformer hybrid codec (the paper's learned codec)",
        False,
    ),
    "classical": (
        "repro.codec.classical:ClassicalCodec",
        ClassicalCodecConfig,
        "block-DCT hybrid codec (the measured H.26x stand-in)",
        False,
    ),
    "rd-model": (
        "repro.codec.rd_models:RDModelCodec",
        RDModelConfig,
        "calibrated literature RD model (Table I BDBR vs the H.265 anchor); "
        "simulated rate/quality reports, no bitstream",
        True,
    ),
}


def _builtin_spec(name: str, factory: Callable[..., VideoCodec]) -> CodecSpec:
    _, config_cls, description, _ = _BUILTINS[name]
    return CodecSpec(name, factory, config_cls, description)


_CODECS = Registry(
    "codec",
    CodecRegistryError,
    builtins={name: factory for name, (factory, *_) in _BUILTINS.items()},
    make=_builtin_spec,
)


def register_codec(
    name: str,
    factory: Callable[..., VideoCodec],
    config_cls: type[SerializableConfig],
    description: str = "",
    *,
    overwrite: bool = False,
) -> CodecSpec:
    """Register a codec under ``name``.

    ``factory(config)`` must return a :class:`VideoCodec`;
    ``config_cls`` must round-trip through dict/JSON (a
    :class:`~repro.serialization.SerializableConfig`).  Re-registering
    an existing name raises unless ``overwrite=True`` (deliberate, so
    two plugins cannot silently shadow each other).
    """
    return _CODECS.add(
        name, CodecSpec(name, factory, config_cls, description), overwrite=overwrite
    )


def unregister_codec(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _CODECS.remove(name)


def available_codecs() -> list[str]:
    """Sorted names of every registered codec."""
    return _CODECS.names()


def codec_spec(name: str) -> CodecSpec:
    """Look up a registry entry, with a helpful unknown-name error."""
    return _CODECS.get(name)


def create_codec(
    name: str,
    config: SerializableConfig | dict | None = None,
    **overrides,
) -> VideoCodec:
    """Instantiate a registered codec.

    ``config`` may be a ready config instance, a dict (validated via the
    config class's ``from_dict``), or ``None`` for defaults; keyword
    overrides are applied on top in all three cases.

    >>> create_codec("classical", qp=16.0)            # doctest: +SKIP
    >>> create_codec("ctvc", {"channels": 12}, qstep=32.0)  # doctest: +SKIP
    """
    return codec_spec(name).factory(codec_config(name, config, **overrides))


def _config_cls(name: str) -> type[SerializableConfig]:
    """``codec_spec(name).config_cls``, without importing a built-in
    codec's module (the spec builder validates configs NumPy-free)."""
    spec = _CODECS.get(name, load=False)
    return _BUILTINS[name][1] if spec is None else spec.config_cls


def _simulates(name: str) -> bool:
    """Whether ``name``'s factory has ``simulate`` (its jobs never read
    frames), without importing a built-in codec's module."""
    spec = _CODECS.get(name, load=False)
    if spec is None:
        return _BUILTINS[name][3]
    return hasattr(spec.factory, "simulate")


def codec_config(
    name: str,
    config: SerializableConfig | dict | None = None,
    **overrides,
) -> SerializableConfig:
    """The config instance :func:`create_codec` builds ``name`` with."""
    return _CODECS.config(name, config, **overrides)
