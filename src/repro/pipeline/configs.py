"""The pipeline's config layer: every tunable, one serialization story.

Collects the package's four user-facing config classes behind a
name-keyed table so generic tooling (CLI ``--config file.json``, sweep
drivers, job queues) can load "some config" without hard-coding types:

>>> from repro.pipeline.configs import load_config
>>> cfg = load_config({"type": "ctvc", "channels": 12})

All classes share ``to_dict``/``from_dict``/``to_json``/``from_json``/
``replace`` via :class:`repro.serialization.SerializableConfig`, with
validation errors that name the offending field.  Both codec configs
carry an ``entropy_backend`` field (``"rans"``/``"cacm"``, validated
against the entropy-backend registry at construction), so a sweep
document can pit entropy coders against each other like any other
knob.  These config documents are what travels inside the job specs
of distributed sweeps (``docs/distributed.md``) and inside streaming
container headers (``docs/bitstream.md``).
"""

from __future__ import annotations

from repro.codec import ClassicalCodecConfig, CTVCConfig
from repro.hw import NVCAConfig
from repro.serialization import ConfigError, SerializableConfig
from repro.video import SceneConfig

from .platforms import ReferencePlatformConfig

__all__ = [
    "CONFIG_TYPES",
    "CTVCConfig",
    "ClassicalCodecConfig",
    "ConfigError",
    "NVCAConfig",
    "ReferencePlatformConfig",
    "SceneConfig",
    "SerializableConfig",
    "load_config",
]

#: Name → config class, the dual of the codec/platform registries for
#: configs.
CONFIG_TYPES: dict[str, type[SerializableConfig]] = {
    "ctvc": CTVCConfig,
    "classical": ClassicalCodecConfig,
    "nvca": NVCAConfig,
    "reference-platform": ReferencePlatformConfig,
    "scene": SceneConfig,
}


def load_config(
    data: dict, type_key: str = "type", default_type: str | None = None
) -> SerializableConfig:
    """Hydrate a config dict whose ``type`` field names its class.

    The ``type`` discriminator is popped before validation, so the same
    document can be written back with ``{"type": name, **cfg.to_dict()}``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"load_config expects a mapping, got {type(data).__name__}")
    payload = dict(data)
    name = payload.pop(type_key, default_type)
    if name is None:
        raise ConfigError(
            f"config document needs a {type_key!r} field naming one of: "
            f"{', '.join(sorted(CONFIG_TYPES))}"
        )
    try:
        cls = CONFIG_TYPES[name]
    except KeyError:
        raise ConfigError(
            f"unknown config type {name!r}; known types: "
            f"{', '.join(sorted(CONFIG_TYPES))}"
        ) from None
    return cls.from_dict(payload)
