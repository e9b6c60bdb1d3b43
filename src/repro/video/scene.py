"""The synthetic scene config, importable without NumPy.

:class:`SceneConfig` is defined here, not beside the generator in
:mod:`repro.video.synthetic` (which re-exports it), so a process that
only builds and submits job specs validates scenes without loading
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serialization import ConfigError, SerializableConfig

__all__ = ["SceneConfig"]

#: Smallest sprite side; a sprite is placed inside the frame, so a scene
#: with sprites needs at least this many rows and columns.
_MIN_SPRITE = 8


@dataclass(frozen=True)
class SceneConfig(SerializableConfig):
    """Knobs controlling the statistics of a synthetic sequence."""

    height: int = 128
    width: int = 192
    frames: int = 8
    #: Octaves of fractal value noise in the background texture.
    texture_octaves: int = 4
    #: Relative texture contrast (0..1); higher = harder to compress.
    texture_contrast: float = 0.6
    #: Global pan velocity in pixels/frame (dy, dx), sub-pixel allowed.
    pan_velocity: tuple[float, float] = (0.6, 1.3)
    #: Number of independently moving sprites.
    num_objects: int = 3
    #: Max sprite speed in pixels/frame.
    object_speed: float = 2.5
    #: Std-dev of per-frame additive grain, in 8-bit levels.
    grain_sigma: float = 1.0
    #: RNG seed — sequences are fully deterministic given the config.
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        least, why = (1, "")
        if self.num_objects > 0:
            least, why = _MIN_SPRITE, " with num_objects > 0"
        for name in ("height", "width"):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}{why}, got {value}")
