"""Procedural video sequence generators.

The paper evaluates on UVG, HEVC Class B, and MCL-JCV — real corpora we
cannot ship offline.  Per the substitution policy in DESIGN.md, this
module synthesizes deterministic sequences whose *statistics* (texture
energy, global motion magnitude, local object motion, film grain) are
tuned per corpus, so the codec and accelerator exercise the same code
paths: motion estimation finds real displacements, residual coding sees
realistic prediction errors, and RD curves are smooth and monotone.

A sequence is produced by sampling a camera window that pans across a
large fractal "world" texture (global motion), compositing textured
sprites that move independently (local motion), and adding temporal
grain (noise floor that bounds achievable quality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.serialization import ConfigError, SerializableConfig

__all__ = ["SceneConfig", "VideoGenerator", "generate_sequence", "iter_sequence"]

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


def _smooth_noise(rng: np.random.Generator, h: int, w: int, period: int) -> np.ndarray:
    """One octave of value noise: bilinear upsampling of a coarse grid."""
    gh = max(2, h // period + 2)
    gw = max(2, w // period + 2)
    grid = rng.standard_normal((gh, gw))
    ys = np.linspace(0, gh - 1.001, h)
    xs = np.linspace(0, gw - 1.001, w)
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    # rows first, then columns: two 1-D gathers instead of a 2-D one
    top, bottom = grid.take(y0, axis=0), grid.take(y0 + 1, axis=0)
    tl, tr = top.take(x0, axis=1), top.take(x0 + 1, axis=1)
    bl, br = bottom.take(x0, axis=1), bottom.take(x0 + 1, axis=1)
    return (
        tl * (1 - fy) * (1 - fx)
        + tr * (1 - fy) * fx
        + bl * fy * (1 - fx)
        + br * fy * fx
    )


def _fractal_texture(
    rng: np.random.Generator, h: int, w: int, octaves: int
) -> np.ndarray:
    """Sum of value-noise octaves, normalized to zero mean, unit std."""
    out = np.zeros((h, w))
    amplitude = 1.0
    period = max(h, w) // 2
    for _ in range(octaves):
        out += amplitude * _smooth_noise(rng, h, w, max(2, period))
        amplitude *= 0.55
        period = max(2, period // 2)
    out -= out.mean()
    std = out.std()
    return out / std if std > 0 else out


def _run_or_index(index: np.ndarray, size: int):
    """``index`` as a slice when it is one run of consecutive integers
    (what a crop at a fixed offset floors to) whose successors are
    still below ``size``, else the array itself."""
    first, stop = int(index[0]), int(index[0]) + len(index)
    if 0 <= first and stop < size and np.array_equal(index, np.arange(first, stop)):
        return slice(first, stop)
    return index


def _bilinear_crop(world: np.ndarray, top: float, left: float, h: int, w: int):
    """Crop an (h, w) window at sub-pixel offset (top, left) from a plane."""
    ys = top + np.arange(h)
    xs = left + np.arange(w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows, cols = _run_or_index(y0, world.shape[0]), _run_or_index(x0, world.shape[1])
    if isinstance(rows, slice) and isinstance(cols, slice):
        # one contiguous window: the four corners are shifted views
        below = slice(rows.start + 1, rows.stop + 1)
        right = slice(cols.start + 1, cols.stop + 1)
        tl, tr = world[rows, cols], world[rows, right]
        bl, br = world[below, cols], world[below, right]
    else:
        tl = world[np.ix_(y0, x0)]
        tr = world[np.ix_(y0, x0 + 1)]
        bl = world[np.ix_(y0 + 1, x0)]
        br = world[np.ix_(y0 + 1, x0 + 1)]
    return (
        tl * (1 - fy) * (1 - fx)
        + tr * (1 - fy) * fx
        + bl * fy * (1 - fx)
        + br * fy * fx
    )


@dataclass
class _Sprite:
    texture: np.ndarray  # (3, sh, sw) RGB offsets
    mask: np.ndarray  # (sh, sw) soft alpha in [0, 1]
    position: np.ndarray  # float (y, x)
    velocity: np.ndarray  # float (dy, dx)


class VideoGenerator:
    """Deterministic synthetic sequence generator.

    >>> frames = VideoGenerator(SceneConfig(frames=4)).render()
    >>> len(frames), frames[0].shape
    (4, (3, 128, 192))
    """

    def __init__(self, config: SceneConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._build_world()
        self._build_sprites()

    def _build_world(self) -> None:
        cfg = self.config
        total_pan_y = abs(cfg.pan_velocity[0]) * cfg.frames
        total_pan_x = abs(cfg.pan_velocity[1]) * cfg.frames
        wh = cfg.height + int(np.ceil(total_pan_y)) + 4
        ww = cfg.width + int(np.ceil(total_pan_x)) + 4
        base = _fractal_texture(self._rng, wh, ww, cfg.texture_octaves)
        # Three correlated color planes around a mid-gray operating point.
        tint = self._rng.uniform(0.7, 1.0, size=3)
        detail = [
            0.25 * _fractal_texture(self._rng, wh, ww, max(1, cfg.texture_octaves - 2))
            for _ in range(3)
        ]
        scale = 110.0 * cfg.texture_contrast
        self._world = np.stack(
            [128.0 + scale * (tint[c] * base + detail[c]) for c in range(3)]
        )
        self._world = np.clip(self._world, 0.0, 255.0)

    def _build_sprites(self) -> None:
        cfg = self.config
        self._sprites: list[_Sprite] = []
        for _ in range(cfg.num_objects):
            sh = int(self._rng.integers(cfg.height // 8, cfg.height // 3))
            sw = int(self._rng.integers(cfg.width // 8, cfg.width // 3))
            sh, sw = max(sh, _MIN_SPRITE), max(sw, _MIN_SPRITE)
            tex = _fractal_texture(self._rng, sh, sw, 3)
            color = self._rng.uniform(-60, 60, size=3)
            texture = np.stack([color[c] + 30.0 * tex for c in range(3)])
            yy, xx = np.mgrid[0:sh, 0:sw]
            cy, cx = (sh - 1) / 2.0, (sw - 1) / 2.0
            dist = ((yy - cy) / (sh / 2.0)) ** 2 + ((xx - cx) / (sw / 2.0)) ** 2
            mask = np.clip(1.2 - dist, 0.0, 1.0)
            position = np.array(
                [
                    self._rng.uniform(0, cfg.height - sh),
                    self._rng.uniform(0, cfg.width - sw),
                ]
            )
            angle = self._rng.uniform(0, 2 * np.pi)
            speed = self._rng.uniform(0.3, 1.0) * cfg.object_speed
            velocity = speed * np.array([np.sin(angle), np.cos(angle)])
            self._sprites.append(_Sprite(texture, mask, position, velocity))

    def _composite(self, frame: np.ndarray, sprite: _Sprite) -> None:
        cfg = self.config
        sh, sw = sprite.mask.shape
        top = int(round(sprite.position[0]))
        left = int(round(sprite.position[1]))
        y0, y1 = max(0, top), min(cfg.height, top + sh)
        x0, x1 = max(0, left), min(cfg.width, left + sw)
        if y0 >= y1 or x0 >= x1:
            return
        sy0, sx0 = y0 - top, x0 - left
        sub_mask = sprite.mask[sy0 : sy0 + (y1 - y0), sx0 : sx0 + (x1 - x0)]
        sub_tex = sprite.texture[:, sy0 : sy0 + (y1 - y0), sx0 : sx0 + (x1 - x0)]
        region = frame[:, y0:y1, x0:x1]
        frame[:, y0:y1, x0:x1] = region + sub_mask[None] * sub_tex

    def _bounce(self, sprite: _Sprite) -> None:
        cfg = self.config
        sh, sw = sprite.mask.shape
        sprite.position += sprite.velocity
        for axis, limit, size in ((0, cfg.height, sh), (1, cfg.width, sw)):
            if sprite.position[axis] < -size / 2 or sprite.position[axis] > (
                limit - size / 2
            ):
                sprite.velocity[axis] *= -1.0
                sprite.position[axis] += 2 * sprite.velocity[axis]

    def frames(self) -> Iterator[np.ndarray]:
        """Yield frames lazily as (3, H, W) float arrays in [0, 255].

        One frame is materialized at a time, so streaming encode
        sessions consume arbitrarily long scenes in O(1) frame memory.
        Sprite state advances as frames are consumed (the generator is
        stateful); build a fresh :class:`VideoGenerator` — or use
        :func:`iter_sequence` — for a second identical pass.
        """
        cfg = self.config
        pan = np.array([0.0, 0.0])
        start = np.array([2.0, 2.0])
        for _ in range(cfg.frames):
            top, left = start + np.maximum(pan, 0.0) - np.minimum(pan, 0.0) * 0
            top = start[0] + (pan[0] if cfg.pan_velocity[0] >= 0 else -pan[0])
            left = start[1] + (pan[1] if cfg.pan_velocity[1] >= 0 else -pan[1])
            frame = np.stack(
                [
                    _bilinear_crop(self._world[c], top, left, cfg.height, cfg.width)
                    for c in range(3)
                ]
            )
            for sprite in self._sprites:
                self._composite(frame, sprite)
                self._bounce(sprite)
            if cfg.grain_sigma > 0:
                frame = frame + self._rng.normal(
                    0.0, cfg.grain_sigma, size=frame.shape
                )
            yield np.clip(frame, 0.0, 255.0)
            pan = pan + np.abs(np.array(cfg.pan_velocity))

    def render(self) -> list[np.ndarray]:
        """Render all frames at once (materializes :meth:`frames`)."""
        return list(self.frames())


def iter_sequence(config: SceneConfig | None = None) -> Iterator[np.ndarray]:
    """Lazy frame source: a fresh generator's :meth:`frames` stream.

    Bit-identical to :func:`generate_sequence` frame by frame, without
    ever materializing the sequence.
    """
    return VideoGenerator(config or SceneConfig()).frames()


def generate_sequence(config: SceneConfig | None = None) -> list[np.ndarray]:
    """Convenience wrapper: render a sequence from a config (or defaults)."""
    return list(iter_sequence(config))
