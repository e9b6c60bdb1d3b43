"""ABR ladder builds: one spec, many renditions, a worker fleet.

Streaming services do not ship one stream — they ship a *ladder* of
renditions (resolutions × target bitrates) and let the client switch.
This module turns a ladder build into a fleet workload on the existing
job-queue machinery:

* :class:`Rendition` — one rung: resolution + target bitrate.
* :class:`LadderSpec` — the build: renditions, codec, base scene, rate
  controller.  ``rendition_specs()`` expands it into
  ``"ladder-rendition"`` task specs (registered in
  :mod:`repro.pipeline.tasks`), one job per rung.
* :class:`LadderRunner` — a :class:`~repro.pipeline.dist.QueueRunner`
  that fans the rungs out over any queue backend (in-process drain,
  directory or HTTP worker processes) and folds the results into a :class:`LadderReport`.
* :class:`RenditionReport` / :class:`LadderReport` — typed results:
  achieved kbps, overshoot %, budget violations per rung.

Determinism: a rendition's result is a pure function of its spec, so
``LadderReport.table()`` — every field except wall-clock timings — is
byte-identical between serial (``workers=0``) and any worker count or
queue backend, the same invariant the sweep layer pins in CI.

>>> from repro.pipeline import LadderSpec
>>> spec = LadderSpec.grid(
...     resolutions=[(96, 64), (48, 32)],
...     bitrates_kbps=[15.0, 30.0, 60.0],
...     codec="rd-model",
... )
>>> len(spec.renditions)
6
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.codec.rate_control import rate_controller_spec
from repro.serialization import ConfigError, SerializableConfig
from repro.video import SceneConfig

from .dist.queues import JobQueue
from .dist.sweep import QueueRunner
from .registry import codec_spec
from .reports import EncodeReport

__all__ = [
    "LadderReport",
    "LadderRunner",
    "LadderSpec",
    "Rendition",
    "RenditionReport",
]


@dataclass(frozen=True)
class Rendition(SerializableConfig):
    """One ladder rung: a resolution encoded to a bitrate budget."""

    height: int = 128
    width: int = 192
    target_kbps: float = 100.0
    #: display label; empty derives ``"WxH@Nk"``.
    label: str = ""

    def __post_init__(self):
        for name, value in (("height", self.height), ("width", self.width)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"rendition {name} must be a positive int, got {value!r}"
                )
        if self.target_kbps <= 0:
            raise ValueError(
                f"rendition target_kbps must be > 0, got {self.target_kbps}"
            )

    @property
    def name(self) -> str:
        """The label, derived from geometry + rate when not given."""
        return self.label or f"{self.width}x{self.height}@{self.target_kbps:g}k"


class LadderSpec:
    """A full ladder build: renditions × one codec/scene/controller.

    ``renditions`` accepts :class:`Rendition` instances or plain dicts;
    ``scene`` is the *base* scene whose geometry each rendition
    overrides (same content seed across rungs — the point of a ladder
    is many rates of one source).  ``codec_config`` overrides apply to
    every rendition; the rate fields (``rate_control``, ``fps``, and
    each rung's ``target_kbps``) are merged in per rendition.
    """

    def __init__(
        self,
        renditions,
        *,
        codec: str = "classical",
        codec_config: dict | None = None,
        scene: SceneConfig | dict | None = None,
        rate_control: str = "calibrated",
        fps: float = 30.0,
        compute_msssim: bool = False,
    ):
        codec_spec(codec)  # fail fast on unknown names
        spec = rate_controller_spec(rate_control)  # likewise
        if not spec.adaptive:
            # allowed — a cqp ladder measures uncontrolled overshoot —
            # but it must be what the caller asked for, not a typo'd
            # default, so no extra validation here.
            pass
        if fps <= 0:
            raise ValueError(f"fps must be > 0, got {fps}")
        rungs = []
        for rendition in renditions:
            if isinstance(rendition, dict):
                rendition = Rendition.from_dict(rendition)
            elif not isinstance(rendition, Rendition):
                raise TypeError(
                    f"renditions must be Rendition or dict, "
                    f"got {type(rendition).__name__}"
                )
            rungs.append(rendition)
        if not rungs:
            raise ValueError("a ladder needs at least one rendition")
        names = [r.name for r in rungs]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate rendition label(s): {', '.join(duplicates)}"
            )
        self.renditions: list[Rendition] = rungs
        self.codec = codec
        self.codec_config = dict(codec_config or {})
        if isinstance(scene, dict):
            scene = SceneConfig.from_dict(scene)
        self.scene = scene or SceneConfig()
        self.rate_control = rate_control
        self.fps = float(fps)
        self.compute_msssim = bool(compute_msssim)

    @classmethod
    def grid(
        cls,
        *,
        resolutions,
        bitrates_kbps,
        **options,
    ) -> "LadderSpec":
        """The standard ladder shape: resolutions × target bitrates.

        ``resolutions`` is a list of ``(height, width)`` pairs,
        ``bitrates_kbps`` a list of targets; every combination becomes
        a rung.  Remaining options go to the constructor.
        """
        renditions = [
            Rendition(height=int(h), width=int(w), target_kbps=float(kbps))
            for h, w in resolutions
            for kbps in bitrates_kbps
        ]
        return cls(renditions, **options)

    def rendition_specs(self) -> list[dict]:
        """One ``"ladder-rendition"`` job spec per rung (the on-wire
        unit; schema in ``docs/distributed.md``)."""
        scene = self.scene.to_dict()
        specs = []
        for rendition in self.renditions:
            config = dict(self.codec_config)
            config["rate_control"] = self.rate_control
            config["target_kbps"] = rendition.target_kbps
            config["fps"] = self.fps
            specs.append(
                {
                    "kind": "ladder-rendition",
                    "codec": self.codec,
                    "codec_config": config,
                    "scene": {
                        **scene,
                        "height": rendition.height,
                        "width": rendition.width,
                    },
                    "compute_msssim": self.compute_msssim,
                    "rendition": rendition.to_dict(),
                }
            )
        return specs

    def to_dict(self) -> dict:
        return {
            "renditions": [r.to_dict() for r in self.renditions],
            "codec": self.codec,
            "codec_config": dict(self.codec_config),
            "scene": self.scene.to_dict(),
            "rate_control": self.rate_control,
            "fps": self.fps,
            "compute_msssim": self.compute_msssim,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LadderSpec":
        if not isinstance(data, dict):
            raise ConfigError(
                f"LadderSpec.from_dict expects a mapping, "
                f"got {type(data).__name__}"
            )
        known = {
            "renditions",
            "codec",
            "codec_config",
            "scene",
            "rate_control",
            "fps",
            "compute_msssim",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"LadderSpec: unknown field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        if "renditions" not in data:
            raise ConfigError("LadderSpec needs a 'renditions' list")
        return cls(
            data["renditions"],
            codec=data.get("codec", "classical"),
            codec_config=data.get("codec_config"),
            scene=data.get("scene"),
            rate_control=data.get("rate_control", "calibrated"),
            fps=float(data.get("fps", 30.0)),
            compute_msssim=bool(data.get("compute_msssim", False)),
        )


@dataclass
class RenditionReport:
    """Rate accuracy of one coded rung.

    ``overshoot_pct`` is signed (positive = over budget);
    ``budget_violations`` counts frames whose *cumulative* coded bits
    exceeded the cumulative budget by more than 20% — the client-side
    rebuffering proxy (a decoder draining a fixed-rate channel falls
    behind exactly when the cumulative stream runs ahead of the
    cumulative budget).
    """

    label: str
    height: int
    width: int
    target_kbps: float
    achieved_kbps: float | None
    overshoot_pct: float | None
    budget_violations: int
    mean_psnr: float
    bpp: float
    stream_bytes: int
    frames: int
    #: the full underlying encode result.
    encode: EncodeReport

    #: cumulative-overshoot tolerance before a frame counts as a
    #: budget violation.
    VIOLATION_SLACK = 1.2

    @classmethod
    def from_result(cls, result: dict) -> "RenditionReport":
        rendition = Rendition.from_dict(result["rendition"])
        encode = EncodeReport.from_dict(result["encode"])
        achieved = encode.achieved_kbps
        overshoot = (
            100.0 * (achieved - rendition.target_kbps) / rendition.target_kbps
            if achieved is not None
            else None
        )
        fps = float(encode.codec_config.get("fps", 30.0) or 30.0)
        per_frame_budget = rendition.target_kbps * 1000.0 / fps
        violations = 0
        cumulative = 0
        for index, bits in enumerate(encode.frame_bits, start=1):
            cumulative += bits
            if cumulative > cls.VIOLATION_SLACK * per_frame_budget * index:
                violations += 1
        return cls(
            label=rendition.name,
            height=rendition.height,
            width=rendition.width,
            target_kbps=rendition.target_kbps,
            achieved_kbps=achieved,
            overshoot_pct=overshoot,
            budget_violations=violations,
            mean_psnr=encode.mean_psnr,
            bpp=encode.bpp,
            stream_bytes=encode.stream_bytes,
            frames=encode.frames,
            encode=encode,
        )

    def table_row(self) -> dict:
        """The deterministic summary row (no timings): the unit the
        serial-vs-sharded byte-parity invariant compares."""
        return {
            "label": self.label,
            "width": self.width,
            "height": self.height,
            "target_kbps": round(self.target_kbps, 3),
            "achieved_kbps": (
                None if self.achieved_kbps is None
                else round(self.achieved_kbps, 3)
            ),
            "overshoot_pct": (
                None if self.overshoot_pct is None
                else round(self.overshoot_pct, 2)
            ),
            "budget_violations": self.budget_violations,
            "mean_psnr": round(self.mean_psnr, 4),
            "bpp": round(self.bpp, 6),
            "stream_bytes": self.stream_bytes,
            "frames": self.frames,
        }

    def to_dict(self) -> dict:
        row = self.table_row()
        row["encode"] = self.encode.to_dict()
        return row


@dataclass
class LadderReport:
    """Aggregated outcome of one ladder build."""

    renditions: list[RenditionReport]
    failures: dict[str, str]
    job_ids: list[str]
    elapsed_seconds: float
    workers: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def max_abs_overshoot_pct(self) -> float | None:
        """Worst |overshoot| across rungs (None with no rate data)."""
        values = [
            abs(r.overshoot_pct)
            for r in self.renditions
            if r.overshoot_pct is not None
        ]
        return max(values) if values else None

    def table(self) -> list[dict]:
        """Per-rung summary rows, submission order, timing-free —
        byte-identical across worker counts and queue backends."""
        return [r.table_row() for r in self.renditions]

    def to_dict(self) -> dict:
        return {
            "jobs": len(self.job_ids),
            "completed": len(self.renditions),
            "failed": dict(self.failures),
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "table": self.table(),
            "renditions": [r.to_dict() for r in self.renditions],
        }

    def render(self) -> str:
        """Human summary: the ladder table plus failures."""
        lines = [
            f"ladder: {len(self.job_ids)} renditions, "
            f"{len(self.renditions)} completed, {len(self.failures)} failed "
            f"in {self.elapsed_seconds:.1f}s ({self.workers} workers)"
        ]
        header = (
            f"  {'rendition':>16s} {'target':>9s} {'achieved':>9s} "
            f"{'overshoot':>9s} {'viol':>4s} {'PSNR':>7s} {'bpp':>8s}"
        )
        lines.append(header)
        for r in self.renditions:
            achieved = (
                f"{r.achieved_kbps:8.1f}k" if r.achieved_kbps is not None
                else "     n/a"
            )
            overshoot = (
                f"{r.overshoot_pct:+8.1f}%" if r.overshoot_pct is not None
                else "     n/a"
            )
            lines.append(
                f"  {r.label:>16s} {r.target_kbps:8.1f}k {achieved} "
                f"{overshoot} {r.budget_violations:4d} "
                f"{r.mean_psnr:6.2f} {r.bpp:8.4f}"
            )
        for job_id, error in sorted(self.failures.items()):
            lines.append(f"  FAILED {job_id}: {error.strip().splitlines()[-1]}")
        return "\n".join(lines)


class LadderRunner(QueueRunner):
    """Fan a :class:`LadderSpec` out over a job queue and aggregate.

    Execution semantics (``workers``/``queue``/``queue_dir``/lease/
    retry/poison handling) are :class:`~repro.pipeline.dist.QueueRunner`'s
    — a ladder build is just another fleet workload, so HTTP workers
    started with ``repro worker --queue-url`` pick rungs up exactly as
    they pick up sweep jobs.
    """

    def __init__(
        self,
        spec: LadderSpec | dict,
        *,
        queue: JobQueue | None = None,
        queue_dir: str | os.PathLike | None = None,
        workers: int = 2,
        lease_seconds: float = 120.0,
        max_attempts: int | None = None,
        poison_threshold: int = 5,
        job_timeout_seconds: float | None = None,
        checkpoint=None,
        bundle: int | str = 1,
        share_frames: bool | None = None,
    ):
        if isinstance(spec, dict):
            spec = LadderSpec.from_dict(spec)
        elif not isinstance(spec, LadderSpec):
            raise TypeError(
                f"LadderRunner needs a LadderSpec or dict, "
                f"got {type(spec).__name__}"
            )
        self.ladder = spec
        from .tasks import normalize_spec

        specs = [normalize_spec(s) for s in spec.rendition_specs()]
        super().__init__(
            specs,
            queue=queue,
            queue_dir=queue_dir,
            workers=workers,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            poison_threshold=poison_threshold,
            job_timeout_seconds=job_timeout_seconds,
            checkpoint=checkpoint,
            bundle=bundle,
            share_frames=share_frames,
        )

    def _aggregate(
        self, results: dict[str, dict], failures: dict[str, str], elapsed: float
    ) -> LadderReport:
        return LadderReport(
            renditions=self._hydrated_reports(results),
            failures=failures,
            job_ids=list(self.job_ids),
            elapsed_seconds=elapsed,
            workers=self.workers,
        )
