"""The ``Pipeline`` facade: one ``run()`` from scene to report.

A :class:`Pipeline` is a fully serializable job description — codec
name, codec config, scene config, and options — and ``run()`` composes
source → codec → serialize/parse round-trip → metrics → optional NVCA
hardware analysis, returning typed reports instead of printed strings.
Because the job spec is a plain dict under the hood, it ships across
process boundaries unchanged, which is what :func:`run_many`'s queue
backend and its worker processes rely on.

>>> from repro.pipeline import Pipeline
>>> report = Pipeline("ctvc", {"channels": 12}, scene={"frames": 4}).run()
>>> report.bpp, report.mean_psnr  # doctest: +SKIP

The encode path is numerically identical to the pre-facade CLI: same
frame source, same serialize/parse round trip, same rate (container
bits per pixel) and mean-PSNR quality.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time

import numpy as np

from repro.codec import SequenceBitstream, StreamReader, StreamWriter
from repro.hw import NVCAConfig
from repro.metrics import ms_ssim, psnr
from repro.serialization import ConfigError, SerializableConfig
from repro.video import SceneConfig, generate_sequence, iter_sequence

from .registry import VideoCodec, available_codecs, codec_spec, create_codec
from .reports import EncodeReport, HardwareReport

__all__ = [
    "EncodeSession",
    "Pipeline",
    "analyze_hardware",
    "build_jobs",
    "run_many",
]


def analyze_hardware(
    height: int,
    width: int,
    config: NVCAConfig | dict | None = None,
) -> HardwareReport:
    """Full NVCA roll-up (perf + traffic + energy + area) for the
    decoder workload at one resolution.

    Thin shim over the platform registry — equivalent to
    ``create_platform("nvca", config).analyze(height, width).hardware``
    — kept because a plain "what does the paper's chip do at this
    resolution" question should stay one call.
    """
    from .platforms import create_platform

    return create_platform("nvca", config).hardware_report(height, width)


class EncodeSession:
    """One encode run with inspectable intermediates.

    The facade's unit of work: ``prepare()`` builds the codec and (in
    batch mode) renders the source, ``encode()``/``decode()`` run the
    codec through a real serialize/parse round trip, ``report()``
    measures rate and quality.  ``run()`` chains all of it.  After any
    stage the intermediates (``frames``, ``stream``, ``payload``,
    ``decoded``) are attributes, so notebooks can poke at the actual
    bitstream.

    **Streaming mode** — ``encode(output=...)`` switches the session to
    the codec's frame-at-a-time API: frames come from a lazy scene
    generator, each packet is written to ``output`` (a path or binary
    file object) through the incremental version-4 container as it is
    produced, and ``progress(frame_index, packet_bytes)`` fires per
    frame.  Peak frame memory is O(1) in sequence length; the batch
    intermediates stay ``None``.  ``decode()`` then reads the container
    packet by packet, folding per-frame quality against a regenerated
    scene source instead of materializing either side.  The two modes
    are bit-identical per packet (the batch API is itself a wrapper
    over the sessions).

    **Simulated codecs** — a registered pseudo-codec exposing
    ``simulate()`` (the calibrated ``rd-model``) skips the byte path
    entirely; ``report()`` carries its calibrated rate/quality.
    """

    def __init__(self, pipeline: "Pipeline"):
        self.pipeline = pipeline
        self.codec: VideoCodec | None = None
        self.frames: list[np.ndarray] | None = None
        self.stream: SequenceBitstream | None = None
        self.payload: bytes | None = None
        self.decoded: list[np.ndarray] | None = None
        self.encode_seconds: float | None = None
        self.decode_seconds: float | None = None
        # -- streaming-mode state ----------------------------------------
        self.stream_path: str | None = None
        self.stream_bytes: int | None = None
        self.frames_encoded: int | None = None
        self._streamed_psnrs: list[float] | None = None
        self._streamed_msssims: list[float] | None = None
        #: per-frame serialized packet bits (streaming mode records them
        #: on whichever side of the round trip runs first).
        self._frame_bits: list[int] | None = None
        # -- simulated (rd-model) state ----------------------------------
        self.simulated: dict | None = None

    @property
    def _is_simulated(self) -> bool:
        return hasattr(self.codec, "simulate")

    def prepare(self) -> "EncodeSession":
        spec = self.pipeline
        if self.codec is None:
            self.codec = create_codec(spec.codec, spec.codec_config)
        if not self._is_simulated and self.frames is None:
            self.frames = generate_sequence(spec.scene)
        return self

    def encode(self, *, output=None, progress=None) -> "EncodeSession":
        """Encode the scene.

        Batch (default): one ``encode_sequence`` call, intermediates
        kept.  Streaming (``output`` given): frame-at-a-time sessions
        writing the version-4 container to ``output`` incrementally,
        with an optional per-frame ``progress(index, packet_bytes)``
        callback.
        """
        if self.codec is None:
            spec = self.pipeline
            self.codec = create_codec(spec.codec, spec.codec_config)
        if self._is_simulated:
            if output is not None:
                raise ConfigError(
                    f"codec {self.pipeline.codec!r} is a simulated RD model; "
                    "it produces no bitstream to stream to a file"
                )
            scene = self.pipeline.scene
            self.simulated = self.codec.simulate(
                scene.frames,
                scene.height,
                scene.width,
                compute_msssim=self.pipeline.compute_msssim,
            )
            self.encode_seconds = 0.0
            return self
        if output is None:
            if progress is not None:
                raise ValueError(
                    "per-frame progress callbacks need streaming mode "
                    "(pass output=...)"
                )
            if self.frames is None:
                self.prepare()
            start = time.perf_counter()
            self.stream = self.codec.encode_sequence(self.frames)
            self.payload = self.stream.serialize()
            self.encode_seconds = time.perf_counter() - start
            return self
        return self._encode_streaming(output, progress)

    def _stream_header(self, session_header: dict) -> dict:
        """The streaming file header: the codec's stream header plus enough
        context (registry name, full config, scene) for ``repro
        decode`` to rebuild the decoder and score quality unaided."""
        spec = self.pipeline
        header = dict(session_header)
        header["registry"] = spec.codec
        header["config"] = self.codec.config.to_dict()
        header["scene"] = spec.scene.to_dict()
        return header

    def _encode_streaming(self, output, progress) -> "EncodeSession":
        spec = self.pipeline
        owns_handle = isinstance(output, (str, os.PathLike))
        handle = open(output, "wb") if owns_handle else output
        start = time.perf_counter()
        try:
            session = self.codec.open_encoder()
            writer = StreamWriter(handle)
            count = 0
            frame_bits: list[int] = []
            for frame in iter_sequence(spec.scene):
                packets = session.push(frame)
                del frame  # the session owns what it needs; stay O(1)
                nbytes = 0
                for packet in packets:
                    if writer.header is None:
                        writer.write_header(self._stream_header(session.header))
                    nbytes += writer.write_packet(packet)
                    frame_bits.append(8 * len(packet.serialize()))
                count += 1
                if progress is not None:
                    progress(count, nbytes)
            for packet in session.flush():
                if writer.header is None:
                    writer.write_header(self._stream_header(session.header))
                writer.write_packet(packet)
                frame_bits.append(8 * len(packet.serialize()))
            if writer.header is None:
                raise ConfigError("no frames to encode")
            total = writer.finalize()
        finally:
            if owns_handle:
                handle.close()
        self.encode_seconds = time.perf_counter() - start
        self.frames_encoded = count
        self.stream_bytes = total
        self._frame_bits = frame_bits
        self.stream_path = os.fspath(output) if owns_handle else None
        return self

    def decode(self, *, source=None, progress=None) -> "EncodeSession":
        """Decode and (in streaming mode) score against the scene.

        Batch: parse the in-memory payload, keep the frames.
        Streaming (``source`` given, or after a streamed ``encode``):
        read the container packet by packet, pull frames from a decoder
        session, and fold per-frame PSNR (and MS-SSIM when configured)
        against a regenerated scene source — O(1) frame memory, with an
        optional ``progress(frame_index, psnr)`` callback.
        """
        if self.simulated is not None:
            return self
        if source is None and self.stream_path is None and self.payload is None:
            if self.frames_encoded is not None:
                # A streamed encode went to a caller-owned file object;
                # re-encoding in batch here would silently discard it.
                raise ValueError(
                    "this session streamed to a file object; pass "
                    "decode(source=...) to read that container back"
                )
            self.encode()
            if self.simulated is not None:  # encode() chose the rd-model path
                return self
        if source is None and self.stream_path is None:
            start = time.perf_counter()
            self.decoded = self.codec.decode_sequence(
                SequenceBitstream.parse(self.payload)
            )
            self.decode_seconds = time.perf_counter() - start
            return self
        return self._decode_streaming(source or self.stream_path, progress)

    def _decode_streaming(self, source, progress) -> "EncodeSession":
        spec = self.pipeline
        owns_handle = isinstance(source, (str, os.PathLike))
        handle = open(source, "rb") if owns_handle else source
        try:
            start_pos = handle.tell()
        except (AttributeError, OSError):
            start_pos = None
        start = time.perf_counter()
        try:
            reader = StreamReader(handle)
            if self.codec is None:
                self.codec = create_codec(spec.codec, spec.codec_config)
            session = self.codec.open_decoder(reader.header, version=reader.version)
            if self._frame_bits is None:
                # Decode-only sessions (repro decode) still report rate
                # accuracy: record packet sizes as the reader yields them.
                bits: list[int] = []

                def recording(packets=reader, record=bits):
                    for packet in packets:
                        record.append(8 * len(packet.serialize()))
                        yield packet

                reader = recording()
                self._frame_bits = bits
            originals = iter_sequence(spec.scene)
            psnrs: list[float] = []
            msssims: list[float] = []
            for decoded in session.decode_iter(reader):
                try:
                    original = next(originals)
                except StopIteration:
                    raise ValueError(
                        f"container has more frames than the configured "
                        f"scene ({spec.scene.frames})"
                    ) from None
                psnrs.append(float(psnr(original, decoded)))
                if spec.compute_msssim:
                    msssims.append(float(ms_ssim(original, decoded)))
                if progress is not None:
                    progress(len(psnrs), psnrs[-1])
        finally:
            if owns_handle:
                handle.close()
        self.decode_seconds = time.perf_counter() - start
        self._streamed_psnrs = psnrs
        self._streamed_msssims = msssims
        if self.stream_bytes is None:
            if owns_handle:
                self.stream_bytes = os.path.getsize(source)
            elif start_pos is not None:
                # The reader stops exactly after the end sentinel, so
                # the position delta is the container size.
                try:
                    self.stream_bytes = handle.tell() - start_pos
                except OSError:
                    pass
        return self

    def report(self) -> EncodeReport:
        spec = self.pipeline
        scene = spec.scene
        if self.simulated is None and self.decoded is None and (
            self._streamed_psnrs is None
        ):
            self.decode()
        if self.simulated is not None:
            sim = self.simulated
            return EncodeReport(
                codec=spec.codec,
                codec_config=self.codec.config.to_dict(),
                scene=scene.to_dict(),
                frames=scene.frames,
                height=scene.height,
                width=scene.width,
                encode_seconds=self.encode_seconds,
                decode_seconds=0.0,
                **sim,
            )
        if self._streamed_psnrs is not None:
            psnrs = self._streamed_psnrs
            msssims = self._streamed_msssims or []
            num_frames = len(psnrs)
            stream_bytes = self.stream_bytes or 0
            frame_bits = self._frame_bits or []
        else:
            psnrs = [float(psnr(a, b)) for a, b in zip(self.frames, self.decoded)]
            msssims = (
                [float(ms_ssim(a, b)) for a, b in zip(self.frames, self.decoded)]
                if spec.compute_msssim
                else []
            )
            num_frames = len(self.frames)
            stream_bytes = len(self.payload)
            frame_bits = [8 * len(p.serialize()) for p in self.stream.packets]
        bpp = 8.0 * stream_bytes / (max(num_frames, 1) * scene.height * scene.width)
        fps = float(self.codec.config.to_dict().get("fps", 30.0) or 30.0)
        achieved_kbps = (
            sum(frame_bits) * fps / (num_frames * 1000.0)
            if frame_bits and num_frames
            else None
        )
        return EncodeReport(
            codec=spec.codec,
            codec_config=self.codec.config.to_dict(),
            scene=scene.to_dict(),
            frames=num_frames,
            height=scene.height,
            width=scene.width,
            stream_bytes=stream_bytes,
            bpp=bpp,
            psnr_per_frame=psnrs,
            mean_psnr=float(np.mean(psnrs)),
            msssim_per_frame=msssims,
            mean_msssim=float(np.mean(msssims)) if msssims else None,
            frame_bits=frame_bits,
            achieved_kbps=achieved_kbps,
            encode_seconds=self.encode_seconds,
            decode_seconds=self.decode_seconds,
        )

    def run(self, *, output=None, progress=None) -> EncodeReport:
        """Chain the stages.  With ``output`` the whole round trip runs
        in streaming mode through the container — a path, or a
        readable+seekable binary file object (rewound and decoded in
        place; for write-only streams use ``encode``/``decode``
        separately)."""
        if output is None:
            return self.prepare().encode().decode().report()
        if not isinstance(output, (str, os.PathLike)):
            if not (
                getattr(output, "readable", lambda: False)()
                and getattr(output, "seekable", lambda: False)()
            ):
                raise ValueError(
                    "run(output=...) needs a path or a readable, seekable "
                    "binary file object; with a write-only stream call "
                    "encode(output=...) and decode(source=...) yourself"
                )
            self.encode(output=output, progress=progress)
            output.seek(0)
            return self.decode(source=output).report()
        return self.encode(output=output, progress=progress).decode().report()


class Pipeline:
    """Serializable job spec + facade over the whole encode stack.

    ``codec`` is a registry name; ``codec_config`` and ``scene`` accept
    either config instances or plain dicts (validated through the
    config classes).  ``hardware`` optionally attaches an NVCA
    analysis of the decoder workload at the scene resolution.

    ``to_dict()``/``from_dict()`` make the spec a JSON document — the
    unit of work every execution backend shares, from the inline loop
    to queue workers on other hosts (schema in ``docs/distributed.md``).
    A run is a pure function of this document: everything in the
    resulting report except wall-clock timings is deterministic.
    """

    def __init__(
        self,
        codec: str = "ctvc",
        codec_config: SerializableConfig | dict | None = None,
        scene: SceneConfig | dict | None = None,
        *,
        compute_msssim: bool = False,
        hardware: NVCAConfig | dict | bool | None = None,
    ):
        spec = codec_spec(codec)  # fail fast on unknown names
        self.codec = codec
        if isinstance(codec_config, dict):
            codec_config = spec.config_cls.from_dict(codec_config)
        elif codec_config is not None and not isinstance(
            codec_config, spec.config_cls
        ):
            raise ConfigError(
                f"codec {codec!r} expects a {spec.config_cls.__name__}, "
                f"got {type(codec_config).__name__}"
            )
        self.codec_config = codec_config or spec.config_cls()
        if isinstance(scene, dict):
            scene = SceneConfig.from_dict(scene)
        self.scene = scene or SceneConfig()
        if self.scene.frames < 1:
            raise ConfigError(
                f"scene.frames must be >= 1, got {self.scene.frames}"
            )
        self.compute_msssim = compute_msssim
        if hardware is True:
            hardware = NVCAConfig()
        elif hardware is False:
            hardware = None
        elif isinstance(hardware, dict):
            hardware = NVCAConfig.from_dict(hardware)
        self.hardware = hardware

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "codec_config": self.codec_config.to_dict(),
            "scene": self.scene.to_dict(),
            "compute_msssim": self.compute_msssim,
            "hardware": self.hardware.to_dict() if self.hardware else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Pipeline":
        if not isinstance(data, dict):
            raise ConfigError(
                f"Pipeline.from_dict expects a mapping, got {type(data).__name__}"
            )
        known = {"codec", "codec_config", "scene", "compute_msssim", "hardware"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"Pipeline: unknown field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        return cls(
            codec=data.get("codec", "ctvc"),
            codec_config=data.get("codec_config"),
            scene=data.get("scene"),
            compute_msssim=bool(data.get("compute_msssim", False)),
            hardware=data.get("hardware"),
        )

    # -- execution ----------------------------------------------------
    def session(self) -> EncodeSession:
        return EncodeSession(self)

    def run(self) -> EncodeReport:
        """Encode, decode, and measure; attaches ``.hardware`` when the
        job asks for the NVCA analysis."""
        report = self.session().run()
        report.hardware = self.run_hardware() if self.hardware else None
        return report

    def run_hardware(
        self, height: int | None = None, width: int | None = None
    ) -> HardwareReport:
        """NVCA analysis of the decoder workload (defaults to the scene
        resolution)."""
        config = self.hardware if isinstance(self.hardware, NVCAConfig) else None
        return analyze_hardware(
            height or self.scene.height, width or self.scene.width, config
        )


def _encode_grid(codecs, codec_configs, scenes, compute_msssim) -> list:
    """Expand the codecs x codec_configs x scenes cross product."""
    known = set(available_codecs())
    unknown = sorted({str(c) for c in codecs if c not in known})
    if unknown:
        raise ValueError(
            f"unknown codec name(s) in grid: {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(known))}"
        )
    codec_configs = codec_configs if codec_configs is not None else [{}]
    scenes = scenes if scenes is not None else [SceneConfig()]
    jobs = []
    for codec, overrides, scene in itertools.product(
        codecs, codec_configs, scenes
    ):
        if isinstance(overrides, dict):
            fields = {
                f.name
                for f in dataclasses.fields(codec_spec(codec).config_cls)
            }
            overrides = {k: v for k, v in overrides.items() if k in fields}
        jobs.append(
            Pipeline(codec, overrides, scene, compute_msssim=compute_msssim)
        )
    return jobs


def _hardware_grid(platforms, platform_configs, resolutions) -> list[dict]:
    """Expand the platforms x platform_configs x resolutions cross
    product into ``"hardware"`` task specs."""
    from .platforms import available_platforms, platform_entry

    known = set(available_platforms())
    unknown = sorted({str(p) for p in platforms if p not in known})
    if unknown:
        raise ValueError(
            f"unknown platform name(s) in grid: "
            f"{', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(known))}"
        )
    platform_configs = platform_configs if platform_configs is not None else [{}]
    resolutions = resolutions if resolutions is not None else [(1080, 1920)]
    jobs = []
    for platform, overrides, (height, width) in itertools.product(
        platforms, platform_configs, resolutions
    ):
        if isinstance(overrides, dict):
            fields = {
                f.name
                for f in dataclasses.fields(platform_entry(platform).config_cls)
            }
            overrides = {k: v for k, v in overrides.items() if k in fields}
        jobs.append(
            {
                "kind": "hardware",
                "platform": platform,
                "config": overrides,
                "height": int(height),
                "width": int(width),
            }
        )
    return jobs


def build_jobs(
    jobs=None,
    *,
    codecs=None,
    codec_configs=None,
    scenes=None,
    compute_msssim: bool = False,
    platforms=None,
    platform_configs=None,
    resolutions=None,
) -> list[dict]:
    """Normalize any ``run_many`` calling style to validated specs.

    Explicit ``jobs`` (``Pipeline`` objects or task-typed spec dicts —
    a dict without ``"kind"`` is an encode job) pass through per-kind
    validation one by one; a ``codecs`` grid expands the
    codecs x codec_configs x scenes cross product, skipping override
    keys a codec's config class does not define (so one grid can mix
    ``qstep`` and ``qp``); a ``platforms`` grid expands
    platforms x platform_configs x resolutions into ``"hardware"``
    analysis jobs the same way.  Codec, platform, and task-kind names
    are validated *up front* — before any job is built, let alone
    submitted to a queue — so a typo fails as one clear
    ``ValueError`` naming every offender instead of a worker traceback
    mid-sweep.

    Returns JSON-ready job-spec dicts (the on-wire unit of
    :mod:`repro.pipeline.dist`).
    """
    if jobs is None:
        if codecs is not None and platforms is not None:
            raise ValueError(
                "pass a codecs=[...] grid or a platforms=[...] grid, not "
                "both (build the two spec lists and concatenate them to mix)"
            )
        if codecs is not None:
            jobs = _encode_grid(codecs, codec_configs, scenes, compute_msssim)
        elif platforms is not None:
            if compute_msssim:
                raise ValueError(
                    "compute_msssim only applies to encode grids"
                )
            jobs = _hardware_grid(platforms, platform_configs, resolutions)
        else:
            raise ValueError(
                "run_many needs jobs=... or a codecs=[...] / "
                "platforms=[...] grid"
            )
    elif compute_msssim:
        raise ValueError(
            "compute_msssim only applies to grid mode; with explicit jobs, "
            "set it on each Pipeline"
        )
    from .tasks import normalize_spec

    specs = []
    for job in jobs:
        if isinstance(job, Pipeline):
            specs.append(job.to_dict())
        elif isinstance(job, dict):
            specs.append(normalize_spec(job))
        else:
            raise TypeError(
                f"run_many jobs must be Pipeline or dict, got {type(job).__name__}"
            )
    return specs


def run_many(
    jobs=None,
    *,
    codecs=None,
    codec_configs=None,
    scenes=None,
    compute_msssim: bool = False,
    platforms=None,
    platform_configs=None,
    resolutions=None,
    backend: str = "inline",
    queue_dir=None,
    queue_url: str | None = None,
    workers: int = 2,
    lease_seconds: float = 120.0,
    max_attempts: int = 3,
    bundle: int | str = 1,
    share_frames: bool | None = None,
) -> list:
    """Run a batch of jobs — inline or on a queue.

    Three calling styles:

    * explicit — ``run_many([Pipeline(...), {...}, ...])`` runs each
      job as given (each job carries its own ``compute_msssim``).
      Spec dicts are *task-typed*: a ``"kind"`` field selects the job
      body (``"encode"``, ``"hardware"``, ``"dse-point"``, or any
      :func:`repro.pipeline.register_task` plugin); a dict without
      ``kind`` is an encode job, so pre-task-typing specs run
      unchanged.  Kinds can mix in one batch.
    * encode grid — ``run_many(codecs=[...], codec_configs=[...],
      scenes=[...])`` sweeps the cross product.  ``codec_configs``
      entries are dicts of overrides; for each codec, keys the codec's
      config class does not define are skipped, so one grid mixing
      codec-specific knobs (``qstep`` vs ``qp``) can still span
      heterogeneous config classes.
    * hardware grid — ``run_many(platforms=[...],
      platform_configs=[...], resolutions=[(h, w), ...])`` sweeps
      platform analyses the same way.

    Codec, platform, and task-kind names are validated before any
    execution starts.

    Execution ``backend``:

    * ``"inline"`` (default) — this process, submission order,
      easiest debugging.
    * ``"queue"`` — the work-queue backend
      (:class:`repro.pipeline.dist.SweepRunner`): ``workers`` worker
      processes over the directory-backed queue (pass ``queue_dir``;
      other hosts can join it and ``repro sweep --resume`` can
      continue it) or through a ``repro serve`` daemon over HTTP (pass
      ``queue_url``); without either, the in-memory queue drains in
      this process whatever ``workers`` says.  Dead
      workers lose their lease and their jobs are retried up to
      ``max_attempts`` times; ``bundle`` (a size, or ``"auto"``) claims
      jobs in batches and ``share_frames`` ships frame buffers over
      shared memory — both transport knobs, results stay byte-identical
      (see ``docs/distributed.md``, "Bundling & warm workers").

    Every backend returns the same thing: one typed report per job —
    :class:`EncodeReport`, :class:`~repro.pipeline.PlatformReport`, or
    :class:`~repro.hw.DesignPoint`, by the job's kind — in submission
    order, numerically identical across backends.  The queue backend
    raises ``RuntimeError`` if any job dead-letters (use
    :class:`~repro.pipeline.dist.SweepRunner` directly for
    partial-result tolerance and RD aggregation).
    """
    if backend not in ("inline", "queue"):
        raise ValueError(
            f"unknown run_many backend {backend!r}; use 'inline' or 'queue'"
        )
    specs = build_jobs(
        jobs,
        codecs=codecs,
        codec_configs=codec_configs,
        scenes=scenes,
        compute_msssim=compute_msssim,
        platforms=platforms,
        platform_configs=platform_configs,
        resolutions=resolutions,
    )

    if queue_url is not None and backend != "queue":
        raise ValueError("queue_url only applies to backend='queue'")
    if backend == "queue":
        from .dist import HttpJobQueue, SweepRunner

        queue = None
        if queue_url is not None:
            if queue_dir is not None:
                raise ValueError("pass queue_url or queue_dir, not both")
            queue = HttpJobQueue(queue_url)
        runner = SweepRunner(
            specs,
            queue=queue,
            queue_dir=queue_dir,
            workers=workers,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            bundle=bundle,
            share_frames=share_frames,
        )
        result = runner.run()
        if result.failures:
            summary = "; ".join(
                f"{job_id}: {error.strip().splitlines()[-1]}"
                for job_id, error in sorted(result.failures.items())
            )
            raise RuntimeError(
                f"{len(result.failures)} sweep job(s) failed after retries: "
                f"{summary}"
            )
        return result.reports

    from .tasks import hydrate_result, run_task

    return [hydrate_result(spec, run_task(spec)) for spec in specs]
