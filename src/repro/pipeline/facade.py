"""The ``Pipeline`` facade: one ``run()`` from scene to report.

A :class:`Pipeline` is a fully serializable job description — codec
name, codec config, scene config, and options — and ``run()`` composes
source → codec → container round trip → metrics → optional NVCA
hardware analysis, returning typed reports instead of printed strings.
Because the job spec is a plain dict under the hood, it ships across
process boundaries unchanged, which is what :func:`run_many`'s queue
backend and its worker processes rely on.

>>> from repro.pipeline import Pipeline
>>> report = Pipeline("ctvc", {"channels": 12}, scene={"frames": 4}).run()
>>> report.bpp, report.mean_psnr  # doctest: +SKIP

The round trip is written once here: :func:`encode_loop` (encoder
session → ``StreamWriter``) and :class:`DecodeLoop` (``StreamReader``
→ decoder session → per-frame quality).  Every ``EncodeSession`` mode,
``repro encode``/``repro decode`` and the evaluation harness run
through these two loops; rate is container bits per pixel, quality the
mean per-frame PSNR.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np

from repro.codec import SequenceBitstream, StreamReader, StreamWriter
from repro.hw import NVCAConfig
from repro.metrics import ms_ssim, psnr
from repro.serialization import ConfigError, SerializableConfig
from repro.video import SceneConfig, generate_sequence, iter_sequence

from .jobs import build_jobs, encode_configs, encode_spec
from .registry import VideoCodec, create_codec
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


def _open(target, mode: str):
    """``(handle, owned)`` for a path (opened here) or a file object."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode), True
    return target, False


def encode_loop(codec, frames, sink, *, header=None, progress=None):
    """The one encode loop: ``frames`` through an encoder session into a
    version-4 container on ``sink`` (a path or a binary file object).

    Returns ``(frames, stream_bytes, frame_bits, seconds)``: frames in,
    container bytes out, wire bits per packet, and the seconds spent in
    the codec and the container only — never in the frame source (scene
    synthesis, YUV reads) or the callback.  ``header`` entries extend
    the session's stream header; the first packet fixes the geometry,
    so the container header is written then.  ``progress(frame_index,
    packet_bytes)`` fires per frame.  Frames are consumed one at a
    time, so a lazy source keeps frame memory O(1).
    """
    handle, owned = _open(sink, "wb")
    frame_bits: list[int] = []
    count = 0
    try:
        start = time.perf_counter()
        session = codec.open_encoder()
        writer = StreamWriter(handle)

        def write(packets) -> int:
            nbytes = 0
            for packet in packets:
                if writer.header is None:
                    writer.write_header({**session.header, **(header or {})})
                size = writer.write_packet(packet)
                frame_bits.append(8 * (size - 8))  # minus size and CRC words
                nbytes += size
            return nbytes

        seconds = time.perf_counter() - start
        for frame in frames:
            start = time.perf_counter()
            nbytes = write(session.push(frame))
            seconds += time.perf_counter() - start
            del frame  # the session owns what it needs; stay O(1)
            count += 1
            if progress is not None:
                progress(count, nbytes)
        start = time.perf_counter()
        write(session.flush())
        if writer.header is None:
            raise ConfigError("no frames to encode")
        total = writer.finalize()
        seconds += time.perf_counter() - start
    finally:
        if owned:
            handle.close()
    return count, total, frame_bits, seconds


class DecodeLoop:
    """The one decode loop: a container (a path or a readable binary
    file object) through a decoder session, scored frame by frame.

    ``setup(header)`` returns ``(codec, reference)`` once the stream
    header is read: the codec to decode with and the source frames to
    score against (``None`` scores nothing).  A list ``reference`` is
    in memory already, so the decoded frames are kept too
    (``decoded``); any other iterable is consumed lazily and the loop
    holds one frame at a time.  PSNR (and MS-SSIM with
    ``compute_msssim``) lands in ``psnrs``/``msssims``; ``frame_bits``
    records each packet's wire bits; ``progress(frame_index, psnr)``
    fires per frame.

    Iterating yields the decoded frames (``repro decode`` writes them
    to YUV as they come); :meth:`run` just drains the loop.  A loop is
    iterated once: its tallies accumulate.
    ``seconds`` times the container and the codec only, never the
    setup, the reference source, quality scoring or the consumer.
    """

    def __init__(self, source, setup, *, compute_msssim=False, progress=None,
                 on_error="raise"):
        self.source = source
        self._setup = setup
        self._compute_msssim = compute_msssim
        self._progress = progress
        self._on_error = on_error
        self.header: dict | None = None
        self.version: int | None = None
        self.packets_skipped = 0
        self.frames = 0
        self.psnrs: list[float] = []
        self.msssims: list[float] = []
        self.frame_bits: list[int] = []
        self.decoded: list[np.ndarray] | None = None
        self.stream_bytes: int | None = None
        self.seconds = 0.0

    @staticmethod
    def _recorded(reader, read: list):
        for packet in reader:
            read.append(packet)
            yield packet

    def __iter__(self):
        handle, owned = _open(self.source, "rb")
        try:
            start_pos = _tell(handle)
            start = time.perf_counter()
            reader = StreamReader(handle, on_error=self._on_error)
            self.seconds += time.perf_counter() - start
            self.header, self.version = reader.header, reader.version
            codec, reference = self._setup(reader.header)
            originals = None if reference is None else iter(reference)
            if isinstance(reference, list):
                self.decoded = []
            start = time.perf_counter()
            session = codec.open_decoder(reader.header, version=reader.version)
            read: list = []
            frames = session.decode_iter(self._recorded(reader, read))
            self.seconds += time.perf_counter() - start
            while True:
                start = time.perf_counter()
                decoded = next(frames, None)
                self.seconds += time.perf_counter() - start
                # packet accounting stays outside the timed region
                self.frame_bits += [8 * len(p.serialize()) for p in read]
                read.clear()
                if decoded is None:
                    break
                self.frames += 1
                if originals is not None:
                    original = next(originals, None)
                    if original is None:
                        raise ValueError(
                            f"container has more frames than its reference: "
                            f"the reference has fewer frames (ran out at "
                            f"frame {self.frames})"
                        )
                    self.psnrs.append(float(psnr(original, decoded)))
                    if self._compute_msssim:
                        self.msssims.append(float(ms_ssim(original, decoded)))
                if self.decoded is not None:
                    self.decoded.append(decoded)
                if self._progress is not None:
                    self._progress(self.frames, self.psnrs[-1] if self.psnrs else "-")
                yield decoded
            self.packets_skipped = reader.packets_skipped
            # The reader stops right after the end sentinel (v1/v2: at
            # the end of the file), so the position delta is the
            # container size.
            end_pos = _tell(handle)
            if start_pos is not None and end_pos is not None:
                self.stream_bytes = end_pos - start_pos
        finally:
            if owned:
                handle.close()

    def run(self) -> "DecodeLoop":
        for _ in self:
            pass
        return self


def _tell(handle) -> int | None:
    try:
        return handle.tell()
    except (AttributeError, OSError):
        return None


class EncodeSession:
    """One encode run with inspectable intermediates.

    The facade's unit of work: ``prepare()`` builds the codec and
    renders the source, ``encode()``/``decode()`` run the codec through
    a real container round trip, ``report()`` measures rate and
    quality.  ``run()`` chains all of it.  After any stage the
    intermediates (``frames``, ``payload``, ``stream`` — the payload
    parsed — and ``decoded``) are attributes, so notebooks can poke at
    the actual bitstream.

    Every mode goes through the same two loops, :func:`encode_loop` and
    :class:`DecodeLoop`; only the sink differs:

    * **in memory** (no ``output``) — the materialized (or injected,
      e.g. warm-cached) frames are written to an in-memory container
      whose header is the codec's session header alone, kept as
      ``payload``.  Decoding scores against ``frames`` and keeps
      ``decoded``.
    * **to a file** (``encode(output=...)``, a path or binary file
      object) — frames come from a lazy scene generator and the header
      also records the registry name, full config and scene, so ``repro
      decode`` can rebuild the decoder and score quality unaided.
      ``decode()`` reads the container back, scoring against a
      regenerated scene: O(1) frame memory on both sides.

    Both modes write the same packets and take per-frame
    ``progress(frame_index, packet_bytes)`` on encode and
    ``progress(frame_index, psnr)`` on decode.  One timing rule holds in
    every mode: ``encode_seconds`` and ``decode_seconds`` time the codec
    and the container only — never scene synthesis, YUV reads or
    quality scoring.

    **Simulated codecs** — a registered pseudo-codec exposing
    ``simulate()`` (the calibrated ``rd-model``) skips the byte path
    entirely; ``report()`` carries its calibrated rate/quality.
    """

    def __init__(self, pipeline: "Pipeline"):
        self.pipeline = pipeline
        self.codec: VideoCodec | None = None
        self.frames: list[np.ndarray] | None = None
        self.payload: bytes | None = None
        self.decoded: list[np.ndarray] | None = None
        self.encode_seconds: float | None = None
        self.decode_seconds: float | None = None
        #: the container file a streamed encode wrote (``None`` for a
        #: file object or in memory)
        self.stream_path: str | None = None
        self.stream_bytes: int | None = None
        self.frames_encoded: int | None = None
        #: per-packet wire bits, from whichever side of the round trip
        #: ran first
        self._frame_bits: list[int] | None = None
        self._scores: DecodeLoop | None = None
        # -- simulated (rd-model) state ----------------------------------
        self.simulated: dict | None = None

    @property
    def stream(self) -> SequenceBitstream | None:
        """The in-memory container, parsed (``None`` until an in-memory
        encode)."""
        return None if self.payload is None else SequenceBitstream.parse(self.payload)

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
        """Encode the scene into an in-memory container, or (``output``
        given) into a container file written frame by frame."""
        spec = self.pipeline
        if self.codec is None:
            self.codec = create_codec(spec.codec, spec.codec_config)
        if self._is_simulated:
            if output is not None:
                raise ConfigError(
                    f"codec {spec.codec!r} is a simulated RD model; "
                    "it produces no bitstream to stream to a file"
                )
            scene = spec.scene
            self.simulated = self.codec.simulate(
                scene.frames,
                scene.height,
                scene.width,
                compute_msssim=spec.compute_msssim,
            )
            self.encode_seconds = 0.0
            return self
        if output is None:
            sink, frames, header = io.BytesIO(), self.prepare().frames, None
        else:
            sink, frames = output, iter_sequence(spec.scene)
            header = {
                "registry": spec.codec,
                "config": self.codec.config.to_dict(),
                "scene": spec.scene.to_dict(),
            }
        (self.frames_encoded, self.stream_bytes, self._frame_bits,
         self.encode_seconds) = encode_loop(
            self.codec, frames, sink, header=header, progress=progress
        )
        self.payload = sink.getvalue() if output is None else None
        self.stream_path = (
            os.fspath(output) if isinstance(output, (str, os.PathLike)) else None
        )
        return self

    def decode(self, *, source=None, progress=None) -> "EncodeSession":
        """Decode a container and score it frame by frame.

        The container is ``source`` (a path or readable binary file
        object) if given, else what ``encode`` wrote (encoding first
        if nothing was).  Frames are scored against ``frames`` when the
        session holds them (and ``decoded`` is kept), else against a
        regenerated scene in O(1) frame memory.
        """
        if self.simulated is not None:
            return self
        if source is None and self.stream_path is None and self.payload is None:
            if self.frames_encoded is not None:
                # A streamed encode went to a caller-owned file object;
                # re-encoding in memory here would silently discard it.
                raise ValueError(
                    "this session streamed to a file object; pass "
                    "decode(source=...) to read that container back"
                )
            self.encode()
            if self.simulated is not None:  # encode() chose the rd-model path
                return self
        if source is None:
            source = self.stream_path or io.BytesIO(self.payload)
        spec = self.pipeline
        if self.codec is None:
            self.codec = create_codec(spec.codec, spec.codec_config)
        # The loop is kept on the session, so its setup must not hold
        # the session: that cycle would keep every decoded frame alive
        # until the next garbage collection.
        codec = self.codec
        reference = (
            self.frames if self.frames is not None else iter_sequence(spec.scene)
        )
        scores = DecodeLoop(
            source,
            lambda header: (codec, reference),
            compute_msssim=spec.compute_msssim,
            progress=progress,
        ).run()
        if not scores.frames:
            raise ValueError("container holds no frames")
        self.decode_seconds = scores.seconds
        self.decoded = scores.decoded
        self._scores = scores
        if self._frame_bits is None:
            self._frame_bits = scores.frame_bits
        if self.stream_bytes is None:
            self.stream_bytes = scores.stream_bytes
        return self

    def report(self) -> EncodeReport:
        spec = self.pipeline
        scene = spec.scene
        if self.simulated is None and self._scores is None:
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
        scores = self._scores
        num_frames = scores.frames
        stream_bytes = self.stream_bytes or 0
        frame_bits = self._frame_bits
        fps = float(self.codec.config.to_dict().get("fps", 30.0) or 30.0)
        achieved_kbps = (
            sum(frame_bits) * fps / (num_frames * 1000.0) if frame_bits else None
        )
        return EncodeReport(
            codec=spec.codec,
            codec_config=self.codec.config.to_dict(),
            scene=scene.to_dict(),
            frames=num_frames,
            height=scene.height,
            width=scene.width,
            stream_bytes=stream_bytes,
            bpp=8.0 * stream_bytes / (num_frames * scene.height * scene.width),
            psnr_per_frame=scores.psnrs,
            mean_psnr=float(np.mean(scores.psnrs)),
            msssim_per_frame=scores.msssims,
            mean_msssim=float(np.mean(scores.msssims)) if scores.msssims else None,
            frame_bits=frame_bits,
            achieved_kbps=achieved_kbps,
            encode_seconds=self.encode_seconds,
            decode_seconds=self.decode_seconds,
        )

    def run(self, *, output=None, progress=None) -> EncodeReport:
        """Chain the stages.  With ``output`` the round trip goes
        through a container file — a path, or a readable+seekable
        binary file object (rewound and decoded in place; for
        write-only streams use ``encode``/``decode`` separately)."""
        source = None
        if output is not None and not isinstance(output, (str, os.PathLike)):
            if not (
                getattr(output, "readable", lambda: False)()
                and getattr(output, "seekable", lambda: False)()
            ):
                raise ValueError(
                    "run(output=...) needs a path or a readable, seekable "
                    "binary file object; with a write-only stream call "
                    "encode(output=...) and decode(source=...) yourself"
                )
            source = output
        self.encode(output=output, progress=progress)
        if source is not None:
            source.seek(0)
        return self.decode(source=source).report()


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
        self.codec = codec
        self.codec_config, self.scene, self.hardware = encode_configs(
            codec, codec_config, scene, hardware
        )
        self.compute_msssim = compute_msssim

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict:
        return encode_spec(
            self.codec, self.codec_config, self.scene,
            compute_msssim=self.compute_msssim, hardware=self.hardware,
        )

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
    max_attempts: int | None = None,
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
      ``max_attempts`` times (default: what ``queue_dir`` was created
      with, else 3); ``bundle`` (a size, or ``"auto"``) claims
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
        from .dist import SweepRunner, open_queue

        queue = open_queue(
            queue_dir=queue_dir, queue_url=queue_url, max_attempts=max_attempts
        )
        runner = SweepRunner(
            specs,
            queue=queue,
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
