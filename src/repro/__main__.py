"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``reproduce``  — regenerate every table and figure (the default).
* ``encode``     — run one codec through the ``repro.pipeline`` facade
                   and report rate/quality.  ``--stream`` switches to
                   the frame-at-a-time session API, writing the
                   incremental version-4 container to ``--output`` as
                   packets are produced (O(1) frame memory); ``--input
                   clip.yuv`` feeds raw YUV 4:2:0 frames from disk
                   instead of the synthetic scene.
* ``decode``     — round-trip a container file (any format version)
                   back to frames, reporting rate/quality; ``--output``
                   writes the reconstruction as raw YUV 4:2:0.
* ``sweep``      — run a (codec, qp, scene) RD grid on the work-queue
                   backend (``--workers N`` threads, processes with
                   ``--queue-dir``, or HTTP worker processes against a
                   ``repro serve`` daemon with ``--queue-url``;
                   ``--resume`` continues an interrupted sweep from
                   the same directory or server) and aggregate RD
                   curves + BD-rate vs ``--anchor``.
* ``serve``      — run the JSON-over-HTTP job-queue daemon
                   (``--queue-dir`` for durable state, ``--autoscale``
                   to grow/shrink a local worker fleet against queue
                   depth and lease expiries).
* ``worker``     — join a fleet: drain jobs from a ``repro serve``
                   daemon (``--queue-url``) or a shared queue
                   directory (``--queue-dir``) until empty, or
                   ``--forever``; ``--job-timeout`` arms a per-job
                   wall-clock watchdog.
* ``failures``   — list a queue's dead-letter ledger: every failed
                   job with attempts, quarantine flag, and error
                   (``-v`` for full tracebacks).
* ``retry``      — resubmit dead-lettered jobs (by id or ``--all``)
                   with a fresh attempt budget; the specs ride in the
                   failed records, so replay needs no other input.
* ``ladder``     — build an ABR ladder (renditions = resolution ×
                   target bitrate) as a fleet workload on the same
                   work-queue backend as ``sweep``; each rung is a
                   rate-controlled encode (``--rate-control``,
                   default ``calibrated``) reporting achieved kbps,
                   overshoot %, and budget violations.
* ``hardware``   — analyze a registered accelerator platform:
                   ``--platform nvca`` (default) runs the full NVCA
                   performance/energy/area roll-up with the operating
                   point under ``--pif/--pof/--rho/--frequency``
                   control; the Table II references
                   (``--platform gpu-rtx3090``, ...) report their
                   published columns, optionally node-projected with
                   ``--technology``.
* ``dse``        — sweep one NVCA design-space axis (``--grid
                   geometry|sparsity|frequency``) through the same
                   work-queue backend as ``sweep`` (``--workers``,
                   ``--queue-dir``, ``--queue-url``, ``--resume``) and
                   report the design-point table with its Pareto front
                   (``--pareto`` for the frontier alone).
* ``trace``      — render a flight-recorder JSONL dump (a fleet
                   command's ``--trace-out`` file, or the daemon's
                   ``/trace`` endpoint saved to disk) as a nested span
                   tree with per-span durations and the critical path.

``sweep``/``ladder``/``dse`` also take ``--metrics-out`` (write the
runner's metrics registry as Prometheus text after the run) and
``--trace-out`` (switch span tracing on and dump the flight recorder
as JSONL); ``repro --version`` prints the build stamped into
heartbeats and trace files.

Every subcommand accepts ``--json`` to emit the structured report
(``to_dict()``) instead of the human rendering, and ``-o/--output`` to
write the result to a file as well as stdout — except in streaming
mode, where ``--output`` names the bitstream/YUV artifact and the
report goes to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys


def _emit(args, text: str, payload: dict) -> int:
    """Print (and optionally save) either rendering of a report."""
    out = json.dumps(payload, indent=2, sort_keys=True) if args.json else text
    print(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.eval import main as eval_main
    from repro.eval.runner import report_dict, run_all

    if args.json:
        results = run_all(fast=not args.full)
        return _emit(args, "", report_dict(results))
    return _emit(args, eval_main(fast=not args.full), {})


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def progress(index: int, value) -> None:
        print(f"  frame {index}: {value}", file=sys.stderr)

    return progress


def _config_overrides(config_cls, knobs, config_json=None) -> dict:
    """Map CLI ``(name, value)`` knobs onto the fields ``config_cls``
    defines, over the JSON ``--config`` document ``config_json``.

    Unset (``None``) knobs and fields the config class lacks are
    skipped, so one knob set serves every registered config.  The
    generic ``qp`` knob drives whatever the config calls its
    quantization field: CTVC's latent ``qstep``, classical's ``qp``.
    """
    fields = {f.name for f in dataclasses.fields(config_cls)}
    config = dict(json.loads(config_json)) if config_json else {}
    for name, value in knobs:
        if name == "qp" and "qstep" in fields:
            name = "qstep"
        if value is not None and name in fields:
            config[name] = value
    return config


def _cmd_encode(args) -> int:
    from repro.pipeline import CodecRegistryError, Pipeline, codec_spec

    try:
        config_cls = codec_spec(args.codec).config_cls
    except CodecRegistryError as exc:
        print(f"repro encode: {exc}", file=sys.stderr)
        return 2
    # --target-kbps alone implies a controller; "abr" needs no
    # calibration, so it is the sensible default.
    rate_control = args.rate_control
    if rate_control is None and args.target_kbps is not None:
        rate_control = "abr"
    config = config_cls.from_dict(_config_overrides(config_cls, (
        ("qp", args.qp),
        ("channels", args.channels),
        ("entropy_backend", args.entropy_backend),
        ("rate_control", rate_control),
        ("target_kbps", args.target_kbps),
        ("fps", args.fps),
    )))
    if args.input is not None and not args.stream:
        print("repro encode: --input needs --stream", file=sys.stderr)
        return 2
    if args.stream:
        if not args.output:
            print(
                "repro encode: --stream needs --output (the container file)",
                file=sys.stderr,
            )
            return 2
        if args.input is not None:
            return _encode_stream_yuv(args, config)
        # Synthetic scene through the facade's streaming mode: the
        # container is written incrementally and quality is scored
        # frame by frame against the regenerated scene.
        pipeline = Pipeline(
            args.codec,
            config,
            scene={
                "height": args.height,
                "width": args.width,
                "frames": args.frames,
            },
            compute_msssim=args.msssim,
        )
        report = pipeline.session().run(
            output=args.output, progress=_progress_printer(args.progress)
        )
        payload = report.to_dict()
        payload["container"] = args.output
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json
              else f"{report.render()}\n  container: {args.output}")
        return 0
    pipeline = Pipeline(
        args.codec,
        config,
        scene={"height": args.height, "width": args.width, "frames": args.frames},
        compute_msssim=args.msssim,
    )
    report = pipeline.run()
    return _emit(args, report.render(), report.to_dict())


def _encode_stream_yuv(args, config) -> int:
    """File-to-file transcode: raw YUV in, v4 container out, one frame
    in memory at a time (the zero-copy path long sequences use)."""
    import time

    from repro.codec import StreamWriter
    from repro.pipeline import create_codec
    from repro.video import read_yuv420

    source = read_yuv420(args.input, args.height, args.width)
    codec = create_codec(args.codec, config)
    progress = _progress_printer(args.progress)
    start = time.perf_counter()
    count = 0
    with open(args.output, "wb") as out:
        session = codec.open_encoder()
        writer = StreamWriter(out)
        for packet in session.encode_iter(iter(source)):
            if writer.header is None:
                header = dict(session.header)
                header["registry"] = args.codec
                header["config"] = codec.config.to_dict()
                writer.write_header(header)
            nbytes = writer.write_packet(packet)
            count += 1
            if progress is not None:
                progress(count, nbytes)
        total = writer.finalize()
    seconds = time.perf_counter() - start
    payload = {
        "codec": args.codec,
        "codec_config": codec.config.to_dict(),
        "input": args.input,
        "container": args.output,
        "frames": count,
        "height": args.height,
        "width": args.width,
        "stream_bytes": total,
        "bpp": 8.0 * total / (max(count, 1) * args.height * args.width),
        "encode_seconds": seconds,
    }
    text = (
        f"{args.codec}: {count} frames @ {args.width}x{args.height} from "
        f"{args.input}, {payload['bpp']:.3f} bpp\n  container: {args.output}"
    )
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return 0


def _cmd_decode(args) -> int:
    """Round-trip a container file through a streaming decoder session."""
    import time

    import numpy as np

    from repro.codec import StreamReader
    from repro.metrics import psnr
    from repro.pipeline import create_codec
    from repro.video import SceneConfig, iter_sequence, read_yuv420, write_yuv420

    #: headers written before the "registry" field name codecs by their
    #: on-wire name; map them back to registry names.
    wire_names = {"ctvc-net": "ctvc", "classical-dct": "classical"}
    start = time.perf_counter()
    with open(args.bitstream, "rb") as handle:
        reader = StreamReader(handle, on_error=args.on_error)
        header = reader.header
        codec_name = args.codec or header.get("registry")
        if codec_name is None:
            codec_name = wire_names.get(header.get("codec"))
        if codec_name is None:
            print(
                f"repro decode: cannot infer the codec from the stream header "
                f"({header.get('codec')!r}); pass --codec",
                file=sys.stderr,
            )
            return 2
        from repro.pipeline import codec_spec

        config = header.get("config")
        if config is None:
            # Pre-v3 headers record operating parameters inline (qp,
            # channels, qstep, gop, entropy); map the ones the codec's
            # config understands so v1/v2 streams decode with the
            # parameters they were encoded with.  Unrecorded knobs
            # (e.g. CTVC's seed) need --config.
            fields = {
                f.name
                for f in dataclasses.fields(codec_spec(codec_name).config_cls)
            }
            config = {k: v for k, v in header.items() if k in fields}
            if "entropy" in header and "entropy_backend" in fields:
                config["entropy_backend"] = header["entropy"]
        if args.config:
            config = {**(config or {}), **json.loads(args.config)}
        codec = create_codec(codec_name, config)
        session = codec.open_decoder(header, version=reader.version)
        height = int(header.get("height", 0))
        width = int(header.get("width", 0))

        # Reference frames for quality scoring: an explicit YUV file,
        # or the scene the facade embedded in a streaming header.
        originals = None
        if args.reference:
            originals = iter(read_yuv420(args.reference, height, width))
        elif "scene" in header:
            originals = iter_sequence(SceneConfig.from_dict(header["scene"]))

        psnrs: list[float] = []
        count = 0
        progress = _progress_printer(args.progress)

        def frames():
            nonlocal count
            for decoded in session.decode_iter(reader):
                count += 1
                if originals is not None:
                    try:
                        original = next(originals)
                    except StopIteration:
                        raise ValueError(
                            f"reference has fewer frames than the bitstream "
                            f"(ran out at frame {count})"
                        ) from None
                    psnrs.append(float(psnr(original, decoded)))
                if progress is not None:
                    progress(count, psnrs[-1] if psnrs else "-")
                yield decoded

        if args.output:
            write_yuv420(args.output, frames())
        else:
            for _ in frames():
                pass
    seconds = time.perf_counter() - start
    stream_bytes = os.path.getsize(args.bitstream)
    payload = {
        "codec": codec_name,
        "container_version": reader.version,
        "bitstream": args.bitstream,
        "packets_skipped": reader.packets_skipped,
        "frames": count,
        "height": height,
        "width": width,
        "stream_bytes": stream_bytes,
        "bpp": 8.0 * stream_bytes / (max(count, 1) * max(height * width, 1)),
        "psnr_per_frame": psnrs,
        "mean_psnr": float(np.mean(psnrs)) if psnrs else None,
        "decode_seconds": seconds,
        "output": args.output,
    }
    text = (
        f"{codec_name}: {count} frames @ {width}x{height} from "
        f"{args.bitstream} (v{reader.version}), {payload['bpp']:.3f} bpp"
    )
    if psnrs:
        text += f", {payload['mean_psnr']:.2f} dB PSNR"
    if reader.packets_skipped:
        text += f"\n  WARNING: {reader.packets_skipped} corrupt packet(s) skipped"
    if args.output:
        text += f"\n  reconstruction: {args.output}"
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return 0


def _csv_rows(result) -> list[list]:
    """Flatten a SweepResult into CSV rows (one per completed job)."""
    from repro.metrics import scene_label

    rows = [[
        "codec", "scene", "bpp", "mean_psnr", "mean_msssim",
        "stream_bytes", "frames", "codec_config",
    ]]
    for report in result.reports:
        rows.append([
            report.codec,
            scene_label(report.scene),
            report.bpp,
            report.mean_psnr,
            "" if report.mean_msssim is None else report.mean_msssim,
            report.stream_bytes,
            report.frames,
            json.dumps(report.codec_config, sort_keys=True),
        ])
    return rows


def _obs_start(args) -> None:
    """``--trace-out`` opts the run into span tracing (off by default;
    metrics are always on, so ``--metrics-out`` needs no arming)."""
    if args.trace_out:
        from repro.obs import enable

        enable()


def _obs_write(args) -> None:
    """Write the ``--metrics-out`` / ``--trace-out`` artifacts after a
    fleet run.  Metrics are this process's registry (runner-side
    counters; worker-side series ride the daemon's ``/metrics``
    endpoint), the trace is the flight recorder's ring as JSONL."""
    if args.metrics_out:
        from repro.obs import get_registry

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(get_registry().render())
    if args.trace_out:
        from repro.obs import get_recorder

        get_recorder().dump(args.trace_out)


def _cmd_trace(args) -> int:
    """Render a flight-recorder JSONL dump (from ``--trace-out`` or the
    daemon's ``/trace`` endpoint): the span tree, then the critical
    path (slowest root, descending into its slowest child)."""
    from repro.obs import critical_path, load_trace, render_trace_tree

    meta, spans = load_trace(args.trace_file)
    payload = {"meta": meta, "spans": spans}
    if not spans:
        return _emit(args, f"{args.trace_file}: no spans recorded", payload)
    header = f"{len(spans)} span(s) from {args.trace_file}"
    if meta and meta.get("version"):
        header += f"  (repro {meta['version']})"
    lines = [header, render_trace_tree(spans, max_roots=args.max_roots)]
    chain = critical_path(spans)
    payload["critical_path"] = chain
    lines.append("critical path:")
    for record in chain:
        dur_ms = float(record.get("dur_s", 0.0)) * 1000.0
        lines.append(f"  {record.get('name', '?')}  {dur_ms:.2f}ms")
    return _emit(args, "\n".join(lines), payload)


def _open_queue(args, command: str):
    """Check a fleet command's ``--queue-dir``/``--queue-url``/
    ``--resume`` flags and open its queue; returns ``(queue, status)``.

    ``queue`` is ``None`` when neither flag is given (the runner's
    in-memory queue).  A queue that already holds jobs is refused
    without ``--resume``, whichever transport backs it.  A nonzero
    ``status`` is a refusal, explained on stderr.  Flag conflicts are
    refused before any queue is opened, and a queue refused for
    holding jobs already existed, so a refusal creates no directory.
    """
    from repro.pipeline.dist import DirectoryJobQueue, HttpJobQueue

    if args.queue_url and args.queue_dir:
        print(f"repro {command}: pass --queue-url or --queue-dir, not both "
              "(the server owns the backing queue; point workers and runners "
              "at its URL)", file=sys.stderr)
        return None, 2
    if args.resume and not (args.queue_dir or args.queue_url):
        print(f"repro {command}: --resume needs --queue-dir or --queue-url "
              "(the durable queue state to continue from)", file=sys.stderr)
        return None, 2
    if args.queue_url:
        queue, flag = HttpJobQueue(args.queue_url), "--queue-url"
    elif args.queue_dir:
        queue = DirectoryJobQueue(args.queue_dir, max_attempts=args.max_attempts)
        flag = "--queue-dir"
    else:
        return None, 0
    held = 0 if args.resume else queue.stats().total
    if held:
        print(
            f"repro {command}: {flag} {args.queue_url or args.queue_dir!r} "
            f"already holds {held} job(s); pass --resume to continue that "
            f"run or point {flag} at an empty queue",
            file=sys.stderr,
        )
        return None, 2
    return queue, 0


def _run_fleet(
    args, runner, csv_rows, report=lambda r: (r.render(), r.to_dict())
) -> int:
    """Run a fleet command's runner and report its result.

    Shared tail of ``sweep``/``ladder``/``dse``: queue progress on
    stderr (``--progress``), the ``--metrics-out``/``--trace-out``
    artifacts, ``csv_rows(result)`` to ``--csv``, then the report
    (``report(result) -> (text, payload)``).  Exit code 1 when any job
    failed.
    """
    import csv

    progress = None
    if args.progress:
        def progress(stats):
            print(
                f"  pending {stats.pending}  claimed {stats.claimed}  "
                f"done {stats.done}  failed {stats.failed}",
                file=sys.stderr,
            )
    _obs_start(args)
    result = runner.run(progress)
    _obs_write(args)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(csv_rows(result))
    _emit(args, *report(result))
    return 0 if result.ok else 1


def _cmd_sweep(args) -> int:
    from repro.pipeline import SweepRunner

    codecs = [c.strip() for c in args.codecs.split(",") if c.strip()]
    if not codecs:
        print("repro sweep: --codecs must name at least one codec",
              file=sys.stderr)
        return 2
    try:
        qps = [float(q) for q in args.qps.split(",") if q.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"repro sweep: bad --qps/--seeds value ({exc})", file=sys.stderr)
        return 2
    # One override document per operating point; grid expansion keeps
    # only the keys each codec's config defines, so the same document
    # drives CTVC's qstep and classical's qp.
    configs = []
    for qp in qps or [None]:
        overrides = {}
        if qp is not None:
            overrides.update({"qstep": qp, "qp": qp})
        if args.channels is not None:
            overrides["channels"] = args.channels
        if args.entropy_backend is not None:
            overrides["entropy_backend"] = args.entropy_backend
        configs.append(overrides)
    scenes = [
        {
            "height": args.height,
            "width": args.width,
            "frames": args.frames,
            "seed": seed,
        }
        for seed in (seeds or [0])
    ]
    anchor = args.anchor
    if anchor == "auto":
        anchor = None
        if len(codecs) > 1:
            anchor = "classical" if "classical" in codecs else codecs[0]
    elif anchor == "none":
        anchor = None

    queue, status = _open_queue(args, "sweep")
    if status:
        return status
    runner = SweepRunner(
        codecs=codecs,
        codec_configs=configs,
        scenes=scenes,
        compute_msssim=args.msssim,
        queue=queue,
        workers=args.workers,
        lease_seconds=args.lease,
        max_attempts=args.max_attempts,
        bundle=args.bundle,
        metric=args.metric,
        anchor=anchor,
    )
    return _run_fleet(args, runner, _csv_rows)


def _parse_renditions(text: str):
    """Parse ``WxH:KBPS,...`` rendition tokens into Rendition objects."""
    from repro.pipeline import Rendition

    renditions = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        geometry, sep, kbps = token.partition(":")
        width, wh_sep, height = geometry.partition("x")
        if not sep or not wh_sep:
            raise ValueError(f"{token!r} is not of the form WxH:KBPS")
        renditions.append(
            Rendition(
                height=int(height),
                width=int(width),
                target_kbps=float(kbps),
            )
        )
    return renditions


_LADDER_CSV_COLUMNS = (
    "label", "width", "height", "target_kbps", "achieved_kbps",
    "overshoot_pct", "budget_violations", "mean_psnr", "bpp",
    "stream_bytes", "frames",
)


def _ladder_csv_rows(result) -> list[list]:
    """Flatten a LadderResult into CSV rows (one per completed rung)."""
    rows = [list(_LADDER_CSV_COLUMNS)]
    for row in result.table():
        rows.append([
            "" if row[column] is None else row[column]
            for column in _LADDER_CSV_COLUMNS
        ])
    return rows


def _cmd_ladder(args) -> int:
    from repro.pipeline import (
        CodecRegistryError,
        LadderRunner,
        LadderSpec,
        codec_spec,
    )

    try:
        renditions = _parse_renditions(args.renditions)
    except ValueError as exc:
        print(f"repro ladder: bad --renditions ({exc})", file=sys.stderr)
        return 2
    try:
        config_cls = codec_spec(args.codec).config_cls
    except CodecRegistryError as exc:
        print(f"repro ladder: {exc}", file=sys.stderr)
        return 2
    config = _config_overrides(config_cls, (
        ("qp", args.qp),
        ("entropy_backend", args.entropy_backend),
    ), args.config)
    spec = LadderSpec(
        renditions,
        codec=args.codec,
        codec_config=config,
        scene={"frames": args.frames, "seed": args.seed},
        rate_control=args.rate_control,
        fps=args.fps,
        compute_msssim=args.msssim,
    )

    queue, status = _open_queue(args, "ladder")
    if status:
        return status
    runner = LadderRunner(
        spec,
        queue=queue,
        workers=args.workers,
        lease_seconds=args.lease,
        max_attempts=args.max_attempts,
        bundle=args.bundle,
    )
    return _run_fleet(args, runner, _ladder_csv_rows)


def _cmd_hardware(args) -> int:
    from repro.pipeline import PlatformRegistryError, create_platform, platform_entry

    try:
        entry = platform_entry(args.platform)
    except PlatformRegistryError as exc:
        print(f"repro hardware: {exc}", file=sys.stderr)
        return 2
    # The NVCA operating point; reference platforms only take
    # --technology.
    config = _config_overrides(entry.config_cls, (
        ("pif", args.pif),
        ("pof", args.pof),
        ("rho", args.rho),
        ("frequency_mhz", args.frequency),
        ("channels", args.channels),
        ("technology_nm", args.technology),
    ), args.config)
    report = create_platform(args.platform, config).analyze(
        args.height, args.width
    )
    if report.hardware is not None:
        # Modeled platforms keep the full roll-up as the top-level
        # payload — same shape `repro hardware` has always emitted.
        return _emit(args, report.hardware.render(), report.hardware.to_dict())
    return _emit(args, report.render(), report.to_dict())


def _bundle_arg(value: str):
    """argparse type for --bundle: a positive batch size, or 'auto' to
    size bundles from the grid and worker count."""
    if value == "auto":
        return "auto"
    try:
        size = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--bundle takes a positive integer or 'auto', got {value!r}"
        ) from None
    if size < 1:
        raise argparse.ArgumentTypeError("--bundle must be >= 1 or 'auto'")
    return size


def _dse_csv_rows(result) -> list[list]:
    """Flatten a DSEResult into CSV rows (one per completed point)."""
    rows = [[
        "label", "pif", "pof", "rho", "frequency_mhz", "fps",
        "sustained_gops", "chip_power_w", "gate_count_m",
        "energy_efficiency", "pareto",
    ]]
    on_front = {id(point) for point in result.pareto}
    for point in result.points:
        rows.append([
            point.label, point.pif, point.pof, point.rho,
            point.frequency_mhz, point.fps, point.sustained_gops,
            point.chip_power_w, point.gate_count_m,
            point.energy_efficiency, int(id(point) in on_front),
        ])
    return rows


def _cmd_dse(args) -> int:
    from repro.pipeline import DSERunner, dse_grid

    # An axis-values flag that does not match --grid would be silently
    # discarded and a *different* sweep would run; refuse instead.
    axis_flags = {
        "geometry": ("--geometries", args.geometries),
        "sparsity": ("--rhos", args.rhos),
        "frequency": ("--frequencies", args.frequencies),
    }
    for grid_name, (flag, value) in axis_flags.items():
        if value and grid_name != args.grid:
            print(
                f"repro dse: {flag} only applies to --grid {grid_name} "
                f"(got --grid {args.grid}); drop the flag or switch grids",
                file=sys.stderr,
            )
            return 2
    values = None
    try:
        if args.grid == "geometry" and args.geometries:
            values = tuple(
                tuple(int(side) for side in geometry.split("x"))
                for geometry in args.geometries.split(",") if geometry.strip()
            )
            if any(len(geometry) != 2 for geometry in values):
                raise ValueError("geometries must be PIFxPOF pairs")
        elif args.grid == "sparsity" and args.rhos:
            values = tuple(
                float(rho) for rho in args.rhos.split(",") if rho.strip()
            )
        elif args.grid == "frequency" and args.frequencies:
            values = tuple(
                float(f) for f in args.frequencies.split(",") if f.strip()
            )
    except ValueError as exc:
        print(f"repro dse: bad grid values ({exc})", file=sys.stderr)
        return 2
    base = {}
    for name, value in (
        ("pif", args.pif),
        ("pof", args.pof),
        ("rho", args.rho),
        ("frequency_mhz", args.frequency),
        ("channels", args.channels),
    ):
        if value is not None:
            base[name] = value
    specs = dse_grid(
        args.grid,
        values=values,
        base=base,
        height=args.height,
        width=args.width,
        platform=args.platform,
    )

    queue, status = _open_queue(args, "dse")
    if status:
        return status
    runner = DSERunner(
        specs,
        queue=queue,
        workers=args.workers,
        lease_seconds=args.lease,
        max_attempts=args.max_attempts,
        bundle=args.bundle,
    )

    def report(result):
        payload = result.to_dict()
        if args.pareto:
            payload["points"] = payload["pareto"]
        return result.render(pareto_only=args.pareto), payload

    return _run_fleet(args, runner, _dse_csv_rows, report)


def _cmd_serve(args) -> int:
    """Run the JSON-over-HTTP queue daemon (optionally autoscaling a
    local worker fleet against it)."""
    import threading

    from repro.pipeline.dist import (
        Autoscaler,
        DirectoryJobQueue,
        MemoryJobQueue,
        QueueServer,
        spawn_http_worker,
    )

    if args.queue_dir:
        queue = DirectoryJobQueue(args.queue_dir, max_attempts=args.max_attempts)
        backend = f"directory queue {args.queue_dir!r}"
    else:
        queue = MemoryJobQueue(max_attempts=args.max_attempts)
        backend = "in-memory queue (state dies with the server; pass "\
                  "--queue-dir for durability and --resume)"
    server = QueueServer(queue, host=args.host, port=args.port)
    # Scraped by scripts/CI to discover an ephemeral --port 0 address;
    # keep the "serving on <url>" shape stable.
    print(f"serving on {server.url}\n  backend: {backend}", flush=True)
    stop = threading.Event()
    scaler_thread = None
    if args.autoscale:
        scaler = Autoscaler(
            queue,
            lambda: spawn_http_worker(
                server.url, lease_seconds=args.lease, bundle=args.bundle
            ),
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            backlog_per_worker=args.backlog_per_worker,
            cooldown_seconds=args.cooldown,
        )
        scaler_thread = threading.Thread(
            target=scaler.run,
            kwargs={"should_stop": stop.is_set},
            daemon=True,
        )
        scaler_thread.start()
        print(
            f"  autoscaling {args.min_workers}..{args.max_workers} workers "
            f"(backlog/worker {args.backlog_per_worker}, "
            f"cooldown {args.cooldown:g}s)",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        if scaler_thread is not None:
            scaler_thread.join(timeout=30.0)
        server.stop()
    return 0


def _one_queue_flag(args, command: str) -> bool:
    """Whether exactly one of ``--queue-url``/``--queue-dir`` is given
    (commands that attach to one existing queue); explains on stderr
    when not."""
    if bool(args.queue_url) != bool(args.queue_dir):
        return True
    print(
        f"repro {command}: pass exactly one of --queue-url (a repro serve "
        "daemon) or --queue-dir (a queue directory)",
        file=sys.stderr,
    )
    return False


def _cmd_worker(args) -> int:
    """Join a worker fleet: drain jobs from a queue server (or a shared
    queue directory) until it is empty — or forever with --forever."""
    from repro.pipeline.dist import (
        DirectoryJobQueue,
        default_worker_id,
        http_worker_entry,
        run_worker,
    )

    if not _one_queue_flag(args, "worker"):
        return 2
    worker_id = args.id or default_worker_id()
    drain = dict(
        lease_seconds=args.lease,
        poll_seconds=args.poll,
        max_jobs=args.max_jobs,
        stop_when_drained=not args.forever,
        job_timeout_seconds=args.job_timeout,
        bundle=args.bundle,
    )
    try:
        if args.queue_url:
            completed = http_worker_entry(args.queue_url, worker_id, **drain)
        else:
            queue = DirectoryJobQueue(
                args.queue_dir, max_attempts=args.max_attempts
            )
            completed = run_worker(queue, worker_id, **drain)
    except KeyboardInterrupt:
        print(f"worker {worker_id}: interrupted", file=sys.stderr)
        return 130
    print(f"worker {worker_id}: completed {completed} job(s)")
    return 0


def _attach_queue(args, command: str):
    """Attach to *existing* queue state for inspection commands
    (``repro failures`` / ``repro retry``) — no emptiness hygiene: the
    whole point is to look at what a finished or wedged run left
    behind."""
    from repro.pipeline.dist import DirectoryJobQueue, HttpJobQueue

    if not _one_queue_flag(args, command):
        return None
    if args.queue_url:
        return HttpJobQueue(args.queue_url)
    if not os.path.isdir(args.queue_dir):
        print(
            f"repro {command}: no queue directory at {args.queue_dir!r}",
            file=sys.stderr,
        )
        return None
    return DirectoryJobQueue(args.queue_dir)


def _cmd_failures(args) -> int:
    """List a queue's dead-letter ledger: every failed job with its
    attempts, quarantine flag, and error (traceback with -v)."""
    queue = _attach_queue(args, "failures")
    if queue is None:
        return 2
    details = queue.failure_details()
    payload = {
        "failed": len(details),
        "jobs": [
            {"job_id": job_id, **record}
            for job_id, record in sorted(details.items())
        ],
    }
    if not details:
        return _emit(args, "no dead-lettered jobs", payload)
    lines = [f"{len(details)} dead-lettered job(s):"]
    for job_id, record in sorted(details.items()):
        flag = "  [quarantined]" if record.get("quarantined") else ""
        error = str(record.get("error", "")).strip()
        last_line = error.splitlines()[-1] if error else "(no error recorded)"
        lines.append(
            f"  {job_id}{flag}  attempts={record.get('attempts', 0)}"
        )
        if args.verbose and error:
            lines.extend("    | " + ln for ln in error.splitlines())
        else:
            lines.append(f"    {last_line}")
    source = (
        f"--queue-url {args.queue_url}" if args.queue_url
        else f"--queue-dir {args.queue_dir}"
    )
    lines.append(f"replay with: repro retry {source} --all (or job ids)")
    return _emit(args, "\n".join(lines), payload)


def _cmd_retry(args) -> int:
    """Resubmit dead-lettered jobs: back to pending with a fresh
    attempt budget (their specs ride in the failed records)."""
    queue = _attach_queue(args, "retry")
    if queue is None:
        return 2
    if bool(args.job_ids) == bool(args.all):
        print(
            "repro retry: pass job ids (see 'repro failures') or --all",
            file=sys.stderr,
        )
        return 2
    job_ids = sorted(queue.failures()) if args.all else list(args.job_ids)
    retried, missing = [], []
    for job_id in job_ids:
        (retried if queue.retry(job_id) else missing).append(job_id)
    payload = {"retried": retried, "missing": missing}
    lines = [f"resubmitted {len(retried)} job(s)"]
    lines.extend(f"  {job_id}" for job_id in retried)
    for job_id in missing:
        lines.append(f"  {job_id}: not in the dead-letter ledger (already "
                     "retried, finished, or never existed)")
    _emit(args, "\n".join(lines), payload)
    return 0 if not missing else 1


def main(argv=None) -> int:
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the build version (also stamped into heartbeats and "
        "trace files) and exit",
    )
    # Bare ``python -m repro`` runs the default subcommand with its
    # defaults; dispatch goes through ``func`` so user argv is never
    # re-parsed or discarded.
    parser.set_defaults(func=_cmd_reproduce, full=False, output=None, json=False)
    sub = parser.add_subparsers(dest="command")

    rep = sub.add_parser("reproduce", help="regenerate all tables and figures")
    rep.add_argument("--full", action="store_true", help="include measured runs")
    rep.add_argument("-o", "--output", default=None)
    rep.add_argument("--json", action="store_true", help="emit structured JSON")
    rep.set_defaults(func=_cmd_reproduce)

    enc = sub.add_parser("encode", help="encode a clip (synthetic or raw YUV)")
    enc.add_argument("--codec", default="ctvc", help="registered codec name")
    enc.add_argument("--height", type=int, default=64)
    enc.add_argument("--width", type=int, default=96)
    enc.add_argument("--frames", type=int, default=4)
    enc.add_argument("--channels", type=int, default=12)
    enc.add_argument("--qp", type=float, default=8.0)
    enc.add_argument(
        "--entropy-backend",
        default=None,
        help="entropy coder for the codec ('rans' fast path, 'cacm' reference; "
        "default: the codec config's default)",
    )
    enc.add_argument(
        "--target-kbps", type=float, default=None,
        help="bitrate budget: engage a rate controller (default 'abr' "
        "when only this flag is given) steering per-frame QP toward "
        "this average rate",
    )
    enc.add_argument(
        "--rate-control", default=None,
        help="rate controller name ('cqp' fixed QP, 'abr' running-average "
        "budget tracking, 'calibrated' QP->bits table inversion; see "
        "available_rate_controllers())",
    )
    enc.add_argument(
        "--fps", type=float, default=None,
        help="frame rate the bitrate budget is metered at (default 30)",
    )
    enc.add_argument("--msssim", action="store_true", help="also compute MS-SSIM")
    enc.add_argument(
        "--stream",
        action="store_true",
        help="frame-at-a-time encode writing the version-4 container to "
        "--output incrementally (O(1) frame memory); report goes to stdout",
    )
    enc.add_argument(
        "--input",
        default=None,
        help="raw YUV 4:2:0 file to encode instead of the synthetic scene "
        "(streamed lazily; needs --stream, --height, --width)",
    )
    enc.add_argument(
        "--progress",
        action="store_true",
        help="print per-frame progress to stderr (streaming mode)",
    )
    enc.add_argument(
        "-o",
        "--output",
        default=None,
        help="report file; with --stream, the container file instead",
    )
    enc.add_argument("--json", action="store_true", help="emit structured JSON")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser(
        "decode", help="decode a container file (any format version)"
    )
    dec.add_argument("bitstream", help="container file to decode")
    dec.add_argument(
        "--codec",
        default=None,
        help="registered codec name (default: inferred from the stream header)",
    )
    dec.add_argument(
        "--config",
        default=None,
        help="JSON codec-config overrides (merged over the header's config, "
        "e.g. '{\"seed\": 5}' for pre-v3 CTVC streams)",
    )
    dec.add_argument(
        "--reference",
        default=None,
        help="raw YUV 4:2:0 reference for PSNR (default: the scene recorded "
        "in a streaming container header, if any)",
    )
    dec.add_argument(
        "--on-error",
        choices=["raise", "skip"],
        default="raise",
        help="corrupt-packet policy for version-4 containers: 'raise' "
        "(default) stops with the packet index; 'skip' drops damaged "
        "packets, resyncs at the next length prefix, and reports how "
        "many were lost",
    )
    dec.add_argument(
        "--progress",
        action="store_true",
        help="print per-frame progress to stderr",
    )
    dec.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the reconstruction as raw YUV 4:2:0",
    )
    dec.add_argument("--json", action="store_true", help="emit structured JSON")
    dec.set_defaults(func=_cmd_decode)

    # The queue/run/output flags every fleet command (sweep, ladder,
    # dse) shares; each takes them through ``parents=[fleet]``.
    fleet = argparse.ArgumentParser(add_help=False)
    fleet.add_argument(
        "--workers", type=int, default=2,
        help="worker count: 0 runs serially in-process; with --queue-dir "
        "or --queue-url workers are processes, otherwise threads",
    )
    fleet.add_argument(
        "--queue-dir", default=None,
        help="directory-backed job queue (durable state; other hosts "
        "sharing the filesystem can attach workers; enables --resume)",
    )
    fleet.add_argument(
        "--queue-url", default=None,
        help="run the jobs through a repro serve daemon at this URL; "
        "workers are local processes talking HTTP, and remote hosts can "
        "join with 'repro worker --queue-url'",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run from --queue-dir or --queue-url "
        "(finished jobs are not re-run)",
    )
    fleet.add_argument(
        "--lease", type=float, default=120.0,
        help="per-job lease seconds before a silent worker is presumed "
        "dead and its job is retried",
    )
    fleet.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries per job before it dead-letters into the failure report",
    )
    fleet.add_argument(
        "--bundle", type=_bundle_arg, default="auto",
        help="jobs claimed per queue round-trip; 'auto' (default) sizes "
        "bundles from the job and worker counts — transport only, results "
        "are byte-identical to --bundle 1",
    )
    fleet.add_argument(
        "--csv", default=None, help="also write the per-job table as CSV here"
    )
    fleet.add_argument(
        "--progress", action="store_true",
        help="print queue progress snapshots to stderr",
    )
    fleet.add_argument(
        "--metrics-out", default=None,
        help="write this process's metrics registry as Prometheus text "
        "after the run (fleet-wide series live on the daemon's /metrics)",
    )
    fleet.add_argument(
        "--trace-out", default=None,
        help="enable span tracing for the run and dump the flight "
        "recorder as JSONL here (render with 'repro trace FILE')",
    )
    fleet.add_argument("-o", "--output", default=None, help="report file")
    fleet.add_argument("--json", action="store_true", help="emit structured JSON")

    swp = sub.add_parser(
        "sweep",
        parents=[fleet],
        help="run an RD grid on the work-queue backend and aggregate curves",
    )
    swp.add_argument(
        "--codecs",
        default="classical,ctvc",
        help="comma-separated registered codec names (default: classical,ctvc)",
    )
    swp.add_argument(
        "--qps",
        default="8,16",
        help="comma-separated operating points; each drives the codec's "
        "quantization knob (CTVC qstep / classical qp)",
    )
    swp.add_argument("--height", type=int, default=64)
    swp.add_argument("--width", type=int, default=96)
    swp.add_argument("--frames", type=int, default=4)
    swp.add_argument(
        "--seeds",
        default="0",
        help="comma-separated scene seeds; each seed is one scene in the grid",
    )
    swp.add_argument("--channels", type=int, default=None)
    swp.add_argument(
        "--entropy-backend",
        default=None,
        help="entropy coder override for codecs that take one",
    )
    swp.add_argument("--msssim", action="store_true", help="also compute MS-SSIM")
    swp.add_argument(
        "--metric",
        choices=["psnr", "ms-ssim"],
        default="psnr",
        help="quality axis of the aggregated RD curves",
    )
    swp.add_argument(
        "--anchor",
        default="auto",
        help="anchor codec for BD-rate deltas ('auto': classical when "
        "present; 'none' to skip)",
    )
    swp.set_defaults(func=_cmd_sweep)

    lad = sub.add_parser(
        "ladder",
        parents=[fleet],
        help="build an ABR ladder (rate-controlled renditions) on the "
        "work-queue backend",
    )
    lad.add_argument(
        "--renditions",
        default="96x64:30,96x64:60,48x32:8,48x32:16",
        help="comma-separated WxH:KBPS rungs (resolution encoded to a "
        "target bitrate)",
    )
    lad.add_argument("--codec", default="classical",
                     help="registered codec name every rung runs through")
    lad.add_argument(
        "--rate-control", default="calibrated",
        help="rate controller steering each rung ('cqp', 'abr', "
        "'calibrated')",
    )
    lad.add_argument("--fps", type=float, default=30.0,
                     help="frame rate the bitrate budgets are metered at")
    lad.add_argument("--frames", type=int, default=8)
    lad.add_argument("--seed", type=int, default=0,
                     help="scene seed (one source, many rates)")
    lad.add_argument("--qp", type=float, default=None,
                     help="base quantization the controller adapts around "
                     "(default: the codec config's default)")
    lad.add_argument(
        "--entropy-backend", default=None,
        help="entropy coder override for codecs that take one",
    )
    lad.add_argument(
        "--config", default=None,
        help="JSON codec-config overrides applied to every rung "
        "(e.g. '{\"method\": \"h265\"}' for --codec rd-model)",
    )
    lad.add_argument("--msssim", action="store_true",
                     help="also compute MS-SSIM per rung")
    lad.set_defaults(func=_cmd_ladder)

    hw = sub.add_parser(
        "hardware",
        help="accelerator platform analysis (NVCA model or a Table II "
        "reference)",
    )
    hw.add_argument(
        "--platform",
        default="nvca",
        help="registered platform name ('nvca' modeled by this repo; "
        "'cpu-i9-9900x', 'gpu-rtx3090', 'shao-tcas22', 'alchemist' "
        "published references)",
    )
    hw.add_argument("--height", type=int, default=1080)
    hw.add_argument("--width", type=int, default=1920)
    hw.add_argument(
        "--pif", type=int, default=None,
        help="SCU array input-channel unrolling (NVCA; default 12)",
    )
    hw.add_argument(
        "--pof", type=int, default=None,
        help="SCU array output-channel unrolling (NVCA; default 12)",
    )
    hw.add_argument(
        "--rho", type=float, default=None,
        help="provisioned transform-domain sparsity in [0, 1) "
        "(NVCA; default 0.5)",
    )
    hw.add_argument(
        "--frequency", type=float, default=None,
        help="core clock in MHz (NVCA; default 400)",
    )
    hw.add_argument(
        "--channels", type=int, default=None,
        help="decoder channel count N (NVCA; default 36)",
    )
    hw.add_argument(
        "--technology", type=int, default=None,
        help="project a reference platform to this node (nm) via "
        "first-order scaling",
    )
    hw.add_argument(
        "--config", default=None,
        help="JSON platform-config overrides (merged under the flags, "
        "e.g. '{\"dcc_utilization\": 0.8}')",
    )
    hw.add_argument("-o", "--output", default=None)
    hw.add_argument("--json", action="store_true", help="emit structured JSON")
    hw.set_defaults(func=_cmd_hardware)

    dse = sub.add_parser(
        "dse",
        parents=[fleet],
        help="run an NVCA design-space grid on the work-queue backend "
        "and report the Pareto front",
    )
    dse.add_argument(
        "--grid",
        choices=["geometry", "sparsity", "frequency"],
        default="geometry",
        help="which axis to sweep around the paper's operating point",
    )
    dse.add_argument(
        "--geometries", default=None,
        help="comma-separated PIFxPOF pairs for --grid geometry "
        "(default: 6x6,12x6,12x12,18x12,18x18)",
    )
    dse.add_argument(
        "--rhos", default=None,
        help="comma-separated sparsity levels for --grid sparsity "
        "(default: 0,0.25,0.5,0.75)",
    )
    dse.add_argument(
        "--frequencies", default=None,
        help="comma-separated clock MHz for --grid frequency "
        "(default: 200,400,600,800)",
    )
    dse.add_argument("--height", type=int, default=1080)
    dse.add_argument("--width", type=int, default=1920)
    dse.add_argument("--platform", default="nvca",
                     help="registered (modeled) platform to explore")
    dse.add_argument("--pif", type=int, default=None,
                     help="base-config Pif for the non-swept axes")
    dse.add_argument("--pof", type=int, default=None,
                     help="base-config Pof for the non-swept axes")
    dse.add_argument("--rho", type=float, default=None,
                     help="base-config sparsity for the non-swept axes")
    dse.add_argument("--frequency", type=float, default=None,
                     help="base-config clock MHz for the non-swept axes")
    dse.add_argument("--channels", type=int, default=None,
                     help="base-config decoder channel count")
    dse.add_argument(
        "--pareto", action="store_true",
        help="report only the Pareto-optimal points",
    )
    dse.set_defaults(func=_cmd_dse)

    srv = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP job-queue daemon for network sweeps",
    )
    srv.add_argument(
        "--queue-dir",
        default=None,
        help="serve a directory-backed queue (durable: a restarted server "
        "over the same directory keeps all job state, and sweeps --resume); "
        "default is an in-memory queue that dies with the server",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default loopback; 0.0.0.0 to "
                     "accept remote workers)")
    srv.add_argument("--port", type=int, default=8642,
                     help="TCP port (0 picks a free one; the chosen URL is "
                     "printed at startup)")
    srv.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries per job before it dead-letters (backing-queue policy)",
    )
    srv.add_argument(
        "--autoscale", action="store_true",
        help="also run an autoscaler growing/shrinking a local worker fleet "
        "against queue depth and lease expiries",
    )
    srv.add_argument("--min-workers", type=int, default=0,
                     help="autoscaler floor (default 0: idle fleet scales "
                     "to nothing)")
    srv.add_argument("--max-workers", type=int, default=4,
                     help="autoscaler ceiling")
    srv.add_argument(
        "--backlog-per-worker", type=int, default=4,
        help="scale-up threshold: target at most this many pending jobs "
        "per alive worker",
    )
    srv.add_argument("--cooldown", type=float, default=2.0,
                     help="seconds between autoscaler actions")
    srv.add_argument(
        "--lease", type=float, default=120.0,
        help="per-job lease seconds for autoscaled workers",
    )
    srv.add_argument(
        "--bundle", type=int, default=1,
        help="jobs each autoscaled worker claims per queue round-trip",
    )
    srv.set_defaults(func=_cmd_serve, json=False, output=None)

    wrk = sub.add_parser(
        "worker",
        help="join a worker fleet (network or shared-filesystem queue)",
    )
    wrk.add_argument(
        "--queue-url", default=None,
        help="repro serve daemon to drain (heartbeats feed its /stats)",
    )
    wrk.add_argument(
        "--queue-dir", default=None,
        help="shared queue directory to drain instead of a server",
    )
    wrk.add_argument("--id", default=None,
                     help="worker id for lease attribution "
                     "(default: host-pid)")
    wrk.add_argument(
        "--lease", type=float, default=120.0,
        help="per-job lease seconds (size well above the slowest job)",
    )
    wrk.add_argument("--max-jobs", type=int, default=None,
                     help="exit after completing this many jobs")
    wrk.add_argument("--poll", type=float, default=0.05,
                     help="idle poll interval in seconds")
    wrk.add_argument(
        "--forever", action="store_true",
        help="keep polling an empty queue instead of exiting when drained",
    )
    wrk.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries per job before dead-letter (--queue-dir only; the "
        "server's backing queue owns this over HTTP)",
    )
    wrk.add_argument(
        "--bundle", type=int, default=1,
        help="jobs claimed per queue round-trip (one lease covers the "
        "bundle; unfinished jobs requeue if the worker dies mid-bundle)",
    )
    wrk.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock watchdog in seconds: a job still running "
        "after this long is failed with a JobTimeoutError and the worker "
        "moves on (size it below --lease; default: no watchdog)",
    )
    wrk.set_defaults(func=_cmd_worker, json=False, output=None)

    fls = sub.add_parser(
        "failures",
        help="list a queue's dead-lettered jobs (tracebacks, attempts, "
        "quarantine flags)",
    )
    fls.add_argument(
        "--queue-dir", default=None,
        help="queue directory to inspect (a finished or wedged sweep's "
        "--queue-dir)",
    )
    fls.add_argument(
        "--queue-url", default=None,
        help="repro serve daemon to inspect instead of a directory",
    )
    fls.add_argument(
        "-v", "--verbose", action="store_true",
        help="show full tracebacks instead of the last line of each error",
    )
    fls.add_argument("-o", "--output", default=None)
    fls.add_argument("--json", action="store_true",
                     help="emit structured JSON")
    fls.set_defaults(func=_cmd_failures)

    rty = sub.add_parser(
        "retry",
        help="resubmit dead-lettered jobs (fresh attempt budget; specs "
        "come from the failed records)",
    )
    rty.add_argument(
        "job_ids", nargs="*",
        help="job ids to resubmit (from 'repro failures')",
    )
    rty.add_argument("--all", action="store_true",
                     help="resubmit every dead-lettered job")
    rty.add_argument(
        "--queue-dir", default=None,
        help="queue directory holding the dead letters",
    )
    rty.add_argument(
        "--queue-url", default=None,
        help="repro serve daemon holding the dead letters",
    )
    rty.add_argument("-o", "--output", default=None)
    rty.add_argument("--json", action="store_true",
                     help="emit structured JSON")
    rty.set_defaults(func=_cmd_retry)

    trc = sub.add_parser(
        "trace",
        help="render a flight-recorder JSONL dump as a span tree with "
        "its critical path",
    )
    trc.add_argument(
        "trace_file",
        help="JSONL trace (a sweep/ladder/dse --trace-out file, or the "
        "daemon's /trace endpoint saved to disk)",
    )
    trc.add_argument(
        "--max-roots", type=int, default=None,
        help="show only the newest N root spans (default: all)",
    )
    trc.add_argument("-o", "--output", default=None, help="report file")
    trc.add_argument("--json", action="store_true", help="emit structured JSON")
    trc.set_defaults(func=_cmd_trace)

    from repro.pipeline import CodecRegistryError
    from repro.pipeline.dist import HttpQueueError
    from repro.serialization import ConfigError

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CodecRegistryError, HttpQueueError,
            ValueError, OSError) as exc:
        # User-input errors get a clean one-liner; genuine internal
        # failures still traceback so they stay diagnosable.
        print(f"repro {args.command or 'reproduce'}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
