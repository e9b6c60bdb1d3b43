#!/usr/bin/env python
"""Standalone performance benchmarks: codecs, entropy backends, kernels.

No pytest-benchmark required — run directly and get a JSON report::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke    # CI
    PYTHONPATH=src python benchmarks/run_benchmarks.py -o out.json

Measures, on the bench_codec scene (64x96, 3 frames, seed 7):

* **codecs** — end-to-end encode/decode wall time of ``CTVCNet`` and
  ``ClassicalCodec`` per entropy backend (``cacm``, ``rans``), with
  ``rans``'s ``x_vs_cacm`` speedup.  Reconstructions are asserted
  identical across backends (the entropy stage is lossless) and
  round-trips are byte-exact.
* **entropy** — symbols/sec of each backend on a long Laplacian
  stream, round-trip verified, with its ``overhead_vs_ideal`` (coded
  bits over the model's ideal bits, minus one) and ``rans``'s
  ``{encode,decode}_x_vs_cacm`` speedups.
* **rate_gap** — the rANS rate gap: stream bytes of a 3-frame I-P-P
  GOP at 352x288 (seed 1) coded by ``cacm`` and by ``rans``, for the
  classical codec and CTVC-Net (N=12), with each packet's entropy
  payload count (two for a band-count packet: band counts, then the
  coefficients they select) and each rANS payload's lane count beside
  them (the lane states' flush is what the gap pays for).
* **substrate** — CTVC-Net (N=12) P-frame encode and decode ms at
  352x288 with the float64 ``reference`` nets and the float32 ``fast``
  ones, plus ``fast``'s ``x_vs_reference``, ``psnr_delta_db`` and
  ``bytes_delta`` (relative packet-size change).
* **kernels** — conv2d / conv_transpose2d / deformable conv /
  block-match / 8x8 DCT timings of the NumPy substrate.  The
  deformable conv runs twice: with dense random weights (every tap
  sampled) and with the codec's identity-centre weights at CIF's
  144x176 feature grid (one tap of nine sampled).  Two more rows run
  the codec's own sparse weights at CIF, where zero weights are
  skipped: the motion AE's last synthesis deconv (one input channel
  per output) and the deformable-compensation offset head (one
  nonzero weight per output row).  Block matching runs at the 96x64
  toy size and at the classical_stream geometry: 640x360 luma under
  the classical defaults (8x8 blocks, search range 8).
* **container** — the integrity tax: write/read wall time of the same
  packet list through the version-3 (CRC-free) and version-4
  (header + per-packet CRC32) stream containers, with the byte
  overhead asserted to be exactly ``4 * (1 + num_packets)``.
* **rate_control** — the rate-control tax: end-to-end encode CPU time
  of the classical codec with ``rate_control="cqp"`` vs no controller
  (the non-adaptive path must be effectively free — CI asserts under
  2%), the one-off ``calibrate_tables`` probe-encode cost, and
  per-frame ``frame_qp``+``observe`` microseconds for the adaptive
  controllers.
* **sweep** — grid throughput (jobs/s) of ``run_many`` per execution
  backend on a fixed 24-job classical RD grid: a cold standalone
  invocation (``inline`` — what every fleetless sweep pays), the
  warm in-process loop (``inline_warm``), per-job-claim process
  workers (``cold_spawn``), and bundled/warm/shared-frame process and
  HTTP workers.  Tracks
  whether the distributed transport beats the standalone baseline
  (``x_vs_inline``) and how close it sits to the warm serial floor
  (``x_vs_inline_warm``).  The rows run in 5 interleaved rounds, smoke
  or full; a ratio is the median of its per-round ratios, recorded with
  its quartiles.
* **cold_start** — time to first use from a fresh interpreter, the
  median over 5 interpreters per row: ``import repro.codec``,
  ``import repro.pipeline``, building both codecs (``codec_stack``:
  ``from repro.codec import CTVCNet, ClassicalCodec``) and ``python -m
  repro serve --port 0`` up to its "serving on" line (``serve``), and
  ``repro sweep``'s default grid built and submitted to a directory
  queue (``sweep_submit``, which records whether NumPy and SciPy
  loaded: ``numpy_loaded``/``scipy_loaded``, both false).
  The ``interpreter`` row (``python -c pass``) is the floor every row
  includes.
* **hardware** — hardware-analysis throughput (design points/s) of a
  fixed NVCA geometry grid through the inline ``repro.hw.dse`` sweep;
  the same points drained once through the task-typed work queue
  (``DSERunner``, in process) must give identical points and Pareto
  front.

The report lands in ``BENCH_codec.json`` (override with ``-o``): one
entry per benchmark with per-stage milliseconds, plus the ``x_vs_cacm``
speedup per codec.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import struct
import sys
import time

import numpy as np

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCConfig,
    CTVCNet,
    LaplacianModel,
    SequenceBitstream,
    cached_laplacian,
    estimate_bits,
    get_entropy_backend,
)
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence

#: the canonical codec benchmark scene (the codec tests encode it too).
BENCH_SCENE = dict(height=64, width=96, frames=3, seed=7)


def _time(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_codecs(frames, repeats: int, backends) -> dict:
    configs = {
        "ctvc": lambda be: CTVCNet(
            CTVCConfig(channels=12, qstep=8.0, seed=1, entropy_backend=be)
        ),
        "classical": lambda be: ClassicalCodec(
            ClassicalCodecConfig(qp=8.0, entropy_backend=be)
        ),
    }
    report: dict = {}
    for codec_name, make in configs.items():
        rows = {}
        reference_frames = None
        for backend in backends:
            codec = make(backend)
            encode_s, stream = _time(lambda: codec.encode_sequence(frames), repeats)
            payload = stream.serialize()
            decode_s, decoded = _time(
                lambda: codec.decode_sequence(SequenceBitstream.parse(payload)),
                repeats,
            )
            # Entropy coding is lossless: every backend must reproduce
            # the exact same reconstruction.
            if reference_frames is None:
                reference_frames = decoded
            else:
                for a, b in zip(reference_frames, decoded):
                    assert np.array_equal(a, b), (
                        f"{codec_name}/{backend}: reconstruction mismatch"
                    )
            rows[backend] = {
                "encode_ms": encode_s * 1e3,
                "decode_ms": decode_s * 1e3,
                "total_ms": (encode_s + decode_s) * 1e3,
                "stream_bytes": len(payload),
                "mean_psnr_db": float(
                    np.mean([psnr(a, b) for a, b in zip(frames, decoded)])
                ),
            }
        for backend in backends:
            if backend != "cacm":
                rows[backend]["x_vs_cacm"] = (
                    rows["cacm"]["total_ms"] / rows[backend]["total_ms"]
                )
        report[codec_name] = rows
    return report


def bench_entropy(num_symbols: int, repeats: int, backends) -> dict:
    rng = np.random.default_rng(3)
    model = LaplacianModel(scale=2.0, support=64)
    values = np.clip(
        np.round(rng.laplace(0, 2.0, num_symbols)), -64, 64
    ).astype(np.int64) + 64
    ideal = estimate_bits(values, model.model)
    report = {"num_symbols": num_symbols, "ideal_bits": ideal}
    for name in backends:
        backend = get_entropy_backend(name)
        encode_s, blob = _time(
            lambda: backend.encode_segments([(values, model.model)]), repeats
        )
        decode_s, decoded = _time(
            lambda: backend.decode_segments(blob, [(num_symbols, model.model)]),
            repeats,
        )
        assert np.array_equal(decoded[0], values), f"{name}: round-trip mismatch"
        report[name] = {
            "encode_ms": encode_s * 1e3,
            "decode_ms": decode_s * 1e3,
            "encode_msym_per_s": num_symbols / encode_s / 1e6,
            "decode_msym_per_s": num_symbols / decode_s / 1e6,
            "bits": 8 * len(blob),
            "overhead_vs_ideal": 8 * len(blob) / ideal - 1.0,
        }
    if "cacm" in report and "rans" in report:
        for side in ("encode", "decode"):
            report["rans"][f"{side}_x_vs_cacm"] = (
                report["cacm"][f"{side}_ms"] / report["rans"][f"{side}_ms"]
            )
    return report


#: the rate-gap scene: one CIF GOP, as ROADMAP's rans-vs-cacm table.
RATE_GAP_SCENE = dict(height=288, width=352, frames=3, seed=1)
#: the substrate scene: an I-frame and the P-frame the rows time, at CIF.
SUBSTRATE_SCENE = dict(height=288, width=352, frames=2, seed=1)


def bench_rate_gap() -> dict:
    """Stream bytes per entropy backend on a CIF GOP (sizes only: the
    codecs' parity tests pin that every backend decodes the same
    frames)."""
    frames = generate_sequence(SceneConfig(**RATE_GAP_SCENE))
    configs = {
        "classical": lambda be: ClassicalCodec(
            ClassicalCodecConfig(qp=8.0, gop=3, entropy_backend=be)
        ),
        "ctvc": lambda be: CTVCNet(
            CTVCConfig(channels=12, gop=3, seed=1, entropy_backend=be)
        ),
    }
    report: dict = {"scene": RATE_GAP_SCENE}
    for codec_name, make in configs.items():
        row = {}
        for backend in ("cacm", "rans"):
            stream = make(backend).encode_sequence(frames)
            row[f"{backend}_bytes"] = len(stream.serialize())
            if backend == "rans":
                row["payloads_per_packet"] = [
                    len(packet.chunks) for packet in stream.packets
                ]
                row["rans_lanes"] = [
                    [payload[0] for payload in packet.chunks.values()]
                    for packet in stream.packets
                ]
        row["rans_extra"] = row["rans_bytes"] / row["cacm_bytes"] - 1.0
        report[codec_name] = row
    return report


def bench_substrate(repeats: int) -> dict:
    """CTVC-Net (N=12) P-frame encode and decode per numeric substrate
    at 352x288: the float64 ``reference`` nets against the float32
    ``fast`` ones, on one P-frame coded against the intra frame.  Each
    decode must return the encoder's reconstruction byte for byte;
    ``fast`` also carries its speedup (``x_vs_reference``, encode plus
    decode), its PSNR change in dB and its relative packet-size change."""
    frames = generate_sequence(SceneConfig(**SUBSTRATE_SCENE))
    report: dict = {"scene": SUBSTRATE_SCENE, "channels": 12}
    for substrate in ("reference", "fast"):
        net = CTVCNet(CTVCConfig(channels=12, seed=1, substrate=substrate))
        _, intra = net.intra_codec.encode_intra(frames[0])
        encode_s, (packet, recon) = _time(
            lambda: net.encode_inter(frames[1], intra), repeats
        )
        decode_s, decoded = _time(lambda: net.decode_inter(packet, intra), repeats)
        assert decoded.tobytes() == recon.tobytes(), f"{substrate}: closed loop broke"
        report[substrate] = {
            "encode_ms": encode_s * 1e3,
            "decode_ms": decode_s * 1e3,
            "packet_bytes": len(packet.serialize()),
            "psnr_db": float(psnr(frames[1], decoded)),
        }
    reference, fast = report["reference"], report["fast"]
    fast["x_vs_reference"] = (reference["encode_ms"] + reference["decode_ms"]) / (
        fast["encode_ms"] + fast["decode_ms"]
    )
    fast["psnr_delta_db"] = fast["psnr_db"] - reference["psnr_db"]
    fast["bytes_delta"] = fast["packet_bytes"] / reference["packet_bytes"] - 1.0
    return report


def bench_kernels(repeats: int) -> dict:
    from scipy.fft import dctn

    from repro.codec.modules import (
        CompressionAE,
        DeformableCompensation,
        block_match,
    )
    from repro.nn import functional as F
    from repro.nn.deform import deform_conv2d

    rng = np.random.default_rng(11)
    x = rng.standard_normal((24, 32, 48))
    w33 = rng.standard_normal((24, 24, 3, 3))
    w44 = rng.standard_normal((24, 24, 4, 4))
    offsets = rng.standard_normal((36, 32, 48)) * 0.5
    dfw = rng.standard_normal((24, 24, 3, 3)) * 0.1
    luma = rng.standard_normal((64, 96)) * 40 + 128
    blocks = rng.standard_normal((96, 8, 8))
    # The codec's DfConv as built (N=12, identity centre tap) on CIF's
    # 144x176 feature grid, with offsets from its own offset head.
    compensation = DeformableCompensation(channels=12, groups=2)
    cif_feature = rng.standard_normal((12, 144, 176))
    cif_offsets = compensation.offset_conv(
        rng.standard_normal((12, 144, 176)) * 2.0
    )
    dfconv = compensation.dfconv
    offset_head = compensation.offset_conv
    # The motion AE's last synthesis deconv as built (N=12, one input
    # channel per output, calibrated) on its reflect-padded CIF input.
    motion_ae = CompressionAE(channels=12)
    motion_ae.calibrate()
    synthesis = motion_ae.syn_deconvs[-1]
    cif_synthesis_input = rng.standard_normal((12, 74, 90))
    # classical_stream's luma (640x360) under the classical defaults
    stream_luma = rng.standard_normal((360, 640)) * 40 + 128
    stream_motion = ClassicalCodecConfig()

    cases = {
        "conv2d_3x3_s1": lambda: F.conv2d(x, w33, padding=1),
        "conv_transpose2d_4x4_s2": lambda: F.conv_transpose2d(
            x, w44, stride=2, padding=1
        ),
        "deform_conv2d_3x3_g2": lambda: deform_conv2d(
            x, offsets, dfw, groups=2
        ),
        "deform_conv2d_cif_codec_weights": lambda: deform_conv2d(
            cif_feature, cif_offsets, dfconv.weight.data, dfconv.bias.data,
            groups=dfconv.groups,
        ),
        "conv_transpose2d_cif_synthesis_weights": lambda: F.conv_transpose2d(
            cif_synthesis_input, synthesis.weight.data, synthesis.bias.data,
            stride=synthesis.stride, padding=synthesis.padding,
        ),
        "conv2d_cif_offset_head": lambda: F.conv2d(
            cif_feature, offset_head.weight.data, offset_head.bias.data,
            padding=offset_head.padding,
        ),
        "block_match_8x8_r4": lambda: block_match(
            luma, np.roll(luma, 2, axis=1), 8, 4
        ),
        "block_match_640x360_r8": lambda: block_match(
            stream_luma,
            np.roll(stream_luma, (1, 2), axis=(0, 1)),
            stream_motion.block_size,
            stream_motion.search_range,
        ),
        "dct_8x8_x96": lambda: dctn(blocks, axes=(1, 2), norm="ortho"),
    }
    report = {}
    for name, fn in cases.items():
        seconds, _ = _time(fn, repeats)
        report[name] = {"ms": seconds * 1e3}
    return report


def _v3_from_v4(blob: bytes) -> bytes:
    """The same container at version 3 (read-only): the v4 bytes with
    the version field set to 3 and every CRC word stripped."""
    (header_len,) = struct.unpack_from("<I", blob, 6)
    offset = 10 + header_len
    out = bytearray(blob[:offset])
    struct.pack_into("<H", out, 4, 3)
    offset += 4  # header CRC
    while True:
        (size,) = struct.unpack_from("<I", blob, offset)
        out += blob[offset : offset + 4]
        if size == 0:
            return bytes(out)
        out += blob[offset + 8 : offset + 8 + size]  # skip the packet CRC
        offset += 8 + size


def bench_container(frames, repeats: int) -> dict:
    """CRC32 integrity cost: v4 (checksummed) vs v3 container reads,
    plus the v4 write path."""
    import io

    from repro.codec import StreamReader, StreamWriter

    codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0, entropy_backend="rans"))
    stream = codec.encode_sequence(frames)

    def write():
        buffer = io.BytesIO()
        with StreamWriter(buffer, stream.header) as writer:
            for packet in stream.packets:
                writer.write_packet(packet)
        return buffer.getvalue()

    write_s, v4 = _time(write, repeats)
    report: dict = {"num_packets": len(stream.packets)}
    for version, blob in (("v3", _v3_from_v4(v4)), ("v4", v4)):
        read_s, packets = _time(
            lambda: list(StreamReader(io.BytesIO(blob))), repeats
        )
        assert [p.serialize() for p in packets] == [
            p.serialize() for p in stream.packets
        ], f"{version}: container round-trip mismatch"
        report[version] = {"read_ms": read_s * 1e3, "stream_bytes": len(blob)}
    report["v4"]["write_ms"] = write_s * 1e3
    # v4 costs the header CRC word plus one word per packet, nothing else
    report["crc_bytes"] = report["v4"]["stream_bytes"] - report["v3"]["stream_bytes"]
    assert report["crc_bytes"] == 4 * (1 + len(stream.packets))
    report["crc_read_overhead"] = (
        report["v4"]["read_ms"] / report["v3"]["read_ms"] - 1.0
    )
    return report


def _paired_cpu_overhead(base, variant, repeats: int) -> tuple:
    """``(median base s, median variant s, overhead)`` of two calls
    whose true cost difference sits below machine noise.

    A naive back-to-back wall-clock A/B would report whatever the
    scheduler was doing.  Three defenses: CPU time instead of wall
    time (preemption doesn't bill the victim), ABBA ordering within
    pairs (cancels warm-cache position bias), and comparing low
    percentiles over many samples (load spikes inflate the tail, not
    the clean runs; the exact minimum is a single-sample statistic and
    still too jumpy).  ``overhead`` is ``p10(variant) / p10(base) -
    1``.  Co-tenant load can only inflate a batch's estimate, so the
    best of up to three batches is kept (stopping early once clearly
    in bounds).
    """

    def cpu_seconds(fn):
        start = time.process_time()
        fn()
        return time.process_time() - start

    def p10(samples):
        return sorted(samples)[len(samples) // 10]

    base()
    variant()
    best = None
    for _ in range(3):
        base_times, variant_times = [], []
        for index in range(max(20 * repeats, 60)):
            if index % 2 == 0:
                base_s, variant_s = cpu_seconds(base), cpu_seconds(variant)
            else:
                variant_s, base_s = cpu_seconds(variant), cpu_seconds(base)
            base_times.append(base_s)
            variant_times.append(variant_s)
        estimate = (
            statistics.median(base_times),
            statistics.median(variant_times),
            p10(variant_times) / p10(base_times) - 1.0,
        )
        if best is None or estimate[2] < best[2]:
            best = estimate
        if best[2] < 0.01:
            break
    return best


def bench_rate_control(repeats: int) -> dict:
    """The rate-control tax: cqp vs none, calibration, controller cost."""
    from repro.codec import calibrate_tables, create_rate_controller
    from repro.pipeline import create_codec
    from repro.video import SceneConfig, generate_sequence

    # a small probe scene keeps each encode ~10 ms so many paired
    # samples fit in a short wall-clock budget
    probe = generate_sequence(SceneConfig(height=32, width=48, frames=3))

    def encode(config):
        codec = create_codec("classical", config)
        return list(codec.open_encoder().encode_iter(probe))

    # the true cqp tax (the session's per-frame adaptive check) is far
    # below machine noise
    best = _paired_cpu_overhead(
        lambda: encode({"qp": 8.0}),
        lambda: encode({"qp": 8.0, "rate_control": "cqp"}),
        repeats,
    )
    report: dict = {
        "baseline_encode_ms": best[0] * 1e3,
        "cqp_encode_ms": best[1] * 1e3,
        "cqp_overhead": best[2],
    }

    calibration_s, tables = _time(
        lambda: calibrate_tables("classical", qps=(4.0, 8.0, 16.0, 32.0)), 1
    )
    assert sorted(tables) == ["I", "P"]
    report["calibration_seconds"] = calibration_s

    steps = 2000
    for name in ("abr", "calibrated"):
        rc = create_rate_controller(name, base_qp=8.0, target_kbps=100.0)
        state = rc.new_state()

        def drive(rc=rc, state=state):
            for index in range(steps):
                frame_type = "I" if index % 8 == 0 else "P"
                qp = rc.frame_qp(frame_type, state)
                state.record(frame_type, 4000)
                rc.observe(frame_type, qp, 4000)

        seconds, _ = _time(drive, 1)
        report[name] = {"us_per_frame": seconds / steps * 1e6}
    return report


def bench_observability(repeats: int) -> dict:
    """The observability tax: encode with tracing (spans + per-stage
    timers) on vs off, byte-identity of the instrumented stream, and
    the raw cost of one metric update."""
    from repro.obs import (
        MetricsRegistry,
        enable,
        get_recorder,
        span,
    )
    from repro.pipeline import create_codec
    from repro.video import SceneConfig, generate_sequence

    # same probe scene as bench_rate_control: ~10 ms encodes, so many
    # paired samples fit in a short wall-clock budget
    probe = generate_sequence(SceneConfig(height=32, width=48, frames=3))

    def encode():
        codec = create_codec("classical", {"qp": 8.0})
        return list(codec.open_encoder().encode_iter(probe))

    # instrumentation must never change the stream
    enable(False)
    plain = [p.serialize() for p in encode()]
    enable(True)
    traced = [p.serialize() for p in encode()]
    enable(False)
    get_recorder().clear()
    assert traced == plain, "tracing changed encoded bytes"

    def traced_encode():
        enable(True)
        try:
            encode()
        finally:
            enable(False)

    # the same paired CPU A/B as the cqp tax: the effect is below
    # machine noise too
    best = _paired_cpu_overhead(encode, traced_encode, repeats)
    get_recorder().clear()
    report: dict = {
        "baseline_encode_ms": best[0] * 1e3,
        "traced_encode_ms": best[1] * 1e3,
        "traced_overhead": best[2],
        "byte_identical": True,  # asserted above
    }

    # raw instrument costs (the always-on budget): one counter inc,
    # one histogram observation, one disabled-span entry/exit
    updates = 200_000
    registry = MetricsRegistry()
    counter = registry.counter("bench_counter")
    start = time.process_time()
    for _ in range(updates):
        counter.inc(kind="encode")
    report["counter_inc_us"] = (
        (time.process_time() - start) / updates * 1e6
    )
    histogram = registry.histogram("bench_histogram")
    start = time.process_time()
    for _ in range(updates):
        histogram.observe(0.01, kind="encode")
    report["histogram_observe_us"] = (
        (time.process_time() - start) / updates * 1e6
    )
    start = time.process_time()
    for _ in range(updates):
        with span("bench"):
            pass
    report["disabled_span_us"] = (
        (time.process_time() - start) / updates * 1e6
    )
    return report


#: interleaved rounds of every ``sweep`` row, in smoke and full runs alike
SWEEP_PAIRS = 5


def _ratio(numerator: list[float], denominator: list[float]) -> tuple:
    """``(median, q1, q3)`` of the per-pair ratios ``numerator[i] /
    denominator[i]``."""
    q1, median, q3 = statistics.quantiles(
        [a / b for a, b in zip(numerator, denominator)], n=4
    )
    return median, q1, q3


def bench_sweep() -> dict:
    """Sweep-executor throughput on a fixed 24-job classical grid.

    The ``inline`` row is the cost of serving the sweep without a
    fleet: a fresh interpreter runs the same grid through
    ``run_many`` and pays the imports, codec construction, and scene
    synthesis that every standalone invocation pays.  That is the
    baseline the warm-worker fleet amortizes away, and the one the
    ``x_vs_inline`` ratios are taken against.  ``inline_warm`` runs the
    same loop in this already-warm interpreter (imports paid) with the
    :class:`~repro.pipeline.tasks.WorkerContext` emptied before every
    run: the state a freshly spawned fleet worker starts in, so the
    warm/cold split is recorded, not hidden.  Its ``context`` is one
    run's hit/miss split.

    Every distributed row runs the bundled/warm/shared-frames
    transport (``bundle`` sized by :func:`auto_bundle`); the
    ``cold_spawn`` row keeps the pre-bundling baseline — per-job
    claims, no shared frames — so the transport win stays measured.

    The rows run in :data:`SWEEP_PAIRS` interleaved rounds (one run of
    each row per round, the same count in smoke and full runs), so a
    slow moment of a shared host lands on both sides of a ratio.  Each
    row's ``seconds`` is the median over the rounds; each ``x_vs_*``
    ratio is the median of its per-round ratios, with their quartiles
    beside it (``*_q1``/``*_q3``) and the round count in ``pairs``.
    """
    import subprocess
    import tempfile

    from repro.pipeline import SweepRunner, run_many
    from repro.pipeline.dist import (
        HttpJobQueue, MemoryJobQueue, QueueServer, auto_bundle,
    )
    from repro.pipeline.tasks import get_worker_context, reset_worker_context

    grid = dict(
        codecs=["classical"],
        codec_configs=[
            {"qp": qp} for qp in (4.0, 8.0, 12.0, 16.0, 24.0, 32.0)
        ],
        scenes=[
            dict(height=32, width=48, frames=2, seed=seed)
            for seed in range(4)
        ],
    )
    num_jobs = 24
    bundle = auto_bundle(num_jobs, 2)

    env = _src_env()
    script = (
        "from repro.pipeline import run_many\n"
        f"reports = run_many(**{grid!r})\n"
        f"assert len(reports) == {num_jobs}\n"
    )

    def run_inline_invocation():
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=env
        )

    def run_inline_warm():
        reset_worker_context()
        reports = run_many(**grid)
        assert len(reports) == num_jobs

    def run_cold_queue():
        # the pre-bundling transport: one claim round-trip per job,
        # frames re-synthesized in every worker
        with tempfile.TemporaryDirectory() as root:
            return SweepRunner(
                **grid, queue_dir=root, workers=2,
                bundle=1, share_frames=False,
            ).run()

    def run_dir_queue():
        with tempfile.TemporaryDirectory() as root:
            return SweepRunner(
                **grid, queue_dir=root, workers=2, bundle=bundle
            ).run()

    def run_http_queue():
        with QueueServer(MemoryJobQueue(), port=0) as server:
            return SweepRunner(
                **grid, queue=HttpJobQueue(server.url), workers=2,
                bundle=bundle,
            ).run()

    runs = {
        "inline": run_inline_invocation,
        "inline_warm": run_inline_warm,
        "cold_spawn": run_cold_queue,
        "queue_processes_x2": run_dir_queue,
        "queue_http_x2": run_http_queue,
    }
    samples: dict[str, list[float]] = {name: [] for name in runs}
    for _ in range(SWEEP_PAIRS):
        for name, run in runs.items():
            start = time.perf_counter()
            result = run()
            samples[name].append(time.perf_counter() - start)
            if result is not None:
                assert result.ok and len(result.reports) == num_jobs

    def row(name: str, **ratios) -> dict:
        seconds = statistics.median(samples[name])
        out = {"seconds": seconds, "jobs_per_s": num_jobs / seconds}
        for key, baseline in ratios.items():
            out[key], out[f"{key}_q1"], out[f"{key}_q3"] = _ratio(
                samples[baseline], samples[name]
            )
        return out

    return {
        "num_jobs": num_jobs,
        "bundle": bundle,
        "pairs": SWEEP_PAIRS,
        "inline": {**row("inline"), "cold_start": True},
        "inline_warm": {
            **row("inline_warm"), "context": get_worker_context().stats(),
        },
        "cold_spawn": {
            **row("cold_spawn", x_vs_inline="inline"),
            "bundle": 1,
            "share_frames": False,
        },
        "queue_processes_x2": {
            **row(
                "queue_processes_x2",
                x_vs_inline="inline",
                x_vs_inline_warm="inline_warm",
                x_vs_cold_spawn="cold_spawn",
            ),
            "bundle": bundle,
            "share_frames": True,
        },
        "queue_http_x2": {
            **row(
                "queue_http_x2",
                x_vs_inline="inline",
                x_vs_processes="queue_processes_x2",
            ),
            "bundle": bundle,
            "share_frames": True,
        },
    }


def _src_env() -> dict:
    """This process's environment with the ``repro`` it imported first
    on ``PYTHONPATH``, for child interpreters."""
    import os
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


#: fresh interpreters per ``cold_start`` row
COLD_START_SAMPLES = 5

#: the ``sweep_submit`` row: ``repro sweep``'s default grid built and
#: submitted to a directory queue; prints which numeric stacks loaded
SWEEP_SUBMIT_SCRIPT = """\
import json, sys, tempfile
from repro.pipeline import SweepRunner
with tempfile.TemporaryDirectory() as root:
    SweepRunner(
        codecs=["classical", "ctvc"],
        codec_configs=[{"qstep": qp, "qp": qp} for qp in (8.0, 16.0)],
        scenes=[{"height": 64, "width": 96, "frames": 4, "seed": 0}],
        queue_dir=root, share_frames=False,
    ).submit()
print(json.dumps([m in sys.modules for m in ("numpy", "scipy")]))
"""


def bench_cold_start(samples: int = COLD_START_SAMPLES) -> dict:
    """Seconds from spawning a fresh interpreter to first use, median
    over ``samples`` interpreters per row (see the module docstring)."""
    import signal
    import subprocess

    env = _src_env()
    scripts = {
        "interpreter": "pass",
        "import_codec": "import repro.codec",
        "import_pipeline": "import repro.pipeline",
        "codec_stack": "from repro.codec import CTVCNet, ClassicalCodec",
    }

    def run_script(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        return time.perf_counter() - t0

    def serve_ready() -> float:
        t0 = time.perf_counter()
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = daemon.stdout.readline()
            elapsed = time.perf_counter() - t0
            if not line.startswith("serving on "):
                raise RuntimeError(f"repro serve did not start: {line!r}")
        finally:
            daemon.send_signal(signal.SIGINT)
            daemon.wait(timeout=30)
            daemon.stdout.close()
        return elapsed

    loaded: list[list[bool]] = []  # per sweep_submit run: numpy, scipy

    def sweep_submit() -> float:
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SWEEP_SUBMIT_SCRIPT], check=True, env=env,
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - t0
        loaded.append(json.loads(child.stdout))
        return elapsed

    def row(timer, *args) -> dict:
        runs = [timer(*args) for _ in range(samples)]
        return {"median_s": statistics.median(runs), "samples": samples}

    report = {name: row(run_script, code) for name, code in scripts.items()}
    report["serve"] = row(serve_ready)
    report["sweep_submit"] = row(sweep_submit)
    for index, name in enumerate(("numpy_loaded", "scipy_loaded")):
        report["sweep_submit"][name] = any(run[index] for run in loaded)
    return report


def bench_hardware(repeats: int) -> dict:
    """Hardware-analysis throughput on a fixed NVCA geometry grid."""
    from repro.codec import decoder_graph
    from repro.hw import NVCAConfig, pareto_front, sweep_array_geometry
    from repro.pipeline import DSERunner, dse_grid

    height, width = 270, 480
    geometries = ((6, 6), (12, 6), (12, 12), (18, 12), (18, 18))
    num_points = len(geometries)
    graph = decoder_graph(height, width, NVCAConfig().channels)

    inline_s, inline_points = _time(
        lambda: sweep_array_geometry(graph, geometries), repeats
    )
    specs = dse_grid("geometry", values=geometries, height=height, width=width)
    result = DSERunner(specs, workers=0).run()
    assert result.ok and len(result.points) == num_points
    # same points, same frontier: the queue may cost time, never answers
    assert [p.to_dict() for p in result.points] == [
        p.to_dict() for p in inline_points
    ]
    assert [p.label for p in result.pareto] == [
        p.label for p in pareto_front(inline_points)
    ]
    return {
        "num_points": num_points,
        "inline": {
            "seconds": inline_s,
            "points_per_s": num_points / inline_s,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_codec.json", help="report path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: fewer repeats, shorter entropy stream",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.smoke else 3)
    # 100k symbols keeps even smoke runs long enough that the rANS
    # state flush stays well under the 1% overhead budget.
    entropy_symbols = 100_000 if args.smoke else 400_000
    backends = ["cacm", "rans"]

    frames = generate_sequence(SceneConfig(**BENCH_SCENE))
    cached_laplacian.cache_clear()

    print("== codecs (bench_codec scene: 64x96x3) ==", flush=True)
    codecs = bench_codecs(frames, repeats, backends)
    for codec_name, rows in codecs.items():
        for backend, row in rows.items():
            extra = f"  x_vs_cacm={row['x_vs_cacm']:.2f}" if "x_vs_cacm" in row else ""
            print(
                f"  {codec_name:10s} {backend:5s} enc {row['encode_ms']:8.1f}ms "
                f"dec {row['decode_ms']:8.1f}ms  {row['stream_bytes']:6d}B "
                f"psnr {row['mean_psnr_db']:.2f}dB{extra}"
            )

    print(f"== entropy backends ({entropy_symbols} Laplacian symbols) ==")
    entropy = bench_entropy(entropy_symbols, repeats, backends)
    for name in backends:
        row = entropy[name]
        print(
            f"  {name:5s} enc {row['encode_msym_per_s']:7.2f} Msym/s "
            f"dec {row['decode_msym_per_s']:7.2f} Msym/s  "
            f"overhead {100 * row['overhead_vs_ideal']:.2f}%"
        )

    print("== rANS rate gap (352x288 I-P-P GOP, stream bytes) ==")
    rate_gap = bench_rate_gap()
    for codec_name in ("classical", "ctvc"):
        row = rate_gap[codec_name]
        print(
            f"  {codec_name:10s} cacm {row['cacm_bytes']:6d}B "
            f"rans {row['rans_bytes']:6d}B "
            f"({100 * row['rans_extra']:+.1f}%)  "
            f"payloads/packet {row['payloads_per_packet']}, "
            f"lanes {row['rans_lanes']}"
        )

    print("== substrate (CTVC-Net N=12 P-frame at 352x288) ==")
    substrate = bench_substrate(repeats)
    for name in ("reference", "fast"):
        row = substrate[name]
        extra = (
            f"  x_vs_reference={row['x_vs_reference']:.2f} "
            f"dpsnr {row['psnr_delta_db']:+.2e} dB "
            f"dbytes {100 * row['bytes_delta']:+.2f}%"
            if name == "fast"
            else ""
        )
        print(
            f"  {name:10s} enc {row['encode_ms']:7.1f}ms "
            f"dec {row['decode_ms']:7.1f}ms {row['packet_bytes']:6d}B{extra}"
        )

    print("== kernels ==")
    kernels = bench_kernels(repeats)
    for name, row in kernels.items():
        print(f"  {name:31s} {row['ms']:8.3f} ms")

    print("== container integrity (v4 CRC32 vs v3) ==")
    container = bench_container(frames, repeats)
    for version in ("v3", "v4"):
        row = container[version]
        print(
            f"  {version:4s} read {row['read_ms']:7.2f} ms  "
            f"{row['stream_bytes']:6d}B"
        )
    print(
        f"  v4 write {container['v4']['write_ms']:7.2f} ms; crc tax: "
        f"+{container['crc_bytes']}B, "
        f"read {100 * container['crc_read_overhead']:+.1f}%"
    )

    print("== rate control (classical codec, 32x48x3 probe scene) ==")
    rate_control = bench_rate_control(repeats)
    print(
        f"  cqp vs none: {rate_control['baseline_encode_ms']:.1f} ms -> "
        f"{rate_control['cqp_encode_ms']:.1f} ms "
        f"({100 * rate_control['cqp_overhead']:+.2f}%)"
    )
    print(
        f"  calibrate_tables(classical)   "
        f"{rate_control['calibration_seconds'] * 1e3:8.1f} ms"
    )
    for name in ("abr", "calibrated"):
        print(
            f"  {name:10s} controller step "
            f"{rate_control[name]['us_per_frame']:8.2f} us/frame"
        )

    print("== observability (tracing on vs off, 32x48x3 probe scene) ==")
    observability = bench_observability(repeats)
    print(
        f"  traced vs off: {observability['baseline_encode_ms']:.1f} ms"
        f" -> {observability['traced_encode_ms']:.1f} ms "
        f"({100 * observability['traced_overhead']:+.2f}%), "
        f"streams byte-identical"
    )
    print(
        f"  counter inc {observability['counter_inc_us']:.3f} us  "
        f"histogram observe {observability['histogram_observe_us']:.3f}"
        f" us  disabled span {observability['disabled_span_us']:.3f} us"
    )

    print(
        "== sweep executor (24-job classical grid, "
        "bundled + warm + shared frames) =="
    )
    sweep = bench_sweep()
    for backend in (
        "inline",
        "inline_warm",
        "cold_spawn",
        "queue_processes_x2",
        "queue_http_x2",
    ):
        row = sweep[backend]
        extra = (
            f"  x_vs_inline={row['x_vs_inline']:.2f}"
            if "x_vs_inline" in row
            else ""
        )
        print(
            f"  {backend:20s} {row['seconds'] * 1e3:8.1f} ms "
            f"{row['jobs_per_s']:6.1f} jobs/s{extra}"
        )

    print(f"== cold start (median of {COLD_START_SAMPLES} fresh interpreters) ==")
    cold_start = bench_cold_start()
    for name, row in cold_start.items():
        print(f"  {name:20s} {row['median_s'] * 1e3:8.1f} ms")

    print("== hardware analysis (5-point NVCA geometry grid) ==")
    hardware = bench_hardware(repeats)
    row = hardware["inline"]
    print(
        f"  {'inline':20s} {row['seconds'] * 1e3:8.1f} ms "
        f"{row['points_per_s']:6.1f} points/s"
    )

    report = {
        "scene": BENCH_SCENE,
        "repeats": repeats,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "codecs": codecs,
        "entropy": entropy,
        "rate_gap": rate_gap,
        "substrate": substrate,
        "kernels": kernels,
        "container": container,
        "rate_control": rate_control,
        "observability": observability,
        "sweep": sweep,
        "cold_start": cold_start,
        "hardware": hardware,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
