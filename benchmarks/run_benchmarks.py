#!/usr/bin/env python
"""Standalone performance benchmarks: codecs, entropy backends, kernels.

No pytest-benchmark required — run directly and get a JSON report::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke    # CI
    PYTHONPATH=src python benchmarks/run_benchmarks.py -o out.json

Measures, on the bench_codec scene (64x96, 3 frames, seed 7):

* **codecs** — end-to-end encode/decode wall time of ``CTVCNet`` and
  ``ClassicalCodec`` per entropy backend, plus a ``seed`` row that
  times a faithful replica of the pre-backend coder (per-symbol
  ``symbol_of`` calls, per-bit Python list I/O, per-frame model
  rebuilds — the seed commit's hot loops) so speedups are tracked
  against a fixed reference.  Reconstructions are asserted identical
  across backends (the entropy stage is lossless) and round-trips are
  byte-exact.
* **entropy** — symbols/sec of each backend on a long Laplacian
  stream, round-trip verified.
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
  warm in-process loop (``inline_warm``), thread workers over the
  in-memory queue, per-job-claim process workers (``cold_spawn``),
  and bundled/warm/shared-frame process and HTTP workers.  Tracks
  whether the distributed transport beats the standalone baseline
  (``x_vs_inline``) and how close it sits to the warm serial floor
  (``x_vs_inline_warm``).
* **hardware** — hardware-analysis throughput (design points/s) of a
  fixed NVCA geometry grid: the inline ``repro.hw.dse`` sweep vs the
  same points through the task-typed work queue (``DSERunner``,
  2 thread workers), with Pareto fronts asserted identical.  Tracks
  the queue's per-point dispatch cost on sub-millisecond analytic
  jobs.

The report lands in ``BENCH_codec.json`` (override with ``-o``): one
entry per benchmark with per-stage milliseconds, plus speedup ratios
(``x_vs_seed``, ``x_vs_cacm``) per codec.
"""

from __future__ import annotations

import argparse
import json
import platform
import struct
import sys
import time

import numpy as np

from repro.codec import (
    ArithmeticDecoder,
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCConfig,
    CTVCNet,
    LaplacianModel,
    SequenceBitstream,
    cached_laplacian,
    estimate_bits,
    get_entropy_backend,
    register_entropy_backend,
    unregister_entropy_backend,
)
from repro.codec.entropy import ArithmeticEncoder
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence

#: the canonical bench_codec scene (matches benchmarks/bench_codec.py).
BENCH_SCENE = dict(height=64, width=96, frames=3, seed=7)


class SeedCoderBackend:
    """Replica of the seed commit's entropy hot path, for baselines.

    Reproduces what PR-1-era ``CTVCNet``/``ClassicalCodec`` did per
    symbol — a ``LaplacianModel.symbol_of``-style ``np.clip`` call, a
    per-symbol arithmetic-coder step over per-bit Python lists, model
    tables rebuilt instead of cached — so ``run_benchmarks.py`` can
    keep measuring "vs the seed coder" after the seed code itself is
    gone.  Output is byte-identical to the ``cacm`` backend.
    """

    name = "seed"

    class _BitListEncoder(ArithmeticEncoder):
        def finish(self) -> bytes:
            if not self._finished:
                self._pending += 1
                self._emit(0 if self._low < 1 << 30 else 1)
                self._finished = True
            bits = self._bits
            padded = bits + [0] * ((-len(bits)) % 8)
            out = bytearray()
            for i in range(0, len(padded), 8):
                byte = 0
                for bit in padded[i : i + 8]:
                    byte = (byte << 1) | bit
                out.append(byte)
            return bytes(out)

    class _BitListDecoder(ArithmeticDecoder):
        def __init__(self, data: bytes):
            bits = []
            for byte in data:
                for shift in range(7, -1, -1):
                    bits.append((byte >> shift) & 1)
            self._bits = bits
            self._pos = 0
            self._low = 0
            self._high = (1 << 32) - 1
            self._value = 0
            for _ in range(32):
                self._value = (self._value << 1) | self._next_bit()

    def _rebuild(self, model):
        # The seed rebuilt probability tables from side info per frame;
        # charge an equivalent table construction to this baseline.
        from repro.codec.entropy import SymbolModel

        return SymbolModel(model.freqs.copy())

    def encode_segments(self, segments) -> bytes:
        encoder = self._BitListEncoder()
        for symbols, model in segments:
            rebuilt = self._rebuild(model)
            n = rebuilt.num_symbols
            for value in np.asarray(symbols, dtype=np.int64).ravel():
                # per-symbol clip, as LaplacianModel.symbol_of did
                symbol = int(np.clip(value, 0, n - 1))
                encoder.encode(symbol, rebuilt)
        return encoder.finish()

    def decode_segments(self, data: bytes, segments) -> list:
        decoder = self._BitListDecoder(data)
        out = []
        for count, model in segments:
            rebuilt = self._rebuild(model)
            out.append(
                np.array(
                    [decoder.decode(rebuilt) for _ in range(int(count))],
                    dtype=np.int64,
                )
            )
        return out


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
            if backend == "seed":
                continue
            row = rows[backend]
            if "seed" in rows:
                row["x_vs_seed"] = rows["seed"]["total_ms"] / row["total_ms"]
            if "cacm" in rows and backend != "cacm":
                row["x_vs_cacm"] = rows["cacm"]["total_ms"] / row["total_ms"]
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
        if name == "seed" and num_symbols > 50_000:
            # the per-bit baseline is ~6 us/symbol; keep its slot short
            # and scale the throughput numbers from a 50k subset.
            sub = values[:50_000]
            encode_s, blob = _time(
                lambda: backend.encode_segments([(sub, model.model)]), 1
            )
            decode_s, decoded = _time(
                lambda: backend.decode_segments(blob, [(len(sub), model.model)]), 1
            )
            assert np.array_equal(decoded[0], sub)
            report[name] = {
                "encode_msym_per_s": len(sub) / encode_s / 1e6,
                "decode_msym_per_s": len(sub) / decode_s / 1e6,
                "subset_symbols": len(sub),
            }
            continue
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


def bench_rate_control(repeats: int) -> dict:
    """The rate-control tax: cqp vs none, calibration, controller cost."""
    import statistics
    import time as _time_mod

    from repro.codec import calibrate_tables, create_rate_controller
    from repro.pipeline import create_codec
    from repro.video import SceneConfig, generate_sequence

    # a small probe scene keeps each encode ~10 ms so many paired
    # samples fit in a short wall-clock budget
    probe = generate_sequence(SceneConfig(height=32, width=48, frames=3))

    def encode(config):
        codec = create_codec("classical", config)
        return list(codec.open_encoder().encode_iter(probe))

    def cpu_seconds(config):
        start = _time_mod.process_time()
        encode(config)
        return _time_mod.process_time() - start

    # The true cqp tax (the session's per-frame adaptive check) is far
    # below machine noise, so a naive back-to-back wall-clock A/B would
    # report whatever the scheduler was doing.  Three defenses: CPU
    # time instead of wall time (preemption doesn't bill the victim),
    # ABBA ordering within pairs (cancels warm-cache position bias),
    # and comparing low percentiles over many samples (load spikes
    # inflate the tail, not the clean runs; the exact minimum is a
    # single-sample statistic and still too jumpy).
    base_cfg = {"qp": 8.0}
    cqp_cfg = {"qp": 8.0, "rate_control": "cqp"}
    encode(base_cfg)
    encode(cqp_cfg)

    def p10(samples):
        return sorted(samples)[len(samples) // 10]

    def one_batch():
        base_times, cqp_times = [], []
        for index in range(max(20 * repeats, 60)):
            if index % 2 == 0:
                base_s, cqp_s = cpu_seconds(base_cfg), cpu_seconds(cqp_cfg)
            else:
                cqp_s, base_s = cpu_seconds(cqp_cfg), cpu_seconds(base_cfg)
            base_times.append(base_s)
            cqp_times.append(cqp_s)
        return base_times, cqp_times

    # co-tenant load can only inflate a batch's estimate, so keep the
    # best of up to three batches (stop early once clearly in bounds)
    best = None
    for _ in range(3):
        base_times, cqp_times = one_batch()
        estimate = (
            statistics.median(base_times),
            statistics.median(cqp_times),
            p10(cqp_times) / p10(base_times) - 1.0,
        )
        if best is None or estimate[2] < best[2]:
            best = estimate
        if best[2] < 0.01:
            break
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
    import statistics
    import time as _time_mod

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

    def cpu_seconds(traced_run: bool):
        enable(traced_run)
        try:
            start = _time_mod.process_time()
            encode()
            return _time_mod.process_time() - start
        finally:
            enable(False)

    # Same defenses as the cqp A/B (the effect is below machine
    # noise): CPU time, ABBA pair ordering, low percentiles over many
    # samples, best of up to three batches.
    cpu_seconds(False)
    cpu_seconds(True)

    def p10(samples):
        return sorted(samples)[len(samples) // 10]

    def one_batch():
        off_times, on_times = [], []
        for index in range(max(20 * repeats, 60)):
            if index % 2 == 0:
                off_s, on_s = cpu_seconds(False), cpu_seconds(True)
            else:
                on_s, off_s = cpu_seconds(True), cpu_seconds(False)
            off_times.append(off_s)
            on_times.append(on_s)
        return off_times, on_times

    best = None
    for _ in range(3):
        off_times, on_times = one_batch()
        estimate = (
            statistics.median(off_times),
            statistics.median(on_times),
            p10(on_times) / p10(off_times) - 1.0,
        )
        if best is None or estimate[2] < best[2]:
            best = estimate
        if best[2] < 0.01:
            break
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
    start = _time_mod.process_time()
    for _ in range(updates):
        counter.inc(kind="encode")
    report["counter_inc_us"] = (
        (_time_mod.process_time() - start) / updates * 1e6
    )
    histogram = registry.histogram("bench_histogram")
    start = _time_mod.process_time()
    for _ in range(updates):
        histogram.observe(0.01, kind="encode")
    report["histogram_observe_us"] = (
        (_time_mod.process_time() - start) / updates * 1e6
    )
    start = _time_mod.process_time()
    for _ in range(updates):
        with span("bench"):
            pass
    report["disabled_span_us"] = (
        (_time_mod.process_time() - start) / updates * 1e6
    )
    return report


def bench_sweep(repeats: int) -> dict:
    """Sweep-executor throughput on a fixed 24-job classical grid.

    The ``inline`` row is the cost of serving the sweep without a
    fleet: a fresh interpreter runs the same grid through
    ``run_many`` and pays the imports, codec construction, and scene
    synthesis that every standalone invocation pays.  That is the
    baseline the warm-worker fleet amortizes away, and the one the
    ``x_vs_inline`` ratios are taken against.  ``inline_warm`` keeps
    the steady-state lower bound — the same loop in an already-warm
    process — so the warm/cold split is recorded, not hidden.

    Every distributed row runs the bundled/warm/shared-frames
    transport (``bundle`` sized by :func:`auto_bundle`); the
    ``cold_spawn`` row keeps the pre-bundling baseline — per-job
    claims, no shared frames — so the transport win stays measured.
    The ``context`` entries record the runner-process WorkerContext
    hit/miss split where the workers share it.
    """
    import os
    import subprocess
    import tempfile
    from pathlib import Path

    import repro
    from repro.pipeline import SweepRunner, run_many
    from repro.pipeline.dist import auto_bundle
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
    report: dict = {"num_jobs": num_jobs, "bundle": bundle}

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    script = (
        "from repro.pipeline import run_many\n"
        f"reports = run_many(**{grid!r})\n"
        f"assert len(reports) == {num_jobs}\n"
    )

    def run_inline_invocation():
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=env
        )

    serial_s, _ = _time(run_inline_invocation, repeats)
    report["inline"] = {
        "seconds": serial_s,
        "jobs_per_s": num_jobs / serial_s,
        "cold_start": True,
    }

    reset_worker_context()
    warm_s, _ = _time(lambda: run_many(**grid), repeats)
    report["inline_warm"] = {
        "seconds": warm_s,
        "jobs_per_s": num_jobs / warm_s,
        "context": get_worker_context().stats(),
    }

    reset_worker_context()
    threads_s, result = _time(
        lambda: SweepRunner(**grid, workers=2, bundle=bundle).run(), repeats
    )
    assert result.ok and len(result.reports) == num_jobs
    report["queue_threads_x2"] = {
        "seconds": threads_s,
        "jobs_per_s": num_jobs / threads_s,
        "x_vs_inline": serial_s / threads_s,
        "x_vs_inline_warm": warm_s / threads_s,
        "bundle": bundle,
        "context": get_worker_context().stats(),
    }

    def run_cold_queue():
        # the pre-bundling transport: one claim round-trip per job,
        # frames re-synthesized in every worker
        with tempfile.TemporaryDirectory() as root:
            return SweepRunner(
                **grid, queue_dir=root, workers=2,
                bundle=1, share_frames=False,
            ).run()

    cold_s, result = _time(run_cold_queue, repeats)
    assert result.ok and len(result.reports) == num_jobs
    report["cold_spawn"] = {
        "seconds": cold_s,
        "jobs_per_s": num_jobs / cold_s,
        "x_vs_inline": serial_s / cold_s,
        "bundle": 1,
        "share_frames": False,
    }

    def run_dir_queue():
        with tempfile.TemporaryDirectory() as root:
            return SweepRunner(
                **grid, queue_dir=root, workers=2, bundle=bundle
            ).run()

    procs_s, result = _time(run_dir_queue, repeats)
    assert result.ok and len(result.reports) == num_jobs
    report["queue_processes_x2"] = {
        "seconds": procs_s,
        "jobs_per_s": num_jobs / procs_s,
        "x_vs_inline": serial_s / procs_s,
        "x_vs_inline_warm": warm_s / procs_s,
        "x_vs_cold_spawn": cold_s / procs_s,
        "bundle": bundle,
        "share_frames": True,
    }

    def run_http_queue():
        from repro.pipeline.dist import HttpJobQueue, MemoryJobQueue, QueueServer

        with QueueServer(MemoryJobQueue(), port=0) as server:
            return SweepRunner(
                **grid, queue=HttpJobQueue(server.url), workers=2,
                bundle=bundle,
            ).run()

    http_s, result = _time(run_http_queue, repeats)
    assert result.ok and len(result.reports) == num_jobs
    report["queue_http_x2"] = {
        "seconds": http_s,
        "jobs_per_s": num_jobs / http_s,
        "x_vs_inline": serial_s / http_s,
        "x_vs_processes": procs_s / http_s,
        "bundle": bundle,
        "share_frames": True,
    }
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
    queue_s, result = _time(lambda: DSERunner(specs, workers=2).run(), repeats)
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
        "queue_threads_x2": {
            "seconds": queue_s,
            "points_per_s": num_points / queue_s,
            "x_vs_inline": inline_s / queue_s,
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
        help="fast CI mode: fewer repeats, shorter entropy stream, no seed row",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--skip-seed",
        action="store_true",
        help="skip the slow seed-coder baseline rows",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.smoke else 3)
    # 100k symbols keeps even smoke runs long enough that the rANS
    # state flush stays well under the 1% overhead budget.
    entropy_symbols = 100_000 if args.smoke else 400_000
    with_seed = not (args.smoke or args.skip_seed)

    register_entropy_backend("seed", SeedCoderBackend(), overwrite=True)
    try:
        codec_backends = (["seed"] if with_seed else []) + ["cacm", "rans"]
        entropy_backends = (["seed"] if with_seed else []) + ["cacm", "rans"]

        frames = generate_sequence(SceneConfig(**BENCH_SCENE))
        cached_laplacian.cache_clear()

        print("== codecs (bench_codec scene: 64x96x3) ==", flush=True)
        codecs = bench_codecs(frames, repeats, codec_backends)
        for codec_name, rows in codecs.items():
            for backend, row in rows.items():
                extra = "".join(
                    f"  {k}={row[k]:.2f}" for k in ("x_vs_seed", "x_vs_cacm") if k in row
                )
                print(
                    f"  {codec_name:10s} {backend:5s} enc {row['encode_ms']:8.1f}ms "
                    f"dec {row['decode_ms']:8.1f}ms  {row['stream_bytes']:6d}B "
                    f"psnr {row['mean_psnr_db']:.2f}dB{extra}"
                )

        print(f"== entropy backends ({entropy_symbols} Laplacian symbols) ==")
        entropy = bench_entropy(entropy_symbols, repeats, entropy_backends)
        for name in entropy_backends:
            row = entropy[name]
            overhead = (
                f"  overhead {100 * row['overhead_vs_ideal']:.2f}%"
                if "overhead_vs_ideal" in row
                else ""
            )
            print(
                f"  {name:5s} enc {row['encode_msym_per_s']:7.2f} Msym/s "
                f"dec {row['decode_msym_per_s']:7.2f} Msym/s{overhead}"
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
        sweep = bench_sweep(repeats)
        for backend in (
            "inline",
            "inline_warm",
            "queue_threads_x2",
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

        print("== hardware analysis (5-point NVCA geometry grid) ==")
        hardware = bench_hardware(repeats)
        for backend in ("inline", "queue_threads_x2"):
            row = hardware[backend]
            extra = (
                f"  x_vs_inline={row['x_vs_inline']:.2f}"
                if "x_vs_inline" in row
                else ""
            )
            print(
                f"  {backend:20s} {row['seconds'] * 1e3:8.1f} ms "
                f"{row['points_per_s']:6.1f} points/s{extra}"
            )
    finally:
        unregister_entropy_backend("seed")

    report = {
        "scene": BENCH_SCENE,
        "repeats": repeats,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "codecs": codecs,
        "entropy": entropy,
        "kernels": kernels,
        "container": container,
        "rate_control": rate_control,
        "observability": observability,
        "sweep": sweep,
        "hardware": hardware,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
