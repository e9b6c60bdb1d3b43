"""Ablation studies of the design choices DESIGN.md calls out.

Not table/figure reproductions — these probe *why* the design works:

* sparsity sweep — compression quality (measured on the real pipeline)
  against accelerator cost (multipliers, power, area) as rho varies;
* fast-algorithm ablation — multiplication counts of the decoder under
  direct / Winograd-FTA / sparse-fast execution (the 2.25x and 4.5x
  claims at layer granularity);
* dataflow ablation — DRAM traffic and DRAM energy with chaining on
  and off;
* attention ablation — Swin-AM's workload cost, plus its measured
  effect on the structured-initialization pipeline (near zero without
  training — the compression benefit in Table I comes from the trained
  model, via the calibrated CTVC-vs-FVC gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pipeline import Pipeline
from repro.pipeline.registry import create_codec
from repro.codec.layergraph import decoder_graph, encoder_graph
from repro.core.ops import multiplications
from repro.core.transforms import PAPER_F23, PAPER_T3_64
from repro.hw.arch import NVCAConfig
from repro.hw.dataflow import compare_traffic
from repro.hw.dse import roll_up
from repro.hw.energy import EnergyUnits
from repro.hw.perf import analyze_graph
from repro.video import SceneConfig, generate_sequence

from .tables import render_table

__all__ = [
    "SparsityPoint",
    "sparsity_sweep",
    "fast_algorithm_ablation",
    "dataflow_ablation",
    "attention_ablation",
    "tile_size_exploration",
    "resolution_sweep",
    "gop_size_ablation",
]

import dataclasses


def round_trip(codec_name, codec, scene, frames, *, compute_msssim=False):
    """Run an already-built (pruned, quantized, ablated) codec over
    in-memory ``frames`` through the facade's container round trip,
    injected the way warm workers inject theirs.  Returns the decoded
    :class:`~repro.pipeline.facade.EncodeSession`; its ``report()``
    holds rate and quality, its ``stream`` the packets."""
    session = Pipeline(
        codec_name, codec.config, scene, compute_msssim=compute_msssim
    ).session()
    session.codec, session.frames = codec, frames
    return session.decode()


@dataclass
class SparsityPoint:
    """One operating point of the sparsity sweep."""

    rho: float
    psnr_db: float
    bpp: float
    multipliers_per_scu: int
    chip_power_w: float
    gate_count_m: float
    fps: float


def sparsity_sweep(
    rhos: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75),
    channels: int = 12,
    qstep: float = 8.0,
    frames: int = 3,
    seed: int = 7,
) -> list[SparsityPoint]:
    """Quality vs hardware cost across sparsity levels.

    Quality is measured on the real pipeline (small configuration);
    hardware metrics come from re-instantiating the accelerator with
    each rho (the SCU multiplier budget is 64*(1-sparsity density)...
    i.e. sized to the surviving weights, as the paper's design is).
    """
    scene = SceneConfig(height=64, width=96, frames=frames, seed=seed)
    sequence = generate_sequence(scene)
    points = []
    for rho in rhos:
        net = create_codec("ctvc", channels=channels, qstep=qstep, seed=1)
        if rho > 0:
            net.apply_sparse(rho=rho)
        else:
            net.apply_fxp()
        measured = round_trip("ctvc", net, scene, sequence).report()

        config = dataclasses.replace(NVCAConfig(), rho=rho)
        graph = decoder_graph(1080, 1920, config.channels)
        performance, _, energy, area = roll_up(graph, config)
        points.append(
            SparsityPoint(
                rho=rho,
                psnr_db=measured.mean_psnr,
                bpp=measured.bpp,
                multipliers_per_scu=config.multipliers_per_scu,
                chip_power_w=energy.chip_power_w,
                gate_count_m=area.total_mgates,
                fps=performance.fps,
            )
        )
    return points


def fast_algorithm_ablation(
    height: int = 1080, width: int = 1920, n: int = 36, rho: float = 0.5
) -> dict:
    """Multiplication counts of the decoder's fast-path layers under
    direct, fast (Winograd/FTA), and sparse-fast execution."""
    graph = decoder_graph(height, width, n)
    totals = {"direct": 0.0, "fast": 0.0, "sparse": 0.0}
    per_layer = []
    for layer in graph:
        if not layer.fast_supported:
            continue
        spec = PAPER_F23 if layer.kind == "conv" else PAPER_T3_64
        counts = multiplications(
            spec,
            layer.out_channels,
            layer.in_channels,
            layer.out_h,
            layer.out_w,
            density=1.0 - rho,
        )
        per_layer.append((layer.name, counts))
        for key in totals:
            totals[key] += counts[key]
    return {
        "totals": totals,
        "per_layer": per_layer,
        "fast_reduction": totals["direct"] / totals["fast"],
        "sparse_reduction": totals["direct"] / totals["sparse"],
    }


def dataflow_ablation(config: NVCAConfig | None = None) -> dict:
    """Chaining on/off: DRAM traffic and DRAM energy per frame."""
    config = config or NVCAConfig()
    graph = decoder_graph(1080, 1920, config.channels)
    traffic = compare_traffic(graph, config)
    units = EnergyUnits.scaled(config.technology_nm)
    baseline_j = traffic.baseline_total * units.dram_byte_pj * 1e-12
    chained_j = traffic.chained_total * units.dram_byte_pj * 1e-12
    return {
        "baseline_gb": traffic.baseline_total / 1e9,
        "chained_gb": traffic.chained_total / 1e9,
        "reduction": traffic.overall_reduction,
        "baseline_dram_mj": baseline_j * 1e3,
        "chained_dram_mj": chained_j * 1e3,
        "report": traffic,
    }


def attention_ablation(
    channels: int = 12, qstep: float = 8.0, frames: int = 3, seed: int = 7
) -> dict:
    """Swin-AM cost (encoder MACs) and measured pipeline effect.

    The structured-initialization Swin-AMs start near identity, so the
    measured RD effect is ~0 by design; the MAC overhead quantifies
    what the accelerator would pay to run them, and the calibrated
    CTVC-vs-FVC BDBR gap carries the trained benefit (Table I).
    """
    with_attn = encoder_graph(1080, 1920, 36)
    attn_macs = sum(
        layer.macs() for layer in with_attn if layer.kind == "attention"
    )
    swin_am_macs = sum(
        layer.macs() for layer in with_attn if ".swinam" in layer.name
    )

    scene = SceneConfig(height=64, width=96, frames=frames, seed=seed)
    sequence = generate_sequence(scene)

    def run(disable_attention: bool) -> float:
        net = create_codec("ctvc", channels=channels, qstep=qstep, seed=1)
        if disable_attention:
            for ae in (net.motion_compression, net.residual_compression):
                for am in (ae.ana_attn1, ae.ana_attn2):
                    # Slam the mask shut: branch 2 contributes nothing.
                    am.mask_conv.weight.data[:] = 0.0
                    am.mask_conv.bias.data[:] = -1e3
        return round_trip("ctvc", net, scene, sequence).report().mean_psnr

    return {
        "swinatten_gmacs": attn_macs / 1e9,
        "swin_am_total_gmacs": swin_am_macs / 1e9,
        "psnr_with_attention": run(False),
        "psnr_without_attention": run(True),
    }


def render_sparsity_sweep(points: list[SparsityPoint]) -> str:
    headers = ["rho", "PSNR (dB)", "bpp", "mults/SCU", "power (W)", "gates (M)", "FPS"]
    rows = [
        [p.rho, p.psnr_db, p.bpp, p.multipliers_per_scu, p.chip_power_w, p.gate_count_m, p.fps]
        for p in points
    ]
    return render_table(headers, rows, title="Sparsity sweep (quality vs hardware cost)")


def _fxp_fast_conv(x, weight, spec, activation_bits=12, weight_bits=16):
    """Fast convolution with fixed-point transform-domain arithmetic.

    Replicates repro.core.ops.fast_conv2d with fake quantization after
    every stage — the numerical regime the SFTC datapath lives in.
    Used to compare tile-size conditioning (bigger Winograd tiles have
    larger transform dynamic range, hence more quantization damage).
    """
    from repro.core.ops import _assemble_tiles, _hadamard_reduce, extract_tiles
    from repro.nn.quant import QuantSpec

    act_q = QuantSpec(bits=activation_bits)
    w_q = QuantSpec(bits=weight_bits)
    oc, ic, k, _ = weight.shape
    _, h, w = x.shape
    ho, wo = h, w  # padding=1 "same"
    tiles_y = -(-ho // spec.m)
    tiles_x = -(-wo // spec.m)
    need_h = (tiles_y - 1) * spec.m + spec.p
    need_w = (tiles_x - 1) * spec.m + spec.p
    padded = np.pad(x, ((0, 0), (1, need_h - h - 1), (1, need_w - w - 1)))
    xt = spec.transform_input_2d(
        extract_tiles(padded, spec.p, spec.m, tiles_y, tiles_x)
    )
    xt = act_q.fake_quant(xt)
    e = w_q.fake_quant(spec.transform_kernel_2d(weight))
    u = act_q.fake_quant(_hadamard_reduce(e, xt))
    out_tiles = spec.inverse_transform_2d(u)
    return _assemble_tiles(out_tiles)[:, :ho, :wo]


def tile_size_exploration(
    tile_sizes: tuple[int, ...] = (2, 4, 6),
    activation_bits: int = 12,
    seed: int = 5,
) -> list[dict]:
    """Why F(2x2, 3x3)?  Larger Winograd tiles multiply less but
    condition worse in fixed point.

    For each F(m, 3) this measures the multiplication reduction, the
    transform-domain size the hardware would need per patch (mu^2 —
    the SCU provision), and the output SNR under the paper's A12
    datapath.  The paper's F(2,3) choice trades some reduction for
    fixed-point robustness and the 64-product patch pairing with T3.
    """
    from repro.core.ops import fast_conv2d
    from repro.core.transforms import cook_toom_conv

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 24, 24))
    weight = rng.standard_normal((8, 8, 3, 3)) / 3.0
    results = []
    for m in tile_sizes:
        spec = cook_toom_conv(m, 3)
        exact = fast_conv2d(x, weight, None, spec, padding=1)
        fxp = _fxp_fast_conv(x, weight, spec, activation_bits=activation_bits)
        noise = float(np.linalg.norm(fxp - exact))
        signal = float(np.linalg.norm(exact))
        snr_db = 20.0 * np.log10(signal / noise) if noise > 0 else float("inf")
        results.append(
            {
                "tile": f"F({m}x{m},3x3)",
                "m": m,
                "mu2": spec.mu * spec.mu,
                "speedup": spec.speedup,
                "fxp_snr_db": snr_db,
            }
        )
    return results


def resolution_sweep(
    resolutions: tuple[tuple[int, int], ...] = ((540, 960), (1080, 1920), (2160, 3840)),
    config: NVCAConfig | None = None,
) -> list[dict]:
    """Accelerator scaling across frame sizes (UVG is natively 4K).

    Reports per-resolution decode performance and DRAM traffic; the
    paper evaluates at 1080p (25 FPS) — this shows where the design
    lands for 540p and 4K streams with the same silicon.
    """
    config = config or NVCAConfig()
    results = []
    for height, width in resolutions:
        graph = decoder_graph(height, width, config.channels)
        performance = analyze_graph(graph, config)
        traffic = compare_traffic(graph, config)
        results.append(
            {
                "resolution": f"{width}x{height}",
                "pixels": height * width,
                "gmacs": graph.total_macs() / 1e9,
                "fps": performance.fps,
                "frame_ms": performance.frame_time_s * 1e3,
                "dram_gb": traffic.chained_total / 1e9,
                "reduction": traffic.overall_reduction,
            }
        )
    return results


def gop_size_ablation(
    gops: tuple[int, ...] = (2, 4, 8),
    channels: int = 12,
    qstep: float = 8.0,
    frames: int = 8,
    seed: int = 7,
) -> list[dict]:
    """Measured GOP-length trade-off on the real pipeline.

    Longer GOPs amortize the expensive I-frame over more cheap
    P-frames (lower rate) at some quality drift risk — the classic
    structure choice every deployment makes.
    """
    scene = SceneConfig(height=64, width=96, frames=frames, seed=seed)
    sequence = generate_sequence(scene)
    results = []
    for gop in gops:
        net = create_codec("ctvc", channels=channels, qstep=qstep, gop=gop, seed=1)
        session = round_trip("ctvc", net, scene, sequence)
        measured = session.report()
        results.append(
            {
                "gop": gop,
                "bpp": measured.bpp,
                "psnr_db": measured.mean_psnr,
                "i_frames": sum(
                    1 for p in session.stream.packets if p.frame_type == "I"
                ),
            }
        )
    return results
