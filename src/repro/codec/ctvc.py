"""CTVC-Net: the paper's CNN-Transformer hybrid video codec, assembled.

End-to-end P-frame coding in feature space (Fig. 1):

1. features ``F_t`` are extracted from the current frame, ``F_{t-1}``
   re-extracted from the previously *decoded* frame (both sides of the
   channel run identical code — the closed loop is bit-exact);
2. block-matching motion (the structured stand-in for Fig. 2(c)'s conv
   stack) is embedded in the N-channel motion feature O_t and coded by
   the motion CompressionAE under the factorized Laplacian prior;
3. the decoded motion drives DeformableCompensation to predict
   ``F_t``; the prediction residual is coded by the residual
   CompressionAE;
4. FrameReconstruction maps the reconstructed feature back to pixels.

I-frames use the classical DCT intra coder (as DVC/FVC use H.265-intra
for the first frame of each GOP).  Per-frame least-squares gains for
the motion and residual reconstructions travel as f16 side information
— with an untrained AE the gain guarantees synthesis can only help,
never hurt (alpha -> 0 when the reconstruction is useless).

Variants measured in the evaluation (Table I rows):

* ``CTVCNet(...)``                        — CTVC-Net (FP)
* ``net.apply_fxp()``                     — CTVC-Net (FXP), W16/A12
* ``net.apply_sparse(rho=0.5)``           — CTVC-Net (Sparse), which
  also applies FXP, matching the paper's deployed configuration.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.obs.tracing import encode_stage_timer
from repro.video.yuv import rgb_to_ycbcr

from .bitstream import (
    FramePacket,
    StreamCorruptionError,
    f16_bits,
    f16_from_bits,
)
from .classical import (
    PACKET_PAYLOAD,
    ClassicalCodec,
    decode_packet_segments,
    encode_packet_segments,
)
from .entropy import (
    EntropyBackend,
    LaplacianModel,
    cached_laplacian,
    get_entropy_backend,
)
from .configs import ClassicalCodecConfig, CTVCConfig
from .sessions import GopCodec
from .modules import (
    CompressionAE,
    DeformableCompensation,
    FeatureExtraction,
    FrameReconstruction,
    MotionEstimation,
)

__all__ = ["CTVCConfig", "CTVCNet", "SUBSTRATES"]

#: numeric tier of the nets -> the float dtype their activations run in.
#: ``reference`` is the exact float64 path every stream before the tier
#: existed was written with; ``fast`` runs the same nets in float32.
SUBSTRATES = {"reference": np.float64, "fast": np.float32}


@dataclass
class _LatentCode:
    """Result of quantizing one latent tensor."""

    segments: list  # (symbols, model) per channel, for the packet payload
    meta: dict
    reconstruction: np.ndarray  # dequantized latent (decoder-identical)


class CTVCNet(GopCodec):
    """The full CTVC-Net codec (encoder + decoder + model variants)."""

    STREAM_CODEC = "ctvc-net"
    QP_FIELD = "qstep"

    #: attributes holding the net modules (what :meth:`with_config` shares).
    NETS = (
        "feature_extraction",
        "frame_reconstruction",
        "motion_estimation",
        "motion_compression",
        "deformable_compensation",
        "residual_compression",
    )

    def __init__(self, config: CTVCConfig | None = None):
        self.config = config or CTVCConfig()
        cfg = self.config
        seeds = np.random.SeedSequence(cfg.seed).spawn(6)
        rngs = [np.random.default_rng(s) for s in seeds]
        n = cfg.channels
        self.feature_extraction = FeatureExtraction(n, rng=rngs[0])
        self.frame_reconstruction = FrameReconstruction(n, rng=rngs[1])
        self.motion_estimation = MotionEstimation(
            n, cfg.block_size, cfg.search_range, rng=rngs[2]
        )
        self.motion_compression = CompressionAE(
            n, window=cfg.window, heads=cfg.heads, rng=rngs[3]
        )
        self.deformable_compensation = DeformableCompensation(n, rng=rngs[4])
        self.residual_compression = CompressionAE(
            n, window=cfg.window, heads=cfg.heads, rng=rngs[5]
        )
        self.motion_compression.calibrate()
        self.residual_compression.calibrate()
        self.variant = "fp"
        #: True once another codec holds these module objects too.
        self._shares_nets = False
        self._init_coding()

    def _init_coding(self) -> None:
        """The per-codec state the coding fields drive."""
        cfg = self.config
        self.intra_codec = ClassicalCodec(
            ClassicalCodecConfig(
                qp=cfg.derived_intra_qp(), entropy_backend=cfg.entropy_backend
            )
        )
        self.entropy = get_entropy_backend(cfg.entropy_backend)
        #: per-frame qstep override set by a rate controller (None =
        #: use the config qstep).  P-frame latents are already
        #: self-describing (meta ``"q"``), so decode needs no extra
        #: side info.
        self._frame_qstep: float | None = None

    def with_config(self, config: CTVCConfig) -> "CTVCNet":
        """A codec for ``config`` built around this codec's nets.

        ``config`` may differ from this codec's config in coding fields
        only (``ValueError`` otherwise); the result holds the same
        calibrated module objects, and its own config, intra coder,
        entropy backend, variant and rate-control state.  It codes
        byte for byte what ``CTVCNet(config)`` codes, unless this
        codec's nets were already quantized or pruned: they carry over.
        :meth:`apply_fxp` and :meth:`apply_sparse` copy shared nets
        before changing them, so neither codec sees the other's.
        """
        ours, theirs = self.config.architecture(), config.architecture()
        differ = sorted(name for name in ours if ours[name] != theirs[name])
        if differ:
            raise ValueError(
                "with_config shares nets across coding fields only; "
                f"{', '.join(differ)} differ"
            )
        twin = copy.copy(self)
        twin.config = config
        twin._init_coding()
        self._shares_nets = twin._shares_nets = True
        return twin

    def _own_nets(self) -> None:
        """Give this codec private copies of nets it shares, before
        anything changes them."""
        if self._shares_nets:
            nets = copy.deepcopy({name: getattr(self, name) for name in self.NETS})
            self.__dict__.update(nets)
            self._shares_nets = False

    def set_frame_qp(self, qp: float | None) -> None:
        """Override the latent qstep for subsequent frames (rate-control
        hook).  The classical intra coder tracks proportionally, keeping
        the I/P quality relationship of ``derived_intra_qp``."""
        if qp is None:
            self._frame_qstep = None
            self.intra_codec.set_frame_qp(None)
            return
        self._frame_qstep = float(qp)
        scale = self.config.derived_intra_qp() / self.config.qstep
        self.intra_codec.set_frame_qp(float(qp) * scale)

    # -- module traversal ------------------------------------------------
    def decoder_modules(self) -> dict[str, object]:
        """The five decoder-side modules (the red dashed box of Fig. 1,
        the five bars of Fig. 9(b))."""
        return {
            "feature_extraction": self.feature_extraction,
            "motion_synthesis": self.motion_compression,
            "deformable_compensation": self.deformable_compensation,
            "residual_synthesis": self.residual_compression,
            "frame_reconstruction": self.frame_reconstruction,
        }

    def all_modules(self) -> dict[str, object]:
        modules = dict(self.decoder_modules())
        modules["motion_estimation"] = self.motion_estimation
        return modules

    # -- model compression variants ---------------------------------------
    def apply_fxp(self, weight_bits: int = 16, activation_bits: int = 12):
        """Quantize every module to fixed point (CTVC-Net FXP)."""
        from repro.nn.quant import quantize_network

        self._own_nets()
        reports = {
            name: quantize_network(module, weight_bits, activation_bits)
            for name, module in self.all_modules().items()
        }
        self.variant = "fxp"
        return reports

    def apply_sparse(self, rho: float = 0.5, mode: str = "balanced"):
        """Prune + quantize (CTVC-Net Sparse at the paper's rho=50%)."""
        from repro.core.strategy import SparseStrategy

        strategy = SparseStrategy(rho=rho, mode=mode)
        self._own_nets()
        reports = {
            name: strategy.prune_network(module)
            for name, module in self.all_modules().items()
        }
        self.apply_fxp()
        self.variant = "sparse"
        return reports

    # -- latent entropy coding --------------------------------------------
    def _quantize_latent(self, latent: np.ndarray) -> _LatentCode:
        """Quantize one latent tensor into entropy segments.

        One segment per channel (symbols are channel-major contiguous,
        the same order the seed coder used), so any registered backend
        codes the whole tensor with vectorized symbol mapping.  The
        packet entropy-codes both latents' segments together, once the
        residual latent is quantized too.
        """
        qstep = (
            self.config.qstep
            if self._frame_qstep is None
            else self._frame_qstep
        )
        qstep = f16_from_bits(f16_bits(qstep))
        # The analysis transform already ran in the nets upstream;
        # the stage this coder owns is quantize.
        timer = encode_stage_timer("ctvc")
        q = np.round(latent / qstep).astype(np.int64)
        support = int(np.clip(np.max(np.abs(q)), 2, 2048))
        q = np.clip(q, -support, support)
        channels = latent.shape[0]
        scale_bits = [
            f16_bits(LaplacianModel.fit_scale(q[c])) for c in range(channels)
        ]
        segments = [
            (
                q[c].ravel() + support,
                cached_laplacian(scale_bits[c], support).model,
            )
            for c in range(channels)
        ]
        if timer:
            timer.lap("quantize")
        meta = {
            "q": f16_bits(qstep),
            "u": support,
            "s": scale_bits,
            "hw": list(latent.shape),
        }
        return _LatentCode(segments, meta, self._dequantize(q, qstep, latent.dtype))

    def _latent_shape(self, feature: np.ndarray) -> tuple[int, int, int]:
        """Latent shape the analysis transform gives for a feature map:
        three stride-2 stages over reflect-padded inputs, each a ceil-halving."""
        _, h, w = feature.shape
        for _ in range(3):
            h, w = -(-h // 2), -(-w // 2)
        return (self.config.channels, h, w)

    @staticmethod
    def _check_latent_meta(meta: object, shape: tuple[int, int, int]) -> dict:
        """Validate latent side information before it sizes any buffer:
        ``hw`` must be the shape the encoder produces for this frame
        size, ``u`` the clamped symbol support, ``s`` one scale per
        channel, the scales and ``q`` 16-bit patterns, and ``q`` a
        finite step."""
        if not isinstance(meta, dict):
            raise StreamCorruptionError("latent meta is not an object")
        hw, support, scales = meta.get("hw"), meta.get("u"), meta.get("s")
        if not (
            isinstance(hw, list)
            and all(type(v) is int for v in hw)
            and tuple(hw) == shape
        ):
            raise StreamCorruptionError(f"latent shape {hw!r}, expected {list(shape)}")
        if not (type(support) is int and 1 <= support <= 2048):
            raise StreamCorruptionError(f"latent symbol support {support!r}")
        if not (isinstance(scales, list) and len(scales) == shape[0]):
            raise StreamCorruptionError(f"latent needs {shape[0]} channel scales")
        patterns = [meta.get("q"), *scales]
        if not all(type(b) is int and 0 <= b <= 0xFFFF for b in patterns):
            raise StreamCorruptionError("latent scale or quantizer step is not 16-bit")
        qstep = f16_from_bits(meta["q"])
        if not np.isfinite(qstep):
            raise StreamCorruptionError(f"latent quantizer step is {qstep}")
        return meta

    @staticmethod
    def _latent_specs(meta: dict) -> list:
        """One segment per channel of a validated latent meta."""
        _, h, w = meta["hw"]
        return [(h * w, cached_laplacian(bits, meta["u"]).model) for bits in meta["s"]]

    @staticmethod
    def _dequantize(q: np.ndarray, qstep: float, dtype) -> np.ndarray:
        """Latent from its integer symbols: one expression for encoder
        and decoder, so both sides hold the same bytes in any dtype."""
        return q.astype(dtype) * qstep

    @classmethod
    def _dequantize_latent(
        cls, planes: list[np.ndarray], meta: dict, dtype
    ) -> np.ndarray:
        q = np.stack(planes).reshape(meta["hw"]) - meta["u"]
        return cls._dequantize(q, f16_from_bits(meta["q"]), dtype)

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _half_luma(frame: np.ndarray) -> np.ndarray:
        """Luma plane at feature resolution (2x2 mean pooling)."""
        y = rgb_to_ycbcr(frame)[0]
        return 0.25 * (
            y[0::2, 0::2] + y[1::2, 0::2] + y[0::2, 1::2] + y[1::2, 1::2]
        )

    @staticmethod
    def _ls_gain(target: np.ndarray, estimate: np.ndarray) -> float:
        """Least-squares gain alpha minimizing ||target - alpha*estimate||."""
        denom = float(np.sum(estimate * estimate))
        if denom < 1e-12:
            return 0.0
        return float(np.sum(target * estimate)) / denom

    def _predict(
        self, motion_reconstruction: np.ndarray, ref_feature: np.ndarray
    ) -> np.ndarray:
        return self.deformable_compensation(motion_reconstruction, ref_feature)

    # -- P-frame ------------------------------------------------------------
    def encode_inter(
        self, frame: np.ndarray, ref_frame: np.ndarray
    ) -> tuple[FramePacket, np.ndarray]:
        """Code one P-frame against the decoded reference frame.

        Returns (packet, decoded reconstruction) — the reconstruction is
        byte-for-byte what the decoder will produce.  The nets run in
        the configured substrate's dtype; the reconstruction is float64.
        """
        dtype = SUBSTRATES[self.config.substrate]
        f_cur = self.feature_extraction(frame, dtype)
        f_ref = self.feature_extraction(ref_frame, dtype)

        motion_feature, _ = self.motion_estimation.estimate(
            self._half_luma(frame), self._half_luma(ref_frame), dtype
        )
        motion_code = self._quantize_latent(
            self.motion_compression.analyze(motion_feature)
        )
        motion_hat = self.motion_compression.synthesize(motion_code.reconstruction)
        alpha_m = f16_from_bits(
            f16_bits(self._ls_gain(motion_feature[:2], motion_hat[:2]))
        )
        motion_dec = alpha_m * motion_hat

        prediction = self._predict(motion_dec, f_ref)
        residual = f_cur - prediction
        residual_code = self._quantize_latent(
            self.residual_compression.analyze(residual)
        )
        residual_hat = self.residual_compression.synthesize(
            residual_code.reconstruction
        )
        alpha_r = f16_from_bits(f16_bits(self._ls_gain(residual, residual_hat)))

        f_rec = prediction + alpha_r * residual_hat
        recon = self._to_pixels(f_rec)

        packet = FramePacket(frame_type="P")
        encode_packet_segments(
            packet,
            self.entropy,
            {PACKET_PAYLOAD: motion_code.segments + residual_code.segments},
            "ctvc",
        )
        packet.meta.update(
            {
                "am": f16_bits(alpha_m),
                "ar": f16_bits(alpha_r),
                "mm": motion_code.meta,
                "rm": residual_code.meta,
            }
        )
        return packet, recon

    def decode_inter(
        self,
        packet: FramePacket,
        ref_frame: np.ndarray,
        entropy: EntropyBackend | None = None,
        substrate: str | None = None,
    ) -> np.ndarray:
        """Decode one P-frame — exactly the five decoder modules.

        ``entropy`` and ``substrate`` override the configured backend
        and numeric tier (decoder sessions pass what the stream header
        names).  Returns a float64 frame.
        """
        dtype = SUBSTRATES[substrate or self.config.substrate]
        f_ref = self.feature_extraction(ref_frame, dtype)
        latent_shape = self._latent_shape(f_ref)
        metas = [
            self._check_latent_meta(packet.meta.get(key), latent_shape)
            for key in ("mm", "rm")
        ]
        groups = [
            (name, self._latent_specs(meta))
            for name, meta in zip(("motion", "residual"), metas)
        ]
        symbols = decode_packet_segments(packet, entropy or self.entropy, groups)
        motion_latent, residual_latent = (
            self._dequantize_latent(planes, meta, dtype)
            for planes, meta in zip(symbols, metas)
        )
        motion_dec = f16_from_bits(packet.meta["am"]) * self.motion_compression.synthesize(
            motion_latent
        )
        prediction = self._predict(motion_dec, f_ref)
        residual_hat = self.residual_compression.synthesize(residual_latent)
        f_rec = prediction + f16_from_bits(packet.meta["ar"]) * residual_hat
        return self._to_pixels(f_rec)

    def _to_pixels(self, f_rec: np.ndarray) -> np.ndarray:
        """The reconstructed frame, clipped to 8-bit range in the nets'
        dtype and handed on as float64 whatever the substrate."""
        frame = np.clip(self.frame_reconstruction(f_rec), 0.0, 255.0)
        return frame.astype(np.float64, copy=False)

    # -- stream surface hooks (repro.codec.sessions.GopCodec) -------------
    def _header_fields(self) -> dict:
        fields = {"variant": self.variant, "channels": self.config.channels}
        if self.config.substrate != "reference":
            # absent means reference, so reference streams keep the
            # bytes they had before the tier existed
            fields["substrate"] = self.config.substrate
        return fields

    def _intra_coder(self) -> ClassicalCodec:
        return self.intra_codec

    def _inter_options(self, header: dict | None) -> dict:
        """P-frames decode in the substrate the header names (absent
        means ``"reference"``, every stream written before the tier);
        without a header, in the configured one."""
        if header is None:
            return {"substrate": self.config.substrate}
        substrate = header.get("substrate", "reference")
        if not isinstance(substrate, str) or substrate not in SUBSTRATES:
            raise StreamCorruptionError(f"unknown substrate {substrate!r} in header")
        return {"substrate": substrate}
