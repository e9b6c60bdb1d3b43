"""Classical hybrid block-DCT video codec (the H.26x stand-in).

A complete, measured conventional codec: I-frames are 8x8 block-DCT
transform coded in YCbCr 4:2:0; P-frames use block-matching motion
compensation plus DCT-coded residuals; everything is entropy coded
under per-band Laplacian models — through the pluggable entropy
backend named in the config (vectorized rANS by default, CACM'87
arithmetic coding as the reference) — and packed into a real
bitstream.  The decoder reconstructs bit-exactly what the encoder's
closed loop reconstructed, whichever backend wrote the stream.

Three roles in the reproduction (DESIGN.md §2):

* the measured "conventional codec" reference point in RD experiments
  (standing in for the H.264/H.265 binaries we cannot run offline);
* the intra coder for CTVC-Net's I-frames — mirroring DVC/FVC, which
  use H.265-intra for the first frame of every GOP;
* a workload generator for decode-time comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from repro.obs.tracing import encode_stage_timer
from repro.serialization import SerializableConfig
from repro.video.yuv import rgb_to_ycbcr, subsample_420, upsample_420, ycbcr_to_rgb

from .bitstream import (
    FramePacket,
    SequenceBitstream,
    StreamCorruptionError,
    f16_bits,
    f16_from_bits,
)
from .entropy import (
    ArithmeticDecoder,
    CacmBackend,
    EntropyBackend,
    LaplacianModel,
    cached_laplacian,
    cached_uniform_model,
    get_entropy_backend,
)
from .modules import (
    block_match,
    block_sums,
    dense_motion_field,
    validate_motion_fields,
)
from .rate_control import create_rate_controller, validate_rate_fields
from .sessions import (
    DecoderSession,
    EncoderSession,
    GopDecoderSession,
    GopEncoderSession,
)

__all__ = [
    "MAX_FRAME_SIDE",
    "ClassicalCodecConfig",
    "ClassicalCodec",
    "header_geometry",
    "stream_entropy",
    "zigzag_indices",
]

_BLOCK = 8
#: Largest frame side a decoder accepts from a stream (8K UHD is 7680
#: pixels wide); it bounds intra planes when no header fixes the size.
MAX_FRAME_SIDE = 8192
#: Least symbol support the encoder's adaptive clamp produces.
_MIN_SUPPORT = 16
#: Zigzag frequency bands sharing one Laplacian scale each:
#: DC, low AC, mid AC, high AC.
_BANDS = ((0, 1), (1, 6), (6, 21), (21, 64))


def zigzag_indices(size: int = _BLOCK) -> np.ndarray:
    """Flat indices of an (size x size) block in JPEG zigzag order."""
    order = sorted(
        range(size * size),
        key=lambda idx: (
            idx // size + idx % size,
            (idx // size if (idx // size + idx % size) % 2 else idx % size),
        ),
    )
    return np.array(order, dtype=np.int64)


_ZIGZAG = zigzag_indices(_BLOCK)


@dataclass(frozen=True)
class ClassicalCodecConfig(SerializableConfig):
    """Operating parameters of the classical codec."""

    qp: float = 8.0  # quantization step for luma DCT coefficients
    chroma_qp_scale: float = 1.6
    block_size: int = 8  # motion block size (luma pixels)
    search_range: int = 8
    gop: int = 8  # I-frame interval
    support: int = 255  # symbol support for coefficient coding
    #: refine integer motion to half-pel precision (bilinear reference
    #: interpolation), as H.264-class codecs do.
    half_pel: bool = False
    #: entropy coder for coefficients and motion ("rans" is the fast
    #: vectorized default, "cacm" the paper-exact reference).
    entropy_backend: str = "rans"
    #: rate controller name ("cqp" / "abr" / "calibrated"; see
    #: :mod:`repro.codec.rate_control`) or None for plain fixed-QP.
    rate_control: str | None = None
    #: bitrate budget in kilobits per second (needs a rate controller).
    target_kbps: float | None = None
    #: frame rate the bitrate budget is measured against.
    fps: float = 30.0

    def __post_init__(self):
        get_entropy_backend(self.entropy_backend)  # fail fast on unknown names
        validate_rate_fields(self.rate_control, self.target_kbps, self.fps)
        # chroma planes search with half the luma block size
        validate_motion_fields(self.block_size, self.search_range, 2)


def _pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % _BLOCK
    pw = (-w) % _BLOCK
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _blockify(plane: np.ndarray) -> np.ndarray:
    """(H, W) -> (nblocks, 8, 8) raster order."""
    h, w = plane.shape
    nby, nbx = h // _BLOCK, w // _BLOCK
    return (
        plane.reshape(nby, _BLOCK, nbx, _BLOCK)
        .transpose(0, 2, 1, 3)
        .reshape(nby * nbx, _BLOCK, _BLOCK)
    )


def _unblockify(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    nby, nbx = h // _BLOCK, w // _BLOCK
    return (
        blocks.reshape(nby, nbx, _BLOCK, _BLOCK)
        .transpose(0, 2, 1, 3)
        .reshape(h, w)
    )


def _is_int_list(value: object, length: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == length
        and all(type(v) is int for v in value)
    )


def _check_geometry(height: object, width: object) -> tuple[int, int]:
    """A frame size a decoder may allocate: even (4:2:0) and at most
    :data:`MAX_FRAME_SIDE` per side."""
    if not all(
        type(side) is int and 2 <= side <= MAX_FRAME_SIDE and side % 2 == 0
        for side in (height, width)
    ):
        raise StreamCorruptionError(f"frame geometry {height!r}x{width!r}")
    return height, width


def header_geometry(header: dict | None) -> tuple[int, int] | None:
    """The validated ``(height, width)`` a stream header declares, or
    None when there is no header or it names no size."""
    if header is None or ("height" not in header and "width" not in header):
        return None
    return _check_geometry(header.get("height"), header.get("width"))


class _BlockInterleavedCacm(CacmBackend):
    """Entropy layout of version-1 streams: every chunk is CACM-coded,
    but a DCT plane interleaves its four band models block by block
    instead of coding them as contiguous segments."""

    def decode_bands(
        self, payload: bytes, models: list[LaplacianModel], nblocks: int
    ) -> np.ndarray:
        """Quantized ``(nblocks, 64)`` zigzag coefficients of a plane."""
        quantized = np.empty((nblocks, 64), dtype=np.int64)
        decoder = ArithmeticDecoder(payload)
        for b in range(nblocks):
            for (lo, hi), model in zip(_BANDS, models):
                for pos in range(lo, hi):
                    quantized[b, pos] = model.value_of(decoder.decode(model.model))
        return quantized


_VERSION1_ENTROPY = _BlockInterleavedCacm()


def stream_entropy(
    header: dict | None, version: int, default: EntropyBackend
) -> EntropyBackend:
    """The entropy backend a stream's chunks decode with: the legacy
    layout for version 1, ``default`` without a header, else the
    backend the header names (absent means ``"cacm"``)."""
    if version == 1:
        return _VERSION1_ENTROPY
    if header is None:
        return default
    return get_entropy_backend(header.get("entropy", "cacm"))


def _band_scales(coeffs: np.ndarray) -> list[int]:
    """Laplacian MLE scale per zigzag band, as f32 bit patterns
    (compact, exact side info — encoder and decoder build identical
    probability models from it)."""
    scales = []
    for lo, hi in _BANDS:
        band = coeffs[:, lo:hi]
        scales.append(f16_bits(LaplacianModel.fit_scale(band)))
    return scales


def _band_models(scale_bits: list[int], support: int) -> list[LaplacianModel]:
    return [cached_laplacian(s, support) for s in scale_bits]


class _PlaneCoder:
    """Transform coding of one plane (intra) or one residual plane.

    The symbol support adapts to the actual coefficient range and is
    carried as side information, so small quantization steps never clip
    DC coefficients.

    Since format version 2 the four zigzag bands are coded as
    contiguous per-band segments (all blocks' DC, then all low AC, ...)
    so any entropy backend codes them with vectorized symbol mapping;
    version-1 streams interleaved the bands block by block and decode
    through :class:`_BlockInterleavedCacm`.
    """

    def __init__(self, qstep: float, support: int, entropy: EntropyBackend):
        self.qstep = qstep
        self.max_support = support
        self.entropy = entropy

    def encode(self, plane: np.ndarray) -> tuple[bytes, dict, np.ndarray]:
        """Returns (payload, side-info meta, reconstructed plane)."""
        # None while tracing is off: each stage boundary then costs
        # one truthiness check, and no clock is ever read.
        timer = encode_stage_timer("classical")
        h, w = plane.shape
        padded = _pad_to_blocks(plane)
        blocks = _blockify(padded)
        coeffs = dctn(blocks, axes=(1, 2), norm="ortho")
        flat = coeffs.reshape(len(blocks), 64)[:, _ZIGZAG]
        if timer:
            timer.lap("transform")
        raw = np.round(flat / self.qstep)
        support = int(np.clip(np.max(np.abs(raw)), _MIN_SUPPORT, 4 * self.max_support))
        quantized = np.clip(raw, -support, support).astype(np.int64)

        scales = _band_scales(quantized)
        models = _band_models(scales, support)
        if timer:
            timer.lap("quantize")
        segments = [
            (quantized[:, lo:hi].ravel() + support, model.model)
            for (lo, hi), model in zip(_BANDS, models)
        ]
        payload = self.entropy.encode_segments(segments)
        if timer:
            timer.lap("entropy")

        recon = self._reconstruct(quantized, padded.shape)
        meta = {"s": scales, "u": support}
        return payload, meta, recon[:h, :w]

    def decode(self, payload: bytes, meta: dict, h: int, w: int) -> np.ndarray:
        ph = h + ((-h) % _BLOCK)
        pw = w + ((-w) % _BLOCK)
        nblocks = (ph // _BLOCK) * (pw // _BLOCK)
        models = _band_models(meta["s"], meta["u"])
        support = meta["u"]
        if isinstance(self.entropy, _BlockInterleavedCacm):
            quantized = self.entropy.decode_bands(payload, models, nblocks)
        else:
            quantized = np.empty((nblocks, 64), dtype=np.int64)
            specs = [
                (nblocks * (hi - lo), model.model)
                for (lo, hi), model in zip(_BANDS, models)
            ]
            bands = self.entropy.decode_segments(payload, specs)
            for (lo, hi), symbols in zip(_BANDS, bands):
                quantized[:, lo:hi] = (symbols - support).reshape(
                    nblocks, hi - lo
                )
        return self._reconstruct(quantized, (ph, pw))[:h, :w]

    def _reconstruct(self, quantized: np.ndarray, shape: tuple[int, int]):
        flat = np.zeros_like(quantized, dtype=np.float64)
        flat[:, _ZIGZAG] = quantized * self.qstep
        blocks = idctn(flat.reshape(-1, _BLOCK, _BLOCK), axes=(1, 2), norm="ortho")
        return _unblockify(blocks, *shape)


class ClassicalCodec:
    """Hybrid block codec: I/P GOP structure, 4:2:0, closed loop."""

    def __init__(self, config: ClassicalCodecConfig | None = None):
        self.config = config or ClassicalCodecConfig()
        self.entropy = get_entropy_backend(self.config.entropy_backend)
        #: per-frame QP override set by a rate controller (None = use
        #: the config QP).  f16-quantized so the value the encoder
        #: quantizes with is exactly the value the packet meta carries.
        self._frame_qp: float | None = None

    def set_frame_qp(self, qp: float | None) -> None:
        """Override the QP for subsequent frames (rate-control hook).

        ``None`` clears the override.  The value is snapped to its f16
        bit pattern so the encoder-side quantizer and the decoder-side
        reconstruction (driven by the ``"rq"`` packet meta) agree
        exactly."""
        if qp is None:
            self._frame_qp = None
        else:
            self._frame_qp = f16_from_bits(f16_bits(float(qp)))

    # -- plane helpers --------------------------------------------------
    def _planes(self, frame: np.ndarray):
        """RGB (3, H, W) -> (Y, Cb, Cr) with 4:2:0 chroma."""
        return subsample_420(rgb_to_ycbcr(frame))

    def _frame_from_planes(self, y, cb, cr) -> np.ndarray:
        return np.clip(ycbcr_to_rgb(upsample_420(y, cb, cr)), 0.0, 255.0)

    def _plane_coders(
        self,
        entropy: EntropyBackend | None = None,
        qp: float | None = None,
    ):
        cfg = self.config
        entropy = entropy or self.entropy
        if qp is None:
            qp = cfg.qp if self._frame_qp is None else self._frame_qp
        luma = _PlaneCoder(qp, cfg.support, entropy)
        chroma = _PlaneCoder(qp * cfg.chroma_qp_scale, cfg.support, entropy)
        return luma, chroma

    # -- intra ----------------------------------------------------------
    def encode_intra(self, frame: np.ndarray) -> tuple[FramePacket, np.ndarray]:
        """Code one I-frame; returns (packet, reconstruction)."""
        y, cb, cr = self._planes(frame)
        luma_coder, chroma_coder = self._plane_coders()
        packet = FramePacket(frame_type="I")
        recon_planes = []
        metas = []
        for name, plane, coder in (
            ("y", y - 128.0, luma_coder),
            ("cb", cb - 128.0, chroma_coder),
            ("cr", cr - 128.0, chroma_coder),
        ):
            payload, side, recon = coder.encode(plane)
            packet.add_chunk(name, payload)
            metas.append({"p": name, "sd": side, "hw": list(plane.shape)})
            recon_planes.append(recon + 128.0)
        packet.meta["P"] = metas
        if self._frame_qp is not None:
            packet.meta["rq"] = f16_bits(self._frame_qp)
        recon = self._frame_from_planes(*recon_planes)
        return packet, recon

    def decode_intra(
        self,
        packet: FramePacket,
        *,
        entropy: EntropyBackend | None = None,
        geometry: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Decode one I-frame.  ``geometry`` is the ``(height, width)``
        the stream header declares; without it the planes may take any
        size up to :data:`MAX_FRAME_SIDE`."""
        metas = self._check_planes(packet, geometry)
        luma_coder, chroma_coder = self._plane_coders(
            entropy, qp=self._packet_qp(packet)
        )
        planes = []
        for meta in metas:
            coder = luma_coder if meta["p"] == "y" else chroma_coder
            h, w = meta["hw"]
            plane = coder.decode(packet.chunks[meta["p"]], meta["sd"], h, w)
            planes.append(plane + 128.0)
        return self._frame_from_planes(*planes)

    def _check_planes(
        self, packet: FramePacket, geometry: tuple[int, int] | None
    ) -> list[dict]:
        """Validate a packet's plane side information before it sizes
        any buffer: planes ``y``, ``cb``, ``cr`` with chunks, whose
        ``hw`` are the luma ``geometry`` (any valid frame size when it
        is None) and its 4:2:0 chroma halves, and whose ``sd`` holds a
        support ``u`` inside the encoder's clamp and exactly four
        finite 16-bit band scales ``s``."""
        metas = packet.meta.get("P")
        if not (
            isinstance(metas, list)
            and all(isinstance(meta, dict) for meta in metas)
            and [meta.get("p") for meta in metas] == ["y", "cb", "cr"]
            and all(name in packet.chunks for name in ("y", "cb", "cr"))
        ):
            raise StreamCorruptionError("plane meta is not the y, cb, cr planes")
        if geometry is None:
            luma = metas[0].get("hw")
            if not _is_int_list(luma, 2):
                raise StreamCorruptionError(f"plane y shape {luma!r}")
            geometry = _check_geometry(*luma)
        h, w = geometry
        chroma = [h // 2, w // 2]
        max_support = 4 * self.config.support
        for meta, shape in zip(metas, ([h, w], chroma, chroma)):
            name, hw, side = meta["p"], meta.get("hw"), meta.get("sd")
            if not (_is_int_list(hw, 2) and hw == shape):
                raise StreamCorruptionError(
                    f"plane {name} shape {hw!r}, expected {shape}"
                )
            if not isinstance(side, dict):
                raise StreamCorruptionError(f"plane {name} side info is not an object")
            support, scales = side.get("u"), side.get("s")
            if not (type(support) is int and _MIN_SUPPORT <= support <= max_support):
                raise StreamCorruptionError(f"plane {name} symbol support {support!r}")
            if not (
                _is_int_list(scales, len(_BANDS))
                and all(
                    0 <= bits <= 0xFFFF and np.isfinite(f16_from_bits(bits))
                    for bits in scales
                )
            ):
                raise StreamCorruptionError(
                    f"plane {name} needs {len(_BANDS)} finite 16-bit band scales"
                )
        return metas

    def _packet_qp(self, packet: FramePacket) -> float:
        """QP one packet was coded with: the per-frame override a
        rate-controlled stream carries in packet meta (``"rq"``, an f16
        bit pattern) when present, the config QP otherwise.  Decode
        always passes this explicitly so it follows the stream, never
        this instance's encoder-side override state."""
        rq = packet.meta.get("rq")
        return self.config.qp if rq is None else f16_from_bits(rq)

    # -- inter ----------------------------------------------------------
    @property
    def _mv_max_abs(self) -> int:
        """Largest motion magnitude in coded units (half-pel units when
        half-pel refinement is on)."""
        cfg = self.config
        return 2 * cfg.search_range + 1 if cfg.half_pel else cfg.search_range

    def _encode_motion(self, mv: np.ndarray) -> tuple[bytes, dict]:
        max_abs = self._mv_max_abs
        model = cached_uniform_model(2 * max_abs + 1)
        payload = self.entropy.encode_segments([(mv.ravel() + max_abs, model)])
        return payload, {"mvs": list(mv.shape), "hp": int(self.config.half_pel)}

    def _decode_motion(
        self,
        payload: bytes,
        meta: dict,
        geometry: tuple[int, int],
        entropy: EntropyBackend | None = None,
    ) -> np.ndarray:
        entropy = entropy or self.entropy
        max_abs = self._mv_max_abs
        model = cached_uniform_model(2 * max_abs + 1)
        block = self.config.block_size
        shape = [2, geometry[0] // block, geometry[1] // block]
        mvs = meta.get("mvs")
        if not (_is_int_list(mvs, 3) and mvs == shape):
            raise StreamCorruptionError(f"motion field shape {mvs!r}, expected {shape}")
        count = int(np.prod(shape))
        flat = entropy.decode_segments(payload, [(count, model)])[0] - max_abs
        return flat.reshape(shape)

    def _predict_plane(
        self, ref: np.ndarray, mv: np.ndarray, h: int, w: int, chroma: bool
    ) -> np.ndarray:
        """Motion-compensated prediction of one plane from coded MVs."""
        cfg = self.config
        if cfg.half_pel:
            block = cfg.block_size // (2 if chroma else 1)
            dense = dense_motion_field(mv, h, w, block).astype(np.float64)
            if chroma:
                dense *= 0.5  # luma half-pel -> chroma quarter-pel
            return self._warp_half(ref, dense)
        scale = 2 if chroma else 1
        dense = dense_motion_field(mv // scale, h, w, cfg.block_size // scale)
        return self._warp(ref, dense)

    @staticmethod
    def _warp(plane: np.ndarray, dense_mv: np.ndarray) -> np.ndarray:
        """Integer motion-compensated prediction with edge clamping."""
        h, w = plane.shape
        ys = np.clip(np.arange(h)[:, None] + dense_mv[0], 0, h - 1).astype(int)
        xs = np.clip(np.arange(w)[None, :] + dense_mv[1], 0, w - 1).astype(int)
        return plane[ys, xs]

    @staticmethod
    def _warp_half(plane: np.ndarray, dense_mv_half: np.ndarray) -> np.ndarray:
        """Half-pel motion compensation: ``dense_mv_half`` is in
        half-pixel units; fractional positions bilinearly interpolate."""
        h, w = plane.shape
        ys = np.clip(np.arange(h)[:, None] + dense_mv_half[0] / 2.0, 0, h - 1)
        xs = np.clip(np.arange(w)[None, :] + dense_mv_half[1] / 2.0, 0, w - 1)
        y0 = np.floor(ys).astype(int)
        x0 = np.floor(xs).astype(int)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        fy = ys - y0
        fx = xs - x0
        return (
            plane[y0, x0] * (1 - fy) * (1 - fx)
            + plane[y0, x1] * (1 - fy) * fx
            + plane[y1, x0] * fy * (1 - fx)
            + plane[y1, x1] * fy * fx
        )

    def _refine_half_pel(
        self, cur: np.ndarray, ref: np.ndarray, int_mv: np.ndarray
    ) -> np.ndarray:
        """Half-pel refinement around the integer block-match result.

        For each of the 9 sub-pel candidates the whole plane is warped
        once (integer mv + candidate), then per-block SADs pick the
        best offset.  Returns motion in half-pel units.
        """
        cfg = self.config
        bs = cfg.block_size
        h, w = cur.shape
        nby, nbx = int_mv.shape[1], int_mv.shape[2]
        hc, wc = nby * bs, nbx * bs
        base_half = 2 * int_mv
        best = np.full((nby, nbx), np.inf)
        best_mv = base_half.copy()
        dense_base = dense_motion_field(base_half, h, w, bs)
        for sub_y in (-1, 0, 1):
            for sub_x in (-1, 0, 1):
                candidate = dense_base.copy()
                candidate[0] += sub_y
                candidate[1] += sub_x
                predicted = self._warp_half(ref, candidate)
                sad = block_sums(np.abs(cur[:hc, :wc] - predicted[:hc, :wc]), bs)
                better = sad < best
                best = np.where(better, sad, best)
                best_mv[0] = np.where(better, base_half[0] + sub_y, best_mv[0])
                best_mv[1] = np.where(better, base_half[1] + sub_x, best_mv[1])
        return best_mv

    def encode_inter(
        self, frame: np.ndarray, reference: np.ndarray
    ) -> tuple[FramePacket, np.ndarray]:
        """Code one P-frame against the decoded reference."""
        cfg = self.config
        y, cb, cr = self._planes(frame)
        ry, rcb, rcr = self._planes(reference)
        mv = block_match(y, ry, cfg.block_size, cfg.search_range)
        if cfg.half_pel:
            mv = self._refine_half_pel(y, ry, mv)
        packet = FramePacket(frame_type="P")
        mv_payload, mv_meta = self._encode_motion(mv)
        packet.add_chunk("mv", mv_payload)
        packet.meta.update(mv_meta)

        luma_coder, chroma_coder = self._plane_coders()
        recon_planes = []
        metas = []
        for name, plane, ref, coder, chroma in (
            ("y", y, ry, luma_coder, False),
            ("cb", cb, rcb, chroma_coder, True),
            ("cr", cr, rcr, chroma_coder, True),
        ):
            h, w = plane.shape
            prediction = self._predict_plane(ref, mv, h, w, chroma)
            payload, side, residual_recon = coder.encode(plane - prediction)
            packet.add_chunk(name, payload)
            metas.append({"p": name, "sd": side, "hw": [h, w]})
            recon_planes.append(
                np.clip(prediction + residual_recon, 0.0, 255.0)
            )
        packet.meta["P"] = metas
        if self._frame_qp is not None:
            packet.meta["rq"] = f16_bits(self._frame_qp)
        recon = self._frame_from_planes(*recon_planes)
        return packet, recon

    def decode_inter(
        self,
        packet: FramePacket,
        reference: np.ndarray,
        *,
        entropy: EntropyBackend | None = None,
    ) -> np.ndarray:
        if bool(packet.meta.get("hp", 0)) != self.config.half_pel:
            raise ValueError(
                "bitstream motion precision does not match codec config"
            )
        geometry = reference.shape[1:]
        metas = self._check_planes(packet, geometry)
        ry, rcb, rcr = self._planes(reference)
        mv = self._decode_motion(packet.chunks["mv"], packet.meta, geometry, entropy)
        luma_coder, chroma_coder = self._plane_coders(
            entropy, qp=self._packet_qp(packet)
        )
        planes = []
        for meta, ref, coder, chroma in zip(
            metas,
            (ry, rcb, rcr),
            (luma_coder, chroma_coder, chroma_coder),
            (False, True, True),
        ):
            h, w = meta["hw"]
            prediction = self._predict_plane(ref, mv, h, w, chroma)
            residual = coder.decode(packet.chunks[meta["p"]], meta["sd"], h, w)
            planes.append(np.clip(prediction + residual, 0.0, 255.0))
        return self._frame_from_planes(*planes)

    # -- streaming sessions ----------------------------------------------
    def open_encoder(self) -> EncoderSession:
        """Streaming encoder: ``push(frame)`` yields packets as frames
        arrive (see :mod:`repro.codec.sessions`)."""

        cfg = self.config

        def make_header(frame: np.ndarray) -> dict:
            _, h, w = frame.shape
            header = {
                "codec": "classical-dct",
                "height": h,
                "width": w,
                "qp": cfg.qp,
                "gop": cfg.gop,
                "entropy": self.entropy.name,
                "rate_control": cfg.rate_control or "cqp",
            }
            if cfg.target_kbps is not None:
                header["target_kbps"] = cfg.target_kbps
                header["fps"] = cfg.fps
            return header

        self.set_frame_qp(None)  # a fresh session starts at the config QP
        controller = None
        if cfg.rate_control is not None:
            controller = create_rate_controller(
                cfg.rate_control,
                base_qp=cfg.qp,
                target_kbps=cfg.target_kbps,
                fps=cfg.fps,
            )
        return GopEncoderSession(
            intra=self.encode_intra,
            inter=self.encode_inter,
            gop=cfg.gop,
            make_header=make_header,
            rate_control=controller,
            apply_qp=self.set_frame_qp,
        )

    def open_decoder(
        self, header: dict | None = None, version: int = 4
    ) -> DecoderSession:
        """Streaming decoder honouring the backend the stream header
        names; version-1 streams use the legacy CACM layout.  Without a
        header the session trusts this codec's configured backend."""
        entropy = stream_entropy(header, version, self.entropy)
        geometry = header_geometry(header)
        return GopDecoderSession(
            intra=lambda packet: self.decode_intra(
                packet, entropy=entropy, geometry=geometry
            ),
            inter=lambda packet, reference: self.decode_inter(
                packet, reference, entropy=entropy
            ),
        )

    # -- sequence (thin wrappers over the sessions) ----------------------
    def encode_sequence(self, frames: list[np.ndarray]) -> SequenceBitstream:
        session = self.open_encoder()
        packets = list(session.encode_iter(frames))
        if not packets:
            raise ValueError("no frames to encode")
        stream = SequenceBitstream(header=session.header)
        for packet in packets:
            stream.add_packet(packet)
        return stream

    def decode_sequence(self, stream: SequenceBitstream) -> list[np.ndarray]:
        session = self.open_decoder(stream.header, version=stream.version)
        return list(session.decode_iter(stream.packets))
