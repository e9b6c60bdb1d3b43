"""Classical hybrid block-DCT video codec (the H.26x stand-in).

A complete, measured conventional codec: I-frames are 8x8 block-DCT
transform coded in YCbCr 4:2:0; P-frames use block-matching motion
compensation plus DCT-coded residuals; each 8x8 block codes only the
zigzag bands up to its last nonzero coefficient, under per-band
Laplacian models — through the pluggable entropy backend named in the
config (vectorized rANS by default, CACM'87 arithmetic coding as the
reference) — and packed into a real bitstream.  The decoder
reconstructs bit-exactly what the encoder's closed loop reconstructed,
whichever backend wrote the stream.

Three roles in the reproduction (DESIGN.md §2):

* the measured "conventional codec" reference point in RD experiments
  (standing in for the H.264/H.265 binaries we cannot run offline);
* the intra coder for CTVC-Net's I-frames — mirroring DVC/FVC, which
  use H.265-intra for the first frame of every GOP;
* a workload generator for decode-time comparisons.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.fft import dctn, idctn

from repro.obs.tracing import encode_stage_timer
from repro.video.yuv import rgb_to_ycbcr, subsample_420, upsample_420, ycbcr_to_rgb

from .bitstream import (
    FramePacket,
    StreamCorruptionError,
    f16_bits,
    f16_from_bits,
)
from .entropy import (
    ArithmeticDecoder,
    CacmBackend,
    EntropyBackend,
    LaplacianModel,
    SymbolModel,
    cached_laplacian,
    cached_uniform_model,
    get_entropy_backend,
)
from .configs import ClassicalCodecConfig
from .modules import block_match, block_sums, dense_motion_field
from .sessions import GopCodec

__all__ = [
    "BAND_COUNT_PAYLOADS",
    "MAX_FRAME_SIDE",
    "PACKET_PAYLOAD",
    "ClassicalCodecConfig",
    "ClassicalCodec",
    "decode_packet_segments",
    "encode_packet_segments",
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
#: ``_BAND_RANK[i]`` is one more than the band of zigzag position ``i``,
#: so a block's band count is the largest rank among its nonzeros.
_BAND_RANK = np.repeat(np.arange(1, len(_BANDS) + 1), [hi - lo for lo, hi in _BANDS])
#: Bits per band count symbol in a plane's count model side info.
_COUNT_CODE_BITS = 4
_COUNT_CODE_MAX = (1 << _COUNT_CODE_BITS) - 1
#: Mantissa bits (of f16's ten) a band scale keeps.
_SCALE_MANTISSA_BITS = 3


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
        self, payload: bytes, specs: list[tuple[int, SymbolModel]]
    ) -> list[np.ndarray]:
        """A plane's four band specs decoded block by block; returns
        each band's symbols in the contiguous (all blocks, band by
        band) order version 2 writes.  The DC band holds one symbol
        per block, so its count is the block count."""
        nblocks = specs[0][0]
        bands = [np.empty((nblocks, hi - lo), dtype=np.int64) for lo, hi in _BANDS]
        decode = ArithmeticDecoder(payload).decode
        for b in range(nblocks):
            for band, (_, model) in zip(bands, specs):
                for pos in range(band.shape[1]):
                    band[b, pos] = decode(model)
        return [band.ravel() for band in bands]


_VERSION1_ENTROPY = _BlockInterleavedCacm()
_PLANE_NAMES = ("y", "cb", "cr")

#: The one chunk of a packet that carries one entropy payload: every
#: segment the frame codes, interleaved under one set of coder states.
#: CTVC-Net P-frames are written this way; classical packets written
#: before band counts existed are read-only.  Packets whose chunks are
#: named per segment group (``y``/``cb``/``cr``, ``mv``,
#: ``motion``/``residual``) are the read-only per-chunk layout.
PACKET_PAYLOAD = "e"

#: The two chunks of a band-count packet, the layout of every classical
#: frame and CTVC-Net I-frame: ``"h"`` holds the segments whose lengths
#: the meta fixes (the motion field, then each plane's band counts),
#: ``"b"`` the coefficients those counts select.
BAND_COUNT_PAYLOADS = ("h", "b")


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


def encode_packet_segments(
    packet: FramePacket,
    entropy: EntropyBackend,
    payloads: dict[str, list[tuple[np.ndarray, SymbolModel]]],
    codec: str,
) -> None:
    """Entropy-code each payload's segments, in order, as the packet
    chunk its name gives (one ``entropy`` stage lap per packet)."""
    timer = encode_stage_timer(codec)
    for name, segments in payloads.items():
        packet.add_chunk(name, entropy.encode_segments(segments))
    if timer:
        timer.lap("entropy")


def decode_packet_segments(
    packet: FramePacket,
    entropy: EntropyBackend,
    groups: list[tuple[str, list[tuple[int, SymbolModel]]]],
) -> list[list[np.ndarray]]:
    """Symbols of each segment group of a packet, group by group.

    ``groups`` lists ``(chunk name, segment specs)`` in coding order,
    the specs built from validated meta.  The packet's chunk names say
    its layout: a lone :data:`PACKET_PAYLOAD` chunk holds every group
    and decodes in one call; otherwise each group decodes from the
    chunk it names (versions 1-4 before packets carried one payload).
    """
    names = list(packet.chunks)
    if names == [PACKET_PAYLOAD]:
        every = [spec for _, specs in groups for spec in specs]
        flat = entropy.decode_segments(packet.chunks[PACKET_PAYLOAD], every)
        out, start = [], 0
        for _, specs in groups:
            out.append(flat[start : start + len(specs)])
            start += len(specs)
        return out
    wanted = [name for name, _ in groups]
    if not set(wanted) <= set(names):
        raise StreamCorruptionError(
            f"packet chunks {names} are neither [{PACKET_PAYLOAD!r}] nor {wanted}"
        )
    return [
        entropy.decode_bands(packet.chunks[name], specs)
        if entropy is _VERSION1_ENTROPY and name in _PLANE_NAMES
        else entropy.decode_segments(packet.chunks[name], specs)
        for name, specs in groups
    ]


def _block_count(h: int, w: int) -> int:
    return -(-h // _BLOCK) * -(-w // _BLOCK)


def _band_counts(quantized: np.ndarray) -> np.ndarray:
    """Per block, how many leading zigzag bands it codes: the bands up
    to its last nonzero coefficient (0 for an all-zero block)."""
    return np.max((quantized != 0) * _BAND_RANK, axis=1)


def _band_scales(bands: list[np.ndarray]) -> list[int]:
    """Laplacian MLE scale of each zigzag band's coded coefficients, as
    f16 bit patterns (compact, exact side info — encoder and decoder
    build identical probability models from it).

    A scale keeps :data:`_SCALE_MANTISSA_BITS` of its mantissa (eight
    steps per octave, within 6.25% of the fit): scales fit on the
    coded coefficients alone would otherwise take so many values that
    few planes share a cached model.  A band no block codes gets the
    scale floor."""
    drop = 10 - _SCALE_MANTISSA_BITS
    scales = []
    for band in bands:
        bits = f16_bits(LaplacianModel.fit_scale(band) if band.size else 0.0)
        scales.append((bits + (1 << (drop - 1))) >> drop << drop)
    return scales


def _band_models(scale_bits: list[int], support: int) -> list[LaplacianModel]:
    return [cached_laplacian(s, support) for s in scale_bits]


def _count_side_info(counts: np.ndarray) -> int | None:
    """A plane's band count model as one integer: for each count ``k``
    a 4-bit code in bits ``4k..4k+3``, its frequency ``2**code``.  The
    most frequent count gets the top code and the others their log2
    share of it; a count no block has gets code 0.  ``None`` (no side
    info, the uniform model) when that codes the counts in fewer bits
    than the fitted model and its meta entry would."""
    hist = np.bincount(counts, minlength=len(_BANDS) + 1).tolist()
    top = max(hist)
    codes = [
        max(0, _COUNT_CODE_MAX + round(math.log2(n / top))) if n else 0 for n in hist
    ]
    bits = sum(code << (_COUNT_CODE_BITS * k) for k, code in enumerate(codes))
    total = sum(1 << code for code in codes)
    fitted = sum(n * (math.log2(total) - code) for n, code in zip(hist, codes))
    fitted += 8 * len(f',"c":{bits}')
    return bits if fitted < counts.size * math.log2(len(hist)) else None


@functools.lru_cache(maxsize=32)
def _count_model(bits: int | None) -> SymbolModel:
    """The band count model :func:`_count_side_info` describes; cached
    so a decoder in the encoder's process reuses its rANS tables (about
    130 KB a model, ~60 us to build).  A 640x360 clip's planes use 15-16
    distinct models and a 96x64 sweep worker up to 12, so 32 holds
    either working set; 8 would thrash the first."""
    if bits is None:
        return cached_uniform_model(len(_BANDS) + 1)
    codes = [
        (bits >> (_COUNT_CODE_BITS * k)) & _COUNT_CODE_MAX
        for k in range(len(_BANDS) + 1)
    ]
    return SymbolModel(np.left_shift(1, codes))


def _band_counted(packet: FramePacket) -> bool:
    """Whether a packet is written in the band-count layout."""
    return list(packet.chunks) == list(BAND_COUNT_PAYLOADS)


def _check_counts(counts: np.ndarray, size: int, plane: str) -> np.ndarray:
    """A plane's decoded band counts, one per block and each at most the
    band total: anything else would size coefficient segments past the
    plane's geometry."""
    if counts.shape != (size,) or (
        size and not 0 <= counts.min() <= counts.max() <= len(_BANDS)
    ):
        raise StreamCorruptionError(
            f"plane {plane} band counts are not {size} values in 0..{len(_BANDS)}"
        )
    return counts


class _PlaneCoder:
    """Transform coding of one plane (intra) or one residual plane.

    The symbol support adapts to the actual coefficient range and is
    carried as side information, so small quantization steps never clip
    DC coefficients.

    Each 8x8 block codes a *band count*: how many of the four zigzag
    bands lead up to its last nonzero coefficient (0 for an all-zero
    block).  Only the coefficients of those bands are entropy coded,
    as contiguous per-band segments (all counted blocks' DC, then their
    low AC, ...), so any backend maps them vectorized; the band counts
    code under a per-plane model (side info ``"c"``).  Packets written
    before band counts code every band of every block (all counts 4);
    version-1 streams also interleaved the bands block by block and
    decode through :class:`_BlockInterleavedCacm`.  The coder quantizes
    and reconstructs; the codec entropy-codes a frame's segments.
    """

    def __init__(self, qstep: float, support: int):
        self.qstep = qstep
        self.max_support = support

    def encode(self, plane: np.ndarray) -> tuple[tuple, list, dict, np.ndarray]:
        """Returns (band count segment, band segments, side-info meta,
        reconstructed plane)."""
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

        counts = _band_counts(quantized)
        bands = [quantized[counts > k, lo:hi] for k, (lo, hi) in enumerate(_BANDS)]
        meta = {"s": _band_scales(bands), "u": support}
        count_bits = _count_side_info(counts)
        if count_bits is not None:
            meta["c"] = count_bits
        segments = [
            (band.ravel() + support, model.model)
            for band, model in zip(bands, _band_models(meta["s"], support))
        ]
        if timer:
            timer.lap("quantize")
        recon = self._reconstruct(quantized, padded.shape)
        return (counts, _count_model(count_bits)), segments, meta, recon[:h, :w]

    @staticmethod
    def band_specs(meta: dict, counts: np.ndarray) -> list[tuple[int, SymbolModel]]:
        """The four band segments of a plane whose blocks code
        ``counts`` bands each."""
        return [
            (int(np.count_nonzero(counts > k)) * (hi - lo), model.model)
            for k, ((lo, hi), model) in enumerate(
                zip(_BANDS, _band_models(meta["s"], meta["u"]))
            )
        ]

    def decode(
        self, counts: np.ndarray, bands: list[np.ndarray], meta: dict, h: int, w: int
    ) -> np.ndarray:
        """The plane from its band counts and decoded band symbols."""
        ph = h + ((-h) % _BLOCK)
        pw = w + ((-w) % _BLOCK)
        quantized = np.zeros((counts.size, 64), dtype=np.int64)
        for k, ((lo, hi), symbols) in enumerate(zip(_BANDS, bands)):
            quantized[counts > k, lo:hi] = (symbols - meta["u"]).reshape(-1, hi - lo)
        return self._reconstruct(quantized, (ph, pw))[:h, :w]

    def _reconstruct(self, quantized: np.ndarray, shape: tuple[int, int]):
        flat = np.zeros_like(quantized, dtype=np.float64)
        flat[:, _ZIGZAG] = quantized * self.qstep
        blocks = idctn(flat.reshape(-1, _BLOCK, _BLOCK), axes=(1, 2), norm="ortho")
        return _unblockify(blocks, *shape)


class ClassicalCodec(GopCodec):
    """Hybrid block codec: I/P GOP structure, 4:2:0, closed loop."""

    STREAM_CODEC = "classical-dct"
    QP_FIELD = "qp"

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

    def _plane_coders(self, qp: float | None = None):
        cfg = self.config
        if qp is None:
            qp = cfg.qp if self._frame_qp is None else self._frame_qp
        luma = _PlaneCoder(qp, cfg.support)
        chroma = _PlaneCoder(qp * cfg.chroma_qp_scale, cfg.support)
        return luma, chroma

    # -- intra ----------------------------------------------------------
    def encode_intra(self, frame: np.ndarray) -> tuple[FramePacket, np.ndarray]:
        """Code one I-frame; returns (packet, reconstruction)."""
        y, cb, cr = self._planes(frame)
        luma_coder, chroma_coder = self._plane_coders()
        packet = FramePacket(frame_type="I")
        head, body = [], []
        recon_planes = []
        metas = []
        for name, plane, coder in (
            ("y", y - 128.0, luma_coder),
            ("cb", cb - 128.0, chroma_coder),
            ("cr", cr - 128.0, chroma_coder),
        ):
            counts, bands, side, recon = coder.encode(plane)
            head.append(counts)
            body += bands
            metas.append({"p": name, "sd": side, "hw": list(plane.shape)})
            recon_planes.append(recon + 128.0)
        self._add_payloads(packet, head, body)
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
        _, planes = self._decode_symbols(packet, entropy or self.entropy, metas)
        luma_coder, chroma_coder = self._plane_coders(qp=self._packet_qp(packet))
        return self._frame_from_planes(
            *(
                coder.decode(counts, bands, meta["sd"], *meta["hw"]) + 128.0
                for coder, (counts, bands), meta in zip(
                    (luma_coder, chroma_coder, chroma_coder), planes, metas
                )
            )
        )

    def _add_payloads(self, packet: FramePacket, head: list, body: list) -> None:
        """Code a frame's segments as the two band-count payloads."""
        head_name, body_name = BAND_COUNT_PAYLOADS
        encode_packet_segments(
            packet, self.entropy, {head_name: head, body_name: body}, "classical"
        )

    @staticmethod
    def _decode_symbols(
        packet: FramePacket,
        entropy: EntropyBackend,
        metas: list[dict],
        motion: tuple[int, SymbolModel] | None = None,
    ) -> tuple[np.ndarray | None, list[tuple[np.ndarray, list[np.ndarray]]]]:
        """The motion symbols (``None`` without a ``motion`` spec) and
        each plane's ``(band counts, band symbols)`` of a packet whose
        meta :meth:`_check_planes` validated.

        A band-count packet decodes its first payload (motion, counts),
        checks the counts, then decodes the coefficients they select.
        Packets of the older layouts code every band of every block."""
        head = [motion] if motion else []
        sizes = [_block_count(*meta["hw"]) for meta in metas]
        if not _band_counted(packet):
            counts = [np.full(size, len(_BANDS), dtype=np.int64) for size in sizes]
            decoded = decode_packet_segments(
                packet,
                entropy,
                ([("mv", head)] if motion else [])
                + [
                    (meta["p"], _PlaneCoder.band_specs(meta["sd"], c))
                    for c, meta in zip(counts, metas)
                ],
            )
            moved = decoded[0][0] if motion else None
            return moved, list(zip(counts, decoded[len(head) :]))
        head_name, body_name = BAND_COUNT_PAYLOADS
        symbols = entropy.decode_segments(
            packet.chunks[head_name],
            head
            + [
                (size, _count_model(meta["sd"].get("c")))
                for size, meta in zip(sizes, metas)
            ],
        )
        moved = symbols[0] if motion else None
        counts = [
            _check_counts(c, size, meta["p"])
            for c, size, meta in zip(symbols[len(head) :], sizes, metas)
        ]
        specs = [_PlaneCoder.band_specs(meta["sd"], c) for c, meta in zip(counts, metas)]
        flat = entropy.decode_segments(
            packet.chunks[body_name], [spec for plane in specs for spec in plane]
        )
        bands = [flat[i : i + len(_BANDS)] for i in range(0, len(flat), len(_BANDS))]
        return moved, list(zip(counts, bands))

    def _check_planes(
        self, packet: FramePacket, geometry: tuple[int, int] | None
    ) -> list[dict]:
        """Validate a packet's plane side information before it sizes
        any buffer: planes ``y``, ``cb``, ``cr``, whose
        ``hw`` are the luma ``geometry`` (any valid frame size when it
        is None) and its 4:2:0 chroma halves, and whose ``sd`` holds a
        support ``u`` inside the encoder's clamp, exactly four finite
        16-bit band scales ``s`` and, in a band-count packet, either no
        count model ``c`` (the uniform one) or five 4-bit codes."""
        metas = packet.meta.get("P")
        if not (
            isinstance(metas, list)
            and all(isinstance(meta, dict) for meta in metas)
            and [meta.get("p") for meta in metas] == list(_PLANE_NAMES)
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
        counted = _band_counted(packet)
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
            count_bits = side.get("c")
            if counted and "c" in side and not (
                type(count_bits) is int
                and 0 <= count_bits < 1 << (_COUNT_CODE_BITS * (len(_BANDS) + 1))
            ):
                raise StreamCorruptionError(
                    f"plane {name} band count model {count_bits!r}"
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

    def _motion_model(self) -> SymbolModel:
        return cached_uniform_model(2 * self._mv_max_abs + 1)

    def _motion_shape(self, meta: dict, geometry: tuple[int, int]) -> list[int]:
        """The validated motion field shape: one vector per block."""
        block = self.config.block_size
        shape = [2, geometry[0] // block, geometry[1] // block]
        mvs = meta.get("mvs")
        if not (_is_int_list(mvs, 3) and mvs == shape):
            raise StreamCorruptionError(f"motion field shape {mvs!r}, expected {shape}")
        return shape

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
        packet.meta.update({"mvs": list(mv.shape), "hp": int(cfg.half_pel)})
        head = [(mv.ravel() + self._mv_max_abs, self._motion_model())]
        body = []

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
            counts, bands, side, residual_recon = coder.encode(plane - prediction)
            head.append(counts)
            body += bands
            metas.append({"p": name, "sd": side, "hw": [h, w]})
            recon_planes.append(
                np.clip(prediction + residual_recon, 0.0, 255.0)
            )
        self._add_payloads(packet, head, body)
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
        shape = self._motion_shape(packet.meta, geometry)
        motion, plane_symbols = self._decode_symbols(
            packet,
            entropy or self.entropy,
            metas,
            (int(np.prod(shape)), self._motion_model()),
        )
        mv = (motion - self._mv_max_abs).reshape(shape)
        ry, rcb, rcr = self._planes(reference)
        luma_coder, chroma_coder = self._plane_coders(qp=self._packet_qp(packet))
        planes = []
        for meta, (counts, plane_bands), ref, coder, chroma in zip(
            metas,
            plane_symbols,
            (ry, rcb, rcr),
            (luma_coder, chroma_coder, chroma_coder),
            (False, True, True),
        ):
            h, w = meta["hw"]
            prediction = self._predict_plane(ref, mv, h, w, chroma)
            residual = coder.decode(counts, plane_bands, meta["sd"], h, w)
            planes.append(np.clip(prediction + residual, 0.0, 255.0))
        return self._frame_from_planes(*planes)
