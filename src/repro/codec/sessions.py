"""Streaming codec sessions and the GOP stream surface both codecs share.

The batch API (``encode_sequence(list) -> SequenceBitstream``) holds
every frame and every packet in memory and emits nothing until the
whole clip is done — fine for the paper's short clips, structurally
wrong for long sequences.  This module is the per-frame I/P GOP state
machine underneath both codecs, as one session pair:

* :class:`EncoderSession` — ``push(frame) -> list[FramePacket]``
  yields one coded packet per frame; every GOP boundary re-keys with
  an I-frame, and each reconstruction becomes the next reference (the
  closed loop).  ``header`` is the stream header, available once the
  first frame fixed the geometry.
* :class:`DecoderSession` — ``push(packet)`` consumes packets in
  stream order (I-frames reset the reference, P-frames predict from
  the previous reconstruction); ``pull() -> frame | None`` hands back
  reconstructions as they become available.

:class:`GopCodec` is the stream surface over that pair, written once
for ``ClassicalCodec`` and ``CTVCNet``: ``open_encoder`` (the header's
common fields, the per-frame QP reset, the rate controller),
``open_decoder`` (entropy backend and geometry from the header) and the
batch ``encode_sequence``/``decode_sequence``, thin wrappers over the
sessions — so streaming and batch are bit-identical by construction.
A codec names its header ``codec`` value and QP field and may supply
extra header fields, the codec that codes its I-frames, and extra
P-frame decode options.

Sessions pair with the incremental container
(:class:`~repro.codec.bitstream.StreamWriter` /
:class:`~repro.codec.bitstream.StreamReader`; byte layout in
``docs/bitstream.md``) so a long sequence encodes file-to-file in O(1)
frame memory:

>>> with open("clip.nvca", "wb") as out:          # doctest: +SKIP
...     session = codec.open_encoder()
...     writer = None
...     for frame in source:
...         for packet in session.push(frame):
...             if writer is None:
...                 writer = StreamWriter(out, session.header)
...             writer.write_packet(packet)
...     for packet in session.flush():
...         writer.write_packet(packet)
...     writer.finalize()
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.obs import tracing as _obs
from repro.obs.metrics import get_registry as _obs_registry

from .bitstream import FramePacket, SequenceBitstream
from .rate_control import create_rate_controller

__all__ = [
    "DecoderSession",
    "EncoderSession",
    "GopCodec",
    "SessionError",
]


class SessionError(RuntimeError):
    """Misuse of a streaming session (pushing after close, reading the
    header before the first frame, streaming an unstreamable codec)."""


class EncoderSession:
    """Frame-at-a-time I/P GOP encoder: feed frames, receive packets.

    One packet out per frame in — no lookahead, so :meth:`flush` has
    nothing to drain.  The session is a context manager; leaving the
    ``with`` block closes it (``close`` does not flush).

    ``rate_control`` hooks a
    :class:`~repro.codec.rate_control.RateController` into the loop:
    before each frame the session asks it for a QP (``frame_qp``) and
    applies it through the codec's ``set_frame_qp``; after each frame
    it feeds back the coded size (``observe``) and the budget ledger.
    A non-adaptive controller (``"cqp"``) is bypassed entirely — no
    ``set_frame_qp``, no ledger, no ``observe`` — so its packets are
    byte-identical to running with no controller at all and the encode
    costs the same.
    """

    def __init__(self, codec: GopCodec, rate_control=None):
        self._codec = codec
        self._intra = codec._intra_coder().encode_intra
        self._inter = codec.encode_inter
        self._gop = codec.config.gop
        self._header: dict | None = None
        self._closed = False
        self._reference: np.ndarray | None = None
        self._index = 0
        self._rate_control = rate_control
        self._budget = rate_control.new_state() if rate_control else None

    @property
    def header(self) -> dict:
        """The stream header.  Geometry comes from the first frame, so
        this raises until the first :meth:`push`."""
        if self._header is None:
            raise SessionError(
                "stream header is not known until the first frame is pushed"
            )
        return self._header

    @property
    def budget(self):
        """The :class:`~repro.codec.rate_control.BudgetState` ledger
        (``None`` when no rate controller is attached)."""
        return self._budget

    def push(self, frame: np.ndarray) -> list[FramePacket]:
        """Code one frame; returns the one packet it produced."""
        self._check_open()
        if self._header is None:
            self._header = self._codec._stream_header(frame)
        frame_type = (
            "I" if self._index % self._gop == 0 or self._reference is None
            else "P"
        )
        rc = self._rate_control
        adaptive = rc is not None and rc.adaptive
        qp = None
        if adaptive:
            qp = rc.frame_qp(frame_type, self._budget)
            self._codec.set_frame_qp(qp)
        # Observability rides the same bypass idiom as rate control:
        # disabled, span() returns a shared no-op and nothing below
        # reads a clock; timing never touches packet bytes either way.
        with _obs.span("encode.frame", frame_type=frame_type,
                       index=self._index):
            if frame_type == "I":
                packet, self._reference = self._intra(frame)
            else:
                packet, self._reference = self._inter(frame, self._reference)
        if _obs.enabled():
            _obs_registry().counter(
                "repro_frames_encoded_total", "frames coded by GOP sessions"
            ).inc(frame_type=frame_type)
        self._index += 1
        if adaptive:
            # charging the ledger costs one extra serialize per packet,
            # so the non-adaptive path skips the whole feedback loop —
            # nothing would ever read the budget it maintains.
            bits = 8 * len(packet.serialize())
            self._budget.record(frame_type, bits)
            rc.observe(frame_type, qp, bits)
        return [packet]

    def flush(self) -> list[FramePacket]:
        """Drain buffered frames at end of stream: none, since every
        push codes its frame."""
        self._check_open()
        return []

    def encode_iter(self, frames: Iterable[np.ndarray]) -> Iterator[FramePacket]:
        """Convenience: push every frame, then flush, yielding packets
        as they appear.  O(1) frame memory when ``frames`` is lazy."""
        for frame in frames:
            yield from self.push(frame)
        yield from self.flush()

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def __enter__(self) -> EncoderSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DecoderSession:
    """Packet-at-a-time I/P GOP decoder: feed packets, pull frames.

    ``intra(packet)`` and ``inter(packet, reference)`` return the
    reconstruction, which becomes the next reference.  Decoded frames
    queue internally, so push/pull cadence is up to the caller.
    """

    def __init__(
        self,
        *,
        intra: Callable[[FramePacket], np.ndarray],
        inter: Callable[[FramePacket, np.ndarray], np.ndarray],
    ):
        self._intra = intra
        self._inter = inter
        self._reference: np.ndarray | None = None
        self._ready: deque[np.ndarray] = deque()
        self._closed = False

    def push(self, packet: FramePacket) -> None:
        """Consume one packet in stream order; its frame surfaces
        through :meth:`pull`."""
        self._check_open()
        if packet.frame_type == "I":
            self._reference = self._intra(packet)
        else:
            if self._reference is None:
                raise ValueError("P-frame before any I-frame")
            self._reference = self._inter(packet, self._reference)
        self._ready.append(self._reference)

    def pull(self) -> np.ndarray | None:
        """Next decoded frame in display order, or ``None`` if none is
        ready."""
        return self._ready.popleft() if self._ready else None

    def flush(self) -> list[np.ndarray]:
        """Drain every frame still queued at end of stream."""
        out = list(self._ready)
        self._ready.clear()
        return out

    def decode_iter(self, packets: Iterable[FramePacket]) -> Iterator[np.ndarray]:
        """Convenience: push every packet, yielding frames as they
        become available.  O(1) frame memory when ``packets`` is lazy."""
        for packet in packets:
            self.push(packet)
            frame = self.pull()
            while frame is not None:
                yield frame
                frame = self.pull()
        yield from self.flush()

    def close(self) -> None:
        self._closed = True
        self._ready.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def __enter__(self) -> DecoderSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GopCodec:
    """The stream surface of an I/P GOP codec.

    A subclass has a ``config`` (with ``gop``, ``rate_control``,
    ``target_kbps``, ``fps`` and its :attr:`QP_FIELD`), an ``entropy``
    backend, ``set_frame_qp``, ``encode_inter``/``decode_inter``, and
    an I-frame coder (:meth:`_intra_coder`) with
    ``encode_intra``/``decode_intra``.
    """

    #: the header's ``codec`` value.
    STREAM_CODEC: str
    #: the config field a fixed-QP stream codes at: the header carries
    #: it and a rate controller starts from it.
    QP_FIELD: str

    def _header_fields(self) -> dict:
        """Header fields only this codec writes."""
        return {}

    def _intra_coder(self):
        """The codec whose ``encode_intra``/``decode_intra`` code this
        stream's I-frames."""
        return self

    def _inter_options(self, header: dict | None) -> dict:
        """Keyword options of ``decode_inter`` a stream header sets."""
        return {}

    def _stream_header(self, frame: np.ndarray) -> dict:
        cfg = self.config
        _, h, w = frame.shape
        header = {
            "codec": self.STREAM_CODEC,
            "height": h,
            "width": w,
            self.QP_FIELD: getattr(cfg, self.QP_FIELD),
            "gop": cfg.gop,
            "entropy": self.entropy.name,
            "rate_control": cfg.rate_control or "cqp",
            **self._header_fields(),
        }
        if cfg.target_kbps is not None:
            header["target_kbps"] = cfg.target_kbps
            header["fps"] = cfg.fps
        return header

    def open_encoder(self) -> EncoderSession:
        """Streaming encoder: ``push(frame)`` yields packets as frames
        arrive; reference handling lives in session state, so any
        number of sessions share this codec's nets."""
        cfg = self.config
        self.set_frame_qp(None)  # a fresh session starts at the config QP
        controller = None
        if cfg.rate_control is not None:
            controller = create_rate_controller(
                cfg.rate_control,
                base_qp=getattr(cfg, self.QP_FIELD),
                target_kbps=cfg.target_kbps,
                fps=cfg.fps,
            )
        return EncoderSession(self, controller)

    def open_decoder(
        self, header: dict | None = None, version: int = 4
    ) -> DecoderSession:
        """Streaming decoder for a stream with the given header.

        The header names the entropy backend that wrote the chunks
        (absent on version-1 streams, which are always CACM with the
        legacy block-interleaved intra layout) and the frame geometry;
        without a header the session trusts this codec's configured
        backend.
        """
        # classical.py builds its codec on this module, so its stream
        # helpers load here rather than at import
        from .classical import header_geometry, stream_entropy

        entropy = stream_entropy(header, version, self.entropy)
        options = self._inter_options(header)
        geometry = header_geometry(header)
        intra = self._intra_coder()
        return DecoderSession(
            intra=lambda packet: intra.decode_intra(
                packet, entropy=entropy, geometry=geometry
            ),
            inter=lambda packet, reference: self.decode_inter(
                packet, reference, entropy=entropy, **options
            ),
        )

    # -- sequence (thin wrappers over the sessions) ------------------------
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
