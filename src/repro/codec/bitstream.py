"""Bitstream container: what travels from encoder to decoder.

"HD video ... is typically stored on cloud servers as encoded
bitstreams" (Section I) — the decoder-side accelerator consumes exactly
this.  The container is deliberately simple and fully self-describing:

    magic 'NVCA' | version u16 | header-length u32 | header JSON |
    header CRC32 u32 |
    repeat per frame:  size u32 | CRC32 u32 | meta-length u32 |
                       meta JSON | chunks...
    end of stream:     size u32 = 0

Every chunk is a named byte payload (an entropy-coded stream or raw
side information).  All rate numbers in the evaluation harness are
``len(serialize())*8`` — real bits, headers and CRC words included.

Format versions.  :class:`StreamWriter` is the only code that writes
container bytes and always writes version 4; :class:`StreamReader` is
the only code that parses them and reads every version, so archived
streams keep decoding.  Versions 1–3 are read-only:

* **1** — the original container: every chunk is CACM'87
  arithmetic-coded, and the classical codec's DCT planes interleave
  their per-band models block by block.  The header records
  ``num_frames`` and packets follow back to back.
* **2** — the header's ``"entropy"`` field names the entropy backend
  that wrote the chunks (``"cacm"``, ``"rans"``, ...; absent means
  ``"cacm"``), and multi-model chunks are laid out as contiguous
  per-model segments.  Decoders pick the backend from the stream, not
  from their own configuration.
* **3** — the header drops ``num_frames`` (unknowable while encoding
  live) and every packet is length-prefixed (``u32 size | packet
  bytes``), terminated by a zero-size sentinel, so file-to-file
  transcoding needs O(1) frame memory.
* **4** — version 3's framing plus end-to-end integrity checking: a
  CRC32 of the header JSON follows the header (``u32``), and every
  packet carries a CRC32 of its body (``u32 size | u32 crc | packet
  bytes``).  A flipped bit anywhere is *detected* —
  :class:`StreamReader` raises :class:`StreamCorruptionError` naming
  the packet — instead of decoding garbage.

:class:`SequenceBitstream` is the in-memory form of the two:
``serialize`` writes through a :class:`StreamWriter`, ``parse``
collects a :class:`StreamReader`, and ``version`` records which
version was read so decoders can dispatch on it (version-1 streams
decode through the codecs' legacy symbol order).  Serializing a
sequence read from versions 1–3 raises :class:`ValueError`.

Corruption handling: every parse/read failure — truncation, bad
framing, CRC mismatch, malformed meta JSON — raises
:class:`StreamCorruptionError` (a :class:`ValueError`) carrying the
zero-based ``packet_index`` when one is attributable.  Readers over
framed streams (versions 3/4) can instead *resync and skip* corrupt
packets (``StreamReader(fileobj, on_error="skip")``): the intact
length prefix locates the next packet, the bad one is counted in
``packets_skipped``, and decoding continues — the streaming analogue
of a decoder concealing a damaged frame.

Floating-point side information (e.g. Laplacian scales) must be passed
through :func:`as_f32` before use on the *encoder* side too, so encoder
and decoder derive bit-identical probability models.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FramePacket",
    "SequenceBitstream",
    "StreamCorruptionError",
    "StreamReader",
    "StreamWriter",
    "as_f32",
    "f32_bits",
    "f32_from_bits",
    "f16_bits",
    "f16_from_bits",
]

_MAGIC = b"NVCA"
#: The only container version written; older versions are read-only.
STREAM_VERSION = 4
#: First framed (length-prefixed packets + sentinel) container version.
_FIRST_FRAMED_VERSION = 3
#: First version with CRC32 integrity checking (header + per packet).
_CRC_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: Zero-size packet sentinel ending a framed (version >= 3) stream.
_END_OF_STREAM = struct.pack("<I", 0)


class StreamCorruptionError(ValueError):
    """A bitstream failed validation: truncated, mis-framed, CRC
    mismatch, or malformed metadata.

    ``packet_index`` is the zero-based index of the offending packet
    when the failure is attributable to one (``None`` for prelude,
    header, or sentinel damage).  Subclasses :class:`ValueError`, so
    every pre-existing ``except ValueError`` consumer keeps working —
    this type adds attribution, it does not change the contract.
    """

    def __init__(self, message: str, *, packet_index: int | None = None):
        if packet_index is not None:
            message = f"{message} (packet {packet_index})"
        super().__init__(message)
        self.packet_index = packet_index


def as_f32(value: float) -> float:
    """Quantize a float to IEEE-754 single precision (side-info width)."""
    return float(np.float32(value))


def f32_bits(value: float) -> int:
    """Pack a float into its 32-bit pattern (compact exact side info)."""
    return int(np.float32(value).view(np.uint32))


def f32_from_bits(bits: int) -> float:
    """Inverse of :func:`f32_bits`."""
    return float(np.uint32(bits).view(np.float32))


def f16_bits(value: float) -> int:
    """Pack a float into a 16-bit half-precision pattern.

    Used for probability-model scales, where half precision is plenty —
    both sides of the channel just have to use the *same* value.
    """
    return int(np.float16(value).view(np.uint16))


def f16_from_bits(bits: int) -> float:
    """Inverse of :func:`f16_bits`."""
    return float(np.uint16(bits).view(np.float16))


def _is_uint(value) -> bool:
    return type(value) is int and value >= 0


def _parse_json(blob: bytes, what: str) -> dict:
    """Decode a JSON object blob, mapping invalid UTF-8, broken JSON
    and non-object documents to :class:`StreamCorruptionError`."""
    try:
        record = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamCorruptionError(f"malformed {what}: {exc}") from exc
    if not isinstance(record, dict):
        raise StreamCorruptionError(f"malformed {what}: not a JSON object")
    return record


def _parse_header(blob: bytes, version: int) -> tuple[dict, int | None]:
    """Validate a container header blob: ``(header, num_frames)``, the
    frame count being ``None`` for framed versions (3/4), which end at
    the sentinel instead."""
    record = _parse_json(blob, "bitstream header")
    header = record.get("header")
    if not isinstance(header, dict):
        raise StreamCorruptionError(
            "malformed bitstream header: 'header' is not an object"
        )
    if version >= _FIRST_FRAMED_VERSION:
        return header, None
    num_frames = record.get("num_frames")
    if not _is_uint(num_frames):
        raise StreamCorruptionError(
            f"malformed bitstream header: num_frames {num_frames!r}"
        )
    return header, num_frames


def _parse_meta(blob: bytes) -> dict:
    """Decode and validate a packet meta blob before it sizes any
    slice: chunk names ``n`` are unique strings and chunk sizes ``z``
    one non-negative int per name."""
    record = _parse_json(blob, "packet meta")
    if not {"t", "m", "n", "z"} <= set(record):
        raise StreamCorruptionError(
            "malformed packet meta: expected an object with keys t/m/n/z"
        )
    names, sizes = record["n"], record["z"]
    if not (
        isinstance(names, list)
        and all(isinstance(name, str) for name in names)
        and len(set(names)) == len(names)
    ):
        raise StreamCorruptionError(
            "malformed packet meta: chunk names are not unique strings"
        )
    if not (
        isinstance(sizes, list)
        and len(sizes) == len(names)
        and all(_is_uint(size) for size in sizes)
    ):
        raise StreamCorruptionError(
            "malformed packet meta: chunk sizes are not one "
            "non-negative int per chunk"
        )
    return record


@dataclass
class FramePacket:
    """One coded frame: metadata plus named binary chunks."""

    frame_type: str  # "I" or "P"
    meta: dict = field(default_factory=dict)
    chunks: dict[str, bytes] = field(default_factory=dict)

    def add_chunk(self, name: str, payload: bytes) -> None:
        if name in self.chunks:
            raise ValueError(f"duplicate chunk {name!r}")
        self.chunks[name] = payload

    def num_bits(self) -> int:
        """Payload bits of this packet (chunks only, no container)."""
        return 8 * sum(len(c) for c in self.chunks.values())

    def _meta_blob(self) -> bytes:
        # Single-character keys: this JSON rides in the bitstream and
        # counts against the measured rate.
        record = {
            "t": self.frame_type,
            "m": self.meta,
            "n": list(self.chunks),
            "z": [len(self.chunks[k]) for k in self.chunks],
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def serialize(self) -> bytes:
        blob = self._meta_blob()
        out = bytearray(struct.pack("<I", len(blob)))
        out.extend(blob)
        for name in self.chunks:
            out.extend(self.chunks[name])
        return bytes(out)

    @classmethod
    def parse(cls, buffer: bytes, offset: int) -> tuple["FramePacket", int]:
        """Parse the packet at ``offset``; returns it and the offset
        just past it (the framing is self-describing: chunk names and
        sizes ride in the meta blob)."""
        if offset + 4 > len(buffer):
            raise StreamCorruptionError(
                "truncated bitstream: packet meta length overruns the buffer"
            )
        (meta_len,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        if offset + meta_len > len(buffer):
            raise StreamCorruptionError(
                f"truncated bitstream: packet meta of {meta_len} bytes "
                "overruns the buffer"
            )
        record = _parse_meta(bytes(buffer[offset : offset + meta_len]))
        offset += meta_len
        packet = cls(frame_type=record["t"], meta=record["m"])
        for name, size in zip(record["n"], record["z"]):
            if offset + size > len(buffer):
                raise StreamCorruptionError(
                    f"truncated bitstream: chunk {name!r} of {size} bytes "
                    "overruns the buffer"
                )
            packet.chunks[name] = bytes(buffer[offset : offset + size])
            offset += size
        return packet, offset


def _read_exact(fileobj, size: int) -> bytes:
    data = fileobj.read(size)
    if len(data) != size:
        raise StreamCorruptionError(
            f"truncated bitstream: wanted {size} bytes, got {len(data)}"
        )
    return bytes(data)


def _read_u32(fileobj) -> int:
    return struct.unpack("<I", _read_exact(fileobj, 4))[0]


def _check_crc(blob: bytes, expected: int, what: str, index: int | None = None):
    actual = zlib.crc32(blob)
    if actual != expected:
        raise StreamCorruptionError(
            f"{what} CRC mismatch: stream says {expected:#010x}, "
            f"bytes hash to {actual:#010x}",
            packet_index=index,
        )


def _parse_packet(buffer: bytes, offset: int, index: int) -> tuple[FramePacket, int]:
    """:meth:`FramePacket.parse`, attributing any failure to packet
    ``index``."""
    try:
        return FramePacket.parse(buffer, offset)
    except StreamCorruptionError as exc:
        raise StreamCorruptionError(str(exc), packet_index=index) from exc


@dataclass
class SequenceBitstream:
    """A full coded sequence: header plus per-frame packets.

    The in-memory form of :class:`StreamWriter`/:class:`StreamReader`.
    ``version`` is the container version the stream was read from
    (:data:`STREAM_VERSION` for freshly encoded ones), so decoder
    dispatch stays faithful to what was read.
    """

    header: dict = field(default_factory=dict)
    packets: list[FramePacket] = field(default_factory=list)
    version: int = STREAM_VERSION

    def add_packet(self, packet: FramePacket) -> None:
        self.packets.append(packet)

    def num_bits(self) -> int:
        """Total bits of the serialized stream (container included,
        every CRC word too; integrity is paid for in the measured rate,
        not hidden)."""
        return 8 * len(self.serialize())

    def bits_per_pixel(self, height: int, width: int) -> float:
        frames = max(len(self.packets), 1)
        return self.num_bits() / (frames * height * width)

    def serialize(self) -> bytes:
        if self.version != STREAM_VERSION:
            raise ValueError(
                f"bitstream version {self.version} is read-only; only "
                f"version {STREAM_VERSION} is written"
            )
        buffer = io.BytesIO()
        with StreamWriter(buffer, self.header) as writer:
            for packet in self.packets:
                writer.write_packet(packet)
        return buffer.getvalue()

    @classmethod
    def parse(cls, buffer: bytes) -> "SequenceBitstream":
        reader = StreamReader(io.BytesIO(buffer))
        return cls(header=reader.header, packets=list(reader), version=reader.version)


class StreamWriter:
    """Incremental container writer over a binary file object; the only
    code that writes container bytes, always at :data:`STREAM_VERSION`.

    Packets leave the process as they are produced — nothing buffers —
    so encode memory is independent of sequence length:

    >>> writer = StreamWriter(fileobj, header)         # doctest: +SKIP
    >>> writer.write_packet(packet)                    # per frame
    >>> writer.finalize()                              # end-of-stream

    Every packet carries a CRC32 of its body and the header a CRC32 of
    its JSON (~4 bytes/packet of rate).

    The caller owns the file object (``finalize`` writes the
    end-of-stream sentinel but does not close the file).  Used as a
    context manager, ``finalize`` runs on clean exit.
    """

    def __init__(self, fileobj, header: dict | None = None):
        self._file = fileobj
        self._finalized = False
        self.header: dict | None = None
        self.packets_written = 0
        self.bytes_written = 0
        if header is not None:
            self.write_header(header)

    def write_header(self, header: dict) -> int:
        """Write magic/version/header/CRC; must precede any packet.  The
        header carries no frame count — unknowable while encoding live."""
        if self.header is not None:
            raise ValueError("stream header already written")
        blob = json.dumps(
            {"header": header}, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        out = (
            _MAGIC
            + struct.pack("<HI", STREAM_VERSION, len(blob))
            + blob
            + struct.pack("<I", zlib.crc32(blob))
        )
        self._file.write(out)
        self.header = dict(header)
        self.bytes_written += len(out)
        return len(out)

    def write_packet(self, packet: FramePacket) -> int:
        """Write one framed, checksummed packet; returns its wire size."""
        if self.header is None:
            raise ValueError("write_header must precede write_packet")
        if self._finalized:
            raise ValueError("stream is finalized")
        blob = packet.serialize()
        self._file.write(struct.pack("<II", len(blob), zlib.crc32(blob)))
        self._file.write(blob)
        self.packets_written += 1
        self.bytes_written += 8 + len(blob)
        return 8 + len(blob)

    def finalize(self) -> int:
        """Write the end-of-stream sentinel; returns total bytes
        written.  Idempotent."""
        if not self._finalized:
            if self.header is None:
                raise ValueError("nothing was written to the stream")
            self._file.write(_END_OF_STREAM)
            self.bytes_written += len(_END_OF_STREAM)
            self._finalized = True
        return self.bytes_written

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.finalize()


class StreamReader:
    """Incremental container reader: any supported version, packet at
    a time, from a binary file object; the only code that parses
    container bytes.

    The header parses on construction (``.header``, ``.version``; a
    version-4 header is CRC-verified before anything else is trusted);
    :meth:`read_packet` returns packets in stream order and ``None`` at
    end of stream.  Version 1/2 files end after the frame count their
    header promised (their packets are not length-prefixed, so the
    reader buffers the rest of such a file); framed files (3/4) end at
    the zero-size sentinel.  Iterating the reader yields every
    remaining packet.

    Corruption policy, per ``on_error``:

    * ``"raise"`` (default) — any damage raises
      :class:`StreamCorruptionError` carrying the zero-based packet
      index when one packet is to blame.
    * ``"skip"`` — a framed packet whose *body* fails validation (CRC
      mismatch, malformed meta) is dropped and reading resyncs at the
      next length prefix; ``packets_skipped`` counts the casualties.
      Damage that destroys the framing itself — truncation, a corrupt
      length prefix — still raises: there is nothing to resync on.
      Versions 1/2 have no framing to resync on, so ``"skip"`` behaves
      like ``"raise"`` for them.
    """

    def __init__(self, fileobj, *, on_error: str = "raise"):
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f'on_error must be "raise" or "skip", got {on_error!r}'
            )
        self._file = fileobj
        self._on_error = on_error
        if _read_exact(fileobj, 4) != _MAGIC:
            raise StreamCorruptionError("not an NVCA bitstream (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(fileobj, 2))
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported bitstream version {version}")
        header_blob = _read_exact(fileobj, _read_u32(fileobj))
        if version >= _CRC_VERSION:
            _check_crc(header_blob, _read_u32(fileobj), "header")
        self.version = version
        self.header, self._remaining = _parse_header(header_blob, version)
        #: zero-based index of the next packet to be read.
        self.packet_index = 0
        #: corrupt packets dropped so far (``on_error="skip"`` only).
        self.packets_skipped = 0
        self._done = False
        if self._remaining is not None:  # versions 1 and 2
            self._rest = fileobj.read()
            self._offset = 0

    def read_packet(self) -> FramePacket | None:
        """Next packet, or ``None`` once the stream is exhausted."""
        if self._done:
            return None
        if self._remaining is not None:  # versions 1 and 2
            if self._remaining == 0:
                self._done = True
                return None
            self._remaining -= 1
            index = self.packet_index
            self.packet_index += 1
            packet, self._offset = _parse_packet(self._rest, self._offset, index)
            return packet
        while True:
            size = _read_u32(self._file)
            if size == 0:
                self._done = True
                return None
            index = self.packet_index
            self.packet_index += 1
            expected = _read_u32(self._file) if self.version >= _CRC_VERSION else None
            body = _read_exact(self._file, size)
            try:
                if expected is not None:
                    _check_crc(body, expected, "packet", index)
                packet, end = _parse_packet(body, 0, index)
                if end != size:
                    raise StreamCorruptionError(
                        f"corrupt bitstream: packet framed as {size} bytes "
                        f"but its body spans {end}",
                        packet_index=index,
                    )
                return packet
            except StreamCorruptionError:
                if self._on_error == "skip":
                    # The length prefix was intact, so the stream
                    # position is already at the next packet: resync
                    # costs nothing beyond the packet we just dropped.
                    self.packets_skipped += 1
                    continue
                raise

    def __iter__(self):
        while True:
            packet = self.read_packet()
            if packet is None:
                return
            yield packet
