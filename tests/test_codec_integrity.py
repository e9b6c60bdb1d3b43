"""Bitstream integrity: version-4 CRC containers (bit-exact round
trips, single-flipped-byte detection with packet attribution, resync
and skip), and typed corruption errors — never ``struct.error``, never
a hang — for truncated, garbage or hostile version 1–4 streams."""

import io
import json
import struct
import zlib

import pytest

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    SequenceBitstream,
    StreamCorruptionError,
    StreamReader,
    StreamWriter,
)
from repro.video import SceneConfig, generate_sequence

from legacy_container import legacy_bytes


def _stream():
    codec = ClassicalCodec(
        ClassicalCodecConfig(qp=12.0, entropy_backend="rans")
    )
    clip = generate_sequence(SceneConfig(height=16, width=32, frames=3))
    return codec.encode_sequence(clip)


def _v4_bytes(stream) -> bytes:
    buffer = io.BytesIO()
    writer = StreamWriter(buffer, stream.header)  # version 4 default
    for packet in stream.packets:
        writer.write_packet(packet)
    writer.finalize()
    return buffer.getvalue()


def _packet_spans(blob: bytes) -> list[tuple[int, int]]:
    """(body_start, body_size) of every framed v4 packet in ``blob``."""
    (header_len,) = struct.unpack_from("<I", blob, 6)
    offset = 10 + header_len + 4  # prelude + header blob + header CRC
    spans = []
    while True:
        (size,) = struct.unpack_from("<I", blob, offset)
        if size == 0:
            return spans
        spans.append((offset + 8, size))  # skip size + crc words
        offset += 8 + size


class TestV4Container:
    def test_writer_reader_round_trip_bit_exact(self):
        stream = _stream()
        blob = _v4_bytes(stream)
        reader = StreamReader(io.BytesIO(blob))
        assert (reader.version, reader.header) == (4, stream.header)
        assert [p.serialize() for p in reader] == [
            p.serialize() for p in stream.packets
        ]
        assert reader.packets_skipped == 0
        # and the SequenceBitstream path agrees with the streaming one
        parsed = SequenceBitstream.parse(blob)
        assert parsed.version == 4
        assert parsed.serialize() == blob

    def test_flipped_byte_in_any_packet_names_the_packet(self):
        stream = _stream()
        blob = _v4_bytes(stream)
        spans = _packet_spans(blob)
        assert len(spans) == len(stream.packets)
        for index, (start, size) in enumerate(spans):
            damaged = bytearray(blob)
            damaged[start + size // 2] ^= 0xFF
            reader = StreamReader(io.BytesIO(bytes(damaged)))
            with pytest.raises(StreamCorruptionError, match="CRC") as info:
                list(reader)
            assert info.value.packet_index == index
            assert f"(packet {index})" in str(info.value)
            with pytest.raises(StreamCorruptionError, match="CRC"):
                SequenceBitstream.parse(bytes(damaged))

    def test_flipped_header_byte_detected_before_any_packet(self):
        blob = bytearray(_v4_bytes(_stream()))
        blob[12] ^= 0xFF  # inside the header JSON
        with pytest.raises(StreamCorruptionError, match="header"):
            StreamReader(io.BytesIO(bytes(blob)))

    def test_skip_mode_resyncs_past_a_corrupt_packet(self):
        stream = _stream()
        blob = bytearray(_v4_bytes(stream))
        start, size = _packet_spans(blob)[1]
        blob[start + size // 2] ^= 0xFF
        reader = StreamReader(io.BytesIO(bytes(blob)), on_error="skip")
        survivors = [p.serialize() for p in reader]
        assert reader.packets_skipped == 1
        assert reader.packet_index == len(stream.packets)  # skips count
        expected = [p.serialize() for p in stream.packets]
        assert survivors == expected[:1] + expected[2:]

    def test_skip_mode_still_raises_on_framing_damage(self):
        blob = _v4_bytes(_stream())
        reader = StreamReader(io.BytesIO(blob[:-6]), on_error="skip")
        with pytest.raises(StreamCorruptionError, match="truncated"):
            list(reader)

    def test_on_error_policy_is_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            StreamReader(io.BytesIO(b""), on_error="ignore")

    def test_v3_stays_crc_free_and_both_versions_interchange(self):
        # v3 (read-only) carries no CRC words.
        stream = _stream()
        v3 = legacy_bytes(stream.header, stream.packets, 3)
        reader = StreamReader(io.BytesIO(v3))
        assert reader.version == 3
        assert [p.serialize() for p in reader] == [
            p.serialize() for p in stream.packets
        ]
        v4 = _v4_bytes(stream)
        # v4 costs the two header/packet CRC words and nothing else
        assert len(v4) == len(v3) + 4 * (1 + len(stream.packets))

    def test_header_crc_actually_guards_the_header_blob(self):
        blob = bytearray(_v4_bytes(_stream()))
        (header_len,) = struct.unpack_from("<I", blob, 6)
        crc_at = 10 + header_len
        (recorded,) = struct.unpack_from("<I", blob, crc_at)
        assert recorded == zlib.crc32(bytes(blob[10:crc_at]))


@pytest.mark.parametrize("version", [1, 2, 3])
class TestLegacyCorruption:
    """Damage to any pre-CRC container must surface as a typed
    ValueError (StreamCorruptionError), never struct.error, never an
    infinite read loop."""

    def _blob(self, version: int) -> bytes:
        stream = _stream()
        return legacy_bytes(stream.header, stream.packets, version)

    def test_garbage_at_byte_zero(self, version):
        blob = bytearray(self._blob(version))
        blob[0] ^= 0xFF
        with pytest.raises(StreamCorruptionError, match="magic"):
            SequenceBitstream.parse(bytes(blob))
        with pytest.raises(StreamCorruptionError, match="magic"):
            StreamReader(io.BytesIO(bytes(blob)))

    def test_cut_mid_header(self, version):
        blob = self._blob(version)
        (header_len,) = struct.unpack_from("<I", blob, 6)
        cut = blob[: 10 + header_len // 2]
        with pytest.raises(ValueError, match="truncated|header"):
            SequenceBitstream.parse(cut)
        with pytest.raises(ValueError, match="truncated|header"):
            StreamReader(io.BytesIO(cut))

    def test_cut_mid_packet(self, version):
        blob = self._blob(version)
        cut = blob[: len(blob) - max(6, len(blob) // 10)]
        with pytest.raises(ValueError, match="truncated"):
            SequenceBitstream.parse(cut)
        reader = StreamReader(io.BytesIO(cut))
        with pytest.raises(ValueError, match="truncated"):
            list(reader)

    def test_empty_file(self, version):
        del version  # the prelude is version-independent
        with pytest.raises(ValueError, match="truncated"):
            SequenceBitstream.parse(b"")
        with pytest.raises(ValueError, match="truncated"):
            StreamReader(io.BytesIO(b""))

    def test_header_is_garbage_json(self, version):
        blob = bytearray(self._blob(version))
        (header_len,) = struct.unpack_from("<I", blob, 6)
        for i in range(10, 10 + header_len):
            blob[i] = 0xFE  # invalid UTF-8 everywhere
        with pytest.raises(StreamCorruptionError, match="header"):
            SequenceBitstream.parse(bytes(blob))
        with pytest.raises(StreamCorruptionError, match="header"):
            StreamReader(io.BytesIO(bytes(blob)))


def _container(version: int, header: object, packets: list[bytes]) -> bytes:
    """Raw container bytes around an arbitrary header document and raw
    packet bodies (meta length + meta + chunks), CRC words included for
    version 4 — hostile input the writer itself would never produce."""
    blob = json.dumps(header, separators=(",", ":")).encode()
    out = b"NVCA" + struct.pack("<HI", version, len(blob)) + blob
    if version == 4:
        out += struct.pack("<I", zlib.crc32(blob))
    for body in packets:
        if version == 4:
            out += struct.pack("<II", len(body), zlib.crc32(body))
        out += body
    return out + (struct.pack("<I", 0) if version == 4 else b"")


def _packet_body(meta: object, payload: bytes = b"") -> bytes:
    blob = json.dumps(meta, separators=(",", ":")).encode()
    return struct.pack("<I", len(blob)) + blob + payload


def _meta(**fields) -> dict:
    return {"t": "I", "m": {}, "n": ["a"], "z": [1], **fields}


def _assert_both_parsers_refuse(blob: bytes) -> None:
    with pytest.raises(StreamCorruptionError):
        SequenceBitstream.parse(blob)
    with pytest.raises(StreamCorruptionError):
        list(StreamReader(io.BytesIO(blob)))


class TestHostileContainer:
    """Hostile header and packet-meta fields are validated before they
    size any slice or loop: every case raises StreamCorruptionError from
    both SequenceBitstream.parse and StreamReader."""

    @pytest.mark.parametrize("version", [2, 4])
    @pytest.mark.parametrize(
        "header", [[], {}, {"header": 5}, {"header": [1]}, "header"]
    )
    def test_header_field(self, version, header):
        if isinstance(header, dict) and version == 2:
            header = {**header, "num_frames": 0}
        _assert_both_parsers_refuse(_container(version, header, []))

    @pytest.mark.parametrize("num_frames", ["x", -3, 1.5, None, True])
    def test_num_frames_field(self, num_frames):
        record = {"header": {}, "num_frames": num_frames}
        _assert_both_parsers_refuse(_container(2, record, []))

    @pytest.mark.parametrize("version", [2, 4])
    @pytest.mark.parametrize(
        "names", ["a", ["a", "a"], [1], [None], {"a": 1}]
    )
    def test_n_field(self, version, names):
        body = _packet_body(_meta(n=names, z=[1] * len(names)), b"xx")
        record = {"header": {}, "num_frames": 1} if version == 2 else {"header": {}}
        _assert_both_parsers_refuse(_container(version, record, [body]))

    @pytest.mark.parametrize("version", [2, 4])
    @pytest.mark.parametrize("sizes", [[-1], [1, 1], [], [1.0], ["1"], [True], 1])
    def test_z_field(self, version, sizes):
        body = _packet_body(_meta(z=sizes), b"x")
        record = {"header": {}, "num_frames": 1} if version == 2 else {"header": {}}
        _assert_both_parsers_refuse(_container(version, record, [body]))

    def test_negative_size_cannot_rewind_into_a_packet_loop(self):
        # A chunk size of -40 once rewound the parse offset to the
        # packet's own start, so this 83-byte stream decoded as the
        # 200,000 packets its header promised.
        body = _packet_body(_meta(z=[-40]))
        blob = _container(2, {"header": {}, "num_frames": 200_000}, [body])
        assert len(blob) == 83
        _assert_both_parsers_refuse(blob)
        reader = StreamReader(io.BytesIO(blob))
        with pytest.raises(StreamCorruptionError, match="chunk sizes") as info:
            reader.read_packet()
        assert info.value.packet_index == 0
