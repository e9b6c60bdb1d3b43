"""Tests for the bitstream container."""

import io

import numpy as np
import pytest

from repro.codec import (
    FramePacket,
    SequenceBitstream,
    StreamWriter,
    as_f32,
    f16_bits,
    f16_from_bits,
    f32_bits,
    f32_from_bits,
)

from legacy_container import legacy_bytes

#: ``TestSequenceBitstream.make_stream()`` as version 4, frozen: the
#: writer's bytes must never drift for the same header and packets.
FROZEN_V4 = bytes.fromhex(
    "4e5643410400270000007b22686561646572223a7b22636f646563223a2274657374"
    "222c22686569676874223a36347d7d37e188932f000000670943d62a0000007b226d"
    "223a7b2269223a307d2c226e223a5b2264617461225d2c2274223a2249222c227a22"
    "3a5b315d7d00300000007cdeae3f2a0000007b226d223a7b2269223a317d2c226e22"
    "3a5b2264617461225d2c2274223a2250222c227a223a5b325d7d0101310000004e1d"
    "640c2a0000007b226d223a7b2269223a327d2c226e223a5b2264617461225d2c2274"
    "223a2250222c227a223a5b335d7d02020200000000"
)


class TestFloatSideInfo:
    def test_f32_roundtrip(self):
        for value in (0.0, 1.5, -3.25, 1e-3, 12345.678):
            assert f32_from_bits(f32_bits(value)) == pytest.approx(
                np.float32(value), rel=0
            )

    def test_f16_roundtrip(self):
        for value in (0.0, 1.5, -3.25, 0.001, 100.0):
            assert f16_from_bits(f16_bits(value)) == pytest.approx(
                float(np.float16(value)), rel=0
            )

    def test_f16_bits_compact(self):
        assert 0 <= f16_bits(8.0) < 1 << 16

    def test_as_f32(self):
        value = 1 / 3
        assert as_f32(value) == float(np.float32(value))


class TestFramePacket:
    def test_chunk_roundtrip(self):
        packet = FramePacket(frame_type="P", meta={"x": 1})
        packet.add_chunk("motion", b"\x01\x02\x03")
        packet.add_chunk("residual", b"\xff" * 10)
        blob = packet.serialize()
        parsed, offset = FramePacket.parse(blob, 0)
        assert offset == len(blob)
        assert parsed.frame_type == "P"
        assert parsed.meta == {"x": 1}
        assert parsed.chunks["motion"] == b"\x01\x02\x03"
        assert parsed.chunks["residual"] == b"\xff" * 10

    def test_duplicate_chunk_rejected(self):
        packet = FramePacket(frame_type="I")
        packet.add_chunk("y", b"a")
        with pytest.raises(ValueError):
            packet.add_chunk("y", b"b")

    def test_num_bits(self):
        packet = FramePacket(frame_type="I")
        packet.add_chunk("y", b"abc")
        assert packet.num_bits() == 24

    def test_empty_packet(self):
        packet = FramePacket(frame_type="I")
        parsed, _ = FramePacket.parse(packet.serialize(), 0)
        assert parsed.chunks == {}


class TestSequenceBitstream:
    def make_stream(self):
        stream = SequenceBitstream(header={"codec": "test", "height": 64})
        for index in range(3):
            packet = FramePacket(
                frame_type="I" if index == 0 else "P", meta={"i": index}
            )
            packet.add_chunk("data", bytes([index]) * (index + 1))
            stream.add_packet(packet)
        return stream

    def test_roundtrip(self):
        stream = self.make_stream()
        parsed = SequenceBitstream.parse(stream.serialize())
        assert parsed.header == stream.header
        assert len(parsed.packets) == 3
        assert parsed.packets[0].frame_type == "I"
        assert parsed.packets[2].chunks["data"] == b"\x02\x02\x02"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            SequenceBitstream.parse(b"XXXX" + b"\x00" * 20)

    def test_bad_version_rejected(self):
        blob = bytearray(self.make_stream().serialize())
        blob[4] = 99
        with pytest.raises(ValueError):
            SequenceBitstream.parse(bytes(blob))

    def test_current_version_is_4(self):
        stream = self.make_stream()
        assert stream.version == 4
        blob = stream.serialize()
        assert blob[4:6] == (4).to_bytes(2, "little")
        assert SequenceBitstream.parse(blob).version == 4

    def test_v4_bytes_are_frozen(self):
        stream = self.make_stream()
        assert stream.serialize() == FROZEN_V4
        buffer = io.BytesIO()
        with StreamWriter(buffer, stream.header) as writer:
            for packet in stream.packets:
                writer.write_packet(packet)
        assert buffer.getvalue() == FROZEN_V4

    def test_version_1_streams_parse(self):
        stream = self.make_stream()
        parsed = SequenceBitstream.parse(
            legacy_bytes(stream.header, stream.packets, 1)
        )
        assert parsed.version == 1
        assert parsed.header == stream.header
        assert len(parsed.packets) == 3

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_legacy_versions_are_read_only(self, version):
        stream = self.make_stream()
        parsed = SequenceBitstream.parse(
            legacy_bytes(stream.header, stream.packets, version)
        )
        assert parsed.version == version
        with pytest.raises(ValueError, match="read-only"):
            parsed.serialize()

    def test_unsupported_version_serialize_rejected(self):
        stream = self.make_stream()
        stream.version = 7
        with pytest.raises(ValueError):
            stream.serialize()

    def test_num_bits_counts_everything(self):
        stream = self.make_stream()
        assert stream.num_bits() == 8 * len(stream.serialize())

    def test_bits_per_pixel(self):
        stream = self.make_stream()
        bpp = stream.bits_per_pixel(64, 96)
        assert bpp == pytest.approx(stream.num_bits() / (3 * 64 * 96))

    def test_serialization_deterministic(self):
        assert self.make_stream().serialize() == self.make_stream().serialize()
