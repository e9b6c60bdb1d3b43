"""Streaming codec sessions and the incremental (framed) container.

The redesign's contract, pinned here:

* streaming ``push``/``flush``/``pull`` is **bit-identical** to the
  batch ``encode_sequence``/``decode_sequence`` API for both codecs and
  both entropy backends (property-based over scenes and GOPs);
* version-1 and version-2 containers keep decoding through the new
  :class:`StreamReader` (golden-pinned);
* the framed containers (version 3 read-only, version 4 written)
  round-trip incrementally, file-to-file
  encoding holds O(1) frames in memory regardless of sequence length,
  and the facade's streaming mode reports the same quality as batch.
"""

import base64
import gc
import io
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCConfig,
    CTVCNet,
    FramePacket,
    SequenceBitstream,
    SessionError,
    StreamReader,
    StreamWriter,
)
from repro.metrics import psnr
from repro.pipeline import Pipeline
from repro.video import SceneConfig, generate_sequence, iter_sequence

from legacy_container import legacy_bytes
from test_codec_golden import EXPECTED_PSNR, GOLDEN_CLASSICAL_V1, GOLDEN_CTVC_V1


def make_codec(name: str, entropy_backend: str, gop: int = 8):
    if name == "ctvc":
        return CTVCNet(
            CTVCConfig(
                channels=4, qstep=8.0, gop=gop, entropy_backend=entropy_backend
            )
        )
    return ClassicalCodec(
        ClassicalCodecConfig(qp=12.0, gop=gop, entropy_backend=entropy_backend)
    )


CODEC_BACKEND = [
    ("classical", "rans"),
    ("classical", "cacm"),
    ("ctvc", "rans"),
    ("ctvc", "cacm"),
]


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("codec_name,backend", CODEC_BACKEND)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), frames=st.integers(1, 3), gop=st.integers(1, 3))
    def test_packets_bit_identical(self, codec_name, backend, seed, frames, gop):
        # 32x48 is the smallest geometry CTVC-Net's feature pyramid
        # supports with P-frames (same scene the golden streams use).
        codec = make_codec(codec_name, backend, gop=gop)
        clip = generate_sequence(
            SceneConfig(height=32, width=48, frames=frames, seed=seed)
        )
        batch = codec.encode_sequence(clip)
        session = codec.open_encoder()
        packets = [p for frame in clip for p in session.push(frame)]
        packets += session.flush()
        assert session.header == batch.header
        assert [p.serialize() for p in packets] == [
            p.serialize() for p in batch.packets
        ]
        # Decoder session reproduces decode_sequence frame by frame.
        decoded_batch = codec.decode_sequence(batch)
        decoder = codec.open_decoder(batch.header, version=batch.version)
        decoded_stream = []
        for packet in packets:
            decoder.push(packet)
            frame = decoder.pull()
            while frame is not None:
                decoded_stream.append(frame)
                frame = decoder.pull()
        assert len(decoded_stream) == len(decoded_batch)
        for a, b in zip(decoded_batch, decoded_stream):
            assert np.array_equal(a, b)

    def test_header_unavailable_before_first_push(self):
        session = make_codec("classical", "rans").open_encoder()
        with pytest.raises(SessionError, match="first frame"):
            session.header

    def test_push_after_close_rejected(self):
        codec = make_codec("classical", "rans")
        frame = generate_sequence(SceneConfig(height=16, width=32, frames=1))[0]
        with codec.open_encoder() as session:
            session.push(frame)
        with pytest.raises(SessionError, match="closed"):
            session.push(frame)

    def test_p_frame_before_i_frame_rejected(self):
        codec = make_codec("classical", "rans")
        decoder = codec.open_decoder()
        with pytest.raises(ValueError, match="P-frame before any I-frame"):
            decoder.push(FramePacket(frame_type="P"))

    def test_decoder_pull_empty_returns_none(self):
        assert make_codec("classical", "rans").open_decoder().pull() is None


class TestGoldenContainersThroughStreamReader:
    """v1/v2 streams must parse packet-by-packet through the new reader
    and decode through the session API to the seed's exact quality."""

    def test_v1_classical_golden(self):
        blob = base64.b64decode(GOLDEN_CLASSICAL_V1)
        reader = StreamReader(io.BytesIO(blob))
        assert reader.version == 1
        assert "entropy" not in reader.header
        codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0))
        session = codec.open_decoder(reader.header, version=reader.version)
        decoded = list(session.decode_iter(reader))
        frames = generate_sequence(
            SceneConfig(height=32, width=48, frames=2, seed=123)
        )
        for frame, recon, expected in zip(
            frames, decoded, EXPECTED_PSNR["classical"]
        ):
            assert float(psnr(frame, recon)) == pytest.approx(expected, abs=1e-9)

    def test_v1_ctvc_golden(self):
        blob = base64.b64decode(GOLDEN_CTVC_V1)
        reader = StreamReader(io.BytesIO(blob))
        assert reader.version == 1
        net = CTVCNet(CTVCConfig(channels=8, qstep=8.0, seed=5))
        session = net.open_decoder(reader.header, version=reader.version)
        decoded = list(session.decode_iter(reader))
        frames = generate_sequence(
            SceneConfig(height=32, width=48, frames=2, seed=321)
        )
        for frame, recon, expected in zip(frames, decoded, EXPECTED_PSNR["ctvc"]):
            assert float(psnr(frame, recon)) == pytest.approx(expected, abs=1e-9)

    def test_v2_stream_reads_packet_by_packet(self):
        codec = make_codec("classical", "rans")
        clip = generate_sequence(SceneConfig(height=16, width=32, frames=3))
        stream = codec.encode_sequence(clip)
        blob = legacy_bytes(stream.header, stream.packets, 2)
        reader = StreamReader(io.BytesIO(blob))
        assert (reader.version, reader.header) == (2, stream.header)
        packets = list(reader)
        assert [p.serialize() for p in packets] == [
            p.serialize() for p in stream.packets
        ]
        assert reader.read_packet() is None  # exhausted stays exhausted


class TestV3Container:
    def _packets(self):
        codec = make_codec("classical", "rans")
        clip = generate_sequence(SceneConfig(height=16, width=32, frames=3))
        stream = codec.encode_sequence(clip)
        return codec, stream

    def test_writer_reader_round_trip(self):
        _, stream = self._packets()
        buffer = io.BytesIO()
        writer = StreamWriter(buffer, stream.header)
        for packet in stream.packets:
            writer.write_packet(packet)
        total = writer.finalize()
        assert total == len(buffer.getvalue())
        assert writer.packets_written == len(stream.packets)
        buffer.seek(0)
        reader = StreamReader(buffer)
        assert (reader.version, reader.header) == (4, stream.header)
        assert [p.serialize() for p in reader] == [
            p.serialize() for p in stream.packets
        ]

    def test_finalize_is_idempotent_and_required_order(self):
        buffer = io.BytesIO()
        writer = StreamWriter(buffer)
        with pytest.raises(ValueError, match="write_header"):
            writer.write_packet(FramePacket(frame_type="I"))
        writer.write_header({"codec": "x"})
        with pytest.raises(ValueError, match="already written"):
            writer.write_header({"codec": "x"})
        assert writer.finalize() == writer.finalize()
        with pytest.raises(ValueError, match="finalized"):
            writer.write_packet(FramePacket(frame_type="I"))

    def test_sequence_bitstream_v3_round_trip(self):
        _, stream = self._packets()
        back = SequenceBitstream.parse(
            legacy_bytes(stream.header, stream.packets, 3)
        )
        assert back.version == 3
        assert back.header == stream.header
        assert [p.serialize() for p in back.packets] == [
            p.serialize() for p in stream.packets
        ]
        # v3 is read-only; the same packets re-serialize as v4
        with pytest.raises(ValueError, match="read-only"):
            back.serialize()
        back.version = 4
        assert back.serialize() == stream.serialize()

    def test_v3_decodes_like_v4(self):
        codec, stream = self._packets()
        v3 = SequenceBitstream.parse(legacy_bytes(stream.header, stream.packets, 3))
        for a, b in zip(codec.decode_sequence(stream), codec.decode_sequence(v3)):
            assert np.array_equal(a, b)

    def test_truncated_v3_raises(self):
        _, stream = self._packets()
        blob = legacy_bytes(stream.header, stream.packets, 3)
        reader = StreamReader(io.BytesIO(blob[:-6]))  # kill sentinel + tail
        with pytest.raises(ValueError, match="truncated"):
            list(reader)

    def test_corrupt_length_prefix_raises(self):
        import struct

        _, stream = self._packets()
        blob = bytearray(legacy_bytes(stream.header, stream.packets, 3))
        # Grow the first packet's length prefix so the framed size no
        # longer matches the packet body it wraps.
        header_len = struct.unpack_from("<I", blob, 6)[0]
        prefix_at = 10 + header_len
        (size,) = struct.unpack_from("<I", blob, prefix_at)
        struct.pack_into("<I", blob, prefix_at, size + 3)
        with pytest.raises(ValueError, match="corrupt|truncated"):
            SequenceBitstream.parse(bytes(blob))
        with pytest.raises(ValueError, match="corrupt|truncated"):
            list(StreamReader(io.BytesIO(bytes(blob))))

    @pytest.mark.parametrize("cut", [6, 1])
    def test_truncated_v3_parse_raises_value_error(self, cut):
        # in-memory parse must match the reader's ValueError contract,
        # never leak struct.error, whether the cut lands mid-packet or
        # on the sentinel.
        _, stream = self._packets()
        blob = legacy_bytes(stream.header, stream.packets, 3)
        with pytest.raises(ValueError, match="truncated"):
            SequenceBitstream.parse(blob[:-cut])


class _FrameLivenessCounter:
    """Counts how many source frames are simultaneously alive, via
    weakref finalizers (CPython refcounting frees them deterministically
    as soon as the pipeline lets go)."""

    def __init__(self):
        self.live = 0
        self.max_live = 0
        self.total = 0

    def _release(self):
        self.live -= 1

    def track(self, frames):
        for frame in frames:
            self.total += 1
            self.live += 1
            self.max_live = max(self.max_live, self.live)
            weakref.finalize(frame, self._release)
            yield frame
            del frame


class TestConstantMemoryStreaming:
    @pytest.mark.parametrize("num_frames", [4, 12])
    def test_file_to_file_peak_frames(self, tmp_path, monkeypatch, num_frames):
        """Peak simultaneously-alive source frames during a file-to-file
        streaming encode must not grow with sequence length."""
        import repro.pipeline.facade as facade

        counter = _FrameLivenessCounter()
        real_iter = facade.iter_sequence
        monkeypatch.setattr(
            facade, "iter_sequence", lambda cfg: counter.track(real_iter(cfg))
        )
        pipe = Pipeline(
            "classical",
            {"qp": 16.0, "gop": 4},
            scene={"height": 16, "width": 32, "frames": num_frames},
        )
        pipe.session().encode(output=str(tmp_path / "clip.bin"))
        gc.collect()
        assert counter.total == num_frames
        # current frame + the generator's hand-off slot; independent of
        # sequence length (a batch path would hold all of them).
        assert counter.max_live <= 3

    def test_peak_is_equal_across_lengths(self, tmp_path, monkeypatch):
        import repro.pipeline.facade as facade

        peaks = []
        for num_frames in (4, 12):
            counter = _FrameLivenessCounter()
            real_iter = iter_sequence
            monkeypatch.setattr(
                facade,
                "iter_sequence",
                lambda cfg, c=counter: c.track(real_iter(cfg)),
            )
            pipe = Pipeline(
                "classical",
                {"qp": 16.0},
                scene={"height": 16, "width": 32, "frames": num_frames},
            )
            pipe.session().encode(output=str(tmp_path / f"c{num_frames}.bin"))
            gc.collect()
            peaks.append(counter.max_live)
        assert peaks[0] == peaks[1]


class TestFacadeStreamingMode:
    SCENE = {"height": 16, "width": 32, "frames": 3}

    def test_streaming_report_matches_batch_quality(self, tmp_path):
        batch = Pipeline("classical", {"qp": 12.0}, scene=self.SCENE).run()
        session = Pipeline("classical", {"qp": 12.0}, scene=self.SCENE).session()
        report = session.run(output=str(tmp_path / "clip.bin"))
        assert report.psnr_per_frame == batch.psnr_per_frame
        assert report.frames == batch.frames
        # the streamed header carries extra context (config + scene), so
        # it costs a little container overhead but the payload is
        # identical.
        assert report.stream_bytes >= batch.stream_bytes
        assert report.encode_seconds > 0 and report.decode_seconds > 0

    def test_progress_callbacks_fire_per_frame(self, tmp_path):
        encoded, decoded = [], []
        session = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session()
        session.encode(
            output=str(tmp_path / "clip.bin"),
            progress=lambda i, nbytes: encoded.append((i, nbytes)),
        )
        session.decode(progress=lambda i, quality: decoded.append((i, quality)))
        assert [i for i, _ in encoded] == [1, 2, 3]
        assert all(nbytes > 0 for _, nbytes in encoded)
        assert [i for i, _ in decoded] == [1, 2, 3]
        assert all(quality > 10.0 for _, quality in decoded)

    def test_decode_from_explicit_source(self, tmp_path):
        path = str(tmp_path / "clip.bin")
        Pipeline("classical", {"qp": 12.0}, scene=self.SCENE).session().encode(
            output=path
        )
        # A fresh session decodes someone else's container file.
        other = Pipeline("classical", {"qp": 12.0}, scene=self.SCENE).session()
        report = other.decode(source=path).report()
        assert report.frames == 3
        assert report.mean_psnr > 20.0

    def test_streaming_file_object_output(self, tmp_path):
        buffer = io.BytesIO()
        session = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session()
        session.encode(output=buffer)
        buffer.seek(0)
        assert StreamReader(buffer).version == 4

    def test_decode_after_file_object_stream_requires_source(self):
        # The streamed container lives in a caller-owned file object;
        # silently re-encoding in batch would discard it.
        buffer = io.BytesIO()
        session = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session()
        session.encode(output=buffer)
        with pytest.raises(ValueError, match="decode\\(source=...\\)"):
            session.decode()
        buffer.seek(0)
        report = session.decode(source=buffer).report()
        assert report.frames == self.SCENE["frames"]

    def test_run_with_seekable_file_object_round_trips(self):
        buffer = io.BytesIO()
        report = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session().run(
            output=buffer
        )
        assert report.frames == self.SCENE["frames"]
        assert report.stream_bytes == len(buffer.getvalue())  # not 0
        assert report.bpp > 0

    def test_run_with_unreadable_file_object_rejected_up_front(self, tmp_path):
        with open(tmp_path / "clip.bin", "wb") as handle:
            session = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session()
            with pytest.raises(ValueError, match="readable, seekable"):
                session.run(output=handle)
            assert session.frames_encoded is None  # rejected before encoding

    def test_decode_rejects_longer_container_than_scene(self, tmp_path):
        path = str(tmp_path / "clip.bin")
        Pipeline(
            "classical", {"qp": 16.0}, scene={**self.SCENE, "frames": 4}
        ).session().encode(output=path)
        short = Pipeline(
            "classical", {"qp": 16.0}, scene={**self.SCENE, "frames": 2}
        ).session()
        with pytest.raises(ValueError, match="more frames than"):
            short.decode(source=path)

    def test_progress_needs_streaming(self):
        session = Pipeline("classical", scene=self.SCENE).session()
        with pytest.raises(ValueError, match="streaming"):
            session.encode(progress=lambda i, n: None)
