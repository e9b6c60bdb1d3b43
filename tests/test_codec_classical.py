"""Tests for the classical block-DCT codec (H.26x stand-in)."""

import numpy as np
import pytest

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    SequenceBitstream,
    StreamCorruptionError,
    zigzag_indices,
)
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence


@pytest.fixture(scope="module")
def frames():
    return generate_sequence(SceneConfig(height=64, width=96, frames=4, seed=7))


class TestZigzag:
    def test_is_permutation(self):
        zz = zigzag_indices(8)
        assert sorted(zz) == list(range(64))

    def test_jpeg_prefix(self):
        """First entries of the canonical JPEG zigzag for 8x8."""
        zz = zigzag_indices(8)
        assert list(zz[:10]) == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]

    def test_small_block(self):
        zz = zigzag_indices(2)
        assert list(zz) == [0, 1, 2, 3]


class TestIntraCoding:
    def test_roundtrip_decodes_identically(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        packet, encoder_recon = codec.encode_intra(frames[0])
        decoder_recon = codec.decode_intra(packet)
        assert np.array_equal(encoder_recon, decoder_recon)

    def test_quality_reasonable(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=4.0))
        _, recon = codec.encode_intra(frames[0])
        assert psnr(frames[0], recon) > 34.0

    def test_qp_controls_quality(self, frames):
        fine = ClassicalCodec(ClassicalCodecConfig(qp=2.0))
        coarse = ClassicalCodec(ClassicalCodecConfig(qp=64.0))
        _, recon_fine = fine.encode_intra(frames[0])
        _, recon_coarse = coarse.encode_intra(frames[0])
        assert psnr(frames[0], recon_fine) > psnr(frames[0], recon_coarse) + 5.0

    def test_qp_controls_rate(self, frames):
        fine, _ = ClassicalCodec(ClassicalCodecConfig(qp=2.0)).encode_intra(frames[0])
        coarse, _ = ClassicalCodec(ClassicalCodecConfig(qp=64.0)).encode_intra(
            frames[0]
        )
        assert fine.num_bits() > 2 * coarse.num_bits()


class TestInterCoding:
    def test_roundtrip(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        _, ref = codec.encode_intra(frames[0])
        packet, encoder_recon = codec.encode_inter(frames[1], ref)
        decoder_recon = codec.decode_inter(packet, ref)
        assert np.array_equal(encoder_recon, decoder_recon)

    def test_inter_cheaper_than_intra(self, frames):
        """Temporal prediction must pay: P-frames cost fewer bits."""
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        intra_packet, ref = codec.encode_intra(frames[1])
        inter_packet, _ = codec.encode_inter(frames[1], frames[0])
        assert inter_packet.num_bits() < intra_packet.num_bits()

    def test_motion_vectors_coded(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        _, ref = codec.encode_intra(frames[0])
        packet, _ = codec.encode_inter(frames[1], ref)
        assert "mv" in packet.chunks
        assert len(packet.chunks["mv"]) > 0


class TestSequenceCoding:
    def test_full_roundtrip_through_bytes(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        stream = codec.encode_sequence(frames)
        blob = stream.serialize()
        decoded = codec.decode_sequence(SequenceBitstream.parse(blob))
        assert len(decoded) == len(frames)
        for orig, rec in zip(frames, decoded):
            assert psnr(orig, rec) > 28.0

    def test_gop_structure(self, frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0, gop=2))
        stream = codec.encode_sequence(frames)
        types = [p.frame_type for p in stream.packets]
        assert types == ["I", "P", "I", "P"]

    def test_rd_monotonicity(self, frames):
        """Rate down, distortion up as QP grows — the codec's sanity."""
        results = []
        for qp in (4.0, 16.0, 64.0):
            codec = ClassicalCodec(ClassicalCodecConfig(qp=qp))
            stream = codec.encode_sequence(frames)
            decoded = codec.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            bpp = stream.bits_per_pixel(64, 96)
            quality = float(np.mean([psnr(a, b) for a, b in zip(frames, decoded)]))
            results.append((bpp, quality))
        bpps, quals = zip(*results)
        assert bpps[0] > bpps[1] > bpps[2]
        assert quals[0] > quals[1] > quals[2]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            ClassicalCodec().encode_sequence([])

    def test_p_frame_before_i_rejected(self, frames):
        codec = ClassicalCodec()
        stream = codec.encode_sequence(frames[:2])
        stream.packets = stream.packets[1:]  # drop the I-frame
        with pytest.raises(ValueError):
            codec.decode_sequence(stream)

    def test_closed_loop_no_drift(self, frames):
        """Encoder-side reconstructions equal decoder output exactly for
        every frame — drift-free closed loop."""
        codec = ClassicalCodec(ClassicalCodecConfig(qp=16.0, gop=8))
        recons = []
        reference = None
        for index, frame in enumerate(frames):
            if index == 0:
                packet, reference = codec.encode_intra(frame)
            else:
                packet, reference = codec.encode_inter(frame, reference)
            recons.append(reference)
        stream = codec.encode_sequence(frames)
        decoded = codec.decode_sequence(SequenceBitstream.parse(stream.serialize()))
        for a, b in zip(recons, decoded):
            assert np.array_equal(a, b)


class TestHalfPelMotion:
    """Half-pel refinement (H.264-class motion precision)."""

    @pytest.fixture(scope="class")
    def subpel_frames(self):
        return generate_sequence(
            SceneConfig(
                height=64,
                width=96,
                frames=4,
                seed=11,
                pan_velocity=(0.5, 1.5),
                grain_sigma=0.5,
            )
        )

    def test_roundtrip(self, subpel_frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0, half_pel=True))
        stream = codec.encode_sequence(subpel_frames)
        decoded = codec.decode_sequence(SequenceBitstream.parse(stream.serialize()))
        assert len(decoded) == 4

    def test_improves_rd_on_subpel_motion(self, subpel_frames):
        """On sub-pixel panning content, half-pel compensation must
        strictly improve the operating point."""
        results = {}
        for hp in (False, True):
            codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0, half_pel=hp))
            stream = codec.encode_sequence(subpel_frames)
            decoded = codec.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            bpp = stream.bits_per_pixel(64, 96)
            quality = float(
                np.mean([psnr(a, b) for a, b in zip(subpel_frames, decoded)])
            )
            results[hp] = (bpp, quality)
        assert results[True][1] > results[False][1]  # better quality
        assert results[True][0] < results[False][0] * 1.05  # no rate blowup

    def test_precision_mismatch_rejected(self, subpel_frames):
        encoder = ClassicalCodec(ClassicalCodecConfig(qp=12.0, half_pel=True))
        decoder = ClassicalCodec(ClassicalCodecConfig(qp=12.0, half_pel=False))
        stream = encoder.encode_sequence(subpel_frames[:2])
        with pytest.raises(ValueError):
            decoder.decode_sequence(stream)

    def test_half_pel_closed_loop_exact(self, subpel_frames):
        codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0, half_pel=True))
        _, ref = codec.encode_intra(subpel_frames[0])
        packet, encoder_recon = codec.encode_inter(subpel_frames[1], ref)
        assert np.array_equal(encoder_recon, codec.decode_inter(packet, ref))


class TestHostilePlaneMeta:
    """A crafted packet whose plane side information (``hw``, ``sd.u``,
    ``sd.s``) or motion-field shape (``mvs``) is malformed is rejected
    with a typed error before anything is allocated.  Each edit below
    once reached NumPy as a 128 GiB (``hw``), 32 GiB (``mvs``) or 16 TiB
    (``u``) allocation, or, for a short ``s``, decoded without error
    with uninitialised coefficient rows in the frame."""

    @pytest.fixture(scope="class")
    def stream_blob(self):
        clip = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=3))
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        return codec, codec.encode_sequence(clip).serialize()

    @staticmethod
    def craft(blob, edit, index):
        stream = SequenceBitstream.parse(blob)
        edit(stream.packets[index].meta)
        # re-serialize so the v4 CRCs cover the crafted meta
        return SequenceBitstream(
            header=stream.header, packets=stream.packets, version=4
        ).serialize()

    @pytest.mark.parametrize(
        "plane,field,value",
        [
            ("y", "hw", [2**17, 2**17]),
            ("y", "hw", [32, 50]),
            ("y", "hw", [32.0, 48]),
            ("y", "hw", [32]),
            ("y", "hw", "abc"),
            ("cb", "hw", [16, 25]),
            ("cr", "hw", [32, 48]),
            ("y", "u", 10**9),
            ("y", "u", 15),
            ("cb", "u", 1021),
            ("y", "u", "abc"),
            ("y", "s", "short"),
            ("cr", "s", "long"),
            ("y", "s", [70000] * 4),
            ("y", "s", [0x7E00] * 4),  # f16 NaN
            ("y", "s", None),
        ],
    )
    @pytest.mark.parametrize("index", [0, 1], ids=["I", "P"])
    def test_malformed_plane_meta_raises(self, stream_blob, index, plane, field, value):
        codec, blob = stream_blob

        def edit(meta):
            entry = next(m for m in meta["P"] if m["p"] == plane)
            assert entry["hw"] == ([32, 48] if plane == "y" else [16, 24])
            scales = entry["sd"]["s"]
            resized = {"short": scales[:3], "long": scales + scales[:1]}
            target = entry if field == "hw" else entry["sd"]
            target[field] = resized.get(value, value) if isinstance(value, str) else value

        crafted = self.craft(blob, edit, index)
        with pytest.raises(StreamCorruptionError, match=f"plane {plane}"):
            codec.decode_sequence(SequenceBitstream.parse(crafted))

    @pytest.mark.parametrize(
        "value", [[2, 2**20, 2**20], [2, 4, 7], [3, 4, 6], [2.0, 4, 6], [2, 4], "abc"]
    )
    def test_malformed_motion_shape_raises(self, stream_blob, value):
        codec, blob = stream_blob

        def edit(meta):
            assert meta["mvs"] == [2, 4, 6]
            meta["mvs"] = value

        crafted = self.craft(blob, edit, 1)
        with pytest.raises(StreamCorruptionError, match="motion field shape"):
            codec.decode_sequence(SequenceBitstream.parse(crafted))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(P="abc"),
            lambda meta: meta.update(P=meta["P"][:2]),
            lambda meta: meta["P"].reverse(),
            lambda meta: meta["P"][0].update(sd="abc"),
        ],
        ids=["not-a-list", "two-planes", "reordered", "sd-not-an-object"],
    )
    def test_malformed_plane_list_raises(self, stream_blob, edit):
        codec, blob = stream_blob
        crafted = self.craft(blob, edit, 0)
        with pytest.raises(StreamCorruptionError, match="plane"):
            codec.decode_sequence(SequenceBitstream.parse(crafted))

    def test_headerless_decoder_bounds_intra_geometry(self, stream_blob):
        """Without a header only MAX_FRAME_SIDE bounds an I-frame; a
        consistent but oversized plane set is still refused."""
        from repro.codec.classical import MAX_FRAME_SIDE

        codec, blob = stream_blob
        side = MAX_FRAME_SIDE + 2
        packet = SequenceBitstream.parse(blob).packets[0]
        shapes = ([side, side], [side // 2] * 2, [side // 2] * 2)
        for entry, shape in zip(packet.meta["P"], shapes):
            entry["hw"] = shape
        decoder = codec.open_decoder()
        with pytest.raises(StreamCorruptionError, match="frame geometry"):
            decoder.push(packet)
            decoder.pull()

    def test_headerless_decoder_decodes_valid_stream(self, stream_blob):
        codec, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        decoder = codec.open_decoder()
        frames = []
        for packet in stream.packets:
            decoder.push(packet)
            frames.append(decoder.pull())
        for got, want in zip(frames, codec.decode_sequence(stream)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "height,width", [(2**17, 48), (32, 47), (32.0, 48), ("32", 48), (0, 48)]
    )
    def test_malformed_header_geometry_raises(self, stream_blob, height, width):
        codec, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        header = dict(stream.header, height=height, width=width)
        with pytest.raises(StreamCorruptionError, match="frame geometry"):
            codec.open_decoder(header)
