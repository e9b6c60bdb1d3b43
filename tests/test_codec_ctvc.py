"""End-to-end tests for the CTVC-Net codec (FP / FXP / Sparse)."""

import numpy as np
import pytest

from repro.codec import (
    CTVCConfig,
    CTVCNet,
    SequenceBitstream,
    StreamCorruptionError,
)
from repro.codec.classical import PACKET_PAYLOAD
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence


@pytest.fixture(scope="module")
def frames():
    return generate_sequence(SceneConfig(height=64, width=96, frames=3, seed=7))


def small_net(qstep=8.0, seed=1):
    return CTVCNet(CTVCConfig(channels=12, qstep=qstep, gop=8, seed=seed))


@pytest.fixture(scope="module")
def coded(frames):
    """One encode/decode pass shared by several tests (it is the
    expensive part)."""
    net = small_net()
    stream = net.encode_sequence(frames)
    blob = stream.serialize()
    decoded = net.decode_sequence(SequenceBitstream.parse(blob))
    return net, stream, blob, decoded


class TestEndToEnd:
    def test_decodes_all_frames(self, frames, coded):
        _, _, _, decoded = coded
        assert len(decoded) == len(frames)
        for frame in decoded:
            assert frame.shape == frames[0].shape
            assert frame.min() >= 0.0 and frame.max() <= 255.0

    def test_quality_reasonable(self, frames, coded):
        _, _, _, decoded = coded
        mean_psnr = np.mean([psnr(a, b) for a, b in zip(frames, decoded)])
        assert mean_psnr > 26.0

    def test_gop_structure(self, coded):
        _, stream, _, _ = coded
        types = [p.frame_type for p in stream.packets]
        assert types == ["I", "P", "P"]

    def test_p_frame_packets_structured(self, coded):
        _, stream, _, _ = coded
        packet = stream.packets[1]
        # both latents share the packet's one entropy payload
        assert list(packet.chunks) == [PACKET_PAYLOAD]
        assert {"am", "ar", "mm", "rm"} <= set(packet.meta)

    def test_header_contents(self, coded):
        _, stream, _, _ = coded
        assert stream.header["codec"] == "ctvc-net"
        assert stream.header["channels"] == 12

    def test_deterministic_encode(self, frames, coded):
        _, _, blob, _ = coded
        net = small_net()
        assert net.encode_sequence(frames).serialize() == blob


class TestClosedLoop:
    def test_encoder_decoder_exact_match(self, frames):
        net = small_net()
        packet, encoder_recon = net.encode_inter(frames[1], frames[0])
        decoder_recon = net.decode_inter(packet, frames[0])
        assert np.array_equal(encoder_recon, decoder_recon)

    def test_p_frame_beats_frame_copy(self, frames):
        net = small_net()
        _, recon = net.encode_inter(frames[1], frames[0])
        assert psnr(frames[1], recon) > psnr(frames[1], frames[0])


class TestRateControl:
    def test_rd_monotone(self, frames):
        points = []
        for qstep in (2.0, 8.0, 32.0):
            net = small_net(qstep=qstep)
            stream = net.encode_sequence(frames)
            decoded = net.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            bpp = stream.bits_per_pixel(64, 96)
            quality = float(np.mean([psnr(a, b) for a, b in zip(frames, decoded)]))
            points.append((bpp, quality))
        bpps, quals = zip(*points)
        assert bpps[0] > bpps[1] > bpps[2]
        assert quals[0] > quals[1] > quals[2]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            small_net().encode_sequence([])

    def test_p_frame_before_i_rejected(self, frames):
        net = small_net()
        stream = net.encode_sequence(frames)
        stream.packets = stream.packets[1:]
        with pytest.raises(ValueError):
            net.decode_sequence(stream)


class TestVariants:
    """The paper's Table I ablation: FP vs FXP vs Sparse."""

    @pytest.fixture(scope="class")
    def variant_psnrs(self, frames):
        out = {}
        for variant in ("fp", "fxp", "sparse"):
            net = small_net()
            if variant == "fxp":
                net.apply_fxp()
            elif variant == "sparse":
                net.apply_sparse(rho=0.5)
            stream = net.encode_sequence(frames)
            decoded = net.decode_sequence(
                SequenceBitstream.parse(stream.serialize())
            )
            out[variant] = float(
                np.mean([psnr(a, b) for a, b in zip(frames, decoded)])
            )
        return out

    def test_fxp_close_to_fp(self, variant_psnrs):
        """W16/A12 quantization costs almost nothing (paper: FXP row
        within ~1 BDBR point of FP)."""
        assert abs(variant_psnrs["fp"] - variant_psnrs["fxp"]) < 0.3

    def test_sparse_close_to_fp(self, variant_psnrs):
        """50% sparsity maintains compression efficiency (the paper's
        central algorithmic claim)."""
        assert variant_psnrs["fp"] - variant_psnrs["sparse"] < 1.0

    def test_variant_labels(self, frames):
        net = small_net()
        assert net.variant == "fp"
        net.apply_fxp()
        assert net.variant == "fxp"
        net.apply_sparse()
        assert net.variant == "sparse"

    def test_sparse_installs_backends(self):
        net = small_net()
        net.apply_sparse(rho=0.5)
        backends = [
            module
            for _, module in net.frame_reconstruction.named_modules()
            if getattr(module, "compute_backend", None) is not None
        ]
        assert backends  # fast-sparse executors active

    def test_sparse_closed_loop_still_exact(self, frames):
        net = small_net()
        net.apply_sparse(rho=0.5)
        packet, encoder_recon = net.encode_inter(frames[1], frames[0])
        assert np.array_equal(encoder_recon, net.decode_inter(packet, frames[0]))


class TestModuleInventory:
    def test_decoder_modules_are_fig9b_bars(self):
        net = small_net()
        assert list(net.decoder_modules()) == [
            "feature_extraction",
            "motion_synthesis",
            "deformable_compensation",
            "residual_synthesis",
            "frame_reconstruction",
        ]

    def test_all_modules_adds_encoder_side(self):
        net = small_net()
        assert "motion_estimation" in net.all_modules()


class TestHostileLatentMeta:
    """A crafted P packet whose latent side information (the ``mm``/``rm``
    meta: quantizer step, shape, symbol support, channel scales) is
    malformed is rejected with a typed error before anything is
    allocated, not a crash or a NaN frame."""

    @pytest.fixture(scope="class")
    def stream_blob(self):
        clip = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=3))
        net = CTVCNet(CTVCConfig(channels=8, qstep=8.0, gop=8, seed=1))
        return net, net.encode_sequence(clip).serialize()

    @pytest.mark.parametrize("bits", [0x7E00, 0x7C00, 0xFC00])  # NaN, +inf, -inf
    @pytest.mark.parametrize("key", ["mm", "rm"])
    def test_non_finite_qstep_raises_stream_corruption(self, stream_blob, key, bits):
        net, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        assert stream.packets[1].frame_type == "P"
        stream.packets[1].meta[key]["q"] = bits
        # re-serialize so the v4 CRCs cover the crafted meta
        crafted = SequenceBitstream(
            header=stream.header, packets=stream.packets, version=4
        ).serialize()
        with pytest.raises(StreamCorruptionError, match="quantizer step"):
            net.decode_sequence(SequenceBitstream.parse(crafted))

    # Edits of the latent side information that once reached NumPy as
    # MemoryError (a 596 GiB or 14.9 GiB buffer), IndexError, TypeError
    # or an untyped unpacking ValueError.  The stream's latents are
    # (8, 2, 3): channels=8 and 32x48 -> 16x24 features -> three
    # ceil-halvings.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("hw", [8, 100000, 100000]),
            ("hw", [9, 2, 3]),
            ("hw", [8, 2, 4]),
            ("hw", [8, 2]),
            ("hw", [8, 2, 3, 1]),
            ("hw", [8.0, 2, 3]),
            ("hw", "abc"),
            ("u", 10**9),
            ("u", 0),
            ("u", 2049),
            ("u", "abc"),
            ("s", "short"),
            ("s", "long"),
            ("s", [70000] * 8),
            ("q", -1),
            ("q", None),
        ],
    )
    @pytest.mark.parametrize("key", ["mm", "rm"])
    def test_malformed_latent_meta_raises_stream_corruption(
        self, stream_blob, key, field, value
    ):
        net, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        meta = stream.packets[1].meta[key]
        assert meta["hw"] == [8, 2, 3]
        if value == "short":
            value = meta["s"][:-1]
        elif value == "long":
            value = meta["s"] + meta["s"][:1]
        meta[field] = value
        crafted = SequenceBitstream(
            header=stream.header, packets=stream.packets, version=4
        ).serialize()
        with pytest.raises(StreamCorruptionError, match="latent"):
            net.decode_sequence(SequenceBitstream.parse(crafted))

    @pytest.mark.parametrize(
        "field,value", [("hw", [2**17, 2**17]), ("u", 10**9), ("s", [0x3C00] * 3)]
    )
    def test_malformed_intra_plane_meta_raises(self, stream_blob, field, value):
        """The I-frame is the classical intra coder's: its plane meta is
        checked against the header's frame size the same way."""
        net, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        assert stream.packets[0].frame_type == "I"
        luma = stream.packets[0].meta["P"][0]
        (luma if field == "hw" else luma["sd"])[field] = value
        crafted = SequenceBitstream(
            header=stream.header, packets=stream.packets, version=4
        ).serialize()
        with pytest.raises(StreamCorruptionError, match="plane y"):
            net.decode_sequence(SequenceBitstream.parse(crafted))

    @pytest.mark.parametrize("meta", ["abc", None])
    def test_latent_meta_that_is_not_an_object_raises(self, stream_blob, meta):
        net, blob = stream_blob
        stream = SequenceBitstream.parse(blob)
        stream.packets[1].meta["mm"] = meta
        crafted = SequenceBitstream(
            header=stream.header, packets=stream.packets, version=4
        ).serialize()
        with pytest.raises(StreamCorruptionError, match="latent meta"):
            net.decode_sequence(SequenceBitstream.parse(crafted))
