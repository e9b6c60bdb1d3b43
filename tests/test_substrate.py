"""The ``fast`` substrate (float32 nets) against ``reference`` (float64).

``reference`` is pinned byte for byte by the goldens elsewhere
(``golden_roundtrip.json``, ``V4_PER_CHUNK_FRAMES``, ``TestCodecParity``);
here ``fast`` is bounded against it, and the header's ``substrate``
field is checked in both directions.

Bounds, per frame, over channels 8/12/36, variants fp/fxp/sparse and
qstep 8/16 at 64x96:

* |ΔPSNR| <= 1e-3 dB and packet bytes within 1% (the header differs
  by the ``substrate`` field alone);
* decoded samples within ``MAX_ABS_DIFF[variant]`` of reference: float32
  rounding alone moves an FP frame by far less than 1e-3, while the
  A12 activation quantizer of fxp/sparse turns a rounding difference
  into a one-code step wherever a value sits on a rounding boundary,
  so those frames may move by up to half an 8-bit level.
"""

import itertools

import numpy as np
import pytest

from repro.codec import CTVCConfig, CTVCNet, SequenceBitstream, StreamCorruptionError
from repro.codec.ctvc import SUBSTRATES
from repro.metrics import psnr
from repro.serialization import ConfigError
from repro.video import SceneConfig, generate_sequence

MAX_PSNR_DELTA_DB = 1e-3
MAX_BYTES_DELTA = 0.01
MAX_ABS_DIFF = {"fp": 1e-3, "fxp": 0.5, "sparse": 0.5}
VARIANTS = ("fp", "fxp", "sparse")


def _net(substrate, channels=8, qstep=8.0, variant="fp"):
    net = CTVCNet(CTVCConfig(
        channels=channels, qstep=qstep, gop=8, seed=1, substrate=substrate
    ))
    if variant == "fxp":
        net.apply_fxp()
    elif variant == "sparse":
        net.apply_sparse(rho=0.5)
    return net


def _round_trip(net, frames):
    stream = net.encode_sequence(frames)
    blob = stream.serialize()
    return stream, blob, net.decode_sequence(SequenceBitstream.parse(blob))


@pytest.fixture(scope="module")
def frames():
    return generate_sequence(SceneConfig(height=64, width=96, frames=3, seed=7))


@pytest.fixture(scope="module")
def small_frames():
    return generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=3))


@pytest.fixture(scope="module")
def fast_run(small_frames):
    """(stream, blob, decoded frames) of the small clip under ``fast``."""
    return _round_trip(_net("fast"), small_frames)


@pytest.mark.parametrize(
    "channels,variant,qstep",
    list(itertools.product((8, 12, 36), VARIANTS, (8.0, 16.0))),
)
def test_fast_within_tolerance_of_reference(frames, channels, variant, qstep):
    runs = {
        substrate: _round_trip(_net(substrate, channels, qstep, variant), frames)
        for substrate in SUBSTRATES
    }
    ref_stream, _, ref_frames = runs["reference"]
    fast_stream, _, fast_frames = runs["fast"]
    ref_bytes, fast_bytes = (
        sum(len(packet.serialize()) for packet in stream.packets)
        for stream in (ref_stream, fast_stream)
    )
    assert abs(fast_bytes - ref_bytes) <= MAX_BYTES_DELTA * ref_bytes
    for source, ref, fast in zip(frames, ref_frames, fast_frames):
        assert fast.dtype == ref.dtype == np.float64
        delta = float(psnr(source, fast)) - float(psnr(source, ref))
        assert abs(delta) <= MAX_PSNR_DELTA_DB, delta
        assert float(np.max(np.abs(fast - ref))) <= MAX_ABS_DIFF[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_fast_encoder_reconstruction_is_the_decoder_output(small_frames, variant):
    """The closed loop stays exact in float32: what the encoder keeps
    as its reference is byte for byte what the decoder returns."""
    net = _net("fast", variant=variant)
    recons = []
    real = net.encode_inter

    def capture(frame, ref):
        packet, recon = real(frame, ref)
        recons.append(recon)
        return packet, recon

    net.encode_inter = capture  # sessions bind the method when opened
    session = net.open_encoder()
    packets = list(session.encode_iter(small_frames))
    decoded = list(net.open_decoder(session.header).decode_iter(packets))
    assert len(recons) == 1
    assert recons[0].dtype == np.float64
    assert recons[0].tobytes() == decoded[1].tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_module_returns_its_input_dtype(small_frames, variant):
    net = _net("fast", variant=variant)
    frame = small_frames[0]
    f32 = np.float32
    features = net.feature_extraction(frame, f32)
    assert features.dtype == f32
    luma = net._half_luma(frame)
    motion, _ = net.motion_estimation.estimate(luma, luma, f32)
    assert motion.dtype == f32
    assert net.motion_estimation(features, features).dtype == f32
    for ae in (net.motion_compression, net.residual_compression):
        latent = ae.analyze(features)
        assert latent.dtype == f32
        assert ae.synthesize(latent).dtype == f32
    assert net.deformable_compensation(motion, features).dtype == f32
    assert net.frame_reconstruction(features).dtype == f32


def test_header_records_fast_and_reference_keeps_old_bytes(small_frames, fast_run):
    fast = fast_run[0]
    reference, _, _ = _round_trip(_net("reference"), small_frames)
    assert fast.header["substrate"] == "fast"
    # absent means reference: the header a reference stream always had
    assert "substrate" not in reference.header
    assert {k: v for k, v in fast.header.items() if k != "substrate"} == reference.header


@pytest.mark.parametrize("written,configured", [
    ("fast", "reference"), ("reference", "fast"),
])
def test_one_net_decodes_both_tiers(small_frames, fast_run, written, configured):
    """The decoder takes the substrate from the header, not its config."""
    _, blob, expected = (
        fast_run if written == "fast" else _round_trip(_net(written), small_frames)
    )
    decoded = _net(configured).decode_sequence(SequenceBitstream.parse(blob))
    assert [f.tobytes() for f in decoded] == [f.tobytes() for f in expected]


def test_headerless_decode_uses_the_configured_substrate(fast_run):
    stream, _, expected = fast_run
    decoded = list(_net("fast").open_decoder(None).decode_iter(stream.packets))
    assert [f.tobytes() for f in decoded] == [f.tobytes() for f in expected]


@pytest.mark.parametrize("value", ["float16", "", None, 32, ["fast"], {"a": 1}])
def test_unknown_substrate_in_header_is_stream_corruption(fast_run, value):
    header = dict(fast_run[0].header, substrate=value)
    with pytest.raises(StreamCorruptionError, match="substrate"):
        _net("fast").open_decoder(header)


def test_config_rejects_unknown_substrate():
    with pytest.raises(ConfigError, match="substrate"):
        CTVCConfig(substrate="float16")
    assert CTVCConfig().substrate == "fast"
    assert CTVCConfig.from_dict({"channels": 8}).substrate == "fast"
