"""The stream header an encoder session writes, pinned key by key.

The container goldens pin the serialized bytes of reference-substrate
CTVC-Net and classical streams only; these cases pin the header dict
itself for both codecs, with and without a rate controller and, for
CTVC-Net, on both substrates.  The dict is what ``StreamWriter`` and
``SequenceBitstream`` serialize (with sorted keys), so any field that
moves, appears or vanishes shows here first.
"""

import pytest

from repro.codec import ClassicalCodec, ClassicalCodecConfig, CTVCConfig, CTVCNet
from repro.video import SceneConfig, generate_sequence

ABR = dict(rate_control="abr", target_kbps=120.0, fps=25.0)

CLASSICAL_CASES = {
    "plain": (
        dict(qp=12.0, gop=4),
        {
            "codec": "classical-dct", "height": 32, "width": 48, "qp": 12.0,
            "gop": 4, "entropy": "rans", "rate_control": "cqp",
        },
    ),
    "abr": (
        dict(qp=12.0, gop=4, entropy_backend="cacm", **ABR),
        {
            "codec": "classical-dct", "height": 32, "width": 48, "qp": 12.0,
            "gop": 4, "entropy": "cacm", "rate_control": "abr",
            "target_kbps": 120.0, "fps": 25.0,
        },
    ),
}

_CTVC_COMMON = {
    "codec": "ctvc-net", "variant": "fp", "height": 32, "width": 48,
    "channels": 4, "qstep": 8.0, "gop": 3, "entropy": "rans",
}

CTVC_CASES = {
    "reference-plain": (
        dict(substrate="reference"),
        dict(_CTVC_COMMON, rate_control="cqp"),
    ),
    "fast-plain": (
        dict(substrate="fast"),
        dict(_CTVC_COMMON, rate_control="cqp", substrate="fast"),
    ),
    "reference-abr": (
        dict(substrate="reference", **ABR),
        dict(_CTVC_COMMON, rate_control="abr", target_kbps=120.0, fps=25.0),
    ),
    "fast-abr": (
        dict(substrate="fast", **ABR),
        dict(
            _CTVC_COMMON, rate_control="abr", target_kbps=120.0, fps=25.0,
            substrate="fast",
        ),
    ),
}


@pytest.fixture(scope="module")
def frame():
    return generate_sequence(SceneConfig(height=32, width=48, frames=1))[0]


def _header_after_one_push(codec, frame) -> dict:
    with codec.open_encoder() as session:
        session.push(frame)
        return session.header


@pytest.mark.parametrize("case", sorted(CLASSICAL_CASES))
def test_classical_header(case, frame):
    fields, expected = CLASSICAL_CASES[case]
    codec = ClassicalCodec(ClassicalCodecConfig(**fields))
    assert _header_after_one_push(codec, frame) == expected


@pytest.mark.parametrize("case", sorted(CTVC_CASES))
def test_ctvc_header(case, frame):
    fields, expected = CTVC_CASES[case]
    codec = CTVCNet(CTVCConfig(channels=4, qstep=8.0, gop=3, **fields))
    assert _header_after_one_push(codec, frame) == expected


def test_ctvc_header_names_the_variant(frame):
    codec = CTVCNet(CTVCConfig(channels=4, gop=3, substrate="reference"))
    codec.apply_fxp()
    assert _header_after_one_push(codec, frame)["variant"] == "fxp"
