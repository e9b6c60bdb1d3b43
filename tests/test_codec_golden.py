"""Golden-bitstream compatibility: version-1 streams still decode.

The two base64 blobs below were produced by the seed (pre-entropy-
backend) coder at commit 0df5600: format version 1, CACM'87 arithmetic
coding, and — for the classical codec's DCT planes — the legacy
block-interleaved band order.  Version 1 is read-only now, but these
streams must keep decoding bit-for-bit through the legacy path, which
is what pins backward compatibility for archived bitstreams.
"""

import base64

import pytest

import numpy as np

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCConfig,
    CTVCNet,
    SequenceBitstream,
)
from repro.metrics import psnr
from repro.video import SceneConfig, generate_sequence

#: ClassicalCodec(qp=12.0), scene 32x48, 2 frames (I+P), seed 123.
GOLDEN_CLASSICAL_V1 = (
    "TlZDQQEAXAAAAHsiaGVhZGVyIjp7ImNvZGVjIjoiY2xhc3NpY2FsLWRjdCIsImdvcCI6OCwi"
    "aGVpZ2h0IjozMiwicXAiOjEyLjAsIndpZHRoIjo0OH0sIm51bV9mcmFtZXMiOjJ9AQEAAHsi"
    "bSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpbMTk5OTIsMTc3NjIs"
    "MTUyOTIsMTE3MDFdLCJ1Ijo2N319LHsiaHciOlsxNiwyNF0sInAiOiJjYiIsInNkIjp7InMi"
    "OlsxNjM4NCwxNTAxOSwxMjA2MCw1MTQ1XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRdLCJwIjoi"
    "Y3IiLCJzZCI6eyJzIjpbMTU4NzIsMTQ2NzcsOTY0OCw1MTQ1XSwidSI6MTZ9fV19LCJuIjpb"
    "InkiLCJjYiIsImNyIl0sInQiOiJJIiwieiI6WzMwOSwyMiwxNF19SHq2Vk3AEldGGXsh3R9n"
    "zLHVd34p1QtP1WbSaV+qj5tz5g5StROhCUxfllQRaGPiSOAyV4W8PvtM542J+0RxZe4qw4yC"
    "IkGGQ/N2EYSJSnHSpJYDf0sBgGQjfI4EN9m68FsVL4hYrCoy5WI3eDmR/YpiyDV9waAwqWZl"
    "3/YyuFVfvrBSBvf1i6ZawqkZyyC1xYQy8twH+eZTSfniSq6eBfUr1NJvZNxzp8s3CjK0BD34"
    "EM9syfX0aWNqJeWvryaIIKcz7+4Ms4GvvaNdiqWfdl0yWHQGqoDBi/fDSrB3nXUq7VGLed0B"
    "aiMrk/G85ewh1/xmh8bH4K8wFU5L8NV2QgAf9TQ1Qh5BFj6MQQcGrYr7xH0hFwMGlawrK7rQ"
    "zObP8592QIbii9KU9u4ZbmHE5y2TQkl9jFA4z9uZhVfaBt9R5y4Uiycqmj86gOi/xleG8EhZ"
    "SsqEJETkHQEAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpb"
    "MTYyMTMsMTUxMzgsMTQ0MjEsMTIyMDldLCJ1IjoxNn19LHsiaHciOlsxNiwyNF0sInAiOiJj"
    "YiIsInNkIjp7InMiOlsxNDMzNiwxMzUxNywxMTMzMiw1MTQ1XSwidSI6MTZ9fSx7Imh3Ijpb"
    "MTYsMjRdLCJwIjoiY3IiLCJzZCI6eyJzIjpbMTQzMzYsMTI5MDIsODYyNCw1MTQ1XSwidSI6"
    "MTZ9fV0sImhwIjowLCJtdnMiOlsyLDQsNl19LCJuIjpbIm12IiwieSIsImNiIiwiY3IiXSwi"
    "dCI6IlAiLCJ6IjpbMjUsMjQwLDE2LDhdfYDixWJm6ZDKB3O60HofXVFZkyg7g+IA53DEV+Ua"
    "vWw7PWjTrlI7tIuLal6RP+njZGSBKYscS43PX/9GyOkkJ/Hy98maDj8iZSkbtOqmmgxln+lj"
    "A+GXsxr8ETB9KgqqaKIveSgBvvXWbXwXMW4dsiPxeD7XDYX0N8XaAtv0oq8vGiumAHsY/V9k"
    "tC1cvuEq5+r7Fb0oLSwlie0oZ1q9MjfSSFYXjhUFBTwz7QCFaHoA5HQVEHxM0qY7VZllaJjb"
    "UrXjj3hH3fS9/EjPEtNog+ggkuY90WrlmXpu0FWK94H+fACP3AgBFgaY0jyTL8tsf0/BuQUo"
    "4jK0ueCxPKcnr9VCawAUom08jyBr4LIxuy5EhmuNLALT1LoA8jh4pjpzsYA="
)

#: CTVCNet(channels=8, qstep=8.0, seed=5), scene 32x48, 2 frames, seed 321.
GOLDEN_CTVC_V1 = (
    "TlZDQQEAdQAAAHsiaGVhZGVyIjp7ImNoYW5uZWxzIjo4LCJjb2RlYyI6ImN0dmMtbmV0Iiwi"
    "Z29wIjo4LCJoZWlnaHQiOjMyLCJxc3RlcCI6OC4wLCJ2YXJpYW50IjoiZnAiLCJ3aWR0aCI6"
    "NDh9LCJudW1fZnJhbWVzIjoyfQEBAAB7Im0iOnsiUCI6W3siaHciOlszMiw0OF0sInAiOiJ5"
    "Iiwic2QiOnsicyI6WzE5NDY0LDE3NDMxLDE0NzQ2LDEwNzQwXSwidSI6MzZ9fSx7Imh3Ijpb"
    "MTYsMjRdLCJwIjoiY2IiLCJzZCI6eyJzIjpbMTY5ODEsMTQ0MDQsNTE0NSw1MTQ1XSwidSI6"
    "MTZ9fSx7Imh3IjpbMTYsMjRdLCJwIjoiY3IiLCJzZCI6eyJzIjpbMTYwNDMsMTUwMTksMTE2"
    "OTYsNzE1Ml0sInUiOjE2fX1dfSwibiI6WyJ5IiwiY2IiLCJjciJdLCJ0IjoiSSIsInoiOlsy"
    "NjIsMTEsMjJdfTFDL73c3bp2pdvhWUfoTleCro300g7WgfhvPNDSza27u3DcwjhAD4BRisiu"
    "FbOju+kSDVlH/DoxOJNds19DV93WnZD1cq4dx79++wNvI07QQgf2lxBBiLzSnScRQ9EhMtYN"
    "9h9ONHBxZziSEzNarYn6TugySeLn+eiV9lvKUDA+WITMI75gCM+1+mtsHtF5rU8hA3cVw6Up"
    "XyXlTtR34xhIu5HznN79R4n8G3hxv08O1S6rzylRpiJPUf2/NHUdaB7Sbqijc+NczkZTn+zh"
    "qCoJvm1i90llMp+JsnE7UKsK/zsmTAmQeP0Cnh0bM3Zb8C1TmOXQqnTPNHB4KEDjWsPQPqQD"
    "MwDjILQ+7J5JU+rUQAUM9hQrA/Vuc0Zdl5qLEaOVkAnoq9j4AAAAeyJtIjp7ImFtIjoxNDkw"
    "OCwiYXIiOjE0NzQxLCJtbSI6eyJodyI6WzgsMiwzXSwicSI6MTg0MzIsInMiOls1MTQ1LDE1"
    "MzYwLDUxNDUsNTE0NSw1MTQ1LDUxNDUsNTE0NSw1MTQ1XSwidSI6Mn0sInJtIjp7Imh3Ijpb"
    "OCwyLDNdLCJxIjoxODQzMiwicyI6WzE4MDA1LDE3NzkyLDE3NjIxLDE1ODcyLDE0Njc3LDEz"
    "NjUzLDEzNjUzLDE1NTMxXSwidSI6MTd9fSwibiI6WyJtb3Rpb24iLCJyZXNpZHVhbCJdLCJ0"
    "IjoiUCIsInoiOlsyLDE5XX3chgRBqkuycwl/exgSJAQ3ftpJjyA="
)

#: per-frame PSNR (dB) the seed decoder produced for these streams;
#: decoding must stay within float tolerance of the original quality.
EXPECTED_PSNR = {
    "classical": [33.97043659558528, 34.133308136091365],
    "ctvc": [32.613582450354905, 24.9094704521783],
}


def test_classical_v1_stream_decodes():
    blob = base64.b64decode(GOLDEN_CLASSICAL_V1)
    stream = SequenceBitstream.parse(blob)
    assert stream.version == 1
    assert "entropy" not in stream.header  # predates the field
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=123))
    codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0))  # rans-default config
    decoded = codec.decode_sequence(stream)
    assert len(decoded) == 2
    for frame, recon, expected in zip(frames, decoded, EXPECTED_PSNR["classical"]):
        assert float(psnr(frame, recon)) == pytest.approx(expected, abs=1e-9)


def test_ctvc_v1_stream_decodes():
    blob = base64.b64decode(GOLDEN_CTVC_V1)
    stream = SequenceBitstream.parse(blob)
    assert stream.version == 1
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=321))
    net = CTVCNet(CTVCConfig(channels=8, qstep=8.0, seed=5))
    decoded = net.decode_sequence(stream)
    assert len(decoded) == 2
    for frame, recon, expected in zip(frames, decoded, EXPECTED_PSNR["ctvc"]):
        assert float(psnr(frame, recon)) == pytest.approx(expected, abs=1e-9)


def test_v1_stream_is_read_only():
    stream = SequenceBitstream.parse(base64.b64decode(GOLDEN_CLASSICAL_V1))
    with pytest.raises(ValueError, match="read-only"):
        stream.serialize()


def test_v4_reencode_of_golden_scene_matches_quality():
    """Re-encoding the golden scene with today's cacm backend yields the
    same reconstruction the seed produced (PSNR identical): the
    entropy refactor changed the container, not the signal path."""
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=123))
    codec = ClassicalCodec(ClassicalCodecConfig(qp=12.0, entropy_backend="cacm"))
    blob = codec.encode_sequence(frames).serialize()
    stream = SequenceBitstream.parse(blob)
    assert stream.version == 4
    decoded = codec.decode_sequence(stream)
    golden = codec.decode_sequence(
        SequenceBitstream.parse(base64.b64decode(GOLDEN_CLASSICAL_V1))
    )
    for a, b in zip(decoded, golden):
        assert np.array_equal(a, b)
