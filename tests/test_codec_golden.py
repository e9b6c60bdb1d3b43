"""Golden-bitstream compatibility: version-1 streams and per-chunk and
one-payload version-4 streams still decode, and new packets carry the
payloads of their layout.

The first two base64 blobs below were produced by the seed (pre-entropy-
backend) coder at commit 0df5600: format version 1, CACM'87 arithmetic
coding, and — for the classical codec's DCT planes — the legacy
block-interleaved band order.  Version 1 is read-only now, but these
streams must keep decoding bit-for-bit through the legacy path, which
is what pins backward compatibility for archived bitstreams.
"""

import base64
import hashlib

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


# -- version-4 per-chunk goldens ----------------------------------------------
#
# Written by the per-chunk encoder (one entropy payload per plane, per
# motion field and per latent), before packets carried one payload
# each.  Scene 32x48, 2 frames (I+P), seed 11; ClassicalCodec(qp=12.0)
# and CTVCNet(channels=8, qstep=8.0, seed=5), each with the backend its
# name gives.  Per-chunk packets stay read-only: these must keep
# decoding to the frames they decoded to when they were written.

GOLDEN_CLASSICAL_V4_RANS = (
    "TlZDQQQAcwAAAHsiaGVhZGVyIjp7ImNvZGVjIjoiY2xhc3NpY2FsLWRjdCIsImVudHJvcHki"
    "OiJyYW5zIiwiZ29wIjo4LCJoZWlnaHQiOjMyLCJxcCI6MTIuMCwicmF0ZV9jb250cm9sIjoi"
    "Y3FwIiwid2lkdGgiOjQ4fX2ywbI3HQMAAJ4YNL8CAQAAeyJtIjp7IlAiOlt7Imh3IjpbMzIs"
    "NDhdLCJwIjoieSIsInNkIjp7InMiOlsyMDEyMCwxNzU4MywxNTAzMCwxMTM1MV0sInUiOjY5"
    "fX0seyJodyI6WzE2LDI0XSwicCI6ImNiIiwic2QiOnsicyI6WzE1NTMxLDE1ODcyLDEyNTM4"
    "LDUxNDVdLCJ1IjoxNn19LHsiaHciOlsxNiwyNF0sInAiOiJjciIsInNkIjp7InMiOlsxNTg3"
    "MiwxNDk1MCwxMjM1Niw1MTQ1XSwidSI6MTZ9fV19LCJuIjpbInkiLCJjYiIsImNyIl0sInQi"
    "OiJJIiwieiI6WzQyMSw2MSw1M119GIgAAACJ73b7AACytB3z7wr0N0z+XgCieIbaFAomO9Ly"
    "/Rs+ssEdMADmqcxhAQAy5f59AQBwVNfyDwAPI6JzAACr5m1pbAEjbygiWAO0CJN7AAAHxS+o"
    "qQEmyIfbAACsUXYWDgBIzCE2rwLFG8xG5QL7BizCVgEEAqJXHwDkA3MIAQB95OQTZAE8+Pqk"
    "EgCfL0FErQBJEj2qOZNMCuqXxE3PIpaJi/K0WSVo25oDtvMdrOhL233ljMkZcYSYwno1qLSu"
    "BuZpjfQS0WrvDvn6D6QfbVG8Wp9xwLAdgNOfAC1Uc5EGnFPRi1CcU9umWOLUeaSrAbgv3wOy"
    "AhlTmKPShaGa18rcqQwtEdyR+AJS3+CkYQUs+A8GtcYfJKcgp1pRq3BeUaNa1nZeFjla8dCC"
    "rBNeoMYdD/95GXNc88rvVEGIenoigZugQGQQXMACU9EtaMSOJUubDyJGNo3pBKqfigzZs1he"
    "Nht7xde0h+Ki7EWAKKpJgVRTWXK4v0TAvEAY27sYvD+8QLv/PTafQmVayg8OYFp8W/f/2jEu"
    "R0DQRkdA1iK7vwYKAAAAZYRReAAAPlIBgAAAvRN2ulEAsbM6CW0AhKN7EgEAVYVmWWkDsNVc"
    "tcZqJ/9eRTpRzJCwAhemZboGBgAAABD3IAoHAF0mS/ePAOU8/F49P5nW3023ByFyJfcTNcgR"
    "B2cAC3dDR5NUuHLgxkOkVBkDAAD8DVe6HwEAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwi"
    "cCI6InkiLCJzZCI6eyJzIjpbMTYxMjgsMTU1MTQsMTQyOTAsMTE0MzFdLCJ1IjoxNn19LHsi"
    "aHciOlsxNiwyNF0sInAiOiJjYiIsInNkIjp7InMiOlsxNTAxOSwxMzM4MCwxMjcyMCw5MjAw"
    "XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRdLCJwIjoiY3IiLCJzZCI6eyJzIjpbMTM2NTMsMTMx"
    "NzUsMTIyNDIsNzE1Ml0sInUiOjE2fX1dLCJocCI6MCwibXZzIjpbMiw0LDZdfSwibiI6WyJt"
    "diIsInkiLCJjYiIsImNyIl0sInQiOiJQIiwieiI6WzM1LDM1NSw2MSw1MV19AQwAAAB9YiOJ"
    "BAAWJE0j+p63JHEe8SNKJBCiXeCWJgOkCOUYZwAAABFpKZ3mAdSuA7UVHK4zc8SgB+O2+wXR"
    "ASs1tYYEAN/GDewBAOb3OZBqCVBo6xMoADiMp30AAJ74x0tJAPX6wJ4CALoRrPZnA35FhU+C"
    "AqyrOO8dAGGLUQoCADW/HK/SAbVQ44ICAGyqwPwBACjd2OpVAG8RemMCAB9pZyw3AgLpChzF"
    "AeGXDykCAOxTIZYhACqPHfTD3vpZs6/lrwrtytDu7yFAZH0/sBwUfbZ7LP2a+gedaR+FQvMU"
    "RoTtPuKZq3xzrNjvoaQ56HOu6Mka04Hw+Iu9mMPJuDvXxdJrHdN+lcDDtW+Stjy9apofzu+O"
    "9tP9+OyfzuOyK1kq1hhSt8EzQ+/4PNp4QnETDrfTy5/ZOP2aPbJ4zKIpBePrwDChHtkpjmfA"
    "MIzyJhG9AUnL0fWobqk6czTuvw7A8D8VAPA/IwZd0WShA+W/xROQ3QBlofF2PbLJQwyMR8xx"
    "70CfBgoAAAB+5vdtAABtLeQGjBT5ZRsANwDyfs9mOwBRTqB8AABKsxKKCAAZlYHGx97uisCo"
    "KcHbrMvwVYy/QAYFAAAAhR8iYAUA8D6lue8CSWrkYv0uO4bFfWoJlw53XQAAkDUiDlUAPD5f"
    "gfvXf8DfIAAAAAA="
)
GOLDEN_CTVC_V4_RANS = (
    "TlZDQQQAjAAAAHsiaGVhZGVyIjp7ImNoYW5uZWxzIjo4LCJjb2RlYyI6ImN0dmMtbmV0Iiwi"
    "ZW50cm9weSI6InJhbnMiLCJnb3AiOjgsImhlaWdodCI6MzIsInFzdGVwIjo4LjAsInJhdGVf"
    "Y29udHJvbCI6ImNxcCIsInZhcmlhbnQiOiJmcCIsIndpZHRoIjo0OH19AR2ZNt0CAABMW5ct"
    "AgEAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpbMTk2OTYs"
    "MTcxODYsMTQ1MTgsMTA1MThdLCJ1Ijo1Mn19LHsiaHciOlsxNiwyNF0sInAiOiJjYiIsInNk"
    "Ijp7InMiOlsxNTM2MCwxNTQyOCwxMTAzNiw1MTQ1XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRd"
    "LCJwIjoiY3IiLCJzZCI6eyJzIjpbMTU1MzEsMTQ0NzMsMTEzMzIsNTE0NV0sInUiOjE2fX1d"
    "fSwibiI6WyJ5IiwiY2IiLCJjciJdLCJ0IjoiSSIsInoiOlszNjMsNTUsNTNdfRhrAAAAlDBb"
    "QWEHKzQQPGQAzndKyQEAu/idImsARftklw4A5PF31gUAmOo5vH4/euRgzwQAEpRdgwAAriNb"
    "UF0HZGVkFzIAR6+CTjwADonL7so448QgIr0AV4gwikQDyFGVRxwASoxrs7cAQJsk8SYaIgfQ"
    "iSQAKcKG4UMC4wP9FjUAMKRKUqMBU7jb0MkIsO94YgEAUahDkwuEwJkIyjTP8DD6q/i5Wt3f"
    "StY2yZ56ZUxo9Ae3ol9mxe2/VeXv8RtQCCaWaYMzDhDt+QF3uzdrlWH9GfPPLRLIQKgdCVLS"
    "jiNzHd4QeQU0at1fLHRDkZY3LYzTVJsl07PPTkDm0isFezowyKc9kH2PgNIB0L3JmQN2YwB5"
    "hdG/cnoA098BgBQSW4MuJrvizDqfOiSwRQHUS+FPimMFn6II2HernAP47M+yYU50RsRLyEtT"
    "Yp+yROEzADxBpLvMP2PpvLMzqDwm1GTUZPQohwAzAAYHAAAAZUZJbQoBzBJCXwAAvcjcw4oM"
    "zHEBFwgAr5OkTtcB7o95w+0F1jWCGugZF1cXHLCuj20GBgAAAP9s1sKwAUGey94GAFL9YkKN"
    "BU1SE35KADVwDKMAAM7O/cKwAcNFHxRWru13Yi+YyCUBAADZIb3B+QAAAHsibSI6eyJhbSI6"
    "MTQzNzcsImFyIjoxMzgwOSwibW0iOnsiaHciOls4LDIsM10sInEiOjE4NDMyLCJzIjpbNTE0"
    "NSwxNTM2MCw1MTQ1LDUxNDUsNTE0NSw1MTQ1LDUxNDUsNTE0NV0sInUiOjJ9LCJybSI6eyJo"
    "dyI6WzgsMiwzXSwicSI6MTg0MzIsInMiOlsxNzU3OSwxODIxOSwxNjU1NSwxNTAxOSwxNjA0"
    "MywxNDMzNiwxNTAxOSwxNTM2MF0sInUiOjEyfX0sIm4iOlsibW90aW9uIiwicmVzaWR1YWwi"
    "XSwidCI6IlAiLCJ6IjpbMTEsMjldfQEAAAAAdY47ht8TAQkAAADp1TWYCwDJBK1l9Y0XzjTO"
    "dT1TuMaQDxQAAAAA"
)
GOLDEN_CLASSICAL_V4_CACM = (
    "TlZDQQQAcwAAAHsiaGVhZGVyIjp7ImNvZGVjIjoiY2xhc3NpY2FsLWRjdCIsImVudHJvcHki"
    "OiJjYWNtIiwiZ29wIjo4LCJoZWlnaHQiOjMyLCJxcCI6MTIuMCwicmF0ZV9jb250cm9sIjoi"
    "Y3FwIiwid2lkdGgiOjQ4fX13QhCzWwIAAHWAj9QCAQAAeyJtIjp7IlAiOlt7Imh3IjpbMzIs"
    "NDhdLCJwIjoieSIsInNkIjp7InMiOlsyMDEyMCwxNzU4MywxNTAzMCwxMTM1MV0sInUiOjY5"
    "fX0seyJodyI6WzE2LDI0XSwicCI6ImNiIiwic2QiOnsicyI6WzE1NTMxLDE1ODcyLDEyNTM4"
    "LDUxNDVdLCJ1IjoxNn19LHsiaHciOlsxNiwyNF0sInAiOiJjciIsInNkIjp7InMiOlsxNTg3"
    "MiwxNDk1MCwxMjM1Niw1MTQ1XSwidSI6MTZ9fV19LCJuIjpbInkiLCJjYiIsImNyIl0sInQi"
    "OiJJIiwieiI6WzI5NCwyNSwyMl19wBrUO/XzKz20vgdEkbLQY73Ayq8DAelbQ72QAbiwX/kt"
    "C/CwOnzGxKHDHY6FKF5dLMBzfPYotIkGHc77xHsCWbxFw9d7Fi/7/3Iu4CGD2fqT9FVRngVH"
    "pnKWsfxTd9T3AhL/rJle/I0H3inSy6/zWLoXLMMAQ5X2Io45RJ4v0BKUZ6EHhxOYXf3zI+Ko"
    "L+Nwdac1KyQMdfcxLS4/nxrdlS3tMODUod16k60CGZkpc6uF+z4hIwVklgRYNH/WJIdmLOiY"
    "3VUtW83Ef6Pj6GbhnROnEapxlpo5CQhbSEUUCHHyY2uZQ/OPjc6zxKHi3cb87XUadaoa9f8b"
    "wcXLJ4kK4bN6q1Do+567p1VRthl7gZZH4Qo2VP9kbsR/aVsImBH0r25OrfyQEvZJXHHxSbMf"
    "yqYEFYV7TkxP8RLRcxWSwN9QB+yePCWivX3pLaZHc+qJpLSpWIBMAgAAN+7rrB8BAAB7Im0i"
    "OnsiUCI6W3siaHciOlszMiw0OF0sInAiOiJ5Iiwic2QiOnsicyI6WzE2MTI4LDE1NTE0LDE0"
    "MjkwLDExNDMxXSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRdLCJwIjoiY2IiLCJzZCI6eyJzIjpb"
    "MTUwMTksMTMzODAsMTI3MjAsOTIwMF0sInUiOjE2fX0seyJodyI6WzE2LDI0XSwicCI6ImNy"
    "Iiwic2QiOnsicyI6WzEzNjUzLDEzMTc1LDEyMjQyLDcxNTJdLCJ1IjoxNn19XSwiaHAiOjAs"
    "Im12cyI6WzIsNCw2XX0sIm4iOlsibXYiLCJ5IiwiY2IiLCJjciJdLCJ0IjoiUCIsInoiOlsy"
    "NSwyMzAsMjUsMTddfY////9eBtxrJsaRVqVNUIBQ9QrW0qIn75C/3dysB8WtgsIXJssjwx0c"
    "piF5keiiH+D2dLavxY89wvZ8QHebNUXn6ODUz4sNyJtLkIFY52OrCbNvKZGrs6rxqFNQ5gPP"
    "09Zku7X1068+FEmAQ9R+3Qoqlazi4ZXIyu0P0rd4HqshH6qaHDjQnWpIdh4DjF73mqOLzh2I"
    "7fxFQj7XDBHQtQuoAWT0Y5RrqSvLv7dcFA6NJqLsxsfKz9RPxsbe8kxn2Nnc6wHjN5UcSy8U"
    "9Mb67q5WQ/qrziFjIyxVeXBr+Ibn3JUzDf2+MJTbPrnBGoDxQf8Qr4PLuSQkQSYxM3elAIs2"
    "OPbJ36BjSy2sHt4hVavCynuehuwJnyDQOF//zIpCyFuS8iLVE8Nn6AAAAAA="
)
GOLDEN_CTVC_V4_CACM = (
    "TlZDQQQAjAAAAHsiaGVhZGVyIjp7ImNoYW5uZWxzIjo4LCJjb2RlYyI6ImN0dmMtbmV0Iiwi"
    "ZW50cm9weSI6ImNhY20iLCJnb3AiOjgsImhlaWdodCI6MzIsInFzdGVwIjo4LjAsInJhdGVf"
    "Y29udHJvbCI6ImNxcCIsInZhcmlhbnQiOiJmcCIsIndpZHRoIjo0OH192hnTpB8CAAArU4wX"
    "AgEAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpbMTk2OTYs"
    "MTcxODYsMTQ1MTgsMTA1MThdLCJ1Ijo1Mn19LHsiaHciOlsxNiwyNF0sInAiOiJjYiIsInNk"
    "Ijp7InMiOlsxNTM2MCwxNTQyOCwxMTAzNiw1MTQ1XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRd"
    "LCJwIjoiY3IiLCJzZCI6eyJzIjpbMTU1MzEsMTQ0NzMsMTEzMzIsNTE0NV0sInUiOjE2fX1d"
    "fSwibiI6WyJ5IiwiY2IiLCJjciJdLCJ0IjoiSSIsInoiOlsyNDEsMjEsMTldfcIAiCdiVZuO"
    "SkX+XRZlR9ZHnEVXFDUyOhzqIELx7+428jxu3zUjVCtHuhl0uU4RnUzCBtAe5zr4z4BosMNE"
    "GPOOMBvUTe7gOnl1p8tHuoHWgZPFwnn5Z/eKibVcdFXMi7zx3pPV8H6O00Sf8249JiUdMVGi"
    "REiHCa+Ku+d0w6m6jVfOyXTYTkWFGQrWacWuR2fZKcbxadFtXj0681Da3xKWiixkhCFFHFUc"
    "hIc/18B5EoXqY1oahvNWlRiA+1l3QEJcyaKPb4SXwlZVpcQUrCbOKBvfpqreuYXGtubVjNxV"
    "9ZeVMkuqksjE2MOMkCR345QNg98U9CzOL5eHsxmwZDt9I8Q5ynjMF1PvRbsMfsN3WU4I+G5h"
    "tcmAEQEAAKyTs8L4AAAAeyJtIjp7ImFtIjoxNDM3NywiYXIiOjEzODA5LCJtbSI6eyJodyI6"
    "WzgsMiwzXSwicSI6MTg0MzIsInMiOls1MTQ1LDE1MzYwLDUxNDUsNTE0NSw1MTQ1LDUxNDUs"
    "NTE0NSw1MTQ1XSwidSI6Mn0sInJtIjp7Imh3IjpbOCwyLDNdLCJxIjoxODQzMiwicyI6WzE3"
    "NTc5LDE4MjE5LDE2NTU1LDE1MDE5LDE2MDQzLDE0MzM2LDE1MDE5LDE1MzYwXSwidSI6MTJ9"
    "fSwibiI6WyJtb3Rpb24iLCJyZXNpZHVhbCJdLCJ0IjoiUCIsInoiOlsyLDE5XX3chkxjo/tQ"
    "XYCzhuP5a9k19xYEhcgAAAAA"
)

#: sha256 (first 16 hex digits) of the decoded float64 frames; the two
#: backends code the same symbols, so they share a digest per codec.
V4_PER_CHUNK_FRAMES = {"classical": "164c2894ed9e734c", "ctvc": "0464ff9c44f370d9"}

V4_PER_CHUNK = {
    ("classical", "rans"): GOLDEN_CLASSICAL_V4_RANS,
    ("classical", "cacm"): GOLDEN_CLASSICAL_V4_CACM,
    ("ctvc", "rans"): GOLDEN_CTVC_V4_RANS,
    ("ctvc", "cacm"): GOLDEN_CTVC_V4_CACM,
}

PER_CHUNK_NAMES = {
    "classical": [["y", "cb", "cr"], ["mv", "y", "cb", "cr"]],
    "ctvc": [["y", "cb", "cr"], ["motion", "residual"]],
}


def _frames_digest(frames) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(frame.tobytes())
    return h.hexdigest()[:16]


def _v4_codec(kind: str, backend: str = "rans"):
    if kind == "classical":
        return ClassicalCodec(ClassicalCodecConfig(qp=12.0, entropy_backend=backend))
    return CTVCNet(CTVCConfig(channels=8, qstep=8.0, seed=5, entropy_backend=backend))


@pytest.mark.parametrize("kind,backend", sorted(V4_PER_CHUNK))
def test_v4_per_chunk_stream_decodes_to_pinned_frames(kind, backend):
    blob = base64.b64decode(V4_PER_CHUNK[(kind, backend)])
    stream = SequenceBitstream.parse(blob)
    assert stream.version == 4
    assert stream.header["entropy"] == backend
    assert [list(p.chunks) for p in stream.packets] == PER_CHUNK_NAMES[kind]
    assert stream.serialize() == blob
    # the header names the backend, whatever this codec is configured with
    decoded = _v4_codec(kind, "rans").decode_sequence(stream)
    assert _frames_digest(decoded) == V4_PER_CHUNK_FRAMES[kind]


@pytest.mark.parametrize("kind,backend", sorted(V4_PER_CHUNK))
def test_v4_per_chunk_stream_decodes_without_a_header(kind, backend):
    """Headerless sessions and direct decode calls read the packet
    layout from the packet itself.  Nothing names the substrate without
    a header: CTVC-Net packets written before the ``substrate`` field
    were coded in float64 and need a ``substrate="reference"`` config."""
    packets = SequenceBitstream.parse(
        base64.b64decode(V4_PER_CHUNK[(kind, backend)])
    ).packets
    codec = _v4_codec(kind, backend)
    if kind == "ctvc":
        codec = CTVCNet(codec.config.replace(substrate="reference"))
    headerless = list(codec.open_decoder(None).decode_iter(packets))
    intra = codec if kind == "classical" else codec.intra_codec
    first = intra.decode_intra(packets[0])
    direct = [first, codec.decode_inter(packets[1], first)]
    assert _frames_digest(headerless) == V4_PER_CHUNK_FRAMES[kind]
    assert _frames_digest(direct) == V4_PER_CHUNK_FRAMES[kind]


@pytest.mark.parametrize("backend", ["rans", "cacm"])
def test_headerless_float64_ctvc_packets_miss_under_the_default_substrate(backend):
    """The compatibility break of the ``fast`` default: a headerless
    session runs the configured substrate, so a default config decodes
    float64-coded packets in float32 and does not rebuild the encoder's
    reference frames.  With a header the tier comes from the stream."""
    blob = base64.b64decode(V4_PER_CHUNK[("ctvc", backend)])
    codec = _v4_codec("ctvc", backend)
    assert codec.config.substrate == "fast"
    headerless = list(
        codec.open_decoder(None).decode_iter(SequenceBitstream.parse(blob).packets)
    )
    assert _frames_digest(headerless) != V4_PER_CHUNK_FRAMES["ctvc"]
    decoded = codec.decode_sequence(SequenceBitstream.parse(blob))
    assert _frames_digest(decoded) == V4_PER_CHUNK_FRAMES["ctvc"]


# -- version-4 one-payload goldens --------------------------------------------
#
# Written by the one-payload encoder (every segment of a frame in one
# entropy payload, chunk ``"e"``), before classical planes coded band
# counts.  Same scene and codecs as the per-chunk goldens, CTVC-Net in
# the ``reference`` substrate; they decode to the same frames.

GOLDEN_CLASSICAL_ONE_PAYLOAD_RANS = (
    "TlZDQQQAcwAAAHsiaGVhZGVyIjp7ImNvZGVjIjoiY2xhc3NpY2FsLWRjdCIsImVudHJvcHki"
    "OiJyYW5zIiwiZ29wIjo4LCJoZWlnaHQiOjMyLCJxcCI6MTIuMCwicmF0ZV9jb250cm9sIjoi"
    "Y3FwIiwid2lkdGgiOjQ4fX2ywbI3qwIAAF95a5LyAAAAeyJtIjp7IlAiOlt7Imh3IjpbMzIs"
    "NDhdLCJwIjoieSIsInNkIjp7InMiOlsyMDEyMCwxNzU4MywxNTAzMCwxMTM1MV0sInUiOjY5"
    "fX0seyJodyI6WzE2LDI0XSwicCI6ImNiIiwic2QiOnsicyI6WzE1NTMxLDE1ODcyLDEyNTM4"
    "LDUxNDVdLCJ1IjoxNn19LHsiaHciOlsxNiwyNF0sInAiOiJjciIsInNkIjp7InMiOlsxNTg3"
    "MiwxNDk1MCwxMjM1Niw1MTQ1XSwidSI6MTZ9fV19LCJuIjpbImUiXSwidCI6IkkiLCJ6Ijpb"
    "NDM3XX0SogAAAKGvqM0CAG30ADwBAK93xAcLALY4JsUFADs7DYgCACKy37rnAPTpBqNIF9El"
    "RagoAGnUPxX9E0tj/5tJAPKmOVMAAC0vquemAeTIpNgCABXF/TABACFIDrkeAFgRwS8sAHPM"
    "SK2GAFAba+C6BxOHOIHVwz4kKLgVkCqtxdWeCwpZ2uHqvuuvz5jn0ujZXojSPSaZX+WJHtIY"
    "eBnoOvsuoqcWLhMBPlo8POxpsVtKvbc0viOyaguC8fucXQPxb9awLdmf7xTs7xWmLzY1nLHR"
    "l+Z3Z0wZY2HQPj/ThF5U3tQKIeFXP3ba6QEguC9nGBnI1j2kQ2eRgDeZEK0EfpoVleQ0Urgz"
    "VcCSANtCtrgzJco6pFWT8reenEd+BBkUXARxGui5JSyYHf9Bt/aQGxbqarprr4Ebkp8o1LEi"
    "wlqnx+DFAJ1BxTuksuUZzwizAOzYTOsO5+TSMEhAgqPc9kD3u3+4f3Z3AIhRM6Jex3too1nr"
    "eqkqQUzl3PI3WEWAynk+d4wQbZZIQEgAKRdvlp/en0JLM9mYCjTdVdV5/IQyi4N3sld2fHNA"
    "kEBNhMokjFzg+pQCAACCbq5mBwEAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6Inki"
    "LCJzZCI6eyJzIjpbMTYxMjgsMTU1MTQsMTQyOTAsMTE0MzFdLCJ1IjoxNn19LHsiaHciOlsx"
    "NiwyNF0sInAiOiJjYiIsInNkIjp7InMiOlsxNTAxOSwxMzM4MCwxMjcyMCw5MjAwXSwidSI6"
    "MTZ9fSx7Imh3IjpbMTYsMjRdLCJwIjoiY3IiLCJzZCI6eyJzIjpbMTM2NTMsMTMxNzUsMTIy"
    "NDIsNzE1Ml0sInUiOjE2fX1dLCJocCI6MCwibXZzIjpbMiw0LDZdfSwibiI6WyJlIl0sInQi"
    "OiJQIiwieiI6WzM5M119EowAAAAwJbeiAAD7JFWOggRYJGScAADoIi21AQD9o3G5AABX40Eo"
    "AQDKowYcDAquoo4gCgHxHjUxBABP4MGEBgB84zYSBABE5S3jrwDInFs1AgCnZHpnBgDnXu+N"
    "CRtR4VMrIgB5JTJLkgHOICDkdwJyYcGhPmX4op1i2ySTosKiKWJkrPI0EqzzL2Jxn9cxlPef"
    "fE7j0S3sbGIvlDn0VMSfQ7PAi4EagKekl25BDVuvBUX8Tc5QfvApmk+Xtx159ryS1q2AymsO"
    "KZxLuOHF2oQDX854V1Z/jAUk34HTTlaqL0Guc0amlvd1SKCitB4tuvqT1xh0E9HyA/U4kI0v"
    "jK4U1KFmfXmjhh80VwA/M3L0ZvFTeJCL0UOjau1wE46zsehJc7kYinPDd1ff2hC1JhYP6imF"
    "XQvpv7BowW3uP0UPlJD9UsgzpsLzfruCM405E50CgNj6gfB/w39qd+S+neTjWTRxbutqPPC2"
    "tOclXRtSU0bySx+7AKa+J0iMaBMZDU+7gFPcDjNrAAAAAA=="
)
GOLDEN_CLASSICAL_ONE_PAYLOAD_CACM = (
    "TlZDQQQAcwAAAHsiaGVhZGVyIjp7ImNvZGVjIjoiY2xhc3NpY2FsLWRjdCIsImVudHJvcHki"
    "OiJjYWNtIiwiZ29wIjo4LCJoZWlnaHQiOjMyLCJxcCI6MTIuMCwicmF0ZV9jb250cm9sIjoi"
    "Y3FwIiwid2lkdGgiOjQ4fX13QhCzSQIAAJz+uBzyAAAAeyJtIjp7IlAiOlt7Imh3IjpbMzIs"
    "NDhdLCJwIjoieSIsInNkIjp7InMiOlsyMDEyMCwxNzU4MywxNTAzMCwxMTM1MV0sInUiOjY5"
    "fX0seyJodyI6WzE2LDI0XSwicCI6ImNiIiwic2QiOnsicyI6WzE1NTMxLDE1ODcyLDEyNTM4"
    "LDUxNDVdLCJ1IjoxNn19LHsiaHciOlsxNiwyNF0sInAiOiJjciIsInNkIjp7InMiOlsxNTg3"
    "MiwxNDk1MCwxMjM1Niw1MTQ1XSwidSI6MTZ9fV19LCJuIjpbImUiXSwidCI6IkkiLCJ6Ijpb"
    "MzM5XX3AGtQ79fMrPbS+B0SRstBjvcDKrwMB6VtDvZABuLBf+S0L8LA6fMbEocMdjoUoXl0s"
    "wHN89ii0iQYdzvvEewJZvEXD13sWL/v/ci7gIYPZ+pP0VVGeBUemcpax/FN31PcCEv+smV78"
    "jQfeKdLLr/NYuhcswwBDlfYijjlEni/QEpRnoQeHE5hd/fMj4qgv43B1pzUrJAx19zEtLj+f"
    "Gt2VLe0w4NSh3XqTrQIZmSlzq4X7PiEjBWSWBFg0f9Ykh2Ys6JjdVS1bzcR/o+PoZuGdE6cR"
    "qnGWmjkJCFtIRRQIcfJja5lD84+NzrPEoeLdxvztdRp1qhr1/xvBxcsniQrhs3qrUOj7nrun"
    "VVG2GXuBlkfhCjZU/2RuxH9pWwiYEfSvbk6t/ITVaCLu9kPMoWr/tOlBUKifx8WvLqyFtdlU"
    "jCUh5zIdD+F1UuSIaGbAX9cazfgyAgAAIBmEigcBAAB7Im0iOnsiUCI6W3siaHciOlszMiw0"
    "OF0sInAiOiJ5Iiwic2QiOnsicyI6WzE2MTI4LDE1NTE0LDE0MjkwLDExNDMxXSwidSI6MTZ9"
    "fSx7Imh3IjpbMTYsMjRdLCJwIjoiY2IiLCJzZCI6eyJzIjpbMTUwMTksMTMzODAsMTI3MjAs"
    "OTIwMF0sInUiOjE2fX0seyJodyI6WzE2LDI0XSwicCI6ImNyIiwic2QiOnsicyI6WzEzNjUz"
    "LDEzMTc1LDEyMjQyLDcxNTJdLCJ1IjoxNn19XSwiaHAiOjAsIm12cyI6WzIsNCw2XX0sIm4i"
    "OlsiZSJdLCJ0IjoiUCIsInoiOlsyOTVdfY////9eBtxrJsaRVqVNUIBQ9QrW0qIn75abNk26"
    "8fvpkMlsYeleLqlC+yuQi/yMkpm6CV4VgRNmvBYw1rv/MRoWeTXAJY/drIUSeOYXv1iM1hk5"
    "UyJe3sX6QMEt/p9AwLZNPJhY5rlBxqG0GW80+z4bEHZbhx0eqs6cymKzm/9Z+QizxjN8ohoq"
    "YvSOJ2sde7K/SnprKIvTOQxMYeu2psoI1uoU5+VODB8DvG0GSbLDRlbsqPFDEOpCG3flVLVl"
    "YuVfmjrtAjEOaD4FeiG6Hnk9VBClimO0Msg/iRk2dIvY1PXvErACP/UzQaddGxFxNoFMtBYR"
    "pPxPWW10mdFP8HHJl4A8SiIYhQRWZ/SZ2Jhv612eCbtHfyYb2Xd6GnJuGfPD4/Mj4v8AAAAA"
)
GOLDEN_CTVC_ONE_PAYLOAD_RANS = (
    "TlZDQQQAjAAAAHsiaGVhZGVyIjp7ImNoYW5uZWxzIjo4LCJjb2RlYyI6ImN0dmMtbmV0Iiwi"
    "ZW50cm9weSI6InJhbnMiLCJnb3AiOjgsImhlaWdodCI6MzIsInFzdGVwIjo4LjAsInJhdGVf"
    "Y29udHJvbCI6ImNxcCIsInZhcmlhbnQiOiJmcCIsIndpZHRoIjo0OH19AR2ZNm0CAADvW8MA"
    "8gAAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpbMTk2OTYs"
    "MTcxODYsMTQ1MTgsMTA1MThdLCJ1Ijo1Mn19LHsiaHciOlsxNiwyNF0sInAiOiJjYiIsInNk"
    "Ijp7InMiOlsxNTM2MCwxNTQyOCwxMTAzNiw1MTQ1XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRd"
    "LCJwIjoiY3IiLCJzZCI6eyJzIjpbMTU1MzEsMTQ0NzMsMTEzMzIsNTE0NV0sInUiOjE2fX1d"
    "fSwibiI6WyJlIl0sInQiOiJJIiwieiI6WzM3NV19EoMAAAAEMNBBSAahtL8p8RLod6vACACC"
    "eJaMAAByu0cBIQIPcuETAQCBavwnzQNrJP73Zgr5k2P7AgClIzvTPwh55r9OAAACb0VhrQoG"
    "SfRFAADKRNX/nQIBiEQPagAMEbWLEgBrzEAPCAA7mxnYCgDWA9Ckd2+qpVrQx2cV5sh+5g59"
    "Pw6hkRwrNZCcuv2D5discahmWW7prmW6/TApcM4R/BpN27BcC5G7Dz1bS2WsxOtAWcktp0Dp"
    "AjrwNGPVb/Nc8aq8vly5GDsL3k/NRjGFIC+ddigaGC6UNsB65FVLl6VXAIZzX9IOwf495nt7"
    "YM32f6uxeud1Q3+xBi+4ZBRC3hLwREI4CtWtyxqHyb3IRz5mR7RalM68C8/zhEYInlCZwqOv"
    "T4xuGHybqIneqGAodo9oKzmXl0USDyFmhhdiYRkEq+QH+5u/cTMAbK4nHxWMBZh4/hd8/Bl/"
    "MnPW5Dj3nEC/oHzHrtb9CMI/QJL/X71/gVlpCQEAAP8WbGbmAAAAeyJtIjp7ImFtIjoxNDM3"
    "NywiYXIiOjEzODA5LCJtbSI6eyJodyI6WzgsMiwzXSwicSI6MTg0MzIsInMiOls1MTQ1LDE1"
    "MzYwLDUxNDUsNTE0NSw1MTQ1LDUxNDUsNTE0NSw1MTQ1XSwidSI6Mn0sInJtIjp7Imh3Ijpb"
    "OCwyLDNdLCJxIjoxODQzMiwicyI6WzE3NTc5LDE4MjE5LDE2NTU1LDE1MDE5LDE2MDQzLDE0"
    "MzM2LDE1MDE5LDE1MzYwXSwidSI6MTJ9fSwibiI6WyJlIl0sInQiOiJQIiwieiI6WzMxXX0B"
    "CgAAABKgrpkDADHxyQStZfWNF840znU9U7jGkA8UAAAAAA=="
)
GOLDEN_CTVC_ONE_PAYLOAD_CACM = (
    "TlZDQQQAjAAAAHsiaGVhZGVyIjp7ImNoYW5uZWxzIjo4LCJjb2RlYyI6ImN0dmMtbmV0Iiwi"
    "ZW50cm9weSI6ImNhY20iLCJnb3AiOjgsImhlaWdodCI6MzIsInFzdGVwIjo4LjAsInJhdGVf"
    "Y29udHJvbCI6ImNxcCIsInZhcmlhbnQiOiJmcCIsIndpZHRoIjo0OH192hnTpA4CAAD8JbGP"
    "8gAAAHsibSI6eyJQIjpbeyJodyI6WzMyLDQ4XSwicCI6InkiLCJzZCI6eyJzIjpbMTk2OTYs"
    "MTcxODYsMTQ1MTgsMTA1MThdLCJ1Ijo1Mn19LHsiaHciOlsxNiwyNF0sInAiOiJjYiIsInNk"
    "Ijp7InMiOlsxNTM2MCwxNTQyOCwxMTAzNiw1MTQ1XSwidSI6MTZ9fSx7Imh3IjpbMTYsMjRd"
    "LCJwIjoiY3IiLCJzZCI6eyJzIjpbMTU1MzEsMTQ0NzMsMTEzMzIsNTE0NV0sInUiOjE2fX1d"
    "fSwibiI6WyJlIl0sInQiOiJJIiwieiI6WzI4MF19wgCIJ2JVm45KRf5dFmVH1kecRVcUNTI6"
    "HOogQvHv7jbyPG7fNSNUK0e6GXS5ThGdTMIG0B7nOvjPgGiww0QY844wG9RN7uA6eXWny0e6"
    "gdaBk8XCefln94qJtVx0VcyLvPHek9Xwfo7TRJ/zbj0mJR0xUaJESIcJr4q753TDqbqNV87J"
    "dNhORYUZCtZpxa5HZ9kpxvFp0W1ePTrzUNrfEpaKLGSEIUUcVRyEhz/XwHkShepjWhqG81aV"
    "GID7WXdAQlzJoo9vhJfCVlWlxBSsJs4oG9+mqt65hca25tWM3FX1l5UyS6qSyMTYw4yQJHfj"
    "k8cv3NA+dvtZr3q7/hdQqtoekpVMyyu79iWuAWhMehts7LCas226sP8AAADjto7P5gAAAHsi"
    "bSI6eyJhbSI6MTQzNzcsImFyIjoxMzgwOSwibW0iOnsiaHciOls4LDIsM10sInEiOjE4NDMy"
    "LCJzIjpbNTE0NSwxNTM2MCw1MTQ1LDUxNDUsNTE0NSw1MTQ1LDUxNDUsNTE0NV0sInUiOjJ9"
    "LCJybSI6eyJodyI6WzgsMiwzXSwicSI6MTg0MzIsInMiOlsxNzU3OSwxODIxOSwxNjU1NSwx"
    "NTAxOSwxNjA0MywxNDMzNiwxNTAxOSwxNTM2MF0sInUiOjEyfX0sIm4iOlsiZSJdLCJ0Ijoi"
    "UCIsInoiOlsyMV193IXdRIP3Yp11m5JqesiHNqwDoi9AAAAAAA=="
)

ONE_PAYLOAD = {
    ("classical", "rans"): GOLDEN_CLASSICAL_ONE_PAYLOAD_RANS,
    ("classical", "cacm"): GOLDEN_CLASSICAL_ONE_PAYLOAD_CACM,
    ("ctvc", "rans"): GOLDEN_CTVC_ONE_PAYLOAD_RANS,
    ("ctvc", "cacm"): GOLDEN_CTVC_ONE_PAYLOAD_CACM,
}


@pytest.mark.parametrize("kind,backend", sorted(ONE_PAYLOAD))
def test_one_payload_stream_decodes_to_pinned_frames(kind, backend):
    blob = base64.b64decode(ONE_PAYLOAD[(kind, backend)])
    stream = SequenceBitstream.parse(blob)
    assert stream.version == 4
    assert stream.header["entropy"] == backend
    assert [list(p.chunks) for p in stream.packets] == [["e"], ["e"]]
    assert stream.serialize() == blob
    decoded = _v4_codec(kind, "rans").decode_sequence(stream)
    assert _frames_digest(decoded) == V4_PER_CHUNK_FRAMES[kind]
    codec = _v4_codec(kind, backend)
    if kind == "ctvc":
        codec = CTVCNet(codec.config.replace(substrate="reference"))
    intra = codec if kind == "classical" else codec.intra_codec
    first = intra.decode_intra(stream.packets[0])
    direct = [first, codec.decode_inter(stream.packets[1], first)]
    assert _frames_digest(direct) == V4_PER_CHUNK_FRAMES[kind]


# -- the layouts every encoder writes ------------------------------------------


def _count_calls(monkeypatch, backend, name) -> list:
    calls = []
    real = getattr(backend, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(backend, name, counted)
    return calls


#: chunks of a new 3-frame GOP (I P P): band-count packets for every
#: classical frame and CTVC-Net's I-frame, one payload per CTVC-Net
#: P-frame.
NEW_LAYOUT = {
    "classical": [["h", "b"], ["h", "b"], ["h", "b"]],
    "ctvc": [["h", "b"], ["e"], ["e"]],
}


@pytest.mark.parametrize("kind", ["classical", "ctvc"])
@pytest.mark.parametrize("backend", ["rans", "cacm"])
def test_every_packet_carries_the_payloads_of_its_layout(monkeypatch, kind, backend):
    """One ``encode_segments`` call per chunk on the way in, one
    ``decode_segments`` call per chunk on the way out."""
    from repro.codec import get_entropy_backend
    from repro.codec.classical import BAND_COUNT_PAYLOADS, PACKET_PAYLOAD

    assert NEW_LAYOUT["ctvc"][1:] == [[PACKET_PAYLOAD]] * 2
    assert NEW_LAYOUT["classical"][0] == list(BAND_COUNT_PAYLOADS)
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=3, seed=11))
    codec = _v4_codec(kind, backend)
    entropy = get_entropy_backend(backend)
    chunks = sum(len(names) for names in NEW_LAYOUT[kind])
    encodes = _count_calls(monkeypatch, entropy, "encode_segments")
    stream = codec.encode_sequence(frames)
    assert len(encodes) == chunks
    assert [list(p.chunks) for p in stream.packets] == NEW_LAYOUT[kind]
    decodes = _count_calls(monkeypatch, entropy, "decode_segments")
    assert len(codec.decode_sequence(stream)) == 3
    assert len(decodes) == chunks


@pytest.mark.parametrize("rate_control", [None, "cqp"])
@pytest.mark.parametrize("kind,backend", sorted(ONE_PAYLOAD))
def test_new_streams_decode_to_the_golden_frames(kind, backend, rate_control):
    """Band counts change where coefficients are coded, not which: a
    stream written today decodes to the frames the golden streams of
    the older layouts decode to, byte for byte."""
    frames = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=11))
    codec = _v4_codec(kind, backend)
    codec = type(codec)(
        codec.config.replace(rate_control=rate_control)
        if kind == "classical"
        else codec.config.replace(rate_control=rate_control, substrate="reference")
    )
    stream = SequenceBitstream.parse(codec.encode_sequence(frames).serialize())
    assert [list(p.chunks) for p in stream.packets] == NEW_LAYOUT[kind][:2]
    decoded = _v4_codec(kind, "rans").decode_sequence(stream)
    assert _frames_digest(decoded) == V4_PER_CHUNK_FRAMES[kind]


@pytest.mark.parametrize("kind", ["classical", "ctvc"])
@pytest.mark.parametrize(
    "chunks",
    [
        {"e": b"", "y": b""},  # both layouts at once
        {"y": b"", "cb": b""},  # a per-chunk packet short of a group
        {"E": b""},
        {},
    ],
    ids=["mixed", "missing-group", "unknown", "none"],
)
def test_packet_chunks_outside_both_layouts_raise(kind, chunks):
    from repro.codec import StreamCorruptionError

    frames = generate_sequence(SceneConfig(height=32, width=48, frames=2, seed=11))
    codec = _v4_codec(kind)
    stream = codec.encode_sequence(frames)
    first = stream.packets[0]
    for packet in stream.packets:
        packet.chunks = dict(chunks)
    with pytest.raises(StreamCorruptionError, match="packet chunks"):
        intra = codec if kind == "classical" else codec.intra_codec
        intra.decode_intra(first)
    reference = frames[0]
    with pytest.raises(StreamCorruptionError, match="packet chunks"):
        codec.decode_inter(stream.packets[1], reference)
