"""The facade's one encode loop and one decode loop.

Every mode writes the packets the batch API writes, times the codec and
the container only, reports per-frame progress, and refuses an empty
container with a typed error.
"""

import json
import time

import numpy as np
import pytest

import repro.pipeline.facade as facade
from repro.__main__ import main
from repro.codec import StreamWriter
from repro.pipeline import Pipeline, create_codec
from repro.video import SceneConfig, generate_sequence

SCENE = {"height": 32, "width": 48, "frames": 3}


def _codec(variant):
    if variant == "classical":
        return create_codec("classical", qp=12.0)
    net = create_codec("ctvc", channels=8, seed=1)
    if variant == "fxp":
        net.apply_fxp()
    elif variant == "sparse":
        net.apply_sparse(rho=0.5)
    return net


@pytest.mark.parametrize("variant", ["classical", "fp", "fxp", "sparse"])
def test_in_memory_container_is_the_batch_bytes(variant):
    scene = SceneConfig(height=64, width=96, frames=3)
    frames = generate_sequence(scene)
    codec = _codec(variant)
    stream = codec.encode_sequence(frames)
    name = "classical" if variant == "classical" else "ctvc"
    session = Pipeline(name, codec.config, scene).session()
    session.codec, session.frames = _codec(variant), frames
    report = session.run()
    assert session.payload == stream.serialize()
    assert report.frame_bits == [8 * len(p.serialize()) for p in stream.packets]
    # decoding the parsed bytes equals decoding the in-memory packets
    expected = codec.decode_sequence(stream)
    assert len(session.decoded) == len(expected)
    for got, want in zip(session.decoded, expected):
        np.testing.assert_array_equal(got, want)


class TestTimingRule:
    """Scene synthesis and quality scoring stay out of the codec
    timings, whichever sink the round trip uses."""

    DELAY = 0.2
    SCENE = {"height": 16, "width": 32, "frames": 3}

    @pytest.fixture(autouse=True)
    def slow_source_and_scoring(self, monkeypatch):
        real_iter, real_psnr = facade.iter_sequence, facade.psnr

        def slow(frames):
            for frame in frames:
                time.sleep(self.DELAY)
                yield frame

        def slow_psnr(a, b):
            time.sleep(self.DELAY)
            return real_psnr(a, b)

        monkeypatch.setattr(facade, "iter_sequence", lambda c: slow(real_iter(c)))
        monkeypatch.setattr(
            facade, "generate_sequence", lambda c: list(slow(real_iter(c)))
        )
        monkeypatch.setattr(facade, "psnr", slow_psnr)

    @pytest.mark.parametrize("mode", ["memory", "file"])
    def test_seconds_time_codec_and_container_only(self, mode, tmp_path):
        session = Pipeline("classical", {"qp": 16.0}, scene=self.SCENE).session()
        output = str(tmp_path / "clip.nvca") if mode == "file" else None
        report = session.run(output=output)
        bound = self.SCENE["frames"] * self.DELAY
        assert report.encode_seconds < bound
        assert report.decode_seconds < bound


def _header_only_container(path) -> None:
    session = Pipeline("classical", scene=SCENE).session()
    session.encode()
    with open(path, "wb") as handle:
        StreamWriter(handle, session.stream.header).finalize()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_facade_refuses_an_empty_container(tmp_path):
    path = tmp_path / "empty.nvca"
    _header_only_container(path)
    session = Pipeline("classical", scene=SCENE).session()
    with pytest.raises(ValueError, match="container holds no frames"):
        session.decode(source=str(path))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_decode_reports_no_bpp_for_an_empty_container(tmp_path, capsys):
    path = tmp_path / "empty.nvca"
    _header_only_container(path)
    assert main(["decode", str(path), "--codec", "classical", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frames"] == 0
    assert report["bpp"] is None and report["mean_psnr"] is None
    assert main(["decode", str(path), "--codec", "classical"]) == 0
    assert "0 frames" in capsys.readouterr().out


def test_cli_encode_progress_without_stream(capsys):
    assert main([
        "encode", "--codec", "classical", "--qp", "16", "--height", "16",
        "--width", "32", "--frames", "2", "--progress",
    ]) == 0
    err = capsys.readouterr().err
    assert "frame 1:" in err and "frame 2:" in err



def test_cli_decode_error_leaves_no_output(tmp_path):
    bad, out = tmp_path / "bad.nvca", tmp_path / "out.yuv"
    bad.write_bytes(b"not a bitstream")
    assert main(["decode", str(bad), "-o", str(out)]) == 1
    assert not out.exists()
