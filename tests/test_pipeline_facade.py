"""Pipeline facade: numerical parity with the pre-redesign CLI path,
report serialization, and inline batch execution.
"""

import numpy as np
import pytest

from repro.codec import (
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCConfig,
    CTVCNet,
    SequenceBitstream,
)
from repro.metrics import psnr
from repro.pipeline import EncodeReport, Pipeline, analyze_hardware, run_many
from repro.video import SceneConfig, generate_sequence

SCENE = {"height": 48, "width": 64, "frames": 2}


def legacy_encode(codec_name: str, height: int, width: int, frames: int):
    """The pre-facade ``python -m repro encode`` computation, verbatim."""
    clip = generate_sequence(SceneConfig(height=height, width=width, frames=frames))
    if codec_name == "ctvc":
        net = CTVCNet(CTVCConfig(channels=8, qstep=8.0))
        stream = net.encode_sequence(clip)
        decoded = net.decode_sequence(SequenceBitstream.parse(stream.serialize()))
    else:
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0))
        stream = codec.encode_sequence(clip)
        decoded = codec.decode_sequence(SequenceBitstream.parse(stream.serialize()))
    bpp = stream.bits_per_pixel(height, width)
    quality = float(np.mean([psnr(a, b) for a, b in zip(clip, decoded)]))
    return bpp, quality


class TestParity:
    @pytest.mark.parametrize("codec", ["ctvc", "classical"])
    def test_run_matches_legacy_cli(self, codec):
        config = {"channels": 8, "qstep": 8.0} if codec == "ctvc" else {"qp": 8.0}
        report = Pipeline(codec, config, scene=SCENE).run()
        legacy_bpp, legacy_psnr = legacy_encode(codec, **SCENE)
        assert report.bpp == pytest.approx(legacy_bpp, abs=1e-6)
        assert report.mean_psnr == pytest.approx(legacy_psnr, abs=1e-6)

    def test_report_shape(self):
        report = Pipeline("ctvc", {"channels": 8}, scene=SCENE).run()
        assert report.codec == "ctvc"
        assert report.frames == SCENE["frames"]
        assert (report.height, report.width) == (SCENE["height"], SCENE["width"])
        assert len(report.psnr_per_frame) == SCENE["frames"]
        assert report.stream_bytes > 0
        assert report.encode_seconds > 0 and report.decode_seconds > 0

    def test_msssim_optional(self):
        report = Pipeline(
            "classical", scene=SCENE, compute_msssim=True
        ).run()
        assert 0.0 < report.mean_msssim <= 1.0
        assert len(report.msssim_per_frame) == SCENE["frames"]


class TestSerialization:
    def test_pipeline_spec_round_trip(self):
        pipe = Pipeline("classical", {"qp": 16.0}, scene=SCENE, compute_msssim=True)
        assert Pipeline.from_dict(pipe.to_dict()).to_dict() == pipe.to_dict()

    def test_report_dict_round_trip(self):
        report = Pipeline("classical", scene=SCENE).run()
        restored = EncodeReport.from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()
        assert restored.render() == report.render()

    def test_render_is_legacy_format(self):
        report = Pipeline("classical", scene=SCENE).run()
        assert report.render() == (
            f"classical: 2 frames @ 64x48, {report.bpp:.3f} bpp, "
            f"{report.mean_psnr:.2f} dB PSNR"
        )

    def test_unknown_spec_field(self):
        with pytest.raises(Exception, match="unknown field"):
            Pipeline.from_dict({"codex": "ctvc"})


class TestSession:
    def test_intermediates_exposed(self):
        session = Pipeline("classical", scene=SCENE).session()
        session.encode()
        assert isinstance(session.stream, SequenceBitstream)
        assert isinstance(session.payload, bytes)
        report = session.report()  # triggers decode lazily
        assert len(session.decoded) == SCENE["frames"]
        assert report.stream_bytes == len(session.payload)


class TestRunMany:
    def test_grid_2x2(self):
        reports = run_many(
            codecs=["ctvc", "classical"],
            codec_configs=[{"gop": 8}, {"gop": 4}],
            scenes=[SCENE],
        )
        assert len(reports) == 4
        assert [r.codec for r in reports] == [
            "ctvc", "ctvc", "classical", "classical",
        ]
        assert all(isinstance(r, EncodeReport) for r in reports)

    def test_explicit_jobs(self):
        jobs = [
            Pipeline("classical", {"qp": q}, scene=SCENE) for q in (8.0, 32.0)
        ]
        reports = run_many(jobs)
        assert reports[0].bpp > reports[1].bpp  # finer QP spends more bits

    def test_jobs_or_grid_required(self):
        with pytest.raises(ValueError, match="jobs=.*or a codecs"):
            run_many()

    def test_grid_spans_heterogeneous_configs(self):
        # qstep only exists on CTVC, qp only on classical: keys a codec's
        # config class lacks are skipped, the rest applied.
        reports = run_many(
            codecs=["ctvc", "classical"],
            codec_configs=[{"qstep": 32.0, "qp": 32.0, "channels": 8}],
            scenes=[SCENE],
        )
        assert reports[0].codec_config["qstep"] == 32.0
        assert "qp" not in reports[0].codec_config
        assert reports[1].codec_config["qp"] == 32.0
        assert "qstep" not in reports[1].codec_config

    def test_explicit_jobs_reject_compute_msssim(self):
        jobs = [Pipeline("classical", scene=SCENE)]
        with pytest.raises(ValueError, match="set it on each Pipeline"):
            run_many(jobs, compute_msssim=True)


class TestHardware:
    def test_analyze_hardware_report(self):
        report = analyze_hardware(288, 512)
        assert report.fps > 0
        assert 0.0 < report.traffic_reduction < 1.0
        assert report.total_mgates > 0
        data = report.to_dict()
        assert data["per_module_cycles"]
        assert "FPS" in report.render() or "fps" in report.render().lower()

    def test_pipeline_attaches_hardware(self):
        report = Pipeline("ctvc", {"channels": 8}, scene=SCENE, hardware=True).run()
        assert report.hardware is not None
        assert report.hardware.height == SCENE["height"]
        restored = EncodeReport.from_dict(report.to_dict())
        assert restored.hardware.to_dict() == report.hardware.to_dict()
