"""ABR ladder builds: spec validation, the ladder-rendition task kind,
fleet execution parity across backends, the ±10% calibrated-accuracy
acceptance pin, and the CLI."""

import json

import pytest

from repro.pipeline import (
    LadderReport,
    LadderRunner,
    LadderSpec,
    Rendition,
    RenditionReport,
    hydrate_result,
    normalize_spec,
    run_many,
    run_task,
)
from repro.serialization import ConfigError

RD_CFG = {"method": "h265", "dataset": "uvg"}


def _acceptance_spec(**overrides):
    # 2 resolutions x 3 in-curve-range bitrates: h265/uvg spans
    # 0.05-0.45 bpp, i.e. 9.2-82.9 kbps at 96x64 and 2.3-20.7 kbps at
    # 48x32 at 30 fps — every target below is invertible, not clamped.
    renditions = [
        Rendition(height=64, width=96, target_kbps=k) for k in (15, 30, 60)
    ] + [
        Rendition(height=32, width=48, target_kbps=k) for k in (4, 8, 16)
    ]
    options = dict(
        codec="rd-model",
        codec_config=dict(RD_CFG),
        scene={"frames": 2},
        rate_control="calibrated",
    )
    options.update(overrides)
    return LadderSpec(renditions, **options)


class TestRendition:
    def test_derived_label(self):
        assert Rendition(height=64, width=96, target_kbps=30.0).name == (
            "96x64@30k"
        )
        assert Rendition(label="hd").name == "hd"

    def test_validation(self):
        with pytest.raises(ValueError, match="height"):
            Rendition(height=0)
        with pytest.raises(ValueError, match="width"):
            Rendition(width=-4)
        with pytest.raises(ValueError, match="target_kbps"):
            Rendition(target_kbps=0.0)

    def test_round_trip(self):
        r = Rendition(height=32, width=48, target_kbps=8.0)
        assert Rendition.from_dict(r.to_dict()) == r


class TestLadderSpec:
    def test_grid_expands_cross_product(self):
        spec = LadderSpec.grid(
            resolutions=[(64, 96), (32, 48)],
            bitrates_kbps=[15.0, 30.0, 60.0],
            codec="rd-model",
            codec_config=dict(RD_CFG),
        )
        assert len(spec.renditions) == 6
        assert spec.renditions[0].name == "96x64@15k"

    def test_rendition_specs_merge_rate_and_geometry(self):
        spec = _acceptance_spec()
        jobs = spec.rendition_specs()
        assert len(jobs) == 6
        first = jobs[0]
        assert first["kind"] == "ladder-rendition"
        assert first["codec_config"]["rate_control"] == "calibrated"
        assert first["codec_config"]["target_kbps"] == 15.0
        assert first["scene"]["height"] == 64
        assert first["scene"]["width"] == 96
        # the base scene's non-geometry fields survive per rung
        assert first["scene"]["frames"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown codec"):
            _acceptance_spec(codec="h264")
        with pytest.raises(ValueError, match="unknown rate controller"):
            _acceptance_spec(rate_control="vbv")
        with pytest.raises(ValueError, match="at least one"):
            LadderSpec([], codec="rd-model")
        with pytest.raises(ValueError, match="duplicate"):
            LadderSpec([Rendition(), Rendition()])
        with pytest.raises(ValueError, match="fps"):
            _acceptance_spec(fps=0.0)
        with pytest.raises(TypeError, match="Rendition or dict"):
            LadderSpec(["48x32:8"])

    def test_round_trip(self):
        spec = _acceptance_spec()
        clone = LadderSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknowns(self):
        with pytest.raises(ConfigError, match="rungs"):
            LadderSpec.from_dict({"renditions": [{}], "rungs": 3})
        with pytest.raises(ConfigError, match="renditions"):
            LadderSpec.from_dict({"codec": "rd-model"})


class TestLadderRenditionTask:
    def test_normalize_execute_hydrate(self):
        spec = normalize_spec(_acceptance_spec().rendition_specs()[0])
        assert spec["kind"] == "ladder-rendition"
        report = hydrate_result(spec, run_task(spec))
        assert isinstance(report, RenditionReport)
        assert report.label == "96x64@15k"
        assert report.target_kbps == 15.0
        assert report.overshoot_pct == pytest.approx(0.0, abs=2.0)
        assert report.encode.codec == "rd-model"

    def test_missing_rendition_rejected(self):
        job = _acceptance_spec().rendition_specs()[0]
        job.pop("rendition")
        with pytest.raises(ConfigError, match="rendition"):
            normalize_spec(job)

    def test_geometry_mismatch_rejected(self):
        job = _acceptance_spec().rendition_specs()[0]
        job["scene"]["height"] = 128
        with pytest.raises(ConfigError, match="rendition says"):
            normalize_spec(job)

    def test_target_mismatch_rejected(self):
        job = _acceptance_spec().rendition_specs()[0]
        job["codec_config"]["target_kbps"] = 99.0
        with pytest.raises(ConfigError, match="target_kbps"):
            normalize_spec(job)

    def test_unknown_field_rejected(self):
        job = _acceptance_spec().rendition_specs()[0]
        job["bitrate"] = 100
        with pytest.raises(ConfigError, match="bitrate"):
            normalize_spec(job)

    def test_run_many_accepts_ladder_jobs(self):
        reports = run_many(_acceptance_spec().rendition_specs()[:2])
        assert [type(r) for r in reports] == [RenditionReport] * 2


class TestBudgetViolations:
    def _result(self, frame_bits):
        rendition = Rendition(height=32, width=48, target_kbps=3.0)
        return {
            "rendition": rendition.to_dict(),
            "encode": {
                "codec": "classical",
                "codec_config": {"fps": 30.0},
                "scene": {},
                "frames": len(frame_bits),
                "height": 32,
                "width": 48,
                "stream_bytes": sum(frame_bits) // 8,
                "bpp": 1.0,
                "psnr_per_frame": [30.0] * len(frame_bits),
                "mean_psnr": 30.0,
                "frame_bits": frame_bits,
                "achieved_kbps": sum(frame_bits)
                * 30.0
                / (len(frame_bits) * 1000.0),
            },
        }

    def test_counts_cumulative_overshoot_frames(self):
        # allowance is 100 bits/frame; 20% slack makes the threshold a
        # cumulative 120*n bits after n frames
        report = RenditionReport.from_result(
            self._result([500, 100, 100, 100])
        )
        # cumulative 500, 600, 700, 800 vs thresholds 120, 240, 360, 480
        assert report.budget_violations == 4

    def test_within_budget_has_no_violations(self):
        report = RenditionReport.from_result(self._result([100, 100, 100]))
        assert report.budget_violations == 0
        assert report.overshoot_pct == pytest.approx(0.0)


class TestLadderRunner:
    def test_acceptance_six_rungs_within_ten_percent(self, tmp_path):
        """The PR's acceptance pin: a 2-resolution x 3-bitrate ladder
        through the queue backend lands every rendition within ±10% of
        its target under the calibrated controller."""
        runner = LadderRunner(
            _acceptance_spec(), queue_dir=tmp_path / "q", workers=2
        )
        report = runner.run()
        assert report.ok
        assert len(report.renditions) == 6
        assert report.max_abs_overshoot_pct() <= 10.0
        for rendition in report.renditions:
            assert abs(rendition.overshoot_pct) <= 10.0

    def test_serial_matches_sharded_and_directory_queue(self, tmp_path):
        spec = _acceptance_spec()
        serial = LadderRunner(spec, workers=0).run()
        in_process = LadderRunner(spec, workers=3).run()
        directory = LadderRunner(
            spec, queue_dir=tmp_path / "q", workers=2
        ).run()
        baseline = json.dumps(serial.table(), sort_keys=True)
        assert json.dumps(in_process.table(), sort_keys=True) == baseline
        assert json.dumps(directory.table(), sort_keys=True) == baseline
        # the reported count is worker processes: a memory queue has none
        assert serial.workers == in_process.workers == 0
        assert directory.workers == 2

    def test_dict_spec_and_report_round_trip(self):
        report = LadderRunner(_acceptance_spec().to_dict(), workers=0).run()
        payload = report.to_dict()
        assert payload["completed"] == 6
        assert len(payload["table"]) == 6
        assert payload["table"][0]["label"] == "96x64@15k"
        rendered = report.render()
        assert "96x64@15k" in rendered and "overshoot" in rendered

    def test_real_codec_ladder_round_trips(self):
        spec = LadderSpec(
            [Rendition(height=32, width=48, target_kbps=120.0)],
            codec="classical",
            codec_config={"qp": 8.0},
            scene={"frames": 3},
            rate_control="abr",
        )
        report = LadderRunner(spec, workers=0).run()
        assert report.ok
        (rung,) = report.renditions
        assert rung.achieved_kbps is not None
        assert rung.mean_psnr > 20.0

    def test_rejects_wrong_spec_type(self):
        with pytest.raises(TypeError, match="LadderSpec"):
            LadderRunner([Rendition()])


class TestLadderCLI:
    def _run(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_json_ladder(self, capsys):
        code, out = self._run(
            [
                "ladder",
                "--codec", "rd-model",
                "--config", json.dumps(RD_CFG),
                "--renditions", "96x64:15,96x64:30,48x32:8",
                "--frames", "2",
                "--workers", "0",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["completed"] == 3
        labels = [row["label"] for row in payload["table"]]
        assert labels == ["96x64@15k", "96x64@30k", "48x32@8k"]

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "ladder.csv"
        code, _ = self._run(
            [
                "ladder",
                "--codec", "rd-model",
                "--config", json.dumps(RD_CFG),
                "--renditions", "96x64:15,48x32:8",
                "--frames", "2",
                "--workers", "0",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("label,width,height,target_kbps")
        assert len(lines) == 3
        assert lines[1].startswith("96x64@15k,96,64,15.0")

    def test_bad_renditions_flag(self, capsys):
        code, _ = self._run(
            ["ladder", "--renditions", "96x64"], capsys
        )
        assert code == 2

    def test_encode_target_kbps_flag(self, capsys):
        code, out = self._run(
            [
                "encode",
                "--codec", "classical",
                "--height", "32", "--width", "48", "--frames", "3",
                "--target-kbps", "120",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["codec_config"]["rate_control"] == "abr"
        assert payload["codec_config"]["target_kbps"] == 120.0
        assert payload["achieved_kbps"] is not None
        assert len(payload["frame_bits"]) == 3
