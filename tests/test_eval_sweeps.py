"""Tests for the resolution and GOP sweeps."""

import pytest

from repro.eval import gop_size_ablation, resolution_sweep


class TestResolutionSweep:
    @pytest.fixture(scope="class")
    def results(self):
        return resolution_sweep()

    def test_covers_540p_to_4k(self, results):
        assert [r["resolution"] for r in results] == [
            "960x540",
            "1920x1080",
            "3840x2160",
        ]

    def test_workload_scales_with_pixels(self, results):
        """GMACs scale ~linearly with pixel count."""
        per_pixel = [r["gmacs"] / r["pixels"] for r in results]
        assert max(per_pixel) / min(per_pixel) < 1.05

    def test_1080p_realtime_4k_not(self, results):
        """The design point: 1080p at 25 FPS; 4K needs ~4x more silicon
        (or a frequency bump) — the scaling story behind 'real-time HD
        decoding'."""
        by_res = {r["resolution"]: r for r in results}
        assert by_res["1920x1080"]["fps"] == pytest.approx(25.0, rel=0.05)
        assert by_res["1920x1080"]["fps"] > 24.0
        assert by_res["960x540"]["fps"] > 60.0
        assert by_res["3840x2160"]["fps"] < 10.0

    def test_chaining_reduction_resolution_independent(self, results):
        """Traffic reduction is a dataflow property, not a size one."""
        reductions = [r["reduction"] for r in results]
        assert max(reductions) - min(reductions) < 0.01


class TestGopAblation:
    @pytest.fixture(scope="class")
    def results(self):
        return gop_size_ablation(gops=(2, 8), frames=8, channels=8)

    def test_longer_gop_fewer_iframes(self, results):
        by_gop = {r["gop"]: r for r in results}
        assert by_gop[2]["i_frames"] == 4
        assert by_gop[8]["i_frames"] == 1

    def test_longer_gop_cheaper(self, results):
        by_gop = {r["gop"]: r for r in results}
        assert by_gop[8]["bpp"] < by_gop[2]["bpp"]

    def test_quality_positive(self, results):
        for r in results:
            assert r["psnr_db"] > 20.0
