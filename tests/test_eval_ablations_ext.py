"""Tests for the extended ablations (tile-size exploration, attention)."""

import pytest

from repro.eval import attention_ablation, sparsity_sweep, tile_size_exploration


class TestTileSizeExploration:
    @pytest.fixture(scope="class")
    def results(self):
        return tile_size_exploration()

    def test_covers_requested_tiles(self, results):
        assert [r["m"] for r in results] == [2, 4, 6]

    def test_speedups_match_theory(self, results):
        """(m+2)^2*... : F(2,3)=2.25x, F(4,3)=4x, F(6,3)=5.06x."""
        speedups = {r["m"]: r["speedup"] for r in results}
        assert speedups[2] == pytest.approx(2.25)
        assert speedups[4] == pytest.approx(4.0)
        assert speedups[6] == pytest.approx(5.0625, abs=1e-3)

    def test_patch_sizes(self, results):
        """mu^2 per tile — the SCU provisioning each choice implies."""
        mu2 = {r["m"]: r["mu2"] for r in results}
        assert mu2[2] == 16
        assert mu2[4] == 36
        assert mu2[6] == 64

    def test_f23_survives_fxp12(self, results):
        """The paper's choice: F(2,3) stays numerically healthy in the
        A12 datapath."""
        f23 = next(r for r in results if r["m"] == 2)
        assert f23["fxp_snr_db"] > 40.0

    def test_bigger_tiles_condition_worse(self, results):
        """The design rationale: larger tiles trade conditioning for
        multiplication reduction; under 12-bit transforms the SNR
        degrades monotonically with tile size."""
        snrs = [r["fxp_snr_db"] for r in results]
        assert snrs[0] > snrs[1] > snrs[2]
        assert snrs[0] - snrs[1] > 20.0  # the cliff is steep

    def test_more_bits_rescue_big_tiles(self):
        """At higher activation precision the larger tiles recover —
        confirming quantization (not the transform itself) is at fault."""
        wide = tile_size_exploration(activation_bits=24)
        f43 = next(r for r in wide if r["m"] == 4)
        assert f43["fxp_snr_db"] > 40.0


class TestAttentionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return attention_ablation(channels=8, frames=2)

    def test_workload_reported(self, result):
        assert result["swin_am_total_gmacs"] > result["swinatten_gmacs"] > 0

    def test_measured_effect_bounded(self, result):
        """Untrained Swin-AMs are near-identity: effect ~0 by design."""
        delta = abs(
            result["psnr_with_attention"] - result["psnr_without_attention"]
        )
        assert delta < 0.5

    def test_measured_effect_bounded_at_defaults(self):
        result = attention_ablation()
        delta = abs(
            result["psnr_with_attention"] - result["psnr_without_attention"]
        )
        assert delta < 0.5


class TestSparsitySweep:
    """Quality vs hardware cost across rho (the design-space ablation)."""

    @pytest.fixture(scope="class")
    def points(self):
        return sparsity_sweep(rhos=(0.0, 0.25, 0.5, 0.75))

    def test_quality_falls_weakly_and_cost_shrinks(self, points):
        assert points[0].psnr_db >= points[-1].psnr_db - 0.2
        assert points[0].gate_count_m > points[-1].gate_count_m

    def test_paper_rho_costs_little_quality(self, points):
        rho50 = next(p for p in points if p.rho == 0.5)
        assert points[0].psnr_db - rho50.psnr_db < 0.5
