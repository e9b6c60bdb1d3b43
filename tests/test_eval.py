"""Tests for the evaluation harness (tables, figures, ablations)."""

import pytest

from repro.eval import (
    PAPER_FIG9B_REDUCTIONS,
    PAPER_NVCA_COLUMN,
    dataflow_ablation,
    fast_algorithm_ablation,
    generate_fig8,
    generate_fig9a,
    generate_fig9b,
    generate_table1,
    generate_table2,
    measured_rd_curve,
    render_bars,
    render_series,
    render_table,
)


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_render_bars(self):
        text = render_bars(["x", "yy"], [1.0, 2.0], unit=" ms")
        assert "#" in text
        assert "2 ms" in text

    def test_render_series(self):
        text = render_series({"m": [(0.1, 30.0)]}, title="S")
        assert "(0.100, 30.000)" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return generate_table1(mode="calibrated")

    def test_all_cells_present(self, table):
        assert len(table.computed) == 9 * 3 * 2

    def test_anchor_rows_zero(self, table):
        for dataset in ("uvg", "hevcb", "mcljcv"):
            for metric in ("psnr", "ms-ssim"):
                assert table.computed[("h265", dataset, metric)] == pytest.approx(
                    0.0, abs=1e-6
                )

    def test_close_to_paper(self, table):
        """Every regenerated BDBR within 2 points of Table I."""
        assert table.max_abs_deviation() < 2.0

    def test_hybrid_measured_rows_keep_paper_order(self):
        """Table I with measured FXP/Sparse degradation from the real
        pipeline: FP best, sparse within 8 BDBR points of FP."""
        computed = generate_table1(mode="hybrid").computed
        fp = computed[("ctvc-fp", "uvg", "psnr")]
        fxp = computed[("ctvc-fxp", "uvg", "psnr")]
        sparse = computed[("ctvc-sparse", "uvg", "psnr")]
        assert fp <= fxp <= sparse
        assert sparse - fp < 8.0

    def test_headline_value(self, table):
        """'35.19% bit rate savings over the H.265 standard ... on the
        UVG dataset' for the sparse model."""
        assert table.computed[("ctvc-sparse", "uvg", "psnr")] == pytest.approx(
            -35.19, abs=1.0
        )
        assert table.computed[("ctvc-sparse", "uvg", "ms-ssim")] == pytest.approx(
            -51.30, abs=1.0
        )

    def test_render(self, table):
        text = table.render()
        assert "ctvc-sparse" in text
        assert "Table I" in text

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            generate_table1(mode="psychic")


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return generate_table2()

    def test_nvca_column_near_paper(self, table):
        paper = PAPER_NVCA_COLUMN
        assert table.nvca.throughput_gops == pytest.approx(
            paper["throughput_gops"], rel=0.05
        )
        assert table.nvca.power_w == pytest.approx(paper["power_w"], rel=0.05)
        assert table.nvca.gate_count_m == pytest.approx(
            paper["gate_count_m"], rel=0.03
        )
        assert table.nvca.on_chip_kb == paper["on_chip_kb"]
        assert table.performance.fps == pytest.approx(paper["fps_1080p"], rel=0.05)

    def test_ratios_match_paper_claims(self, table):
        assert table.ratios["throughput_vs_gpu"] == pytest.approx(2.4, abs=0.2)
        assert table.ratios["throughput_vs_cpu"] == pytest.approx(11.1, rel=0.06)
        assert table.ratios["efficiency_vs_shao"] == pytest.approx(2.2, rel=0.1)

    def test_render(self, table):
        text = table.render()
        assert "NVCA (this work)" in text
        assert "FXP 12-16" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def panels(self):
        return generate_fig8(include_measured=False)

    def test_four_panels(self, panels):
        keys = [(p.dataset, p.metric) for p in panels]
        assert keys == [
            ("uvg", "psnr"),
            ("uvg", "ms-ssim"),
            ("hevcb", "psnr"),
            ("hevcb", "ms-ssim"),
        ]

    def test_ctvc_wins_every_panel(self, panels):
        """'Our design achieves the lowest bit consumption at the same
        compression quality.'"""
        for panel in panels:
            assert panel.best_method_at_low_rate() == "ctvc-fp"

    @pytest.mark.parametrize(
        "codec,options",
        [
            ("classical", {"qps": (4.0, 16.0, 64.0)}),
            ("ctvc", {"qps": (2.0, 8.0, 32.0), "channels": 12, "frames": 3}),
        ],
    )
    def test_measured_overlay_monotone(self, codec, options):
        """The measured RD curves of the real codecs on the UVG stand-in."""
        curve = measured_rd_curve(
            codec=codec, dataset="uvg-sim", metric="psnr", **options
        )
        assert len(curve) == 3
        assert curve.validate_monotone()

    def test_series_and_render(self, panels):
        panel = panels[0]
        series = panel.series()
        assert len(series) == 9
        assert "Fig. 8" in panel.render()


class TestFig9:
    def test_fig9a_nvca_25fps(self):
        result = generate_fig9a()
        assert result.nvca_fps == pytest.approx(25.0, rel=0.05)
        assert result.decode_ms["nvca"] == pytest.approx(40.0, rel=0.05)

    def test_fig9a_dcvc_speedup(self):
        """'outperforming DCVC by up to 22.7x in decoding speed'."""
        result = generate_fig9a()
        assert result.speedup_vs_dcvc == pytest.approx(22.7, rel=0.06)

    def test_fig9a_nvca_fastest_neural(self):
        result = generate_fig9a()
        for method in ("elf-vc", "fvc", "vct", "dcvc"):
            assert result.decode_ms["nvca"] < result.decode_ms[method]

    def test_fig9a_render(self):
        assert "22.7x" in generate_fig9a().render()

    def test_fig9b_reductions_shape(self):
        result = generate_fig9b()
        computed = {m.module: m.reduction for m in result.traffic.modules}
        # Ordering agrees with the paper: compensation smallest,
        # frame reconstruction largest.
        assert min(computed, key=computed.get) == "deformable_compensation"
        assert max(computed, key=computed.get) == "frame_reconstruction"
        # Synthesis transforms land on the paper's 44.4% almost
        # exactly; feature extraction deviates most (its baseline
        # accounting in the paper is not fully specified) — shape and
        # band are what we assert (see EXPERIMENTS.md).
        tolerance = {
            "feature_extraction": 0.20,
            "motion_synthesis": 0.02,
            "deformable_compensation": 0.04,
            "residual_synthesis": 0.02,
            "frame_reconstruction": 0.16,
        }
        for module, paper in PAPER_FIG9B_REDUCTIONS.items():
            assert computed[module] == pytest.approx(
                paper, abs=tolerance[module]
            )

    def test_fig9b_render(self):
        assert "overall" in generate_fig9b().render()


class TestAblations:
    def test_fast_algorithm_reductions(self):
        result = fast_algorithm_ablation()
        # F(2,3)/T3 both reduce multiplications 2.25x; sparsity doubles it.
        assert result["fast_reduction"] == pytest.approx(2.25, abs=0.1)
        assert result["sparse_reduction"] == pytest.approx(4.5, abs=0.2)

    def test_dataflow_ablation(self):
        result = dataflow_ablation()
        assert result["chained_gb"] < result["baseline_gb"]
        assert result["chained_dram_mj"] < result["baseline_dram_mj"]
        assert 0.3 < result["reduction"] < 0.6
