"""Tests for the design-space exploration sweeps."""

import pytest

from repro.codec import decoder_graph
from repro.hw import (
    DesignPoint,
    evaluate_point,
    pareto_front,
    sweep_array_geometry,
    sweep_frequency,
    sweep_sparsity,
)


@pytest.fixture(scope="module")
def graph():
    return decoder_graph(540, 960, 36)  # quarter-HD keeps sweeps fast


class TestGeometrySweep:
    def test_bigger_arrays_faster(self, graph):
        points = sweep_array_geometry(graph, ((6, 6), (12, 12), (18, 18)))
        assert points[0].fps < points[1].fps < points[2].fps

    def test_bigger_arrays_cost_more(self, graph):
        points = sweep_array_geometry(graph, ((6, 6), (12, 12), (18, 18)))
        assert points[0].gate_count_m < points[2].gate_count_m
        assert points[0].chip_power_w < points[2].chip_power_w

    def test_labels(self, graph):
        points = sweep_array_geometry(graph, ((12, 12),))
        assert points[0].label == "12x12"
        assert points[0].pif == points[0].pof == 12


class TestSparsitySweep:
    def test_sparsity_trades_area_for_nothing_at_dcc_bound(self, graph):
        """At the paper's operating point the DCC bounds the frame
        rate, so sparsity buys power/area at ~equal FPS — the design
        argument for rho = 50%."""
        points = sweep_sparsity(graph, (0.0, 0.5))
        dense, sparse = points
        assert sparse.fps == pytest.approx(dense.fps, rel=0.05)
        assert sparse.chip_power_w < dense.chip_power_w
        assert sparse.gate_count_m < dense.gate_count_m

    def test_monotone_cost_in_density(self, graph):
        points = sweep_sparsity(graph, (0.0, 0.25, 0.5, 0.75))
        gates = [p.gate_count_m for p in points]
        assert gates == sorted(gates, reverse=True)


class TestPaperOperatingPoint:
    """The full-HD frontier that justifies Pif=Pof=12 and rho=50%."""

    @pytest.fixture(scope="class")
    def hd_graph(self):
        return decoder_graph(1080, 1920, 36)

    def test_12x12_is_realtime_at_1080p(self, hd_graph):
        points = sweep_array_geometry(hd_graph)
        assert next(p for p in points if p.label == "12x12").fps > 24.0

    def test_half_sparsity_saves_a_quarter_at_equal_fps(self, hd_graph):
        points = sweep_sparsity(hd_graph)
        dense = next(p for p in points if p.rho == 0.0)
        sparse = next(p for p in points if p.rho == 0.5)
        assert abs(sparse.fps - dense.fps) / dense.fps < 0.05
        assert sparse.chip_power_w < 0.75 * dense.chip_power_w
        assert sparse.gate_count_m < 0.75 * dense.gate_count_m


class TestFrequencySweep:
    def test_labels_and_monotone_throughput(self, graph):
        points = sweep_frequency(graph, (200.0, 400.0, 800.0))
        assert [p.label for p in points] == ["200MHz", "400MHz", "800MHz"]
        fps = [p.fps for p in points]
        assert fps == sorted(fps)

    def test_matches_evaluate_point(self, graph):
        from repro.hw import NVCAConfig

        point = sweep_frequency(graph, (600.0,))[0]
        direct = evaluate_point(
            graph, NVCAConfig(frequency_mhz=600.0), "600MHz"
        )
        assert point == direct


class TestParetoFront:
    def make(self, label, fps, eff):
        return DesignPoint(
            label=label,
            pif=1,
            pof=1,
            rho=0.5,
            frequency_mhz=400,
            fps=fps,
            sustained_gops=0.0,
            chip_power_w=1.0,
            gate_count_m=1.0,
            energy_efficiency=eff,
        )

    def test_dominated_points_removed(self):
        a = self.make("a", fps=10, eff=100)
        b = self.make("b", fps=20, eff=200)  # dominates a
        c = self.make("c", fps=30, eff=50)  # trade-off with b
        front = pareto_front([a, b, c])
        assert {p.label for p in front} == {"b", "c"}

    def test_all_nondominated_kept(self):
        a = self.make("a", fps=10, eff=300)
        b = self.make("b", fps=20, eff=200)
        c = self.make("c", fps=30, eff=100)
        assert len(pareto_front([a, b, c])) == 3

    def test_area_efficiency_property(self):
        point = self.make("x", fps=1, eff=1)
        point = DesignPoint(
            **{**point.__dict__, "sustained_gops": 500.0, "gate_count_m": 5.0}
        )
        assert point.area_efficiency == pytest.approx(100.0)

    # -- edge cases ---------------------------------------------------
    def test_empty_input(self):
        assert pareto_front([]) == []

    def test_single_point_is_its_own_front(self):
        only = self.make("only", fps=1, eff=1)
        assert pareto_front([only]) == [only]

    def test_exact_duplicates_all_kept(self):
        # equal points never dominate each other (no strict improvement)
        a = self.make("a", fps=10, eff=100)
        b = self.make("b", fps=10, eff=100)
        assert pareto_front([a, b]) == [a, b]

    def test_dominated_tie_removed(self):
        # equal on one axis, strictly worse on the other -> dominated
        a = self.make("a", fps=10, eff=100)
        b = self.make("b", fps=10, eff=50)
        assert pareto_front([a, b]) == [a]

    def test_input_order_preserved(self):
        points = [
            self.make("c", fps=30, eff=100),
            self.make("a", fps=10, eff=300),
            self.make("b", fps=20, eff=200),
        ]
        assert [p.label for p in pareto_front(points)] == ["c", "a", "b"]

    def test_all_dominated_by_one(self):
        king = self.make("king", fps=100, eff=1000)
        peasants = [self.make(f"p{i}", fps=i, eff=i) for i in range(3)]
        assert pareto_front([king] + peasants) == [king]


class TestDesignPointDict:
    def make(self):
        return DesignPoint(
            label="12x12", pif=12, pof=12, rho=0.5, frequency_mhz=400.0,
            fps=25.0, sustained_gops=3500.0, chip_power_w=0.76,
            gate_count_m=5.0, energy_efficiency=4600.0,
        )

    def test_round_trip(self):
        point = self.make()
        assert DesignPoint.from_dict(point.to_dict()) == point

    def test_to_dict_is_json_ready(self):
        import json

        payload = json.loads(json.dumps(self.make().to_dict()))
        assert payload["label"] == "12x12"
        assert payload["fps"] == 25.0
        # derived properties are recomputed, not serialized
        assert "area_efficiency" not in payload

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            DesignPoint.from_dict({**self.make().to_dict(), "volts": 0.9})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            DesignPoint.from_dict([1, 2, 3])

    def test_evaluated_point_round_trips(self):
        graph = decoder_graph(270, 480, 36)
        from repro.hw import NVCAConfig

        point = evaluate_point(graph, NVCAConfig(), "paper")
        assert DesignPoint.from_dict(point.to_dict()) == point
