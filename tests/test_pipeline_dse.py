"""Distributed DSE: grid builders vs the inline hw.dse sweeps, serial
vs sharded byte-identical aggregation, resume, and the repro dse CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codec import decoder_graph
from repro.hw import (
    NVCAConfig,
    sweep_array_geometry,
    sweep_frequency,
    sweep_sparsity,
)
from repro.pipeline import DSERunner, dse_grid, dse_point_spec

REPO = Path(__file__).resolve().parent.parent
RES = (270, 480)  # small workload keeps grids fast
GEOMETRIES = ((6, 6), (12, 12), (18, 18))


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )


def canon(result):
    payload = result.to_dict()
    for volatile in ("elapsed_seconds", "workers"):
        payload.pop(volatile)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def graph():
    return decoder_graph(*RES, NVCAConfig().channels)


class TestGridBuilders:
    @pytest.mark.parametrize("grid,values,inline", [
        ("geometry", GEOMETRIES, sweep_array_geometry),
        ("sparsity", (0.0, 0.5), sweep_sparsity),
        ("frequency", (200.0, 400.0), sweep_frequency),
    ])
    def test_queue_points_match_inline_sweeps(self, graph, grid, values, inline):
        specs = dse_grid(grid, values=values, height=RES[0], width=RES[1])
        result = DSERunner(specs, workers=0).run()
        expected = inline(graph, values)
        assert [p.to_dict() for p in result.points] == [
            p.to_dict() for p in expected
        ]

    def test_labels_match_inline_convention(self):
        specs = dse_grid("geometry", values=((12, 6),), height=64, width=96)
        assert specs[0]["label"] == "12x6"
        specs = dse_grid("sparsity", values=(0.25,), height=64, width=96)
        assert specs[0]["label"] == "rho=0.25"
        specs = dse_grid("frequency", values=(600,), height=64, width=96)
        assert specs[0]["label"] == "600MHz"

    def test_base_config_dict(self):
        specs = dse_grid(
            "sparsity", values=(0.5,), base={"pif": 6, "pof": 6},
            height=64, width=96,
        )
        assert specs[0]["config"]["pif"] == 6
        assert specs[0]["config"]["rho"] == 0.5

    def test_unknown_grid(self):
        with pytest.raises(ValueError, match="geometry"):
            dse_grid("voltage")

    def test_point_spec_validates_up_front(self):
        with pytest.raises(ValueError, match="available"):
            dse_point_spec({}, platform="nosuch")

    def test_reference_platform_is_clean_error(self):
        # must be the friendly refusal, not a TypeError from replace()
        with pytest.raises(ValueError, match="no design space"):
            dse_grid("geometry", platform="gpu-rtx3090")


class TestDSERunner:
    def test_memory_queue_drains_in_process_whatever_workers_says(self):
        specs = dse_grid("geometry", values=GEOMETRIES,
                         height=RES[0], width=RES[1])
        serial = DSERunner(specs, workers=0).run()
        in_process = DSERunner(specs, workers=2).run()
        assert serial.ok and in_process.ok
        assert canon(serial) == canon(in_process)
        assert in_process.workers == 0  # no worker process ran

    def test_processes_match_serial_byte_identically(self, tmp_path):
        specs = dse_grid("sparsity", values=(0.0, 0.5),
                         height=RES[0], width=RES[1])
        serial = DSERunner(specs, workers=0).run()
        procs = DSERunner(
            specs, queue_dir=str(tmp_path / "q"), workers=2
        ).run()
        assert procs.ok
        assert canon(serial) == canon(procs)

    def test_resume_reuses_done_points(self, tmp_path):
        specs = dse_grid("geometry", values=GEOMETRIES[:2],
                         height=RES[0], width=RES[1])
        root = str(tmp_path / "q")
        first = DSERunner(specs, queue_dir=root, workers=0).run()
        resumed = DSERunner(specs, queue_dir=root, workers=0)
        resumed.submit()
        assert resumed.queue.stats().pending == 0  # ids already done
        assert canon(resumed.run()) == canon(first)

    def test_rejects_non_dse_specs(self):
        with pytest.raises(ValueError, match="dse-point"):
            DSERunner([{"kind": "hardware"}])

    def test_rejects_unknown_objective(self):
        specs = dse_grid("sparsity", values=(0.5,), height=64, width=96)
        with pytest.raises(ValueError, match="objective"):
            DSERunner(specs, objectives=("fps", "coolness"))

    def test_custom_objectives_change_front(self):
        specs = dse_grid("geometry", values=GEOMETRIES,
                         height=RES[0], width=RES[1])
        cheap = DSERunner(specs, workers=0,
                          objectives=("energy_efficiency",)).run()
        assert len(cheap.pareto) >= 1
        assert all(p.label in {q.label for q in cheap.points}
                   for p in cheap.pareto)

    def test_render_marks_frontier(self):
        specs = dse_grid("geometry", values=GEOMETRIES[:2],
                         height=RES[0], width=RES[1])
        result = DSERunner(specs, workers=0).run()
        text = result.render()
        assert "pareto front" in text
        assert "*" in text
        only = result.render(pareto_only=True)
        assert len(only.splitlines()) <= len(text.splitlines())


class TestDseCLI:
    ARGS = [
        "dse", "--grid", "geometry", "--geometries", "6x6,12x12",
        "--height", str(RES[0]), "--width", str(RES[1]),
    ]

    def test_workers_match_serial_byte_identically(self):
        queued = run_cli(*self.ARGS, "--workers", "2", "--json")
        serial = run_cli(*self.ARGS, "--workers", "0", "--json")
        assert queued.returncode == 0, queued.stderr[-2000:]
        assert serial.returncode == 0, serial.stderr[-2000:]
        a, b = json.loads(queued.stdout), json.loads(serial.stdout)
        assert a["jobs"] == a["completed"] == 2 and not a["failed"]
        for key in ("points", "pareto"):
            assert json.dumps(a[key], sort_keys=True) == json.dumps(
                b[key], sort_keys=True
            ), key

    def test_queue_dir_and_csv(self, tmp_path):
        queue_dir = tmp_path / "queue"
        csv_path = tmp_path / "dse.csv"
        result = run_cli(
            *self.ARGS, "--workers", "2", "--queue-dir", str(queue_dir),
            "--csv", str(csv_path), "--json",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert len(list((queue_dir / "done").glob("*.json"))) == 2
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 points
        assert rows[0].startswith("label,pif,pof")

    def test_nonempty_queue_dir_needs_resume(self, tmp_path):
        queue_dir = tmp_path / "queue"
        first = run_cli(*self.ARGS, "--workers", "0",
                        "--queue-dir", str(queue_dir))
        assert first.returncode == 0, first.stderr[-2000:]
        refused = run_cli(*self.ARGS, "--workers", "0",
                          "--queue-dir", str(queue_dir))
        assert refused.returncode == 2
        assert "--resume" in refused.stderr
        resumed = run_cli(*self.ARGS, "--workers", "0",
                          "--queue-dir", str(queue_dir), "--resume", "--json")
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        assert json.loads(resumed.stdout)["completed"] == 2

    def test_pareto_restricts_output(self):
        result = run_cli(*self.ARGS, "--workers", "0", "--pareto", "--json")
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        assert payload["points"] == payload["pareto"]

    def test_sparsity_grid_base_overrides(self):
        result = run_cli(
            "dse", "--grid", "sparsity", "--rhos", "0,0.5",
            "--pif", "6", "--pof", "6",
            "--height", str(RES[0]), "--width", str(RES[1]),
            "--workers", "0", "--json",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        assert all(p["pif"] == 6 for p in payload["points"])
        assert [p["rho"] for p in payload["points"]] == [0.0, 0.5]

    def test_bad_geometry_is_clean_error(self):
        result = run_cli("dse", "--geometries", "12", "--workers", "0")
        assert result.returncode == 2
        assert "PIFxPOF" in result.stderr

    def test_mismatched_axis_flag_refused(self):
        # --rhos without --grid sparsity must refuse, not silently run
        # the default geometry grid
        result = run_cli("dse", "--rhos", "0.1,0.9", "--workers", "0")
        assert result.returncode == 2
        assert "--grid sparsity" in result.stderr

    def test_reference_platform_is_clean_error(self):
        result = run_cli("dse", "--platform", "gpu-rtx3090", "--workers", "0")
        assert result.returncode == 1
        assert "no design space" in result.stderr
        assert "Traceback" not in result.stderr


class TestHardwareCLI:
    def test_nvca_knobs(self):
        result = run_cli(
            "hardware", "--pif", "6", "--pof", "6", "--rho", "0.25",
            "--frequency", "500", "--height", str(RES[0]),
            "--width", str(RES[1]), "--json",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        config = payload["nvca_config"]
        assert (config["pif"], config["pof"]) == (6, 6)
        assert config["rho"] == 0.25
        assert config["frequency_mhz"] == 500.0

    def test_reference_platform_json(self):
        result = run_cli("hardware", "--platform", "gpu-rtx3090", "--json")
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        assert payload["platform"] == "gpu-rtx3090"
        assert payload["throughput_gops"] == 1493.0
        assert payload["hardware"] is None

    def test_reference_platform_node_projection(self):
        result = run_cli(
            "hardware", "--platform", "alchemist", "--technology", "28",
            "--json",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        assert payload["technology_nm"] == 28
        assert payload["scaled_from_nm"] == 65

    def test_unknown_platform_is_clean_error(self):
        result = run_cli("hardware", "--platform", "nosuch")
        assert result.returncode == 2
        assert "unknown platform" in result.stderr
        assert "nvca" in result.stderr  # lists what is available
