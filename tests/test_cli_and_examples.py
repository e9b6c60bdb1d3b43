"""Smoke tests for the CLI and the example scripts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from legacy_container import legacy_bytes

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )


class TestCLI:
    def test_hardware_summary(self):
        result = run_cli("hardware")
        assert result.returncode == 0
        assert "FPS" in result.stdout
        assert "gates" in result.stdout

    def test_encode_classical(self):
        result = run_cli(
            "encode", "--codec", "classical", "--frames", "2", "--qp", "16"
        )
        assert result.returncode == 0
        assert "bpp" in result.stdout
        assert "PSNR" in result.stdout

    def test_encode_ctvc(self):
        result = run_cli(
            "encode", "--codec", "ctvc", "--frames", "2", "--channels", "8"
        )
        assert result.returncode == 0
        assert "ctvc" in result.stdout

    def test_reproduce_fast(self, tmp_path):
        out = tmp_path / "report.txt"
        result = run_cli("reproduce", "-o", str(out))
        assert result.returncode == 0
        assert "Table I" in result.stdout
        assert "Table II" in result.stdout
        assert out.exists()
        assert "Fig. 9(a)" in out.read_text()

    def test_default_subcommand_dispatch(self):
        # Bare ``python -m repro`` must run reproduce via set_defaults,
        # not by re-parsing a synthetic argv.
        result = run_cli()
        assert result.returncode == 0
        assert "Table I" in result.stdout

    def test_unknown_codec_is_clean_error(self):
        result = run_cli("encode", "--codec", "nosuch", "--frames", "1")
        assert result.returncode == 2
        assert "unknown codec" in result.stderr
        assert "classical" in result.stderr  # lists what is available


class TestCLIJson:
    def test_encode_json(self, tmp_path):
        out = tmp_path / "encode.json"
        result = run_cli(
            "encode", "--codec", "classical", "--frames", "2", "--qp", "16",
            "--json", "-o", str(out),
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["codec"] == "classical"
        assert payload["codec_config"]["qp"] == 16.0
        assert payload["frames"] == 2
        assert payload["bpp"] > 0
        assert len(payload["psnr_per_frame"]) == 2
        assert json.loads(out.read_text()) == payload

    def test_hardware_json(self):
        result = run_cli("hardware", "--height", "288", "--width", "512", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["height"] == 288
        assert payload["fps"] > 0
        assert payload["per_module_cycles"]

    def test_reproduce_json(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("reproduce", "--json", "-o", str(out))
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"table1", "table2", "fig8", "fig9a", "fig9b"}
        assert payload["table1"]["computed"]


class TestStreamingCLI:
    def test_encode_stream_decode_round_trip(self, tmp_path):
        container = tmp_path / "clip.bin"
        enc = run_cli(
            "encode", "--stream", "--codec", "classical", "--qp", "16",
            "--height", "32", "--width", "48", "--frames", "3",
            "--output", str(container), "--json",
        )
        assert enc.returncode == 0, enc.stderr[-2000:]
        enc_report = json.loads(enc.stdout)
        assert container.exists()
        assert enc_report["container"] == str(container)
        assert enc_report["frames"] == 3

        batch = run_cli(
            "encode", "--codec", "classical", "--qp", "16",
            "--height", "32", "--width", "48", "--frames", "3", "--json",
        )
        batch_report = json.loads(batch.stdout)
        # streaming == batch quality, exactly (same packets, same loop)
        assert enc_report["psnr_per_frame"] == batch_report["psnr_per_frame"]

        dec = run_cli("decode", str(container), "--json")
        assert dec.returncode == 0, dec.stderr[-2000:]
        dec_report = json.loads(dec.stdout)
        assert dec_report["container_version"] == 4
        assert dec_report["psnr_per_frame"] == batch_report["psnr_per_frame"]

    def test_yuv_file_to_file_round_trip(self, tmp_path):
        import numpy as np

        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.video import SceneConfig, iter_sequence, write_yuv420
        finally:
            sys.path.pop(0)
        source = tmp_path / "src.yuv"
        write_yuv420(
            str(source),
            iter_sequence(SceneConfig(height=32, width=48, frames=3, seed=4)),
        )
        container = tmp_path / "clip.bin"
        recon = tmp_path / "recon.yuv"
        enc = run_cli(
            "encode", "--stream", "--codec", "classical", "--qp", "12",
            "--input", str(source), "--height", "32", "--width", "48",
            "--output", str(container), "--json",
        )
        assert enc.returncode == 0, enc.stderr[-2000:]
        assert json.loads(enc.stdout)["frames"] == 3
        dec = run_cli(
            "decode", str(container), "--reference", str(source),
            "-o", str(recon), "--json",
        )
        assert dec.returncode == 0, dec.stderr[-2000:]
        report = json.loads(dec.stdout)
        assert report["mean_psnr"] > 25.0
        assert recon.stat().st_size == source.stat().st_size

    def test_stream_requires_output(self):
        result = run_cli("encode", "--stream", "--frames", "1")
        assert result.returncode == 2
        assert "--output" in result.stderr

    def test_decode_bad_file_is_clean_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a bitstream")
        result = run_cli("decode", str(bad))
        assert result.returncode == 1
        assert "bad magic" in result.stderr

    def test_decode_v2_uses_header_recorded_parameters(self, tmp_path):
        # v2 headers carry qp/gop/entropy inline (no config blob); the
        # decode subcommand must honour them, not config defaults.
        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.codec import ClassicalCodec, ClassicalCodecConfig
            from repro.metrics import psnr
            from repro.video import SceneConfig, generate_sequence
        finally:
            sys.path.pop(0)
        import numpy as np

        codec = ClassicalCodec(ClassicalCodecConfig(qp=16.0, gop=2))
        frames = generate_sequence(SceneConfig(height=32, width=48, frames=3))
        stream = codec.encode_sequence(frames)
        container = tmp_path / "v2.bin"
        container.write_bytes(legacy_bytes(stream.header, stream.packets, 2))
        expected = [
            float(psnr(a, b))
            for a, b in zip(frames, codec.decode_sequence(stream))
        ]
        recon = tmp_path / "recon.yuv"
        src = tmp_path / "src.yuv"
        from repro.video import write_yuv420

        write_yuv420(str(src), frames)
        result = run_cli(
            "decode", str(container), "--reference", str(src), "--json",
            "-o", str(recon),
        )
        assert result.returncode == 0, result.stderr[-2000:]
        report = json.loads(result.stdout)
        assert report["container_version"] == 2
        # quality within YUV-reference quantization (8-bit 4:2:0) of the
        # library path's float reference; had qp fallen back to the
        # default 8.0, dequantization would be wrong by 2x and PSNR
        # tens of dB off
        assert abs(report["mean_psnr"] - sum(expected) / 3) < 1.5

    def test_decode_short_reference_is_clean_error(self, tmp_path):
        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.video import SceneConfig, iter_sequence, write_yuv420
        finally:
            sys.path.pop(0)
        short = tmp_path / "short.yuv"
        write_yuv420(
            str(short),
            iter_sequence(SceneConfig(height=32, width=48, frames=1)),
        )
        container = tmp_path / "clip.bin"
        enc = run_cli(
            "encode", "--stream", "--codec", "classical", "--height", "32",
            "--width", "48", "--frames", "3", "--output", str(container),
        )
        assert enc.returncode == 0
        result = run_cli("decode", str(container), "--reference", str(short))
        assert result.returncode == 1
        assert "fewer frames" in result.stderr


class TestSweepCLI:
    ARGS = [
        "sweep", "--codecs", "classical", "--qps", "8,16", "--seeds", "0",
        "--height", "32", "--width", "48", "--frames", "2",
    ]

    def test_workers_match_serial_byte_identically(self):
        queued = run_cli(*self.ARGS, "--workers", "2", "--json")
        serial = run_cli(*self.ARGS, "--workers", "0", "--json")
        assert queued.returncode == 0, queued.stderr[-2000:]
        assert serial.returncode == 0, serial.stderr[-2000:]
        a, b = json.loads(queued.stdout), json.loads(serial.stdout)
        assert a["jobs"] == a["completed"] == 2 and not a["failed"]
        for key in ("curves", "bd_rate"):
            assert json.dumps(a[key], sort_keys=True) == json.dumps(
                b[key], sort_keys=True
            )

    def test_queue_dir_and_csv(self, tmp_path):
        queue_dir = tmp_path / "queue"
        csv_path = tmp_path / "sweep.csv"
        result = run_cli(
            *self.ARGS, "--workers", "2", "--queue-dir", str(queue_dir),
            "--csv", str(csv_path), "--json",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert (queue_dir / "done").is_dir()
        assert len(list((queue_dir / "done").glob("*.json"))) == 2
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 jobs
        assert rows[0].startswith("codec,scene,bpp")

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

    def test_unknown_codec_is_one_clean_error(self):
        result = run_cli("sweep", "--codecs", "nosuch,classical",
                         "--workers", "2")
        assert result.returncode == 1
        assert "unknown codec name" in result.stderr
        assert "Traceback" not in result.stderr


class TestNetworkCLI:
    GRID = [
        "--codecs", "classical", "--qps", "8,16", "--seeds", "0",
        "--height", "32", "--width", "48", "--frames", "2",
    ]

    def _start_server(self, *extra):
        """Launch ``repro serve --port 0`` and scrape the printed URL."""
        import re

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO,
        )
        line = proc.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, f"no serve banner in {line!r}"
        return proc, match.group(1)

    def test_serve_then_sweep_over_queue_url(self, tmp_path):
        serial = run_cli("sweep", *self.GRID, "--workers", "0", "--json")
        assert serial.returncode == 0, serial.stderr[-2000:]
        queue_dir = tmp_path / "q"
        server, url = self._start_server("--queue-dir", str(queue_dir))
        try:
            net = run_cli(
                "sweep", *self.GRID, "--queue-url", url,
                "--workers", "2", "--json",
            )
            assert net.returncode == 0, net.stderr[-2000:]
            # a second non-resume run against the now-populated server
            # must refuse, mirroring the --queue-dir hygiene
            refused = run_cli(
                "sweep", *self.GRID, "--queue-url", url, "--workers", "2",
            )
            assert refused.returncode == 2
            assert "--resume" in refused.stderr
        finally:
            server.terminate()
            server.wait(timeout=20)
        a, b = json.loads(net.stdout), json.loads(serial.stdout)
        assert a["jobs"] == a["completed"] == 2 and not a["failed"]
        for key in ("curves", "bd_rate"):
            assert json.dumps(a[key], sort_keys=True) == json.dumps(
                b[key], sort_keys=True
            )
        # the HTTP transport wrote through to the durable backend
        assert len(list((queue_dir / "done").glob("*.json"))) == 2

    def test_queue_url_and_queue_dir_are_mutually_exclusive(self):
        result = run_cli(
            "sweep", *self.GRID, "--queue-url", "http://127.0.0.1:1",
            "--queue-dir", "somewhere",
        )
        assert result.returncode == 2
        assert "not both" in result.stderr

    def test_unreachable_queue_url_is_clean_error(self):
        result = run_cli(
            "sweep", *self.GRID, "--queue-url", "http://127.0.0.1:9",
        )
        assert result.returncode == 1
        assert "cannot reach" in result.stderr
        assert "Traceback" not in result.stderr

    def test_worker_drains_directory_queue(self, tmp_path):
        from repro.pipeline.dist import DirectoryJobQueue, job_id_for_spec
        from repro.pipeline.dse import dse_grid
        from repro.pipeline.tasks import normalize_spec

        queue = DirectoryJobQueue(tmp_path / "wq")
        specs = [
            normalize_spec(spec)
            for spec in dse_grid("geometry", values=((6, 6), (12, 12)))
        ]
        for index, spec in enumerate(specs):
            queue.submit(spec, job_id=job_id_for_spec(index, spec))
        result = run_cli("worker", "--queue-dir", str(tmp_path / "wq"))
        assert result.returncode == 0, result.stderr[-2000:]
        assert "completed 2 job(s)" in result.stdout
        assert queue.stats().done == 2

    def test_worker_requires_exactly_one_queue_flag(self):
        neither = run_cli("worker")
        assert neither.returncode == 2
        assert "exactly one" in neither.stderr
        both = run_cli(
            "worker", "--queue-url", "http://127.0.0.1:1",
            "--queue-dir", "somewhere",
        )
        assert both.returncode == 2


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "sparse_codesign.py",
            "hardware_walkthrough.py",
            "streaming.py",
            "sweep_rd_curves.py",
            "dse_pareto.py",
            "network_sweep.py",
        ],
    )
    def test_example_runs(self, script):
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=560,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout  # produced a report

    def test_reproduce_paper_fast(self, tmp_path):
        out = tmp_path / "paper.txt"
        result = subprocess.run(
            [
                sys.executable,
                str(REPO / "examples" / "reproduce_paper.py"),
                "-o",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "BDBR" in out.read_text()
