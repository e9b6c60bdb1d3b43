"""Round-trip parity goldens: every path that encodes, writes the
container, reads it back, decodes and scores must keep its outputs.

Covered: ``Pipeline.run()`` reports (classical and CTVC, both entropy
backends, one rate-controlled config), a streamed ``session.run`` to a
file (report and container sha256), ``repro encode --stream --input`` and
``repro decode --json`` (streamed, transcoded and version-2 containers),
and the measured numbers of the evaluation harness at small sizes.
Wall-clock fields (``*_seconds``) and temporary paths are dropped before
comparing; floats match to 1e-9, everything else exactly.  Every CTVC-Net
run is pinned to the float64 ``reference`` substrate, whose bytes these
goldens prove; ``tests/test_substrate.py`` bounds ``fast`` against it.

Regenerate the goldens (only for a deliberate, named output change):

    PYTHONPATH=src python tests/test_roundtrip_parity.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.codec import ClassicalCodec, ClassicalCodecConfig
from repro.eval.ablations import (
    attention_ablation,
    gop_size_ablation,
    sparsity_sweep,
)
from repro.eval.fig8 import measured_rd_curve
from repro.eval.table1 import measured_variant_deltas
from repro.pipeline import Pipeline
from repro.pipeline.registry import codec_spec, register_codec
from repro.video import SceneConfig, generate_sequence, write_yuv420

from legacy_container import legacy_bytes

GOLDEN = Path(__file__).with_name("golden_roundtrip.json")
SCENE = {"height": 32, "width": 48, "frames": 3}
#: temporary paths that land in CLI reports
PATH_FIELDS = ("bitstream", "container", "input", "output")


def _clean(value):
    """Drop wall-clock and temporary-path fields, recursively."""
    if isinstance(value, dict):
        return {
            key: _clean(item)
            for key, item in value.items()
            if not key.endswith("_seconds") and key not in PATH_FIELDS
        }
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return value


def _pipeline_reports() -> dict:
    runs = {}
    for backend in ("rans", "cacm"):
        runs[f"classical-{backend}"] = Pipeline(
            "classical", {"qp": 12.0, "entropy_backend": backend}, scene=SCENE
        )
        runs[f"ctvc-{backend}"] = Pipeline(
            "ctvc",
            {
                "channels": 8, "qstep": 8.0, "entropy_backend": backend,
                "substrate": "reference",
            },
            scene=SCENE,
            compute_msssim=True,
        )
    runs["classical-abr"] = Pipeline(
        "classical",
        {"qp": 12.0, "rate_control": "abr", "target_kbps": 40.0},
        scene=SCENE,
    )
    return {name: _clean(pipe.run().to_dict()) for name, pipe in runs.items()}


def _streamed_run(tmp: Path) -> dict:
    path = tmp / "session.nvca"
    report = Pipeline("classical", {"qp": 12.0}, scene=SCENE).session().run(
        output=str(path)
    )
    return {
        "report": _clean(report.to_dict()),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def _cli_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return _clean(json.loads(out.getvalue()))


def _cli_round_trips(tmp: Path) -> dict:
    out = {}
    streamed = tmp / "cli.nvca"
    encoded = _cli_json(
        "encode", "--stream", "--codec", "classical", "--qp", "16",
        "--height", "32", "--width", "48", "--frames", "3",
        "--output", str(streamed), "--json",
    )
    out["encode_stream"] = encoded
    out["decode_stream"] = _cli_json("decode", str(streamed), "--json")

    source = tmp / "src.yuv"
    write_yuv420(str(source), generate_sequence(SceneConfig(**SCENE, seed=4)))
    transcoded = tmp / "yuv.nvca"
    out["encode_input"] = _cli_json(
        "encode", "--stream", "--codec", "classical", "--qp", "12",
        "--input", str(source), "--height", "32", "--width", "48",
        "--output", str(transcoded), "--json",
    )
    out["encode_input_sha256"] = hashlib.sha256(
        transcoded.read_bytes()
    ).hexdigest()
    out["decode_input"] = _cli_json(
        "decode", str(transcoded), "--reference", str(source), "--json",
    )

    codec = ClassicalCodec(ClassicalCodecConfig(qp=16.0, gop=2))
    frames = generate_sequence(SceneConfig(**SCENE))
    stream = codec.encode_sequence(frames)
    legacy = tmp / "v2.nvca"
    legacy.write_bytes(legacy_bytes(stream.header, stream.packets, 2))
    reference = tmp / "ref.yuv"
    write_yuv420(str(reference), frames)
    out["decode_v2"] = _cli_json(
        "decode", str(legacy), "--reference", str(reference), "--json",
    )
    return out


@contextlib.contextmanager
def _reference_ctvc():
    """Build every registry CTVC-Net at the float64 ``reference``
    substrate, so the eval harness (which takes no substrate) runs the
    tier whose outputs these goldens pin."""
    spec = codec_spec("ctvc")

    def reference(config):
        return spec.factory(config.replace(substrate="reference"))

    register_codec(
        "ctvc", reference, spec.config_cls, spec.description, overwrite=True
    )
    try:
        yield
    finally:
        register_codec(
            "ctvc", spec.factory, spec.config_cls, spec.description,
            overwrite=True,
        )


def _eval_outputs() -> dict:
    with _reference_ctvc():
        return _clean({
            "sparsity_sweep": [
                dataclasses.asdict(point)
                for point in sparsity_sweep(rhos=(0.0, 0.5), channels=4, frames=2)
            ],
            "gop_size_ablation": gop_size_ablation(
                gops=(2, 4), channels=4, frames=4
            ),
            "attention_ablation": attention_ablation(channels=4, frames=2),
            "rd_classical_psnr": dataclasses.asdict(
                measured_rd_curve("classical", qps=(8.0, 16.0), frames=2)
            ),
            "rd_ctvc_msssim": dataclasses.asdict(
                measured_rd_curve(
                    "ctvc", metric="ms-ssim", qps=(8.0,), channels=4, frames=2,
                    variant="fxp",
                )
            ),
            "table1_deltas": measured_variant_deltas(
                channels=4, frames=2, size=(32, 48)
            ),
        })


def _assert_matches(actual, expected, where="golden"):
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9), (
            where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), (
            where, sorted(actual), sorted(expected))
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            where, actual, expected)
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{index}]")
    else:
        assert actual == expected, (where, actual, expected)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pipeline_reports(golden):
    _assert_matches(
        json.loads(json.dumps(_pipeline_reports())), golden["pipeline"],
        "pipeline",
    )


def test_streamed_session_run(golden, tmp_path):
    _assert_matches(
        json.loads(json.dumps(_streamed_run(tmp_path))), golden["streamed"],
        "streamed",
    )


def test_cli_round_trips(golden, tmp_path):
    _assert_matches(_cli_round_trips(tmp_path), golden["cli"], "cli")


def test_eval_outputs(golden):
    _assert_matches(
        json.loads(json.dumps(_eval_outputs())), golden["eval"], "eval"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        document = {
            "pipeline": _pipeline_reports(),
            "streamed": _streamed_run(Path(tmp)),
            "cli": _cli_round_trips(Path(tmp)),
            "eval": _eval_outputs(),
        }
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
