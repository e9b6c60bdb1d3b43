"""Import policy: package names resolve on first use (``repro._lazy``),
heavy SciPy modules load where they are called, and the queue daemon and
the light CLI commands never import NumPy.

The graph is checked through ``sys.modules`` in fresh interpreters, so
nothing here depends on timing.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = [
    "repro",
    "repro.codec",
    "repro.core",
    "repro.hw",
    "repro.metrics",
    "repro.pipeline",
    "repro.pipeline.dist",
]


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it leaves a ``result`` that
    is printed as JSON on the last line of standard output."""
    script = textwrap.dedent(code) + "\nimport json\nprint(json.dumps(result))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- the import graph --------------------------------------------------


@pytest.mark.parametrize("queue_dir", [False, True])
def test_serve_loads_no_numpy(tmp_path, queue_dir):
    """``repro serve`` up to "serving on" and through one supervision
    step of its autoscaled fleet, then a clean Ctrl-C."""
    extra = ["--queue-dir", str(tmp_path / "q")] if queue_dir else []
    result = _fresh(f"""
        import contextlib, io, sys, time
        from repro.__main__ import main

        def interrupt(seconds):
            raise KeyboardInterrupt

        time.sleep = interrupt  # the supervision loop's first nap ends it
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["serve", "--host", "127.0.0.1", "--port", "0",
                         "--autoscale", "--max-workers", "1"] + {extra!r})
        result = [code, out.getvalue().startswith("serving on http://"),
                  "numpy" in sys.modules]
    """)
    assert result == [0, True, False]


def test_queue_clients_load_no_numpy():
    """``repro worker`` on a drained queue, ``failures`` and ``retry``
    against a live daemon: none of them touches a codec."""
    result = _fresh("""
        import contextlib, io, sys
        from repro.__main__ import main
        from repro.pipeline.dist import MemoryJobQueue, QueueServer

        server = QueueServer(MemoryJobQueue(), host="127.0.0.1", port=0)
        server.start()
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["worker"], ["failures"], ["retry", "--all"]):
                codes.append(main(argv + ["--queue-url", server.url]))
        server.stop()
        result = [codes, "numpy" in sys.modules]
    """)
    assert result == [[0, 0, 0], False]


@pytest.mark.parametrize(
    "argv", [["--version"], ["trace", "--help"], ["failures", "--help"]]
)
def test_light_cli_commands_load_no_numpy(argv):
    result = _fresh(f"""
        import contextlib, io, runpy, sys
        sys.argv = ["repro"] + {argv!r}
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        result = [code, "numpy" in sys.modules]
    """)
    assert result == [0, False]


def test_queue_package_loads_no_numpy():
    result = _fresh("""
        import sys
        import repro.pipeline.dist
        from repro.pipeline.dist import HttpJobQueue, QueueServer, WorkerFleet
        result = "numpy" in sys.modules
    """)
    assert result is False


@pytest.mark.parametrize(
    "code",
    [
        "import repro.codec",
        "import repro.video",
        # building both codecs pulls the whole codec stack, scipy.fft
        # included, but still neither module below
        "from repro.pipeline import create_codec; "
        "create_codec('ctvc', channels=8); create_codec('classical')",
    ],
)
def test_codec_stack_defers_interpolate_and_ndimage(code):
    result = _fresh(f"""
        import sys
        {code}
        result = [m in sys.modules for m in ("scipy.interpolate", "scipy.ndimage")]
    """)
    assert result == [False, False]


# -- lazy exports --------------------------------------------------------


def _defined_by(package, export: str, value) -> bool:
    """``value`` is the object the package's defining submodule binds."""
    owner = getattr(value, "__module__", None)
    if isinstance(owner, str) and owner.startswith("repro."):
        # classes and functions: the module that defines them
        return sys.modules[owner].__dict__.get(export) is value
    # constants: some submodule of the package binds this object
    prefix = package.__name__ + "."
    return any(
        module.__dict__.get(export) is value
        for modname, module in list(sys.modules.items())
        if modname.startswith(prefix)
    )


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_exports_are_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    exports = [export for export in package.__all__ if export != "__version__"]
    assert exports
    for export in exports:
        assert _defined_by(package, export, getattr(package, export)), export
        assert export in vars(package), export  # cached after first use
        # an export never shares its name with a submodule, which would
        # shadow it once the submodule is imported
        assert importlib.util.find_spec(f"{name}.{export}") is None, export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_protocol(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    assert len(package.__all__) == len(set(package.__all__))
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_submodules_resolve_as_attributes():
    result = _fresh("""
        import repro
        result = [
            repro.codec.rans.RansBackend.__module__,
            repro.pipeline.dist.net.QueueServer.__module__,
            hasattr(repro, "no_such_module"),
        ]
    """)
    assert result == ["repro.codec.rans", "repro.pipeline.dist.net", False]


REGISTRIES = {
    "codecs": ["classical", "ctvc", "rd-model"],
    "tasks": ["dse-point", "encode", "hardware", "ladder-rendition"],
    "platforms": ["alchemist", "cpu-i9-9900x", "gpu-rtx3090", "nvca",
                  "shao-tcas22"],
    "entropy": ["cacm", "rans"],
}


@pytest.mark.parametrize(
    "first",
    [
        "repro",
        "repro.codec",
        "repro.codec.entropy",
        "repro.codec.rans",
        "repro.pipeline.registry",
        "repro.pipeline.tasks",
        "repro.pipeline.platforms",
        "repro.pipeline.dist.worker",
    ],
)
def test_registries_fill_whichever_module_comes_first(first):
    result = _fresh(f"""
        import {first}
        import repro.pipeline as p
        result = dict(
            codecs=p.available_codecs(), tasks=p.available_tasks(),
            platforms=p.available_platforms(),
            entropy=p.available_entropy_backends(),
        )
    """)
    assert result == REGISTRIES


# -- the submitting side -------------------------------------------------

#: ``repro sweep``'s default grid, as ``_cmd_sweep`` builds it
_DEFAULT_SWEEP = """
    GRID = dict(
        codecs=["classical", "ctvc"],
        codec_configs=[{"qstep": qp, "qp": qp} for qp in (8.0, 16.0)],
        scenes=[{"height": 64, "width": 96, "frames": 4, "seed": 0}],
        anchor="classical",
    )
"""


@pytest.mark.parametrize("transport", ["memory", "http"])
def test_submit_loads_no_numpy(transport):
    """Building the default sweep grid and submitting it loads neither
    NumPy nor SciPy: configs, scenes and codec names validate without
    the codec stack."""
    result = _fresh(_DEFAULT_SWEEP + f"""
    import sys
    from repro.pipeline import SweepRunner
    from repro.pipeline.dist import HttpJobQueue, MemoryJobQueue, QueueServer

    server = None
    queue = MemoryJobQueue()
    if {transport!r} == "http":
        server = QueueServer(queue, host="127.0.0.1", port=0)
        server.start()
        queue = HttpJobQueue(server.url)
    ids = SweepRunner(**GRID, queue=queue, share_frames=False).submit()
    stats = queue.stats()
    if server is not None:
        queue.close()
        server.stop()
    result = [len(ids), stats.pending,
              [m in sys.modules for m in ("numpy", "scipy")]]
    """)
    assert result == [4, 4, [False, False]]


def test_registry_listings_load_no_numpy():
    result = _fresh("""
        import sys
        from repro.codec import CTVCConfig, available_entropy_backends
        from repro.pipeline import available_codecs

        errors = []
        for bad in (dict(entropy_backend="huffman"), dict(substrate="exact")):
            try:
                CTVCConfig(**bad)
            except ValueError as exc:
                errors.append(str(exc))
        result = [available_codecs(), available_entropy_backends(), errors,
                  [m in sys.modules for m in ("numpy", "scipy")]]
    """)
    assert result == [
        ["classical", "ctvc", "rd-model"],
        ["cacm", "rans"],
        [
            "unknown entropy backend 'huffman'; available: cacm, rans",
            "unknown substrate 'exact'; available: fast, reference",
        ],
        [False, False],
    ]


def test_shared_frames_submit_renders_and_publishes():
    """With ``share_frames=True`` the submitter still renders each
    distinct scene once and ships it as a shared-memory segment."""
    result = _fresh(_DEFAULT_SWEEP + """
    import sys
    from repro.pipeline import SweepRunner
    from repro.pipeline.dist import MemoryJobQueue

    queue = MemoryJobQueue()
    runner = SweepRunner(**GRID, queue=queue, share_frames=True)
    runner.submit()
    jobs = queue.claim_batch("probe", lease_seconds=60.0, limit=10)
    segments = {job.spec["frames_shm"]["name"] for job in jobs}
    released = runner.release_shared_frames()
    result = [len(jobs), len(segments), released, "numpy" in sys.modules,
              [name for name in ("scipy", "repro.nn", "repro.codec.ctvc")
               if name in sys.modules]]
    """)
    assert result == [4, 1, 1, True, []]


#: ``repro sweep``'s grid as perfbench's ``sweep_fleet`` runs it (four
#: scenes, seed 1): job ids, and the SHA-256 of the specs' JSON in
#: submission order, as the pre-lazy facade built them
FLEET_JOB_IDS = [
    "00000-21edf25138", "00001-7f57bc6a22", "00002-cc07f495a0",
    "00003-082fce6378", "00004-3405227ad2", "00005-6fe1821209",
    "00006-8a05167894", "00007-eee4ae5293", "00008-6d201e3c8d",
    "00009-4110f9c338", "00010-e2f09ea091", "00011-7966fd6686",
    "00012-3adfde2e97", "00013-eb7067e904", "00014-3fdd4587e7",
    "00015-0be6991e46",
]
FLEET_SPECS_SHA256 = (
    "522315f71e30c71a3db8faca154f3d79f902025badefd27dd3d111576f4988e1"
)


def test_fleet_grid_specs_are_pinned():
    import hashlib

    from repro.pipeline import Pipeline, build_jobs
    from repro.pipeline.dist import job_id_for_spec

    grid = dict(
        codecs=["classical", "ctvc"],
        codec_configs=[{"qstep": qp, "qp": qp} for qp in (8.0, 16.0)],
        scenes=[
            {"height": 64, "width": 96, "frames": 4, "seed": seed}
            for seed in range(4, 8)
        ],
    )
    specs = build_jobs(**grid)
    assert [job_id_for_spec(i, s) for i, s in enumerate(specs)] == FLEET_JOB_IDS
    digest = hashlib.sha256(json.dumps(specs).encode()).hexdigest()
    assert digest == FLEET_SPECS_SHA256
    # the facade's own documents are the same bytes
    pipelines = [Pipeline(s["codec"], s["codec_config"], s["scene"]) for s in specs]
    assert build_jobs(pipelines) == specs


def test_config_validation_without_numpy_types():
    """Configs check fields with ``numbers``, which NumPy's integer
    types register with; the substrate names match the dtype map."""
    import numpy as np

    from repro.codec import ClassicalCodecConfig
    from repro.codec.configs import SUBSTRATE_NAMES
    from repro.codec.ctvc import SUBSTRATES

    assert ClassicalCodecConfig(block_size=np.int64(8)).block_size == 8
    for bad in (np.float64(8.0), True):
        with pytest.raises(ValueError, match="block_size must be an int"):
            ClassicalCodecConfig(block_size=bad)
    assert sorted(SUBSTRATES) == list(SUBSTRATE_NAMES)
