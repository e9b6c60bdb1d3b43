"""One set of CTVC-Net weights per architecture.

A CTVC-Net's modules are built from its architecture fields alone, so
codecs whose configs differ only in coding fields (qstep, substrate,
entropy backend, ...) can share them: ``CTVCNet.with_config`` builds
one around another's nets, and the warm :class:`WorkerContext` does so
on every CTVC cache miss.  These tests pin that sharing changes no
byte of any result, that it never crosses architectures, and that
quantizing or pruning one codec never reaches another.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.codec import CTVCConfig, CTVCNet
from repro.obs.metrics import get_registry
from repro.pipeline import Pipeline
from repro.pipeline.dist import SweepRunner
from repro.pipeline.tasks import WorkerContext, reset_worker_context
from repro.video import SceneConfig, generate_sequence

SCENE = {"height": 32, "width": 48, "frames": 2}
#: 3 qsteps x 2 substrates of one architecture
GRID = [
    {"channels": 8, "qstep": qstep, "substrate": substrate}
    for qstep in (4.0, 8.0, 16.0)
    for substrate in ("reference", "fast")
]


def _weights(outcome: str) -> float:
    return get_registry().counter("repro_warm_cache_total").value(
        resource="weights", outcome=outcome
    )


def _timeless(report: dict) -> str:
    return json.dumps(
        {k: v for k, v in report.items() if not k.endswith("_seconds")},
        sort_keys=True,
    )


def test_every_config_field_is_classified():
    """A new ``CTVCConfig`` field fails here until it is named as
    architecture (the nets read it) or coding (they never do)."""
    names = [field.name for field in dataclasses.fields(CTVCConfig)]
    arch, coding = CTVCConfig.ARCHITECTURE_FIELDS, CTVCConfig.CODING_FIELDS
    assert not set(arch) & set(coding)
    assert sorted(names) == sorted(arch + coding)
    assert sorted(CTVCConfig().architecture()) == sorted(arch)


class TestWithConfig:
    @pytest.fixture(scope="class")
    def frames(self):
        return generate_sequence(SceneConfig(**SCENE, seed=2))

    @pytest.mark.parametrize(
        "coding",
        [
            {"qstep": 16.0},
            {"qstep": 4.0, "substrate": "reference"},
            {"entropy_backend": "cacm", "gop": 1, "intra_qp": 12.0},
            {"rate_control": "abr", "target_kbps": 200.0, "fps": 25.0},
        ],
    )
    def test_streams_match_a_fresh_net(self, frames, coding):
        base = CTVCNet(CTVCConfig(channels=8))
        config = CTVCConfig(channels=8, **coding)
        twin = base.with_config(config)
        assert twin.config is config
        for name in CTVCNet.NETS:
            assert getattr(twin, name) is getattr(base, name)
        assert twin.intra_codec is not base.intra_codec
        stream = twin.encode_sequence(frames)
        assert stream.serialize() == CTVCNet(config).encode_sequence(frames).serialize()
        # the donor still codes its own config, untouched by the twin's
        assert (
            base.encode_sequence(frames).serialize()
            == CTVCNet(CTVCConfig(channels=8)).encode_sequence(frames).serialize()
        )

    def test_architecture_change_is_refused(self):
        base = CTVCNet(CTVCConfig(channels=8))
        with pytest.raises(ValueError, match="block_size, seed"):
            base.with_config(CTVCConfig(channels=8, seed=1, block_size=4))

    @pytest.mark.parametrize("variant", ["apply_sparse", "apply_fxp"])
    def test_changing_one_codecs_nets_leaves_the_others(self, frames, variant):
        base = CTVCNet(CTVCConfig(channels=8))
        twin = base.with_config(CTVCConfig(channels=8, qstep=16.0))
        stream = twin.encode_sequence(frames)
        before = twin.decode_sequence(stream)
        getattr(base, variant)()
        assert base.variant != "fp" and twin.variant == "fp"
        assert base.motion_compression is not twin.motion_compression
        after = twin.decode_sequence(stream)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert twin.encode_sequence(frames).serialize() == stream.serialize()
        # and the other way round: the twin's own change copies too
        third = twin.with_config(CTVCConfig(channels=8, qstep=8.0))
        getattr(twin, variant)()
        assert third.motion_compression is not twin.motion_compression
        assert third.variant == "fp"


class TestWorkerContextSharing:
    def test_coding_configs_share_nets_architectures_do_not(self):
        context = WorkerContext()
        hits, misses = _weights("hit"), _weights("miss")
        fine = context.codec("ctvc", {"channels": 8, "qstep": 8.0})
        coarse = context.codec(
            "ctvc", {"channels": 8, "qstep": 16.0, "substrate": "reference"}
        )
        wider = context.codec("ctvc", {"channels": 12, "qstep": 8.0})
        assert coarse is not fine
        assert coarse.motion_compression is fine.motion_compression
        assert wider.motion_compression is not fine.motion_compression
        assert coarse.config.qstep == 16.0 and coarse.config.substrate == "reference"
        assert (_weights("hit") - hits, _weights("miss") - misses) == (1, 2)
        # a codec hit builds nothing, so counts no weights
        assert context.codec("ctvc", {"channels": 8, "qstep": 16.0,
                                      "substrate": "reference"}) is coarse
        assert _weights("hit") - hits == 1
        # codecs without an architecture are not counted
        context.codec("classical", {"qp": 8.0})
        assert (_weights("hit") - hits, _weights("miss") - misses) == (1, 2)
        assert context.stats() == {
            "hits": 1, "misses": 4, "codecs": 4, "scenes": 0,
        }

    def test_sharing_survives_the_donors_eviction(self):
        context = WorkerContext(max_codecs=1)
        first = context.codec("ctvc", {"channels": 8, "qstep": 8.0})
        second = context.codec("ctvc", {"channels": 8, "qstep": 16.0})
        assert second.motion_compression is first.motion_compression
        third = context.codec("ctvc", {"channels": 8, "qstep": 4.0})
        assert third.motion_compression is first.motion_compression
        assert context.stats()["codecs"] == 1


class TestGridParity:
    """A grid of coding configs, drained serially (one warm context
    sharing one set of nets) and by a 2-process fleet, reports byte for
    byte what a fresh net per config reports."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return [
            _timeless(Pipeline("ctvc", config, scene=SCENE).run().to_dict())
            for config in GRID
        ]

    def _reports(self, runner) -> list[str]:
        result = runner.run(poll_seconds=0.02)
        assert not result.failures
        return [_timeless(report.to_dict()) for report in result.reports]

    def test_serial_drain(self, fresh):
        reset_worker_context()
        hits = _weights("hit")
        reports = self._reports(
            SweepRunner(codecs=["ctvc"], codec_configs=GRID, scenes=[SCENE],
                        workers=0)
        )
        assert reports == fresh
        assert _weights("hit") - hits == len(GRID) - 1

    def test_fleet(self, fresh, tmp_path):
        reports = self._reports(
            SweepRunner(codecs=["ctvc"], codec_configs=GRID, scenes=[SCENE],
                        queue_dir=tmp_path / "q", workers=2)
        )
        assert reports == fresh
