"""The contract every plugin registry keeps (``repro._registry``), and the
warm worker cache following a replaced codec registration."""

from __future__ import annotations

import re

import pytest

from repro.codec import (
    CacmBackend,
    ClassicalCodec,
    ClassicalCodecConfig,
    CQPController,
    CTVCConfig,
    CTVCNet,
    EntropyBackendError,
    RateControlError,
    available_entropy_backends,
    available_rate_controllers,
    get_entropy_backend,
    rate_controller_spec,
    register_entropy_backend,
    register_rate_controller,
    unregister_entropy_backend,
    unregister_rate_controller,
)
from repro.hw import NVCAConfig
from repro.pipeline import (
    CodecRegistryError,
    NVCAModel,
    PlatformRegistryError,
    TaskRegistryError,
    available_codecs,
    available_platforms,
    available_tasks,
    codec_spec,
    create_codec,
    platform_entry,
    register_codec,
    register_platform,
    register_task,
    run_many,
    task_kind,
    unregister_codec,
    unregister_platform,
    unregister_task,
)
from repro.pipeline.tasks import WorkerContext, reset_worker_context


def _identity(document):
    return document


#: registry -> (what its messages call an entry, error class,
#: register(name, overwrite) -> entry, unregister, available, lookup)
REGISTRIES = {
    "codecs": (
        "codec",
        CodecRegistryError,
        lambda name, overwrite=False: register_codec(
            name, ClassicalCodec, ClassicalCodecConfig, overwrite=overwrite
        ),
        unregister_codec,
        available_codecs,
        codec_spec,
    ),
    "platforms": (
        "platform",
        PlatformRegistryError,
        lambda name, overwrite=False: register_platform(
            name, NVCAModel, NVCAConfig, overwrite=overwrite
        ),
        unregister_platform,
        available_platforms,
        platform_entry,
    ),
    "tasks": (
        "task kind",
        TaskRegistryError,
        lambda name, overwrite=False: register_task(
            name, normalize=_identity, execute=_identity, hydrate=_identity,
            overwrite=overwrite,
        ),
        unregister_task,
        available_tasks,
        task_kind,
    ),
    "rate controllers": (
        "rate controller",
        RateControlError,
        lambda name, overwrite=False: register_rate_controller(
            name, CQPController, overwrite=overwrite
        ),
        unregister_rate_controller,
        available_rate_controllers,
        rate_controller_spec,
    ),
    "entropy backends": (
        "entropy backend",
        EntropyBackendError,
        lambda name, overwrite=False: register_entropy_backend(
            name, CacmBackend(), overwrite=overwrite
        ),
        unregister_entropy_backend,
        available_entropy_backends,
        get_entropy_backend,
    ),
}


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_registry_contract(registry):
    what, error, register, unregister, available, lookup = REGISTRIES[registry]
    name = "contract-probe"
    with pytest.raises(error, match="non-empty string"):
        register("")
    first = register(name)
    try:
        assert lookup(name) is first
        with pytest.raises(error, match="already registered"):
            register(name)
        assert lookup(name) is first
        second = register(name, overwrite=True)
        assert second is not first and lookup(name) is second
    finally:
        unregister(name)
    assert name not in available()
    unregister(name)  # removing a missing name is no error
    names = available()
    assert names == sorted(names) and names
    with pytest.raises(error) as caught:
        lookup(name)
    assert str(caught.value) == (
        f"unknown {what} {name!r}; available: {', '.join(names)}"
    )


# -- the warm cache and a replaced registration ------------------------------
class _ProbeA(ClassicalCodec):
    pass


class _ProbeB(ClassicalCodec):
    pass


def test_warm_cache_serves_the_current_registration():
    """``run_many`` inline reuses codecs through the worker context; a
    name registered again with ``overwrite=True`` must run the new
    factory there too, as ``create_codec`` does."""
    built = []

    def factory(cls):
        def make(config):
            built.append(cls)
            return cls(config)

        return make

    grid = dict(
        codecs=["probe"],
        codec_configs=[{"qp": 8.0}],
        scenes=[dict(height=32, width=48, frames=2)],
    )
    reset_worker_context()
    register_codec("probe", factory(_ProbeA), ClassicalCodecConfig)
    try:
        first = run_many(**grid)
        register_codec(
            "probe", factory(_ProbeB), ClassicalCodecConfig, overwrite=True
        )
        assert isinstance(create_codec("probe"), _ProbeB)
        second = run_many(**grid)
    finally:
        unregister_codec("probe")
        reset_worker_context()
    assert built == [_ProbeA, _ProbeB, _ProbeB]
    assert first[0].bpp == second[0].bpp  # same codec behaviour, new factory


class _NetA(CTVCNet):
    pass


class _NetB(CTVCNet):
    pass


def test_weights_donor_comes_from_the_current_registration():
    context = WorkerContext()
    register_codec("probe-net", _NetA, CTVCConfig)
    try:
        old = context.codec("probe-net", {"channels": 4, "qstep": 8.0})
        assert type(old) is _NetA
        register_codec("probe-net", _NetB, CTVCConfig, overwrite=True)
        new = context.codec("probe-net", {"channels": 4, "qstep": 16.0})
        assert type(new) is _NetB
        assert new.motion_compression is not old.motion_compression
        # a cached codec of the old registration is no hit either
        again = context.codec("probe-net", {"channels": 4, "qstep": 8.0})
        assert type(again) is _NetB and again is not old
        assert again.motion_compression is new.motion_compression
    finally:
        unregister_codec("probe-net")


def test_unknown_grid_names_are_one_error():
    with pytest.raises(CodecRegistryError) as caught:
        run_many(codecs=["classical", "zz", "aa"])
    assert re.search(r"unknown codec name\(s\) in grid: 'aa', 'zz'; available: ",
                     str(caught.value))
