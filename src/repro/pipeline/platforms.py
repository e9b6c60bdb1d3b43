"""String-keyed platform registry: hardware analysis as named plugins.

The hardware mirror of :mod:`repro.pipeline.registry`: callers name an
accelerator platform (``"nvca"``, ``"gpu-rtx3090"``) instead of
hand-wiring model functions, and every facade/CLI/sweep path — the
``"hardware"`` and ``"dse-point"`` task kinds of
:mod:`repro.pipeline.tasks`, ``repro hardware --platform``, Table II —
resolves the same registry.  This is the fourth seam mapped in
``docs/architecture.md``.

Two kinds of platform satisfy the :class:`AcceleratorModel` protocol:

* :class:`NVCAModel` (``"nvca"``) — the paper's accelerator, analyzed
  end to end by the :mod:`repro.hw` performance/traffic/energy/area
  models from a serializable :class:`~repro.hw.NVCAConfig`.
* :class:`ReferencePlatform` — the published Table II comparison
  columns (``"cpu-i9-9900x"``, ``"gpu-rtx3090"``, ``"shao-tcas22"``,
  ``"alchemist"``), adapted from :class:`~repro.hw.PlatformSpec`
  constants; their :class:`ReferencePlatformConfig` exposes a
  ``technology_nm`` knob for first-order node scaling (the paper's
  dagger note).

>>> from repro.pipeline import available_platforms, create_platform
>>> available_platforms()
['alchemist', 'cpu-i9-9900x', 'gpu-rtx3090', 'nvca', 'shao-tcas22']
>>> create_platform("nvca", pif=6, pof=6).config.num_scus
36
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from repro._registry import Registry
from repro.codec import decoder_graph
from repro.hw import (
    NVCAConfig,
    PlatformSpec,
    evaluate_point,
    nvca_spec,
    roll_up,
    scale_platform,
)
from repro.hw.dse import DesignPoint
from repro.hw.platforms import REFERENCE_PLATFORM_SPECS
from repro.serialization import SerializableConfig

from .reports import HardwareReport, PlatformReport

__all__ = [
    "AcceleratorModel",
    "NVCAModel",
    "PlatformEntry",
    "PlatformRegistryError",
    "ReferencePlatform",
    "ReferencePlatformConfig",
    "available_platforms",
    "create_platform",
    "platform_entry",
    "register_platform",
    "unregister_platform",
]


class PlatformRegistryError(ValueError):
    """Registration conflict or unknown-platform lookup."""


@runtime_checkable
class AcceleratorModel(Protocol):
    """What the pipeline requires of a platform.

    ``analyze(height, width)`` produces the Table-II-shaped
    :class:`~repro.pipeline.reports.PlatformReport` for the decoder
    workload at one resolution; modeled platforms attach the full
    :class:`~repro.pipeline.reports.HardwareReport` as
    ``report.hardware``, references analyze to their published
    constants.  ``config`` must be a
    :class:`~repro.serialization.SerializableConfig` so platform jobs
    travel as JSON documents like codec jobs do.
    """

    config: Any

    def analyze(self, height: int, width: int) -> PlatformReport:
        ...


@dataclass(frozen=True)
class PlatformEntry:
    """One registry entry: how to build a platform and its config."""

    name: str
    factory: Callable[..., AcceleratorModel]
    config_cls: type[SerializableConfig]
    description: str = ""


_PLATFORMS = Registry("platform", PlatformRegistryError)


def register_platform(
    name: str,
    factory: Callable[..., AcceleratorModel],
    config_cls: type[SerializableConfig],
    description: str = "",
    *,
    overwrite: bool = False,
) -> PlatformEntry:
    """Register a platform under ``name``.

    ``factory(config)`` must return an :class:`AcceleratorModel`;
    ``config_cls`` must round-trip through dict/JSON.  Re-registering
    an existing name raises unless ``overwrite=True`` — same contract
    as :func:`repro.pipeline.register_codec`.
    """
    return _PLATFORMS.add(
        name,
        PlatformEntry(name, factory, config_cls, description),
        overwrite=overwrite,
    )


def unregister_platform(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _PLATFORMS.remove(name)


def available_platforms() -> list[str]:
    """Sorted names of every registered platform."""
    return _PLATFORMS.names()


def platform_entry(name: str) -> PlatformEntry:
    """Look up a registry entry, with a helpful unknown-name error."""
    return _PLATFORMS.get(name)


def create_platform(
    name: str,
    config: SerializableConfig | dict | None = None,
    **overrides,
) -> AcceleratorModel:
    """Instantiate a registered platform.

    Same three calling styles as :func:`repro.pipeline.create_codec`:
    a ready config instance, a dict (validated through the config
    class), or ``None`` for defaults — keyword overrides apply on top
    in all cases.
    """
    return platform_entry(name).factory(_PLATFORMS.config(name, config, **overrides))


class NVCAModel:
    """The paper's accelerator, analyzed by the :mod:`repro.hw` models.

    One instance wraps one :class:`~repro.hw.NVCAConfig` operating
    point.  ``analyze()`` rolls the decoder workload at a resolution
    through scheduling, chaining traffic, energy, and area;
    ``design_point()`` is the compact DSE projection of the same
    roll-up (what ``"dse-point"`` queue jobs execute).
    """

    platform_name = "nvca"

    def __init__(self, config: NVCAConfig | None = None):
        self.config = config or NVCAConfig()

    def roll_up(self, height: int, width: int):
        """The decoder graph at one resolution, then its four model
        reports (:func:`repro.hw.roll_up`: performance, traffic,
        energy, area)."""
        graph = decoder_graph(height, width, self.config.channels)
        return (graph, *roll_up(graph, self.config))

    def hardware_report(self, height: int, width: int) -> HardwareReport:
        """Full NVCA roll-up (perf + traffic + energy + area) — the
        payload behind :func:`repro.pipeline.analyze_hardware`."""
        config = self.config
        graph, perf, traffic, energy, area = self.roll_up(height, width)
        return HardwareReport(
            graph_name=graph.name,
            height=height,
            width=width,
            nvca_config=config.to_dict(),
            fps=perf.fps,
            frame_time_ms=perf.frame_time_s * 1e3,
            total_cycles=perf.total_cycles,
            sustained_gops=perf.sustained_gops,
            equivalent_gops=perf.equivalent_gops,
            sftc_utilization=perf.sftc_utilization,
            per_module_cycles=dict(perf.per_module_cycles),
            baseline_traffic_gb=traffic.baseline_total / 1e9,
            chained_traffic_gb=traffic.chained_total / 1e9,
            traffic_reduction=traffic.overall_reduction,
            chip_power_w=energy.chip_power_w,
            dram_energy_mj=energy.dram_energy_j * 1e3,
            energy_efficiency_gops_per_w=energy.energy_efficiency_gops_per_w(
                perf.sustained_gops
            ),
            total_mgates=area.total_mgates,
            sram_kbytes=config.on_chip_kbytes(),
        )

    def analyze(self, height: int, width: int) -> PlatformReport:
        hardware = self.hardware_report(height, width)
        spec = nvca_spec(
            sustained_gops=hardware.sustained_gops,
            chip_power_w=hardware.chip_power_w,
            gate_count_m=hardware.total_mgates,
            on_chip_kb=hardware.sram_kbytes,
            frequency_mhz=self.config.frequency_mhz,
        )
        return _spec_to_report(
            self.platform_name, spec, height=height, width=width,
            hardware=hardware,
        )

    def design_point(self, height: int, width: int, label: str) -> DesignPoint:
        """Compact DSE projection of the roll-up at this config."""
        graph = decoder_graph(height, width, self.config.channels)
        return evaluate_point(graph, self.config, label)


@dataclass(frozen=True)
class ReferencePlatformConfig(SerializableConfig):
    """The only knob a published platform has: node projection.

    ``technology_nm`` applies first-order constant-field scaling
    (:func:`repro.hw.scale_platform`) to the published frequency and
    power — the adjustment the paper's Table II marks with a dagger.
    ``None`` keeps the figures as published.
    """

    technology_nm: int | None = None

    def __post_init__(self) -> None:
        if self.technology_nm is not None and self.technology_nm <= 0:
            raise ValueError(
                f"technology_nm must be positive, got {self.technology_nm}"
            )


class ReferencePlatform:
    """Adapter putting a published :class:`~repro.hw.PlatformSpec`
    behind the :class:`AcceleratorModel` protocol.

    ``analyze()`` ignores the workload resolution — the numbers are
    measured constants from the paper's Table II, recorded for
    comparison, not re-derived.
    """

    def __init__(
        self,
        platform_name: str,
        spec: PlatformSpec,
        config: ReferencePlatformConfig | None = None,
    ):
        self.platform_name = platform_name
        self.config = config or ReferencePlatformConfig()
        self.base_spec = spec
        self.spec = (
            scale_platform(spec, self.config.technology_nm)
            if self.config.technology_nm is not None
            else spec
        )

    def analyze(self, height: int, width: int) -> PlatformReport:
        return _spec_to_report(self.platform_name, self.spec)


def _spec_to_report(
    platform: str,
    spec: PlatformSpec,
    *,
    height: int | None = None,
    width: int | None = None,
    hardware: HardwareReport | None = None,
) -> PlatformReport:
    return PlatformReport(
        platform=platform,
        name=spec.name,
        year=spec.year,
        task=spec.task,
        benchmark=spec.benchmark,
        technology_nm=spec.technology_nm,
        frequency_mhz=spec.frequency_mhz,
        precision=spec.precision,
        power_w=spec.power_w,
        throughput_gops=spec.throughput_gops,
        gate_count_m=spec.gate_count_m,
        on_chip_kb=spec.on_chip_kb,
        scaled_from_nm=spec.scaled_from_nm,
        height=height,
        width=width,
        hardware=hardware,
    )


def _reference_factory(name: str, spec: PlatformSpec):
    def factory(config: ReferencePlatformConfig | None = None):
        return ReferencePlatform(name, spec, config)

    return factory


# -- built-in registrations -------------------------------------------------
register_platform(
    "nvca",
    NVCAModel,
    NVCAConfig,
    "the paper's NVCA accelerator, analyzed by the repro.hw models",
)
for _name, _spec in REFERENCE_PLATFORM_SPECS.items():
    register_platform(
        _name,
        _reference_factory(_name, _spec),
        ReferencePlatformConfig,
        f"published Table II reference: {_spec.name}",
    )
del _name, _spec
