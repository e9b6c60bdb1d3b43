"""Design-space exploration over the NVCA architecture.

The paper picks one operating point (Pif = Pof = 12, rho = 50%,
400 MHz).  This module sweeps the axes around it and reports the
quality/cost frontier — the analysis a designer would run to justify
that choice: SCU array geometry (Pif x Pof), sparsity, and clock
frequency, each evaluated through the same performance / energy / area
models that reproduce Table II.

:func:`roll_up` runs one ``(graph, config)`` through those models —
the one chain behind a DSE point, the NVCA platform's hardware report
and Table II column, and the sparsity ablation.
:func:`evaluate_point` is the unit of work: one roll-up projected to a
:class:`DesignPoint`.  :func:`axis_configs` expands one
axis into labelled configs, and the ``sweep_*`` helpers evaluate them
inline; at scale the same points travel as ``"dse-point"``
job specs through the task-typed work queue instead
(:mod:`repro.pipeline.dse` builds the grids, ``repro dse`` runs them —
see ``docs/hardware.md``).  Both paths call :func:`evaluate_point`, so
inline and distributed sweeps are byte-identical by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.layerspec import LayerGraph

from .arch import NVCAConfig
from .area import AreaReport, area_report
from .dataflow import TrafficReport, compare_traffic
from .energy import EnergyReport, energy_report
from .perf import PerformanceReport, analyze_graph

__all__ = [
    "DEFAULT_FREQUENCIES",
    "DEFAULT_GEOMETRIES",
    "DEFAULT_RHOS",
    "DSE_AXES",
    "DesignPoint",
    "axis_configs",
    "evaluate_point",
    "pareto_front",
    "roll_up",
    "sweep_array_geometry",
    "sweep_frequency",
    "sweep_sparsity",
]

#: SCU array geometries (Pif, Pof) bracketing the paper's 12x12 point.
DEFAULT_GEOMETRIES: tuple[tuple[int, int], ...] = (
    (6, 6), (12, 6), (12, 12), (18, 12), (18, 18),
)
#: pruning levels around the paper's rho = 50% point.
DEFAULT_RHOS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
#: clock frequencies (MHz) around the paper's 400 MHz point.
DEFAULT_FREQUENCIES: tuple[float, ...] = (200.0, 400.0, 600.0, 800.0)
#: DSE axis name -> its default values.
DSE_AXES: dict[str, tuple] = {
    "geometry": DEFAULT_GEOMETRIES,
    "sparsity": DEFAULT_RHOS,
    "frequency": DEFAULT_FREQUENCIES,
}


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    A plain-scalar record, so it round-trips through dict/JSON and can
    travel back from distributed ``"dse-point"`` workers the way
    :class:`~repro.pipeline.EncodeReport` documents do.
    """

    label: str
    pif: int
    pof: int
    rho: float
    frequency_mhz: float
    fps: float
    sustained_gops: float
    chip_power_w: float
    gate_count_m: float
    energy_efficiency: float

    @property
    def area_efficiency(self) -> float:
        """GOPS per million gates."""
        return self.sustained_gops / self.gate_count_m

    def to_dict(self) -> dict:
        """JSON-ready document (pure fields; derived properties are
        recomputed on the hydrating side)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        if not isinstance(data, dict):
            raise ValueError(
                f"DesignPoint.from_dict expects a mapping, "
                f"got {type(data).__name__}"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"DesignPoint: unknown field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(fields))}"
            )
        return cls(**data)

    def render(self) -> str:
        """One-line human summary (the row format of ``repro dse``)."""
        return (
            f"{self.label:>14s}  {self.fps:7.1f} FPS  "
            f"{self.sustained_gops:7.0f} GOPS  {self.chip_power_w:6.2f} W  "
            f"{self.gate_count_m:5.2f} Mgates  "
            f"{self.energy_efficiency:7.0f} GOPS/W"
        )


def roll_up(
    graph: LayerGraph, config: NVCAConfig
) -> tuple[PerformanceReport, TrafficReport, EnergyReport, AreaReport]:
    """The four model reports for one decoder graph at one config:
    ``graph`` scheduled on ``config``, and that schedule rolled through
    the traffic, energy and area models."""
    performance = analyze_graph(graph, config)
    traffic = compare_traffic(graph, config)
    energy = energy_report(performance.schedule, traffic, config=config)
    return performance, traffic, energy, area_report(config)


def evaluate_point(
    graph: LayerGraph, config: NVCAConfig, label: str
) -> DesignPoint:
    """Roll one configuration through the perf/energy/area models."""
    performance, _, energy, area = roll_up(graph, config)
    return DesignPoint(
        label=label,
        pif=config.pif,
        pof=config.pof,
        rho=config.rho,
        frequency_mhz=config.frequency_mhz,
        fps=performance.fps,
        sustained_gops=performance.sustained_gops,
        chip_power_w=energy.chip_power_w,
        gate_count_m=area.total_mgates,
        energy_efficiency=energy.energy_efficiency_gops_per_w(
            performance.sustained_gops
        ),
    )


def axis_configs(
    axis: str, values=None, base: NVCAConfig | None = None
) -> list[tuple[str, NVCAConfig]]:
    """``(label, config)`` per value of one axis (``"geometry"``: (pif,
    pof) pairs, ``"sparsity"``: rho, ``"frequency"``: MHz; default: its
    :data:`DSE_AXES` bracket), each perturbing ``base``.  The inline
    ``sweep_*`` helpers and :func:`repro.pipeline.dse_grid` both expand
    here, so their labels and configs match."""
    if axis not in DSE_AXES:
        raise ValueError(
            f"unknown DSE grid {axis!r}; available: {', '.join(sorted(DSE_AXES))}"
        )
    base = base or NVCAConfig()
    points = []
    for value in DSE_AXES[axis] if values is None else values:
        if axis == "geometry":
            pif, pof = map(int, value)
            label, fields = f"{pif}x{pof}", {"pif": pif, "pof": pof}
        elif axis == "sparsity":
            label, fields = f"rho={float(value):.2f}", {"rho": float(value)}
        else:  # frequency
            label, fields = f"{float(value):g}MHz", {"frequency_mhz": float(value)}
        points.append((label, dataclasses.replace(base, **fields)))
    return points


def sweep_array_geometry(
    graph: LayerGraph,
    geometries: tuple[tuple[int, int], ...] = DEFAULT_GEOMETRIES,
    base: NVCAConfig | None = None,
) -> list[DesignPoint]:
    """Sweep the SCU array's channel unrolling (Pif x Pof)."""
    return [
        evaluate_point(graph, config, label)
        for label, config in axis_configs("geometry", geometries, base)
    ]


def sweep_sparsity(
    graph: LayerGraph,
    rhos: tuple[float, ...] = DEFAULT_RHOS,
    base: NVCAConfig | None = None,
) -> list[DesignPoint]:
    """Sweep the pruning level the SCUs are provisioned for."""
    return [
        evaluate_point(graph, config, label)
        for label, config in axis_configs("sparsity", rhos, base)
    ]


def sweep_frequency(
    graph: LayerGraph,
    frequencies: tuple[float, ...] = DEFAULT_FREQUENCIES,
    base: NVCAConfig | None = None,
) -> list[DesignPoint]:
    """Sweep the core clock around the paper's 400 MHz point."""
    return [
        evaluate_point(graph, config, label)
        for label, config in axis_configs("frequency", frequencies, base)
    ]


def pareto_front(
    points: list[DesignPoint],
    maximize: tuple[str, ...] = ("fps", "energy_efficiency"),
) -> list[DesignPoint]:
    """Non-dominated subset under the given maximization objectives.

    Input order is preserved and exact ties are all kept (a point never
    dominates its own duplicate), so the frontier of a distributed
    sweep is byte-identical to the serial one as long as the points
    arrive in submission order.
    """
    front = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            better_or_equal = all(
                getattr(other, axis) >= getattr(candidate, axis)
                for axis in maximize
            )
            strictly_better = any(
                getattr(other, axis) > getattr(candidate, axis)
                for axis in maximize
            )
            if better_or_equal and strictly_better:
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front
