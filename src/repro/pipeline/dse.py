"""Distributed design-space exploration over the task-typed queue seam.

:mod:`repro.hw.dse` evaluates NVCA design points inline; this module
makes those same points shardable.  A DSE grid is a list of
``"dse-point"`` job specs (:func:`dse_grid` / :func:`dse_point_spec`
build them, validated up front through :mod:`repro.pipeline.tasks`),
:class:`DSERunner` runs them on any
:class:`~repro.pipeline.dist.JobQueue` — drained in this process, or
by worker processes sharing a queue directory or a ``repro serve``
daemon, with ``--resume`` — and
aggregates into a :class:`DSEResult`: the
:class:`~repro.hw.DesignPoint` table in submission order plus its
:func:`~repro.hw.pareto_front`, byte-identical between serial and any
worker count (the same determinism contract RD sweeps pin).

Front doors: ``repro dse`` on the CLI, and
``run_many(jobs=dse_grid(...))`` for mixed batches.  See
``docs/hardware.md``.

>>> from repro.pipeline import dse_grid
>>> [spec["label"] for spec in dse_grid("sparsity", values=(0.0, 0.5))]
['rho=0.00', 'rho=0.50']
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.hw import DesignPoint, pareto_front
from repro.hw.dse import DSE_AXES, axis_configs

from .dist.sweep import QueueRunner
from .tasks import normalize_spec, spec_kind

__all__ = [
    "DSE_GRIDS",
    "DSEResult",
    "DSERunner",
    "dse_grid",
    "dse_point_spec",
]

#: grid axis name -> its default values (the inline sweeps' brackets).
DSE_GRIDS = DSE_AXES


def dse_point_spec(
    config,
    *,
    label: str | None = None,
    height: int = 1080,
    width: int = 1920,
    platform: str = "nvca",
) -> dict:
    """One validated ``"dse-point"`` job spec.

    ``config`` is an :class:`~repro.hw.NVCAConfig` (or its dict form);
    the spec comes back canonicalized through the task registry, so a
    bad platform name or config field fails here, on the submitting
    side.
    """
    spec = {
        "kind": "dse-point",
        "platform": platform,
        "config": config if isinstance(config, dict) else config.to_dict(),
        "height": height,
        "width": width,
    }
    if label is not None:
        spec["label"] = label
    return normalize_spec(spec)


def dse_grid(
    grid: str = "geometry",
    *,
    values=None,
    base=None,
    height: int = 1080,
    width: int = 1920,
    platform: str = "nvca",
) -> list[dict]:
    """Build the job specs of one DSE axis sweep.

    ``grid`` picks the axis — ``"geometry"`` ((pif, pof) pairs),
    ``"sparsity"`` (rho values), or ``"frequency"`` (MHz values) —
    with ``values`` overriding the axis's default bracket around the
    paper's operating point.  ``base`` is the config every point
    perturbs (defaults to the paper's Pif=Pof=12 / rho=50% / 400 MHz).
    Labels match the inline :mod:`repro.hw.dse` sweeps exactly, so the
    queue-executed points are drop-in comparable.
    """
    from repro.hw import NVCAConfig

    from .platforms import platform_entry

    config_cls = platform_entry(platform).config_cls
    if not (isinstance(config_cls, type) and issubclass(config_cls, NVCAConfig)):
        # same refusal _normalize_dse_point gives, raised before any
        # axis perturbation so it cannot degrade into a TypeError
        raise ValueError(
            f"platform {platform!r} is a fixed reference platform with "
            "no design space; DSE needs a modeled platform ('nvca')"
        )
    if isinstance(base, dict):
        base = config_cls.from_dict(base)
    return [
        dse_point_spec(
            config, label=label, height=height, width=width, platform=platform
        )
        for label, config in axis_configs(grid, values, base or config_cls())
    ]


@dataclass
class DSEResult:
    """Aggregated outcome of one DSE sweep.

    ``points`` hold the completed design points in submission order
    (failures are absent — see ``failures``); ``pareto`` is the
    non-dominated subset under ``objectives``.  Both depend only on
    the job specs, so they compare byte-identically across worker
    counts; ``elapsed_seconds`` does not.
    """

    job_ids: list[str]
    points: list[DesignPoint]
    failures: dict[str, str]
    pareto: list[DesignPoint]
    objectives: tuple[str, ...]
    elapsed_seconds: float
    workers: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """JSON document (the ``repro dse --json`` payload)."""
        return {
            "jobs": len(self.job_ids),
            "completed": len(self.points),
            "failed": dict(self.failures),
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "objectives": list(self.objectives),
            "points": [point.to_dict() for point in self.points],
            "pareto": [point.to_dict() for point in self.pareto],
        }

    def render(self, *, pareto_only: bool = False) -> str:
        """Human summary: the design-point table with the frontier
        marked (``*``), or just the frontier with ``pareto_only``."""
        lines = [
            f"dse: {len(self.job_ids)} points, {len(self.points)} completed, "
            f"{len(self.failures)} failed in {self.elapsed_seconds:.1f}s "
            f"({self.workers} workers)"
        ]
        on_front = {id(point) for point in self.pareto}
        shown = self.pareto if pareto_only else self.points
        for point in shown:
            marker = "*" if id(point) in on_front else " "
            lines.append(f" {marker}{point.render()}")
        lines.append(
            f"pareto front ({' + '.join(self.objectives)}): "
            f"{', '.join(p.label for p in self.pareto) or '(empty)'}"
        )
        for job_id, error in sorted(self.failures.items()):
            lines.append(f"  FAILED {job_id}: {error.strip().splitlines()[-1]}")
        return "\n".join(lines)


class DSERunner(QueueRunner):
    """Run ``"dse-point"`` job specs on a queue and aggregate the
    frontier.

    ``specs`` is what :func:`dse_grid`/:func:`dse_point_spec` build
    (raw dicts are accepted and validated here — same up-front
    name/field checking as encode grids).  Execution semantics
    (``workers``/``queue_dir``/``lease_seconds``/resume-by-
    resubmission) are :class:`~repro.pipeline.dist.QueueRunner`'s:
    ``workers=0`` drains serially, a ``queue_dir`` shards across
    processes and survives restarts.  Aggregation is deterministic in
    the spec list alone, so serial and sharded runs produce
    byte-identical :class:`DSEResult` tables and Pareto fronts.
    """

    def __init__(
        self,
        specs,
        *,
        objectives: tuple[str, ...] = ("fps", "energy_efficiency"),
        queue=None,
        queue_dir=None,
        workers: int = 2,
        lease_seconds: float = 120.0,
        max_attempts: int | None = None,
        bundle: int | str = 1,
    ):
        normalized = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise TypeError(
                    f"DSERunner specs must be dicts, got {type(spec).__name__}"
                )
            if spec_kind(spec) != "dse-point":
                raise ValueError(
                    f"DSERunner runs 'dse-point' jobs only, got kind "
                    f"{spec_kind(spec)!r} (use SweepRunner for mixed sweeps)"
                )
            normalized.append(normalize_spec(spec))
        point_fields = {f.name for f in dataclasses.fields(DesignPoint)}
        bad = sorted(set(objectives) - point_fields)
        if bad:
            raise ValueError(
                f"unknown DSE objective(s) {', '.join(bad)}; "
                f"DesignPoint fields: {', '.join(sorted(point_fields))}"
            )
        super().__init__(
            normalized,
            queue=queue,
            queue_dir=queue_dir,
            workers=workers,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            bundle=bundle,
        )
        self.objectives = tuple(objectives)

    def _aggregate(self, results, failures, elapsed) -> DSEResult:
        points = self._hydrated_reports(results)
        return DSEResult(
            job_ids=list(self.job_ids),
            points=points,
            failures=failures,
            pareto=pareto_front(points, self.objectives),
            objectives=self.objectives,
            elapsed_seconds=elapsed,
            workers=self.workers,
        )
