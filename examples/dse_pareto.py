#!/usr/bin/env python
"""Distributed design-space exploration with Pareto-front parity.

Builds one geometry x sparsity cross-product grid of NVCA design
points (``dse_point_spec`` — custom grids are just spec lists), runs
it on two execution backends — serial in-process and 2 worker
processes over a directory-backed work queue — asserts the aggregated points *and* the Pareto front are
byte-identical, then prints the frontier table a designer would use
to pick the paper's Pif = Pof = 12 / rho = 50% operating point.

Run: PYTHONPATH=src python examples/dse_pareto.py
"""

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.hw import NVCAConfig  # noqa: E402
from repro.pipeline import DSERunner, dse_point_spec  # noqa: E402

HEIGHT, WIDTH = 540, 960  # quarter-HD keeps the walkthrough fast
GEOMETRIES = ((6, 6), (12, 12), (18, 18))
RHOS = (0.0, 0.5)


def build_grid() -> list[dict]:
    """Geometry x sparsity cross product as 'dse-point' job specs."""
    specs = []
    for pif, pof in GEOMETRIES:
        for rho in RHOS:
            config = NVCAConfig(pif=pif, pof=pof, rho=rho)
            specs.append(
                dse_point_spec(
                    config,
                    label=f"{pif}x{pof}@rho={rho:.2f}",
                    height=HEIGHT,
                    width=WIDTH,
                )
            )
    return specs


def canon(result) -> str:
    payload = result.to_dict()
    for volatile in ("elapsed_seconds", "workers"):
        payload.pop(volatile)
    return json.dumps(payload, sort_keys=True)


def main() -> int:
    grid = build_grid()
    print(f"=== DSE grid: {len(GEOMETRIES)} geometries x {len(RHOS)} "
          f"sparsity levels @ {WIDTH}x{HEIGHT} ===")

    serial = DSERunner(grid, workers=0).run()
    with tempfile.TemporaryDirectory() as queue_dir:
        fleet = DSERunner(grid, queue_dir=queue_dir, workers=2).run()
    assert serial.ok and fleet.ok, (serial.failures, fleet.failures)
    assert canon(serial) == canon(fleet), (
        "serial and queued DSE sweeps must aggregate byte-identically"
    )
    assert [p.label for p in serial.pareto] == [
        p.label for p in fleet.pareto
    ]
    print(f"backend parity: serial == {fleet.workers}-process queue "
          f"({len(serial.points)} points, byte-identical)\n")

    print("=== All design points (* = Pareto-optimal) ===")
    print(serial.render())

    print("\n=== Frontier (maximize FPS + GOPS/W) ===")
    for point in serial.pareto:
        print(f"  {point.label:>15s}: {point.fps:7.1f} FPS  "
              f"{point.energy_efficiency:7.0f} GOPS/W  "
              f"{point.gate_count_m:5.2f} Mgates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
