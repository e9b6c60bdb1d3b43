"""Sharded RD sweeps: the work-queue executor end to end.

A sweep is a (codec, config, scene) grid of JSON job specs.  This
example runs the same grid three ways — serially, through the
in-memory queue drained in this process, and on process workers over
a directory-backed queue that survives worker death and host restarts —
and shows that the aggregated RD curves are identical regardless of
how the work was sharded.  See docs/distributed.md for the protocol.

Run:  python examples/sweep_rd_curves.py
"""

import json
import tempfile

from repro.metrics import curves_from_reports
from repro.pipeline import SweepRunner, run_many

GRID = dict(
    codecs=["classical", "ctvc"],
    codec_configs=[
        # one document per operating point: keys a codec's config does
        # not define are skipped, so qp drives classical and qstep CTVC
        {"qp": q, "qstep": q, "channels": 12, "seed": 1}
        for q in (4.0, 8.0, 32.0)
    ],
    scenes=[{"height": 48, "width": 64, "frames": 3, "seed": 7}],
)


def canonical_curves(curves) -> str:
    return json.dumps(
        [curve.to_dict() for _, curve in sorted(curves.items())], indent=2
    )


def main():
    print("Serial baseline (run_many, inline backend):")
    serial = run_many(**GRID)
    for report in serial:
        print(f"  {report.render()}")

    print("\nSame grid through the in-memory queue (drained in this process):")
    result = SweepRunner(**GRID, workers=0, anchor="classical").run()
    print("  " + result.render().replace("\n", "\n  "))

    print("\nSame grid on 2 worker processes (directory-backed queue):")
    with tempfile.TemporaryDirectory() as queue_dir:
        dir_result = SweepRunner(**GRID, queue_dir=queue_dir, workers=2).run()
        print(
            f"  {len(dir_result.reports)} jobs completed in "
            f"{dir_result.elapsed_seconds:.2f}s; queue state lived in "
            f"{queue_dir} (pending/claimed/done/failed)"
        )

    serial_curves = canonical_curves(curves_from_reports(serial))
    assert canonical_curves(result.curves) == serial_curves
    assert canonical_curves(dir_result.curves) == serial_curves
    print(
        "\nAggregated RD curves are byte-identical across all three "
        "execution backends:"
    )
    print("  " + serial_curves.replace("\n", "\n  "))

    if result.bd_rate:
        print("BD-rate vs the classical anchor (negative = bits saved):")
        for scene, row in sorted(result.bd_rate.items()):
            for codec, value in sorted(row.items()):
                shown = f"{value:+.2f}%" if value is not None else "n/a"
                print(f"  {scene}: {codec} {shown}")


if __name__ == "__main__":
    main()
