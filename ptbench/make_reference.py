"""Regenerate the committed output references for the batch workloads.

The references come from the library path (``run_figure`` and
``run_sweep`` called directly), not from the CLI, so a CLI defect that
drops rows shows up as a failed operation instead of being baked into the
reference.  Run from the repository root:

    PYTHONPATH=src python3 ptbench/make_reference.py

Each reference is a gzipped CSV with one row per Gamma value: the command
it belongs to, the row key (tau, theta, t) written as the CLI writes
numbers, and Gamma at full double precision.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FIGURE_IDS, SWEEP_GRIDS, SWEEP_T, fmt_key  # noqa: E402


def _write(path: Path, rows) -> None:
    lines = ["op,tau,theta,t,gamma"]
    for op, tau, theta, t, gamma in rows:
        lines.append(f"{op},{fmt_key(tau)},{fmt_key(theta)},{fmt_key(t)},{gamma!r}")
    data = ("\n".join(lines) + "\n").encode()
    # mtime=0 keeps the file byte-identical across regenerations
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def main() -> int:
    import numpy as np
    from ptbath.cli import FIGURE_PRESETS, run_figure, run_sweep
    from ptbath.continuum import QuadratureSpec

    quad = QuadratureSpec()
    rows = []
    for fig in FIGURE_IDS:
        columns, out = run_figure(FIGURE_PRESETS[fig], quad)
        assert columns[:4] == ["tau", "theta", "t", "gamma"]
        rows.extend((fig, r[0], r[1], r[2], float(r[3])) for r in out)
    _write(HERE / "reference" / "figures.csv.gz", rows)

    # the README sweep: tau and theta grids at t = 20, built-in defaults
    grids = [(name, np.linspace(lo, hi, n)) for name, (lo, hi, n) in SWEEP_GRIDS]
    fixed = {"amplitude": 1.0, "cutoff": 0.1, "theta": 0.0, "temp": 300.0, "tau": 0.0,
             "t": SWEEP_T}
    columns, out = run_sweep(fixed, grids, quad, jobs=1)
    assert columns == ["tau", "theta", "gamma", "coherence"]
    _write(HERE / "reference" / "sweep.csv.gz",
           [("sweep", r[0], r[1], SWEEP_T, float(r[2])) for r in out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
