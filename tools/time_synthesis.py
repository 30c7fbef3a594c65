#!/usr/bin/env python3
"""Time pointwise heat-kernel synthesis by stage.

A seeded sweep of 120 `evaluate_heat_kernel` points on the default grid: six
times t, log-uniform in [1, 4], with 20 points each, x uniform in
[-1/2, 1/2) and y uniform in [1, 6] (already reduced).  Each stage is timed
inside the real call, by wrapping the functions it looks up
(time_oracle.staged): the reduction to the fundamental domain, the heat
coefficients, the choice of live rows and the basis rows.  What is left of
the call is the sums and the report.  Then one 500-point
`synthesize_values` field at the first time.  Prints in-process medians in
microseconds per point.  Run from the repository root:

    python3 tools/time_synthesis.py
"""

import math
import sys

import numpy as np

sys.path.insert(0, "src")

from time_oracle import REPEATS, report, staged  # noqa: E402

from autoheat import config, heat, sobolev, synthesis, verify  # noqa: E402
from autoheat.hyperbolic import HPoint  # noqa: E402
from autoheat.spectral_model import SpectralGrid  # noqa: E402

SEED, TIMES, PER_TIME, FIELD_POINTS = 21, 6, 20, 500


def main() -> None:
    rng = np.random.default_rng(SEED)
    grid = verify.grid_for_config(config.RunConfig())
    ts = np.exp(rng.uniform(0.0, math.log(4.0), TIMES))
    xs = rng.uniform(-0.5, 0.5, (TIMES, PER_TIME))
    ys = rng.uniform(1.0, 6.0, (TIMES, PER_TIME))
    points = [(float(t), HPoint(float(x), float(y)))
              for t, row_x, row_y in zip(ts, xs, ys) for x, y in zip(row_x, row_y)]

    def sweep():
        for t, z in points:
            synthesis.evaluate_heat_kernel(t, z, grid)

    names = ("reduce_to_fundamental_domain", "heat_coefficients", "synthesis_rows")
    medians = staged(sweep, {**{(synthesis, name): (name,) for name in names},
                             (SpectralGrid, "basis_rows"): ("SpectralGrid.basis_rows",)})
    report(f"evaluate_heat_kernel per point, {len(points)} points, t in [1, 4], "
           f"y in [1, 6] (seed {SEED})",
           {label: value / len(points) for label, value in medians.items()},
           "the rest (sums and report)")

    fx = rng.uniform(-0.5, 0.5, FIELD_POINTS)
    fy = rng.uniform(1.0, 6.0, FIELD_POINTS)
    t_field = float(ts[0])
    field = staged(lambda: sobolev.synthesize_values(
        heat.heat_coefficients(t_field, grid).coeffs, fx, fy), {})["call"]
    print(f"{FIELD_POINTS}-point synthesize_values field at t = {t_field:.4f}: "
          f"{field / FIELD_POINTS:.1f} us per point (median of {REPEATS})")


if __name__ == "__main__":
    main()
