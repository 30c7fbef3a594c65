#!/usr/bin/env python3
"""Time pointwise heat-kernel synthesis by public stage.

A seeded sweep of 600 `evaluate_heat_kernel` points on the default grid: six
times t, log-uniform in [1, 4], with 100 points each, x uniform in
[-1/2, 1/2) and y uniform in [1, 6] (already reduced).  Then one 500-point
`synthesize_values` field at the first time.  Prints microseconds per point
for each public stage of a point and for the field, best of three passes.
The bit-identity of a point with its batch is a tier-1 test, not a check
here.  Run from the repository root:

    python3 tools/time_synthesis.py
"""

import math
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from autoheat import config, heat, sobolev, synthesis, verify  # noqa: E402
from autoheat.hyperbolic import HPoint, reduce_to_fundamental_domain  # noqa: E402

SEED, TIMES, PER_TIME, FIELD_POINTS, PASSES = 21, 6, 100, 500, 3


def best_of(passes: int, fn) -> float:
    """Smallest wall time of fn() over the passes, in seconds."""
    best = math.inf
    for _ in range(passes):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    rng = np.random.default_rng(SEED)
    grid = verify.grid_for_config(config.RunConfig())
    ts = np.exp(rng.uniform(0.0, math.log(4.0), TIMES))
    xs = rng.uniform(-0.5, 0.5, (TIMES, PER_TIME))
    ys = rng.uniform(1.0, 6.0, (TIMES, PER_TIME))
    points = [(float(t), HPoint(float(x), float(y)))
              for t, row_x, row_y in zip(ts, xs, ys) for x, y in zip(row_x, row_y)]
    for t, z in points:  # warm the caches
        synthesis.evaluate_heat_kernel(t, z, grid)
    # per point, its stages one after the other, then the whole evaluation,
    # so that a drift of the host's speed reaches both alike
    names = ("reduce_to_fundamental_domain", "heat.heat_coefficients",
             "sobolev.synthesis_rows", "SpectralGrid.basis_rows", "evaluate_heat_kernel")
    best = dict.fromkeys(names, math.inf)
    for _ in range(PASSES):
        spent = dict.fromkeys(names, 0.0)
        for t, z in points:
            stamps = [time.perf_counter()]
            p = reduce_to_fundamental_domain(z)
            stamps.append(time.perf_counter())
            f = heat.heat_coefficients(t, grid).coeffs
            stamps.append(time.perf_counter())
            x, y = np.array([p.x]), np.array([p.y])
            live = sobolev.synthesis_rows(f, y)
            stamps.append(time.perf_counter())
            grid.basis_rows(x, y, live)
            stamps.append(time.perf_counter())
            synthesis.evaluate_heat_kernel(t, z, grid)
            stamps.append(time.perf_counter())
            for name, t0, t1 in zip(names, stamps, stamps[1:]):
                spent[name] += t1 - t0
        best = {name: min(best[name], spent[name]) for name in names}
    us = {name: 1e6 * value / len(points) for name, value in best.items()}
    total = us.pop("evaluate_heat_kernel")
    print(f"{len(points)} points, t in [1, 4], y in [1, 6] (seed {SEED}): "
          f"evaluate_heat_kernel {total:.1f} us per point, by stage (best of {PASSES}):")
    for name, value in us.items():
        print(f"  {name:30s} {value:7.1f} us")
    print(f"  {'the rest (sums and report)':30s} {total - sum(us.values()):7.1f} us")

    fx = rng.uniform(-0.5, 0.5, FIELD_POINTS)
    fy = rng.uniform(1.0, 6.0, FIELD_POINTS)
    t_field = float(ts[0])
    field = best_of(PASSES, lambda: sobolev.synthesize_values(
        heat.heat_coefficients(t_field, grid).coeffs, fx, fy))
    print(f"{FIELD_POINTS}-point synthesize_values field at t = {t_field:.4f}: "
          f"{1e6 * field / FIELD_POINTS:.1f} us per point")


if __name__ == "__main__":
    main()
