#!/usr/bin/env python3
"""Time the package's calls by stage.

Five calls, each repeated, as STAGES lists them: a cold evaluation, the
default grid (RunConfig's r_max, panels and nodes per panel) with its data
load built afresh and evaluated at the golden
point t = 1, z = 0.25 + 1.3i (the set-up the benchmark times; the grid
fits only the bank rows the point uses, inside the norm, the data check
and the evaluation, so those are not stages; the K-Bessel quadrature is
also given per row fitted), a seeded sweep of 120 `evaluate_heat_kernel`
points (six times t, log-uniform in [1, 4], of 20 points each, x uniform in
[-1/2, 1/2), y in [1, 6]) and a 500-point `synthesize_values` field at its
first time, both per point and both with `synthesis_parts`, their one sum
of the synthesis terms, as a stage (the field also with the bank call,
`KBesselBank.__call__`, its range rule and panel series, which runs inside
the basis before that sum), a bound-160 `periodized_oracle`, and a
bound-3000 `periodized_oracle_basepoint` whose count moments are built (the
first call of each is left out; its plane-kernel stage is the quadrature at
the fit's nodes, and at i `orbit_tail` calls no plane kernel, so the stages
do not nest).  Each stage is timed inside the real call, by wrapping the
function that the call looks up; what is left of the call is the rest (in
the orbit sum that includes the envelope the series is multiplied by).
Prints in-process medians in microseconds and, beside each call's median,
the median count of minor page faults per call (the ru_minflt delta of
this process, from resource.getrusage).  After the cold call it prints the
peak of one more cold call under tracemalloc, which counts numpy's
buffers: the working set of the bank fits.  Run from the repository root:

    python3 tools/time_stages.py
"""

import math
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, "src")

from autoheat import (config, forms, heat, oracle, sobolev, special,  # noqa: E402
                      spectral_model, synthesis, verify)
from autoheat.hyperbolic import HPoint  # noqa: E402
from autoheat.spectral_model import SpectralGrid  # noqa: E402

REPEATS = 21  # of every call but the cold one
SEED, TIMES, PER_TIME, FIELD_POINTS = 21, 6, 20, 500
COLD = "evaluate_heat_kernel(1, 0.25 + 1.3i)"
CFG = config.RunConfig()
GRID = (CFG.r_max, CFG.panels, CFG.nodes_per_panel)
SWEEP = f"{TIMES * PER_TIME} points, t in [1, 4], y in [1, 6] (seed {SEED})"

# Per call: its title, its repeats, its stages ((namespace, name), a module
# or class and the name of a function in it, to a label), what the rest of
# the call is, and the count of points its medians are divided by.
STAGES = {
    "cold": (f"{COLD} on a fresh build_grid(load_maass_data(path), {', '.join(map(str, GRID))})",
             7, {
        (forms, "load_maass_data"): "load_maass_data",
        (forms, "xi_line"): "xi_line",
        (special, "kbessel_quad"): "kbessel_quad",
        (forms, "_hecke_defect"): "_hecke_defect"},
        "re-expansion, checks, Fourier sums", 1),
    "sweep": (f"evaluate_heat_kernel per point, {SWEEP}", REPEATS, {
        **{(synthesis, name): name for name in
           ("reduce_to_fundamental_domain", "heat_coefficients", "synthesis_rows",
            "synthesis_parts")},
        (SpectralGrid, "basis_rows"): "SpectralGrid.basis_rows"},
        "the rest (report)", TIMES * PER_TIME),
    "field": (f"{FIELD_POINTS}-point synthesize_values field per point", REPEATS, {
        (special.KBesselBank, "__call__"): "KBesselBank.__call__",
        (sobolev, "synthesis_parts"): "synthesis_parts"},
        "heat data, rows, Fourier sums", FIELD_POINTS),
    "orbit": ("periodized_oracle(t=1, z=0.25+1.3i, bound 160)", REPEATS, {
        (oracle, "orbit_of_i"): "orbit_of_i",
        (oracle, "_chebyshev_coef"): "fit (_chebyshev_coef)",
        (oracle, "_clenshaw"): "series over the orbit (_clenshaw)",
        (oracle, "orbit_tail"): "orbit_tail"},
        "distances, sums, shell check", 1),
    "basepoint": ("periodized_oracle_basepoint(t=4, bound 3000), moments built", REPEATS, {
        (oracle, "heat_kernel_plane"): "plane kernel at the fit nodes",
        (oracle, "orbit_tail"): "orbit_tail"},
        "transform, dot product, the rest", 1),
}


def staged(call, stages: dict, repeats: int) -> tuple[dict, float]:
    """Median wall time over `repeats` calls of call(), in microseconds, of
    the whole call and of each stage function, timed where the call looks
    it up (stages as in STAGES), and the median minor page faults per call."""
    labels = list(stages.values())
    spent = dict.fromkeys(labels, 0.0)

    def timed(fn, label):
        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[label] += time.perf_counter() - t0
            return out
        return wrapper

    saved = {key: getattr(*key) for key in stages}
    for (space, name), label in stages.items():
        setattr(space, name, timed(saved[space, name], label))
    runs = {label: [] for label in ("call", *labels)}
    faults = []
    try:
        call()  # warm caches and imports
        for _ in range(repeats):
            spent.update(dict.fromkeys(labels, 0.0))
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            call()
            runs["call"].append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            for label in labels:
                runs[label].append(spent[label])
    finally:
        for (space, name), fn in saved.items():
            setattr(space, name, fn)
    return ({label: 1e6 * statistics.median(v) for label, v in runs.items()},
            statistics.median(faults))


def report(title: str, medians: dict, faults: float, rest: str, repeats: int) -> None:
    total = medians.pop("call")
    print(f"{title}: {total:.1f} us, {faults:g} minor faults per call, "
          f"by stage (medians of {repeats}):")
    for label, value in medians.items():
        print(f"  {label:34s} {value:10.1f} us")
    print(f"  {rest:34s} {total - sum(medians.values()):10.1f} us")


def main() -> None:
    path, grid = CFG.resolve_data_path(), verify.grid_for_config(CFG)
    rng = np.random.default_rng(SEED)
    ts = np.exp(rng.uniform(0.0, math.log(4.0), TIMES))
    xs = rng.uniform(-0.5, 0.5, (TIMES, PER_TIME))
    ys = rng.uniform(1.0, 6.0, (TIMES, PER_TIME))
    points = [(float(t), HPoint(float(x), float(y)))
              for t, row_x, row_y in zip(ts, xs, ys) for x, y in zip(row_x, row_y)]
    fx, fy = rng.uniform(-0.5, 0.5, FIELD_POINTS), rng.uniform(1.0, 6.0, FIELD_POINTS)
    fresh = []  # the grid of the last cold call

    def cold():
        fresh[:] = [spectral_model.build_grid(forms.load_maass_data(path), *GRID)]
        synthesis.evaluate_heat_kernel(1.0, HPoint(0.25, 1.3), fresh[0])

    calls = {
        "cold": cold,
        "sweep": lambda: [synthesis.evaluate_heat_kernel(t, z, grid) for t, z in points],
        "field": lambda: sobolev.synthesize_values(
            heat.heat_coefficients(float(ts[0]), grid).coeffs, fx, fy),
        "orbit": lambda: oracle.periodized_oracle(1.0, HPoint(0.25, 1.3), 160.0),
        "basepoint": lambda: oracle.periodized_oracle_basepoint(4.0, 3000.0),
    }
    for key, call in calls.items():
        title, repeats, stages, rest, per = STAGES[key]
        medians, faults = staged(call, stages, repeats)
        medians = {label: v / per for label, v in medians.items()}
        report(title, medians, faults, rest, repeats)
        if key == "cold":
            bank = fresh[0].table.bank
            rows = int(np.count_nonzero(bank.fitted))
            print(f"  rows fitted: {rows} of {len(bank.r)}")
            print(f"  {f'kbessel_quad per fitted row ({rows})':34s} "
                  f"{medians['kbessel_quad'] / rows:10.1f} us")
            tracemalloc.start()
            cold()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"  {'traced peak of one cold call':34s} {peak / 2 ** 20:10.1f} MiB")


if __name__ == "__main__":
    main()
