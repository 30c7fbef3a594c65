"""One benchmark run in a fresh process: cold start, timed rounds, checks.

Started by run.py with src/ on the path and the BLAS/OpenMP pools held to
one thread.  The run

1. runs `autoheat eval --t 1 --x 0.25 --y 1.3` in process from a cold
   interpreter (setup_s: spawn to answer; it builds the default grid that
   the rest of the run reuses) and the verify algebra suites;
2. repeats whole rounds of seeded operations until --seconds have passed:
   three evaluate_heat_kernel points, one synthesize_values batch on
   five-point stencils, one bound-160 periodized_oracle and one bound-3000
   periodized_oracle_basepoint; on the `arc` workload also one error-budget
   check at t = 0.2 on a fixed point (a counted failure);
3. reads peak memory, then checks every output against computations made
   apart from the program (checks.py).

Every timed operation sits between two host-speed readings (hostspeed.py);
the metrics are its time over the host's slowdown.  The last stdout line is
the result JSON; run.py relays it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from autoheat import cli, config, heat, oracle, sobolev, special, synthesis, verify
from autoheat.hyperbolic import HPoint

import checks
from hostspeed import slowdown
from spans import Tracer, wrapper_cost_s

CLI_ARGS = ["eval", "--t", "1", "--x", "0.25", "--y", "1.3"]
ORBIT_BOUND = 160.0
BASEPOINT_BOUND = 3000.0
POINT_T = (0.5, 0.8)      # point and orbit times; bound 160 has converged here up to y = 6
STENCILS = 100            # five-point stencils per field batch: 500 points
H = 2e-3                  # stencil spacing in x, y and t
BUDGET_T = 0.2
BUDGET_POINTS = (HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(0.25, 1.3),
                 HPoint(0.4, 0.95), HPoint(0.1, 3.5))
PROBE = {"point": "interp", "field": "interp", "orbit": "stream", "basepoint": "stream"}
POINT_TOL = 1e-9          # spectral value against the converged periodization
HEAT_TOL = 1e-4           # heat-equation residual; 2e-5 seen at h = 2e-3


@dataclass(frozen=True)
class Workload:
    name: str
    point_y: tuple[float, ...]  # one point at each height per round; x and t seeded
    field_band: tuple[float, float]
    field_t: tuple[float, float]
    basepoint_t: float
    basepoint_tol: float  # spectral value at i against the arithmetic path
    budget: bool


WORKLOADS = {
    "arc": Workload("arc", (0.95, 1.15, 1.4), (0.875, 1.6),
                    (0.5, 1.0), 4.0, 1e-8, True),
    # at t = 8 the bound-3000 sum sits 8.5e-7 from the spectral value: the
    # lattice-count fluctuation near the ball's edge that the tail cannot see
    "cusp": Workload("cusp", (2.0, 3.5, 6.0), (1.6, 8.0),
                     (1.0, 4.0), 8.0, 2e-6, False),
}


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _point(rng, y: float) -> HPoint:
    """x uniform on the part of [-1/2, 1/2] where height y clears the arc by 0.005."""
    x_min = math.sqrt(max(0.0, 1.0 - (y - 0.005) ** 2))
    return HPoint(float(rng.choice((-1.0, 1.0)) * rng.uniform(x_min, 0.5)), y)


def _stencils(rng, band):
    """Stencil centres stratified in log-height over the band, the lowest
    pinned at the band's floor (x = +-1/2), so that every cloud needs the
    same number of Fourier terms; and the 5n points (z, z+h, z-h, z+ih,
    z-ih) of their stencils, row-major."""
    x = rng.uniform(-0.5, 0.5, STENCILS)
    edges = np.exp(np.linspace(math.log(band[0]), math.log(band[1]), STENCILS + 1))
    y = np.exp(rng.uniform(np.log(edges[:-1]), np.log(edges[1:])))
    x[0], y[0] = rng.choice((-0.5, 0.5)), band[0]
    y = np.maximum(y, np.sqrt(1.0 - x * x) + H + 0.005)
    dx = np.array([0.0, H, -H, 0.0, 0.0])
    dy = np.array([0.0, 0.0, 0.0, H, -H])
    return x, y, (x[:, None] + dx).ravel(), (y[:, None] + dy).ravel()


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, tracer: Tracer | None):
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, list(WORKLOADS).index(wl.name)])
        self.raw = {kind: [] for kind in PROBE}  # seconds as measured
        self.lat = {kind: [] for kind in PROBE}  # seconds over the host slowdown
        self.slow = {kind: [] for kind in PROBE}
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []
        self.checks: list[checks.Check] = []

    def _op(self, kind: str, fn, *args):
        if self.tracer is not None:
            self.tracer.op = f"{kind}:{len(self.rounds)}"
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.attempted += 1
        return out, dt

    def _timed(self, kind: str, fn, *args):
        """One timed operation between two host-speed readings."""
        before = slowdown(PROBE[kind])
        out, dt = self._op(kind, fn, *args)
        slow = 0.5 * (before + slowdown(PROBE[kind]))
        self.raw[kind].append(dt)
        self.slow[kind].append(slow)
        self.lat[kind].append(dt / slow)
        return out

    # -- set-up --------------------------------------------------------------
    def setup(self, t_spawn: float) -> float:
        """Run the cold CLI evaluation; returns its time from spawn over the
        host slowdown read just before and just after it."""
        t0 = time.monotonic()
        before = slowdown("interp")
        probe_s = time.monotonic() - t0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.cli_rc = cli.main(CLI_ARGS)
        self.setup_raw = time.monotonic() - t_spawn - probe_s
        self.setup_slow = 0.5 * (before + slowdown("interp"))
        self.cli_out = buf.getvalue()
        # the grid the CLI built; verify caches it per configuration
        self.grid = verify.grid_for_config(config.RunConfig())
        if self.tracer is not None:
            self.tracer.op = "verify"
        suites = (verify.sobolev_suite(self.grid) + verify.semigroup_suite(self.grid)
                  + verify.heat_suite(self.grid))
        self.checks.append(checks.Check("verify sobolev, semigroup, heat: checks failed",
                                        sum(not c.passed for c in suites), 0))
        if self.wl.budget:
            self.budget_ref = [oracle.periodized_oracle(BUDGET_T, z, 25.0, shell_warning=False)
                               for z in BUDGET_POINTS]
        return self.setup_raw / self.setup_slow

    # -- timed rounds --------------------------------------------------------
    def round(self) -> None:
        wl, rng, grid = self.wl, self.rng, self.grid
        k = len(self.rounds)
        pts = [(float(_log_uniform(rng, *POINT_T)), _point(rng, y)) for y in wl.point_y]
        t_f = float(_log_uniform(rng, *wl.field_t))
        _, cy, fx, fy = _stencils(rng, wl.field_band)
        j_orbit = k % len(pts)  # the round's orbit sum is at one of its points
        rec = {"points": [], "j_orbit": j_orbit, "field_t": t_f, "cy": cy, "fx": fx, "fy": fy}

        def field():
            coeffs = heat.heat_coefficients(t_f, grid).coeffs
            return sobolev.synthesize_values(coeffs, fx, fy).real

        for kind in ("point", "orbit", "field", "point", "basepoint", "budget", "point"):
            if kind == "point":
                t, z = pts[len(rec["points"])]
                rep = self._timed(kind, synthesis.evaluate_heat_kernel, t, z, grid)
                rec["points"].append((t, z, rep.value.real))
            elif kind == "orbit":
                t, z = pts[j_orbit]
                rec["orbit"] = self._timed(kind, oracle.periodized_oracle, t, z,
                                           ORBIT_BOUND, False)
            elif kind == "field":
                rec["field"] = self._timed(kind, field)
            elif kind == "basepoint":
                rec["basepoint"] = self._timed(kind, oracle.periodized_oracle_basepoint,
                                               wl.basepoint_t, BASEPOINT_BOUND)
            elif wl.budget:
                self._budget_op(k % len(BUDGET_POINTS))
        self.rounds.append(rec)

    def _budget_op(self, i: int) -> None:
        """Evaluate at t = 0.2 on a fixed point and test the reported error
        budget against the converged periodization (not timed)."""
        rep, _ = self._op("budget", synthesis.evaluate_heat_kernel, BUDGET_T,
                          BUDGET_POINTS[i], self.grid)
        if not checks.budget_covers(rep.value.real, self.budget_ref[i],
                                    rep.tail_estimate, rep.tail_warning):
            self.failed += 1

    def measure(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = "round"
        start = time.monotonic()
        while not self.rounds or time.monotonic() - start < self.seconds:
            self.round()
        if self.tracer is not None:
            self.tracer.op = self.tracer.phase = "end"

    def point_round_means(self) -> list[float]:
        """Mean point latency of each round: one point per height, so every
        round weighs the heights alike."""
        n = len(self.wl.point_y)
        lat = self.lat["point"]
        return [statistics.fmean(lat[i:i + n]) for i in range(0, len(lat), n)]

    # -- checks (untimed, untraced) -----------------------------------------
    def check(self) -> None:
        wl, grid, add = self.wl, self.grid, self.checks.append
        for k, rec in enumerate(self.rounds):
            j = rec["j_orbit"]
            add(checks.rel_close(f"round {k}: point {j} vs bound-160 periodization",
                                 rec["points"][j][2], rec["orbit"], POINT_TOL))
            add(checks.positive(f"round {k}: field values positive", rec["field"]))
        # round 0 once more through basis_values: its field at t -+ tau, its
        # points, and i for the basepoint sums
        rec = self.rounds[0]
        t_f, pts = rec["field_t"], rec["points"]
        x = np.concatenate([rec["fx"], [z.x for _, z, _ in pts], [0.0]])
        y = np.concatenate([rec["fy"], [z.y for _, z, _ in pts], [1.0]])
        basis = sobolev.basis_values(grid, x, y)

        def synth(t):
            coeffs = heat.heat_coefficients(t, grid).coeffs
            return ((coeffs.grid.weights * coeffs.values) @ basis).real

        n = len(rec["fx"])
        k_minus, k_mid, k_plus = (synth(t_f + d)[:n].reshape(-1, 5) for d in (-H, 0.0, H))
        add(checks.heat_residual("field heat-equation residual", k_minus, k_mid, k_plus,
                                 rec["cy"], H, H, HEAT_TOL))
        add(checks.Check("field: synthesize_values vs basis_values product",
                         float(np.max(np.abs(rec["field"] / k_mid.ravel() - 1.0))), 1e-13))
        for j, (t, z, v) in enumerate(pts):
            add(checks.rel_close(f"point {j}: evaluate_heat_kernel vs batched synthesis",
                                 v, synth(t)[n + j], 1e-13))
        spectral_at_i = synth(wl.basepoint_t)[-1]
        for k, r in enumerate(self.rounds):
            add(checks.rel_close(f"round {k}: bound-3000 basepoint sum vs spectral at i",
                                 r["basepoint"], spectral_at_i, wl.basepoint_tol))
        # the periodization is automorphic (bound 80 has converged at t = 0.5),
        # and its two paths agree at i
        z1 = pts[rec["j_orbit"]][1]
        at_z = oracle.periodized_oracle(0.5, z1, 80.0, shell_warning=False)
        for label, w in (("z+1", HPoint(z1.x + 1.0, z1.y)),
                         ("-1/z", HPoint.from_complex(-1.0 / z1.z))):
            add(checks.rel_close(f"periodization at {label} vs at z", oracle.periodized_oracle(
                0.5, w, 80.0, shell_warning=False), at_z, POINT_TOL))
        t1 = pts[rec["j_orbit"]][0]
        add(checks.rel_close(
            "periodization at i: enumerated vs arithmetic counts",
            oracle.periodized_oracle(t1, HPoint(0.0, 1.0), 60.0, shell_warning=False),
            oracle.periodized_oracle_basepoint(t1, 60.0), 1e-11))
        add(checks.plane_mass(f"plane kernel mass at t={t1:.3f}", oracle.heat_kernel_plane,
                              t1, 1e-13))
        # K-Bessel against mpmath
        for r in _log_uniform(self.rng, 1.0, 20.0, 2):
            xs = _log_uniform(self.rng, 0.5, 25.0, 3)
            add(checks.kbessel_vs_mpmath(f"bessel_k_imag r={r:.3f} vs mpmath", float(r), xs,
                                         special.bessel_k_imag(float(r), xs), 1e-10))
        # the cold CLI answer
        add(checks.Check("cli: eval exit code", float(self.cli_rc), 0.0))
        lines = self.cli_out.splitlines()
        fields = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        add(checks.cli_parts(fields))
        # bound 120 has converged to 6e-11 at this point
        ref = oracle.periodized_oracle(1.0, HPoint(0.25, 1.3), 120.0, shell_warning=False)
        add(checks.rel_close("cli: value vs bound-120 periodization", fields["value"], ref, 1e-9))


def _median(xs):
    return float(statistics.median(xs))


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0], xs[0], xs[0]]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def trace_overhead(run: Run, tracer: Tracer, pairs: int = 3) -> tuple[float, float]:
    """Traced minus untraced latency of one point evaluation, median over
    interleaved pairs, and that difference as a share of the untraced one."""
    t, z, _ = run.rounds[0]["points"][-1]  # the highest, cheapest point
    tracer.op = "overhead"
    plain, traced = [], []
    for _ in range(pairs):
        for installed, out in ((False, plain), (True, traced)):
            if installed:
                tracer.install()
            else:
                tracer.uninstall()
            t0 = time.perf_counter()
            synthesis.evaluate_heat_kernel(t, z, run.grid)
            out.append(time.perf_counter() - t0)
    tracer.uninstall()
    diff = _median(traced) - _median(plain)
    return diff, diff / _median(plain)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True, dest="t_spawn",
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True, help="directory for result and trace files")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    setup_s = run.setup(args.t_spawn)
    t_measure = time.monotonic()
    run.measure()
    measure_s = time.monotonic() - t_measure
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        layers = tracer.layer_metrics(len(run.rounds))
        calls = tracer.calls_in("round") / len(run.rounds)
        trace_file = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        diff, share = trace_overhead(run, tracer)
        metrics = {name: _metric(v, "s" if name.endswith("_s") else "count")
                   for name, v in layers.items()}
        metrics["bench.trace_overhead_s"] = _metric(diff, "s")
        metrics["bench.trace_overhead_share"] = _metric(share, "share")
        metrics["bench.traced_calls_per_round"] = _metric(calls, "count")
        metrics["bench.wrapper_cost_per_round_s"] = _metric(calls * wrapper_cost_s(), "s")
        metrics["bench.host_slowdown_interp"] = _metric(
            _median(run.slow["point"] + run.slow["field"]), "ratio")
        metrics["bench.host_slowdown_stream"] = _metric(
            _median(run.slow["orbit"] + run.slow["basepoint"]), "ratio")
    else:
        n_field = 5 * STENCILS
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "point_eval_s": _metric(_median(run.point_round_means()), "s"),
            "field_points_per_s": _metric(n_field / _median(run.lat["field"]), "1/s"),
            "orbit_sum_s": _metric(_median(run.lat["orbit"]), "s"),
            "basepoint_sum_s": _metric(_median(run.lat["basepoint"]), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    t_check = time.monotonic()
    run.check()
    check_s = time.monotonic() - t_check
    correct = all(c.passed for c in run.checks)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(run.rounds)}  attempted {run.attempted}  failed {run.failed}")
    print(f"  phases: setup {run.setup_raw:.1f} s (host slowdown {run.setup_slow:.2f}), "
          f"rounds {measure_s:.1f} s, checks {check_s:.1f} s")
    for kind, xs in run.lat.items():
        q = _quartiles(xs)
        print(f"  {kind:10s} n={len(xs):3d}  median {q[1]:.4f} s  quartiles {q[0]:.4f} {q[2]:.4f}"
              f"  (as measured {_median(run.raw[kind]):.4f} s, "
              f"{PROBE[kind]} slowdown {_median(run.slow[kind]):.2f})")
    for c in run.checks:
        if not c.passed or args.trace == 0:
            print(c.row())
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(os.path.join(args.out, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
