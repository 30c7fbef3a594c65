"""Named verification checks behind the CLI's verify subcommand.

Each check returns its measured value and the bound it must satisfy; the
suites cover the weighted-norm algebra, the operator properties of the
generator, the semigroup axioms, the heat-flow facts, and the end-to-end
agreement with the periodization oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .forms import load_maass_data
from .heat import (
    RESIDUAL_INDEX,
    euler_error,
    heat_coefficients,
    heat_equation_residual,
    initial_condition_gap,
    resolvent_laplace_defect,
    semigroup_apply,
    uniqueness_gap,
)
from .hyperbolic import HPoint
from .oracle import periodized_oracle
from .sobolev import (
    CoeffFn,
    apply_generator,
    apply_one_minus_laplacian,
    apply_resolvent,
    delta_coefficients,
    invert_one_minus_laplacian,
    pairing,
    pairing_s,
    sobolev_norm,
)
from .spectral_model import DELTA_INDEX, SpectralGrid, build_grid
from .synthesis import evaluate_heat_kernel

SUITES = ("sobolev", "semigroup", "heat", "oracle", "all")

ORACLE_TIMES = (0.5, 1.0, 2.0)
ORACLE_POINTS = (HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(0.25, 1.3))
ORACLE_REL_TOL = 1e-3  # spectral against periodized values, acceptance criterion 07


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:44s} {self.measured:14.6e} {self.bound:12.3e} {status}"


def _le(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, float(measured), float(bound), bool(measured <= bound))


def _lt(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, float(measured), float(bound), bool(measured < bound))


def _in_range(name: str, measured: float, lo: float, hi: float) -> CheckResult:
    return CheckResult(name, float(measured), float(hi), bool(lo <= measured <= hi))


@functools.lru_cache(maxsize=4)
def _grid_for(data_path: str, r_max: float, panels: int, nodes: int) -> SpectralGrid:
    data = load_maass_data(data_path)
    return build_grid(data, r_max=r_max, panels=panels, nodes_per_panel=nodes)


def grid_for_config(cfg: RunConfig) -> SpectralGrid:
    return _grid_for(cfg.resolve_data_path(), cfg.r_max, cfg.panels, cfg.nodes_per_panel)


def _random_coeffs(grid: SpectralGrid, rng: np.random.Generator) -> CoeffFn:
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return CoeffFn(grid, vals)


def sobolev_suite(grid: SpectralGrid) -> list[CheckResult]:
    rng = np.random.default_rng(20240311)
    out = []

    shift = 1.0 - grid.lambdas
    worst = max(float(np.max(np.abs(shift ** s * shift ** -s - 1.0))) for s in (-4, -1, 2, 5))
    out.append(_le("weight duality (1-lam)^s (1-lam)^-s = 1", worst, 1e-14))

    worst = 0.0
    for _ in range(100):
        f = _random_coeffs(grid, rng)
        s = int(rng.integers(-4, 5))
        a = sobolev_norm(apply_one_minus_laplacian(f), s - 2)
        b = sobolev_norm(f, s)
        worst = max(worst, abs(a - b) / b)
    out.append(_le("smoothing-shift isometry (100 random f)", worst, 1e-12))

    f = _random_coeffs(grid, rng)
    g = invert_one_minus_laplacian(apply_one_minus_laplacian(f))
    worst = float(np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values)))
    out.append(_le("smoothing-shift inverse roundtrip", worst, 1e-13))

    worst = worst_round = 0.0
    neg = worst_bound = worst_rel = -np.inf
    for _ in range(50):  # 150 resolvent draws: every f at each C
        f = _random_coeffs(grid, rng)
        g = _random_coeffs(grid, rng)
        s = int(rng.integers(-3, 4))
        lhs = pairing_s(apply_generator(f), g, s)
        rhs = pairing_s(f, apply_generator(g), s)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
        neg = max(neg, pairing_s(apply_generator(f), f, s).real)
        for c in (0.5, 1.0, 3.0):
            rf = apply_resolvent(c, f)
            # neither form of the excess implies the other: check both
            worst_bound = max(worst_bound, sobolev_norm(rf, s) - sobolev_norm(f, s) / c)
            worst_rel = max(worst_rel, sobolev_norm(rf, s) * c / sobolev_norm(f, s) - 1.0)
            back = apply_generator(rf).values - c * rf.values
            worst_round = max(
                worst_round,
                float(np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))),
            )
    out.append(_le("generator symmetry <Mf,g>_s = <f,Mg>_s", worst, 1e-13))
    out.append(_le("generator negativity <Mf,f>_s <= 0", neg, 1e-13))
    out.append(_le("resolvent bound ||(M-C)^-1 f|| <= ||f||/C", worst_bound, 1e-13))
    out.append(_le("resolvent bound C ||(M-C)^-1 f|| / ||f|| <= 1", worst_rel, 1e-13))
    out.append(_le("resolvent roundtrip (M-C)(M-C)^-1 = id", worst_round, 1e-13))

    worst = -np.inf
    for _ in range(20):
        f = _random_coeffs(grid, rng)
        s = int(rng.integers(-4, 5))
        worst = max(worst, sobolev_norm(f, s - 1) - sobolev_norm(f, s))
    out.append(_le("scale nesting ||f||_{s-1} <= ||f||_s", worst, 1e-13))

    worst = -np.inf
    for _ in range(50):
        f = _random_coeffs(grid, rng)
        g = _random_coeffs(grid, rng)
        for s in (-2, 0, 2):
            bound = sobolev_norm(f, s) * sobolev_norm(g, -s)
            worst = max(worst, (abs(pairing(f, g)) - bound) / bound)
    out.append(_le("pairing Cauchy-Schwarz across dual indices", worst, 1e-13))
    return out


def semigroup_suite(grid: SpectralGrid) -> list[CheckResult]:
    rng = np.random.default_rng(20240312)
    out = []
    f = _random_coeffs(grid, rng)

    g0 = semigroup_apply(0.0, f)
    out.append(_le("identity at t=0", float(np.max(np.abs(g0.values - f.values))), 0.0))

    worst = 0.0
    contraction = -np.inf
    for _ in range(20):  # each h also at every (t, s) of the contraction
        h = _random_coeffs(grid, rng)
        a = semigroup_apply(0.3, semigroup_apply(0.7, h))
        b = semigroup_apply(1.0, h)
        worst = max(worst, float(np.max(np.abs(a.values - b.values))
                                 / np.max(np.abs(b.values) + 1e-300)))
        for t in (0.1, 1.0, 10.0):
            for s in range(-4, 5):
                contraction = max(contraction, sobolev_norm(semigroup_apply(t, h), s)
                                  - sobolev_norm(h, s))
    out.append(_le("semigroup law G(.3)G(.7) = G(1)", worst, 1e-13))
    out.append(_le("contraction ||G(t)f||_s <= ||f||_s", contraction, 1e-13))

    gaps = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        gt = semigroup_apply(t, f)
        gaps.append(sobolev_norm(gt.with_values(gt.values - f.values), -DELTA_INDEX))
    mono = max(b - a for a, b in zip(gaps, gaps[1:]))
    out.append(_lt("strong continuity: gap strictly decreasing", mono, 0.0))
    out.append(_lt("strong continuity: gap(1e-5)/gap(1e-1)", gaps[-1] / gaps[0], 1e-3))

    out.append(_le("laplace transform of G matches resolvent (C=1)",
                   resolvent_laplace_defect(1.0, f), 0.02))
    return out


def heat_suite(grid: SpectralGrid) -> list[CheckResult]:
    out = []
    delta = delta_coefficients(grid)

    t0 = heat_coefficients(0.0, grid).coeffs
    out.append(_le("t=0 heat data equals delta data",
                   float(np.max(np.abs(t0.values - delta.values))), 0.0))

    r1 = heat_equation_residual(1.0, 1e-2, RESIDUAL_INDEX, grid)
    r2 = heat_equation_residual(1.0, 5e-3, RESIDUAL_INDEX, grid)
    out.append(_in_range("time-difference residual order ratio", r1 / r2, 3.5, 4.5))

    scale = sobolev_norm(apply_generator(heat_coefficients(1.0, grid).coeffs), RESIDUAL_INDEX)
    out.append(_le("residual(h=1e-3) vs generator image",
                   heat_equation_residual(1.0, 1e-3, RESIDUAL_INDEX, grid) / scale, 1e-5))

    ts = (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-4)
    gaps = [initial_condition_gap(t, grid) for t in ts]
    out.append(_lt("initial-condition gap strictly decreasing",
                   max(b - a for a, b in zip(gaps, gaps[1:])), 0.0))
    mdelta = sobolev_norm(apply_generator(delta), -DELTA_INDEX)
    out.append(_le("gap(t) <= t ||M delta||",
                   max(g / (t * mdelta) for g, t in zip(gaps, ts)), 1.0))
    out.append(_le("gap(1e-4) / gap(1)", gaps[-1] / gaps[0], 1e-2))

    rng = np.random.default_rng(20240313)
    worst = -np.inf
    for t in (0.1, 1.0, 10.0):
        for _ in range(100):
            f = _random_coeffs(grid, rng)
            g = _random_coeffs(grid, rng)
            init = sobolev_norm(f.with_values(f.values - g.values), -DELTA_INDEX)
            worst = max(worst, uniqueness_gap(f, g, t, -DELTA_INDEX) - init)
    out.append(_le("uniqueness: evolved gap <= initial gap", worst, 1e-13))

    e1 = euler_error(0.5, 1024, grid)
    e2 = euler_error(0.5, 2048, grid)
    out.append(_in_range("euler-vs-exact first-order ratio", e1 / e2, 1.8, 2.2))
    return out


def oracle_suite(grid: SpectralGrid, norm_bound: float) -> list[CheckResult]:
    out = []
    for t in ORACLE_TIMES:
        for z in ORACLE_POINTS:
            spectral = evaluate_heat_kernel(t, z, grid).value
            reference = periodized_oracle(t, z, norm_bound, shell_warning=False)
            rel = abs(spectral - reference) / abs(reference)
            out.append(_le(f"oracle agreement t={t} z={z.x}+{z.y}i (B={norm_bound:g})",
                           rel, ORACLE_REL_TOL))
    return out


def run_suite(name: str, cfg: RunConfig) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}' (choose from {', '.join(SUITES)})")
    grid = grid_for_config(cfg)
    checks: list[CheckResult] = []
    if name in ("sobolev", "all"):
        checks.extend(sobolev_suite(grid))
    if name in ("semigroup", "all"):
        checks.extend(semigroup_suite(grid))
    if name in ("heat", "all"):
        checks.extend(heat_suite(grid))
    if name in ("oracle", "all"):
        checks.extend(oracle_suite(grid, cfg.oracle_norm_bound))
    return checks
