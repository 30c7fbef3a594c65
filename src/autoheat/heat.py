"""Spectral-side heat flow: coefficients, semigroup, and its verification gaps.

The heat coefficients at time t are the delta data damped by e^{lambda t};
the same damping applied to arbitrary data is the contraction semigroup
generated by multiplication-by-lambda.  Time is always an exact parameter,
never stepped, except in the deliberate Euler experiment that exhibits the
exponential as the unique solution of the evolution problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sobolev import (
    CoeffFn,
    _not_negligible,
    _same_grid,
    apply_generator,
    apply_resolvent,
    delta_coefficients,
    sobolev_norm,
)
from .special import gauss_rule
from .spectral_model import DELTA_INDEX, SobolevIndex, SpectralGrid

# Default index for residual checks; any index <= -4 behaves identically on a
# finite grid (all these norms are equivalent there).
RESIDUAL_INDEX: SobolevIndex = -4

_UNDERFLOW_EXPONENT = -700.0  # e^{lambda t} below this flushes to zero
_T_FLUSHED = 4.0 * -_UNDERFLOW_EXPONENT  # all entries but the constant's flush from here on


@dataclass(frozen=True)
class HeatState:
    """Heat-flow snapshot: time plus its coefficient function."""

    t: float
    coeffs: CoeffFn

    def __post_init__(self):
        _check_flow_time(self.t)


def _check_flow_time(t: float) -> None:
    """The flow time's one rule, HeatState's and _damping's: finite, t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"heat flow needs a finite time t >= 0, got t = {t}")


def _damping(grid: SpectralGrid, t: float) -> np.ndarray:
    """e^{lambda t} per entry, for the heat data and the semigroup alike."""
    _check_flow_time(t)
    expo = grid.lambdas * min(t, _T_FLUSHED)
    return np.exp(expo, out=np.zeros(expo.shape), where=expo > _UNDERFLOW_EXPONENT)


def heat_coefficients(t: float, grid: SpectralGrid) -> HeatState:
    """Spectral heat-kernel data at time t: the delta data times e^{lambda t}
    where sobolev.synthesis_rows can keep them, 0 elsewhere (as where it
    underflows), chosen before any fit: the cusp forms, the constant, the
    last node (the tail estimate reads it) and each node whose largest term
    w e^{lambda t} |E(i)| is nonzero and can reach NEGLIGIBLE of the largest
    node term (sobolev._not_negligible on forms.BasisTable.bounds_at_i)."""
    damp, n = _damping(grid, t), grid.n_cusp
    lo, hi = grid.table.bounds_at_i
    w = grid.weights[n + 1:] * damp[n + 1:]
    keep = np.empty(grid.size, dtype=bool)
    keep[:n + 1] = True
    _not_negligible(w * hi, w * lo, keep[n + 1:])
    keep[-1] = True
    values = np.zeros(grid.size, dtype=complex)  # CoeffFn's dtype: taken without a copy
    values[keep] = grid.basis_at_i(keep) * damp[keep]
    return HeatState(t, CoeffFn(grid, values))


def semigroup_apply(t: float, f: CoeffFn) -> CoeffFn:
    """Contraction semigroup e^{t . generator} acting by e^{lambda t}."""
    return f.with_values(f.values * _damping(f.grid, t))


def heat_equation_residual(t: float, h: float, s: SobolevIndex,
                           grid: SpectralGrid) -> float:
    """Norm of the centered time-difference minus the generator image at time t."""
    if not 0.0 < h < t:
        raise ValueError("need 0 < h < t for the centered difference")
    up = heat_coefficients(t + h, grid).coeffs
    down = heat_coefficients(t - h, grid).coeffs
    mid = heat_coefficients(t, grid).coeffs
    diff = up.with_values((up.values - down.values) / (2.0 * h))
    gen = apply_generator(mid)
    return sobolev_norm(diff.with_values(diff.values - gen.values), s)


def profile(ts, s_list: list[SobolevIndex], grid: SpectralGrid) -> list[list[float]]:
    """One row per time t, from one heat_coefficients call each:
    [t, gap, ||U(t)||_s for s in s_list], gap = ||U(t) - delta||_{-DELTA_INDEX}.
    t = 0 is allowed here for contrast: gap 0, and low norms that grow with
    the cutoff, since the delta datum is not square-integrable."""
    delta = delta_coefficients(grid)
    rows = []
    for t in ts:
        ht = heat_coefficients(t, grid).coeffs
        gap = sobolev_norm(ht.with_values(ht.values - delta.values), -DELTA_INDEX)
        rows.append([t, gap] + [sobolev_norm(ht, s) for s in s_list])
    return rows


def initial_condition_gap(t: float, grid: SpectralGrid) -> float:
    """Distance of the heat data from the delta data in the index -DELTA_INDEX
    norm, the delta datum's natural home (the first index below minus half
    the surface dimension): profile's gap column, for t > 0."""
    if not t > 0.0:
        raise ValueError("the gap is defined for t > 0")
    return profile([t], [], grid)[0][1]


def uniqueness_gap(f0: CoeffFn, g0: CoeffFn, t: float, s: SobolevIndex) -> float:
    """Norm of the difference of the two evolved solutions at time t.

    Contraction makes it bounded by the initial gap, and zero initial gap
    stays exactly zero: the numerical face of solution uniqueness.
    """
    _same_grid(f0, g0)
    a = semigroup_apply(t, f0)
    b = semigroup_apply(t, g0)
    return sobolev_norm(a.with_values(a.values - b.values), s)


def euler_error(t: float, steps: int, grid: SpectralGrid) -> float:
    """Error of explicit Euler stepping of the evolution from the delta data,
    in the index RESIDUAL_INDEX norm.

    Stability needs step < 2/|lambda|_max; callers pick steps accordingly.
    """
    if steps < 1:
        raise ValueError("at least one step")
    k = t / steps
    lam = grid.lambdas
    if k * float(np.max(np.abs(lam))) >= 2.0:
        raise ValueError("Euler step too large for the stiffest grid entry")
    vals = delta_coefficients(grid).values * (1.0 + k * lam) ** steps
    exact = heat_coefficients(t, grid).coeffs
    return sobolev_norm(exact.with_values(vals - exact.values), RESIDUAL_INDEX)


def resolvent_laplace_defect(c: float, f: CoeffFn) -> float:
    """Relative defect of (generator - c)^{-1} f against -int_0^inf e^{-ct} G(t) f dt,
    in the index-0 norm.

    The Laplace integral is done by 12 geometric panels (ratio 1.35) of 24
    Gauss-Legendre nodes on [0, 60]; the identity links the resolvent to the
    semigroup it generates.
    """
    direct = apply_resolvent(c, f)
    widths = 1.35 ** np.arange(12)
    edges = np.concatenate(([0.0], np.cumsum(widths * (60.0 / widths.sum()))))
    ts, ws = gauss_rule(0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1]), 24)
    acc = np.zeros_like(f.values)
    for ti, wi in zip(ts.ravel(), ws.ravel()):
        acc += wi * np.exp(-c * ti) * semigroup_apply(ti, f).values
    quad = f.with_values(-acc)
    defect = sobolev_norm(f.with_values(quad.values - direct.values), 0)
    return defect / max(sobolev_norm(direct, 0), 1e-300)
