"""Coefficient functions on the spectral grid: norms, pairings, and operators.

A CoeffFn is one complex vector over the grid; the Sobolev index s enters
only through operation parameters, so the same vector represents an element
of every weighted space whose norm is finite.  The multiplication maps are
pointwise in the eigenvalue: (1 - lambda) shifts the scale by two indices
isometrically, lambda itself is the (negative, self-adjoint) generator of
the heat flow, and (lambda - C)^{-1} is its resolvent for C > 0.
"""

from __future__ import annotations

import warnings

import numpy as np

from .hyperbolic import QuadSpec
from .spectral_model import SobolevIndex, SpectralGrid

# A row whose largest possible synthesis term is below this fraction of its
# family's largest is not evaluated: the skipped terms then sum to far below
# 2^-53 of the family's largest term.
NEGLIGIBLE = 1e-20


class CoeffFn:
    """A complex-valued function on the spectral grid, equal only to itself."""

    def __init__(self, grid: SpectralGrid, values: np.ndarray):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} values, got shape {vals.shape}")
        if not np.logical_and.reduce(np.isfinite(vals)):
            raise ValueError("coefficient values must be finite")
        self.grid = grid
        self.values = vals

    def with_values(self, values: np.ndarray) -> "CoeffFn":
        return CoeffFn(self.grid, values)


def _same_grid(f: CoeffFn, g: CoeffFn) -> None:
    if f.grid is not g.grid:
        raise ValueError("coefficient functions live on different grids")


def sobolev_weights(grid: SpectralGrid, s: SobolevIndex) -> np.ndarray:
    """The index-s weights w (1 - lambda)^s; ValueError where one overflows."""
    with np.errstate(over="ignore"):  # refused below, with its index
        w = grid.weights * (1.0 - grid.lambdas) ** s
    if not np.isfinite(w).all():
        raise ValueError(f"Sobolev weights (1 - lambda)^{s} overflow on this grid")
    return w


def sobolev_norm(f: CoeffFn, s: SobolevIndex) -> float:
    """Weighted L2 norm over the grid: discrete entries count, nodes integrate."""
    w = sobolev_weights(f.grid, s)
    return float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))


def pairing(f: CoeffFn, g: CoeffFn) -> complex:
    """Weight-free sesquilinear duality pairing integral f conj(g): index 0."""
    return pairing_s(f, g, 0)


def pairing_s(f: CoeffFn, g: CoeffFn, s: SobolevIndex) -> complex:
    """The index-s inner product (the norm's polarization)."""
    _same_grid(f, g)
    w = sobolev_weights(f.grid, s)
    return complex(np.sum(w * f.values * np.conj(g.values)))


def apply_one_minus_laplacian(f: CoeffFn) -> CoeffFn:
    """Multiplication by (1 - lambda): the isometry shifting the scale by -2."""
    return f.with_values((1.0 - f.grid.lambdas) * f.values)


def invert_one_minus_laplacian(f: CoeffFn) -> CoeffFn:
    return f.with_values(f.values / (1.0 - f.grid.lambdas))


def apply_generator(f: CoeffFn) -> CoeffFn:
    """Multiplication by lambda: the heat semigroup's generator."""
    return f.with_values(f.grid.lambdas * f.values)


def apply_resolvent(c: float, f: CoeffFn) -> CoeffFn:
    """(generator - c)^{-1} f; requires c > 0 so the divisor stays away from 0."""
    if not c > 0.0:
        raise ValueError(f"resolvent parameter must be positive, got {c}")
    return f.with_values(f.values / (f.grid.lambdas - c))


def delta_coefficients(grid: SpectralGrid) -> CoeffFn:
    """Spectral data of the Dirac delta at i: the grid's basis column there
    (real in the unitary frame, so conjugation is a no-op)."""
    return CoeffFn(grid, grid.basis_at_i())


def _check_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, with HPoint's refusals by name: 1-d, one length, finite, y > 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.ndim(x) != 1 or np.shape(x) != np.shape(y):
        raise ValueError(f"x and y must be 1-d of one length, got {np.shape(x)}, {np.shape(y)}")
    if not (ok := np.isfinite(x) & (y > 0.0) & (y < np.inf)).all():
        k = np.argmin(ok)  # the first point refused
        raise ValueError(f"points need finite x, 0 < y < inf, got x = {x[k]}, y = {y[k]} at {k}")
    return x, y


def basis_values(grid: SpectralGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of basis evaluations, shape (grid.size, npoints), unitary frame: rows
    in coefficient order (cusp forms, constant, Eisenstein nodes) at reduced points."""
    x, y = _check_points(x, y)
    return grid.basis_rows(x, y, np.ones(grid.size, dtype=bool))


def _not_negligible(hi: np.ndarray, lo: np.ndarray, out=None) -> np.ndarray:
    # rows whose upper bound (>= 0) reaches the least double and NEGLIGIBLE x the top lower bound
    return np.greater_equal(hi, max(NEGLIGIBLE * lo.max(initial=0.0), 5e-324), out=out)


def synthesis_rows(f: CoeffFn, y: np.ndarray) -> np.ndarray:
    """The rows whose synthesis term at heights y can reach a double's digits.

    Per family (cusp forms, Eisenstein nodes) a row is kept when a bound on
    its largest term is at least NEGLIGIBLE times the family's largest bound:
    |w c| e^{pi r/2} on a cusp row (forms.BasisTable.growth; 0 where the row
    keeps no Fourier term at these heights), |w c| on a node.  The constant row
    is always kept (synthesis.evaluate_heat_kernel adds the last node for its tail)."""
    grid, n = f.grid, f.grid.n_cusp
    size, live = np.abs(grid.weights * f.values), np.empty(grid.size, dtype=bool)
    live[n] = True
    reach = grid.table.bank.cut[:n] >= 2.0 * np.pi * np.minimum.reduce(y, None, initial=np.inf)
    _not_negligible(cusp := size[:n] * grid.table.growth * reach, cusp, live[:n])
    _not_negligible(size[n + 1:], size[n + 1:], live[n + 1:])
    return live


def analyze(fn, grid: SpectralGrid, quad: QuadSpec | None = None) -> CoeffFn:
    """Spectral coefficients of a pointwise-evaluable invariant function.

    fn(x, y) must accept coordinate arrays inside the fundamental domain.
    Inner products are taken against the grid's basis by fundamental-domain
    quadrature; the continuous entries are coefficient *densities* at the
    nodes, matching the grid's folded Plancherel weights.  Warns when the
    sampled mass above 0.9 y_max exceeds 1e-3 of the total.
    """
    if quad is None:
        quad = QuadSpec()
    x, y, w = quad.nodes()
    fv = np.asarray(fn(x, y), dtype=complex)
    # crude mass-above-cutoff estimate: compare top-strip samples to the bulk
    top = y > 0.9 * quad.y_max
    if np.any(top):
        top_mass = float(np.sum(np.abs(fv[top]) ** 2 * w[top]))
        total = float(np.sum(np.abs(fv) ** 2 * w))
        if total > 0 and top_mass > 1e-3 * total:
            warnings.warn(
                f"function mass near the height cutoff y_max={quad.y_max} is "
                f"{top_mass / total:.2e} of the total; coefficients may be truncated",
                stacklevel=2,
            )
    basis = basis_values(grid, x, y)
    coeffs = basis @ (w * fv)
    return CoeffFn(grid, coeffs)


def synthesis_parts(f: CoeffFn, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point of basis (grid.basis_rows' shape) the cusp, residual and
    Eisenstein parts of f's synthesis: each point's terms w c E are one row,
    summed in row order family by family, so no point depends on its batch."""
    n, terms = f.grid.n_cusp, np.ascontiguousarray(basis.T) * (f.grid.weights * f.values)
    return np.add.reduce(terms[..., :n], -1), terms[..., n], np.add.reduce(terms[..., n + 1:], -1)


def synthesize_values(f: CoeffFn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise synthesis sum/integral of coefficients against the basis:
    synthesis_parts' sum, as evaluate_heat_kernel's value for heat data.
    The rows outside synthesis_rows are left at zero, unevaluated: for heat
    data, the odd cusp forms (they vanish at i) and the negligible entries."""
    x, y = _check_points(x, y)
    cusp, residual, eis = synthesis_parts(f, f.grid.basis_rows(x, y, synthesis_rows(f, y)))
    return cusp + residual + eis
