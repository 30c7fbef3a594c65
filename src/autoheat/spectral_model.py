"""Spectral parameter space of the modular surface and its discretization.

The "basis" consists of Maass cusp forms (discrete), the constant form
(the single residue), and Eisenstein series on the critical line s = 1/2 + ir
(continuous, carried here by Gauss-Legendre nodes with Plancherel-folded
weights dr / (2 pi) on [0, r_max]).
"""

from __future__ import annotations

import numpy as np

from .forms import BasisTable, MaassFormData, check_distinct
from .special import ZETA_LINE_T_MAX, gauss_rule

# Smallest integer strictly greater than dim(X)/2 = 1; the delta distribution
# lives at Sobolev index -DELTA_INDEX and below.
DELTA_INDEX = 2

#: Sobolev scale indices are plain integers throughout.
SobolevIndex = int

NODES_MAX = 2048  # Eisenstein nodes fitted at most: ~5 ms and ~6.5 KB of panels a node


class SpectralGrid:
    """Discretized spectral parameter space.

    A plain object: every array is set once, here; only the basis column at
    i (`basis_at_i`) and the table's bank rows fill in place, on first use.
    The `table` (forms.BasisTable, built and checked here), the only record
    of each row's r, parity and coefficients, evaluates the cusp forms and
    the nodes as one K-Bessel bank row each, in one Fourier sum.  Coefficient
    vectors are laid out as [cusp entries..., residual entry, node entries...],
    and so are the per-entry arrays: the eigenvalues `lambdas` (always <= 0)
    and the `weights` (1 on the discrete part, dr/(2 pi) quadrature weights).
    """

    def __init__(self, cusp_forms: tuple[MaassFormData, ...], eisenstein_r: np.ndarray,
                 eisenstein_w: np.ndarray, r_max: float):
        self.r_max = r_max
        self.table = BasisTable(cusp_forms, eisenstein_r)  # rows: cusp forms, then nodes
        r, self.n_cusp = self.table.bank.r, self.table.n_cusp
        self.size = len(r) + 1
        self.lambdas = np.insert(-(0.25 + r * r), self.n_cusp, 0.0)
        self.weights = np.concatenate([np.ones(self.n_cusp), [1.0], eisenstein_w])
        self.table.check()
        self._at_i = np.full(self.size, np.nan)  # basis_at_i(); NaN until evaluated

    def basis_at_i(self, rows=slice(None)) -> np.ndarray:
        """The basis column at i (the odd cusp forms vanish there) on the
        entries `rows` (all by default), each evaluated on first request."""
        if np.isnan(col := self._at_i[rows]).any():
            live = np.zeros(self.size, dtype=bool)
            live[rows] = np.isnan(col)
            self._at_i[live] = self.basis_rows(np.array([0.0]), np.array([1.0]), live)[live, 0]
            col = self._at_i[rows]
        return col

    def basis_rows(self, x: np.ndarray, y: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Real unitary-frame basis values at reduced points, shape (size,
        npoints) in coefficient order; only the rows where `live` holds are
        evaluated, the rest stay zero: the live cusp forms and nodes in one
        Fourier sum over the grid's table."""
        out = np.zeros((self.size, len(x)))
        n = self.n_cusp
        sel = np.flatnonzero(live)
        sel = sel[sel != n]
        out[sel] = self.table(sel - (sel > n), x, y)  # table rows skip the constant
        if live[n]:
            out[n] = np.sqrt(3.0 / np.pi)  # unit-norm constant on volume pi/3
        return out


def eisenstein_nodes(r_max: float, panels: int,
                     nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on [0, r_max] with equal-width panels.

    Equal widths keep the panels narrow at high r, where the integrand
    oscillates fastest and 1/|xi(1 + 2ir)|^2 has poles near the real axis
    (at r = gamma/2 +- i/4 for the ordinates gamma of the zeta zeros).
    Weights already carry the folded Plancherel factor 1/(2 pi).
    """
    half = 0.5 * r_max / panels
    nodes, weights = gauss_rule(half * (2.0 * np.arange(panels) + 1.0), half, nodes_per_panel)
    return nodes.ravel(), weights.ravel() / (2.0 * np.pi)


def build_grid(cusp_data: list[MaassFormData], r_max: float, panels: int,
               nodes_per_panel: int) -> SpectralGrid:
    """Assemble the discretized spectral space.

    Rejects an r_max that is not positive and finite, fewer than one panel
    or node per panel, over NODES_MAX nodes, a top node past xi_line's range
    (all before any fit), duplicate cusp parameters (forms.check_distinct)
    and cusp forms that fail the data check (forms.BasisTable.check).
    """
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if panels < 1:
        raise ValueError("at least one quadrature panel required")
    if nodes_per_panel < 1:
        raise ValueError(f"nodes_per_panel must be at least 1, got {nodes_per_panel}")
    if (n_nodes := panels * nodes_per_panel) > NODES_MAX:
        raise ValueError(f"{panels} panels of {nodes_per_panel} nodes make {n_nodes} Eisenstein "
                         f"nodes, over the limit NODES_MAX = {NODES_MAX}")
    check_distinct(cusp_data)
    data = sorted(cusp_data, key=lambda f: f.r)
    nodes, weights = eisenstein_nodes(r_max, panels, nodes_per_panel)
    if 2.0 * nodes[-1] > ZETA_LINE_T_MAX:
        raise ValueError(f"r_max={r_max:g} puts the top Eisenstein node at r = {nodes[-1]:.4f}, "
                         f"past r = {ZETA_LINE_T_MAX / 2:g}, where xi(1 + 2ir) is computed")
    return SpectralGrid(
        cusp_forms=tuple(data),
        eisenstein_r=nodes,
        eisenstein_w=weights,
        r_max=float(r_max),
    )
