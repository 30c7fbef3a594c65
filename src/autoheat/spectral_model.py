"""Spectral parameter space of the modular surface and its discretization.

The "basis" consists of Maass cusp forms (discrete), the constant form
(the single residue), and Eisenstein series on the critical line s = 1/2 + ir
(continuous, carried here by Gauss-Legendre nodes with Plancherel-folded
weights dr / (2 pi) on [0, r_max]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .forms import EisensteinSeries, MaassFormData, cusp_bank, maass_rows
from .special import KBesselBank

# Smallest integer strictly greater than dim(X)/2 = 1; the delta distribution
# lives at Sobolev index -DELTA_INDEX and below.
DELTA_INDEX = 2

#: Sobolev scale indices are plain integers throughout.
SobolevIndex = int

RESIDUAL_BASEPOINT = float(np.sqrt(3.0 / np.pi))  # unit-norm constant on volume pi/3


class SpectralKind(enum.Enum):
    CUSPIDAL = "cuspidal"
    RESIDUAL = "residual"
    EISENSTEIN = "eisenstein"


@dataclass(frozen=True)
class SpectralPoint:
    """One element of the spectral basis.

    eigenvalue is the Laplace eigenvalue (always <= 0); basepoint_value is the
    conjugated basis function at the basepoint i.
    """

    kind: SpectralKind
    r: float
    eigenvalue: float
    basepoint_value: complex

    def __post_init__(self):
        if self.eigenvalue > 0.0:
            raise ValueError("Laplace eigenvalues on the surface are nonpositive")
        if self.kind is SpectralKind.RESIDUAL:
            if self.eigenvalue != 0.0 or self.r != 0.0:
                raise ValueError("the residual point is the constant form: r = 0, eigenvalue 0")


def sobolev_weight(p: SpectralPoint, s: SobolevIndex) -> float:
    """Squared-norm weight (1 - lambda)^s > 0."""
    return float((1.0 - p.eigenvalue) ** s)


def _eigenvalue_from_r(r: float) -> float:
    return -(0.25 + r * r)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Discretized spectral parameter space.

    Immutable after construction; the K-Bessel banks of the cusp forms and of
    the continuous nodes are built once here and shared read-only.
    Coefficient vectors over the grid are laid out as
    [cusp entries..., residual entry, eisenstein node entries...].
    """

    cusp_points: tuple[SpectralPoint, ...]
    cusp_forms: tuple[MaassFormData, ...]
    residual_point: SpectralPoint
    eisenstein_r: np.ndarray
    eisenstein_w: np.ndarray  # Plancherel-folded quadrature weights dr/(2 pi)
    r_max: float
    cusp_bank: KBesselBank = field(repr=False)  # row i holds cusp_forms[i].r
    eisenstein: EisensteinSeries = field(repr=False)  # row j holds eisenstein_r[j]

    @property
    def n_cusp(self) -> int:
        return len(self.cusp_points)

    @property
    def n_eisenstein(self) -> int:
        return len(self.eisenstein_r)

    @property
    def size(self) -> int:
        return self.n_cusp + 1 + self.n_eisenstein

    @property
    def residual_index(self) -> int:
        return self.n_cusp

    @property
    def lambdas(self) -> np.ndarray:
        """Eigenvalues per grid entry, in coefficient-vector order."""
        return self._lambdas

    @property
    def weights(self) -> np.ndarray:
        """Integration weight per entry: 1 on the discrete part, w_j on nodes."""
        return self._weights

    @property
    def basepoint_values(self) -> np.ndarray:
        """Conjugated basis values at i per entry (real for our normalization)."""
        return self._basepoint

    def __post_init__(self):
        lam = np.concatenate([
            np.array([p.eigenvalue for p in self.cusp_points], dtype=float),
            [0.0],
            _eigenvalue_from_r(self.eisenstein_r),
        ])
        w = np.concatenate([
            np.ones(self.n_cusp),
            [1.0],
            self.eisenstein_w,
        ])
        base = np.concatenate([
            np.array([np.real(p.basepoint_value) for p in self.cusp_points], dtype=float),
            [RESIDUAL_BASEPOINT],
            np.array([np.real(p.basepoint_value) for p in self.eisenstein_points()], dtype=float),
        ])
        object.__setattr__(self, "_lambdas", lam)
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_basepoint", base)

    def eisenstein_points(self) -> list[SpectralPoint]:
        return [SpectralPoint(SpectralKind.EISENSTEIN, float(r), _eigenvalue_from_r(float(r)),
                              complex(b))
                for r, b in zip(self.eisenstein_r, self.eisenstein.basepoint_values)]

    def points(self) -> list[SpectralPoint]:
        return list(self.cusp_points) + [self.residual_point] + self.eisenstein_points()


def eisenstein_nodes(r_max: float, panels: int, nodes_per_panel: int = 32,
                     growth: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on [0, r_max] with geometric panel widths.

    Panels are narrowest near r = 0 where the heat factor concentrates.
    Weights already carry the folded Plancherel factor 1/(2 pi).
    """
    widths = growth ** np.arange(panels)
    widths *= r_max / widths.sum()
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    xg, wg = leggauss(nodes_per_panel)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        rs.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wg / (2.0 * np.pi))
    return np.concatenate(rs), np.concatenate(ws)


def build_grid(cusp_data: list[MaassFormData], r_max: float, panels: int,
               nodes_per_panel: int = 32) -> SpectralGrid:
    """Assemble the discretized spectral space.

    Rejects nonpositive r_max and duplicate cusp parameters (within 1e-9).
    Cusp forms must be normalized (load_maass_data does that).
    """
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if panels < 1:
        raise ValueError("at least one quadrature panel required")
    data = sorted(cusp_data, key=lambda f: f.r)
    rs = [f.r for f in data]
    for r1, r2 in zip(rs, rs[1:]):
        if abs(r1 - r2) < 1e-9:
            raise ValueError(f"duplicate cusp spectral parameter r = {r1}")
    bank = cusp_bank(data)
    # conjugated values at the basepoint i, where the odd forms vanish
    base = maass_rows(data, bank, range(len(data)), np.array([0.0]), np.array([1.0]))[:, 0]
    cusp_points = tuple(
        SpectralPoint(SpectralKind.CUSPIDAL, f.r, _eigenvalue_from_r(f.r), complex(b))
        for f, b in zip(data, base)
    )
    residual = SpectralPoint(SpectralKind.RESIDUAL, 0.0, 0.0, complex(RESIDUAL_BASEPOINT))
    nodes, weights = eisenstein_nodes(r_max, panels, nodes_per_panel)
    return SpectralGrid(
        cusp_points=cusp_points,
        cusp_forms=tuple(data),
        residual_point=residual,
        eisenstein_r=nodes,
        eisenstein_w=weights,
        r_max=float(r_max),
        cusp_bank=bank,
        eisenstein=EisensteinSeries(nodes),
    )
