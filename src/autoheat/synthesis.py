"""Pointwise synthesis of the heat kernel, split into its spectral parts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heat import heat_coefficients
from .hyperbolic import HPoint, reduce_to_fundamental_domain
from .sobolev import synthesis_parts, synthesis_rows
from .spectral_model import SpectralGrid

TAIL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SynthesisReport:
    """One heat-kernel evaluation split into spectral parts.

    value = cusp_part + residual_part + eisenstein_part, the parts summed by
    sobolev.synthesis_parts, so value is synthesize_values' at the reduced
    point; nodes_used counts the Eisenstein nodes evaluated, synthesis_rows'
    and the last, from which tail_estimate bounds the continuum dropped
    beyond the grid's r_max.  tail_warning flags a value <= 0 (the heat
    kernel is strictly positive, so such a value is wrong by at least its
    own size) or one against which the tail plus the cancellation error
    (not reported) is large: 16 eps times the largest of |cusp_part|,
    |residual_part| and sum_j |w_j c_j E_j(z)| over the Eisenstein nodes.
    High in the cusp the node terms, ~2 sqrt(y) each, cancel to an O(1)
    Eisenstein part, which cancels in turn against the O(1) residual part to
    a tiny value that keeps their rounding.  It flags too a point the
    reduction's rounding may move by eps |z0| / y > TAIL_TOLERANCE (z0 the
    translated input: y below ~1e-8), and one where the Eisenstein panels
    stop resolving the nodes' constant terms 2 sqrt(y) cos(r log y + arg xi):
    their phase turns by (r_max / panels) log y across a panel, and past
    nodes_per_panel radians, r_max log y > the node count (y > 6.2e5 on the
    default grid), the parts keep quadrature error that nothing else here
    counts."""

    value: float
    cusp_part: float
    residual_part: float
    eisenstein_part: float
    tail_estimate: float
    nodes_used: int
    tail_warning: bool


def _gaussian_tail(r_max: float, t: float) -> float:
    """integral_{r_max}^inf e^{-(1/4 + r^2) t} dr = e^{-t/4} sqrt(pi/t)/2 erfc(r_max sqrt(t)).

    math.erfc keeps full relative accuracy until it underflows, past
    r_max sqrt(t) ~ 27, where e^{-t r_max^2} underflows as well."""
    return 0.5 * math.sqrt(math.pi / t) * math.exp(-t / 4.0) * math.erfc(r_max * math.sqrt(t))


def evaluate_heat_kernel(t: float, z: HPoint, grid: SpectralGrid) -> SynthesisReport:
    """Heat kernel at (t, z) by synthesis over the grid, as SynthesisReport
    splits it.  Refuses t = 0: the initial datum is a distribution, reachable
    only as coefficients."""
    if not t > 0.0:
        raise ValueError("pointwise heat-kernel values exist for t > 0 only")
    p, n = reduce_to_fundamental_domain(z), grid.n_cusp
    coeffs = heat_coefficients(t, grid).coeffs
    y = np.array(p.y)  # one point: 0-d coordinates
    live = synthesis_rows(coeffs, y)
    live[-1] |= coeffs.values[-1] != 0.0  # the tail estimate reads the last node
    basis = grid.basis_rows(np.array(p.x), y, live)
    # the heat data and the basis are real: each part's imaginary part is 0
    cusp, residual, eis = (float(part.real) for part in synthesis_parts(coeffs, basis))

    # |E| at the cutoff from the last node, with margin for growth (a node
    # whose damping underflowed is not evaluated and counts as 1)
    edge = max(abs(basis[-1]), 1.0) * max(abs(grid.basis_at_i(-1)), 1.0) * 2.0
    tail = edge / (2.0 * math.pi) * _gaussian_tail(grid.r_max, t)
    # the rounding a value small against its parts keeps from them and the node
    # terms: a grid of 4x the panels moves the value by <= 10.7 eps times this at
    # t >= 0.4 (the panels' phase error passes it below t = 0.3, on warned values)
    terms = np.abs(basis[n + 1:]) @ np.abs(grid.weights[n + 1:] * coeffs.values[n + 1:])
    cancel_error = 16.0 * math.ulp(1.0) * max(abs(cusp), abs(residual), float(terms))
    drift = math.ulp(1.0) * abs(complex(z.x - math.floor(z.x + 0.5), z.y)) / z.y
    unresolved = grid.r_max * math.log(p.y) > grid.size - n - 1

    value = cusp + residual + eis
    return SynthesisReport(
        value=value,
        cusp_part=cusp,
        residual_part=residual,
        eisenstein_part=eis,
        tail_estimate=tail,
        nodes_used=int(np.count_nonzero(live[n + 1:])),
        tail_warning=bool(tail + cancel_error > TAIL_TOLERANCE * max(abs(value), 1e-300)
                          or value <= 0.0 or drift > TAIL_TOLERANCE or unresolved),
    )
