"""Correctness checkers for the benchmark's outputs.

Each checker compares a program output with a computation made apart from
it, or with a property the method must have, and returns a `Check`.  None
compares against stored output of the program.  `selftest.py` shows that
each one rejects a perturbed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound)  # NaN fails

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"  {status}  {self.name:58s} {self.measured:10.3e} <= {self.bound:.1e}"


def rel_close(name: str, value: float, reference: float, tol: float) -> Check:
    """|value - reference| / |reference|."""
    return Check(name, abs(value - reference) / abs(reference), tol)


def budget_covers(value: float, reference: float, tail_estimate: float,
                  tail_warning: bool) -> bool:
    """An error budget holds when it covers the defect against a converged
    reference, or when the program warned that it might not."""
    return bool(tail_warning or abs(value - reference) <= tail_estimate)


def cli_parts(fields: dict[str, float]) -> Check:
    """The printed parts of `autoheat eval` add up to the printed value.

    Each field is printed to 12 significant digits, so the sum may differ
    by a few units in the 12th digit of the largest part.
    """
    parts = [fields["cusp_part"], fields["residual_part"], fields["eisenstein_part"]]
    scale = max(abs(p) for p in parts)
    return Check("cli: cusp + residual + eisenstein = value",
                 abs(sum(parts) - fields["value"]) / scale, 5e-12)


def positive(name: str, values: np.ndarray) -> Check:
    """A heat kernel is positive: counts the values that are not."""
    return Check(name, int(np.sum(~(np.asarray(values) > 0.0))), 0)


def heat_residual(name: str, k_minus: np.ndarray, k_mid: np.ndarray, k_plus: np.ndarray,
                  y: np.ndarray, h: float, tau: float, tol: float) -> Check:
    """Centred-difference residual of dK/dt = y^2 (K_xx + K_yy) on stencils.

    Each k_* has shape (n, 5) with columns (z, z+h, z-h, z+ih, z-ih), at
    times t - tau, t and t + tau; y holds the stencil centres' heights.  The
    largest residual is taken relative to the largest |dK/dt| of the cloud,
    since both sides are tiny where the kernel is nearly flat.
    """
    dt = (k_plus[:, 0] - k_minus[:, 0]) / (2.0 * tau)
    lap = y * y * (k_mid[:, 1:].sum(axis=1) - 4.0 * k_mid[:, 0]) / (h * h)
    return Check(name, float(np.max(np.abs(dt - lap)) / np.max(np.abs(dt))), tol)


def plane_mass(name: str, kernel, t: float, tol: float) -> Check:
    """2 pi int_0^inf p_t(rho) sinh(rho) drho = 1 for the plane heat kernel.

    The integral is split at the kernel's bulk and each piece goes to
    scipy's adaptive quadrature, which knows nothing of the program's
    quadrature nodes.
    """
    from scipy.integrate import quad

    def f(rho):
        return float(kernel(t, np.array([rho]))[0]) * math.sinh(rho)

    edges = [0.0, 1.0, 2.0 * t + 2.0, 2.0 * t + 4.0 * math.sqrt(t) + 6.0,
             2.0 * t + 30.0 * math.sqrt(t) + 20.0]
    mass = sum(quad(f, a, b, epsabs=1e-17, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))
    return Check(name, abs(2.0 * math.pi * mass - 1.0), tol)


def kbessel_vs_mpmath(name: str, r: float, x: np.ndarray, values: np.ndarray,
                      tol: float) -> Check:
    """K_{ir}(x) against mpmath, both multiplied by e^{pi r/2} (the units in
    which the program keeps all Bessel arithmetic O(1))."""
    import mpmath

    mpmath.mp.dps = 30
    ref = np.array([float(mpmath.re(mpmath.besselk(1j * r, xi)) * mpmath.exp(mpmath.pi * r / 2))
                    for xi in x])
    scaled = np.asarray(values) * math.exp(math.pi * r / 2.0)
    return Check(name, float(np.max(np.abs(scaled - ref))), tol)
