"""Upper half-plane points, modular reduction, and fundamental-domain quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import gauss_rule


@dataclass(frozen=True)
class HPoint:
    """A point z = x + iy of the upper half-plane, its coordinates stored as floats."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got x = {self.x}, y = {self.y}")
        if not self.y > 0.0:
            raise ValueError(f"upper half-plane requires y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z: complex) -> "HPoint":
        return cls(float(z.real), float(z.imag))


def reduce_to_fundamental_domain(p: HPoint) -> HPoint:
    """Translate/invert z into |x| <= 1/2, |z| >= 1.

    The classical reduction.  While y <= 1/2, |z|^2 <= 1/2 after the translation and
    an inversion at least doubles y: from y >= 2^-1074, 1074 pass 1/2, then at most one
    more was seen; 1080 rounds is the stop.  The inversion divides twice by hypot(x, y),
    whose square underflows below |z| ~ 1e-154; ValueError where the inverted point
    overflows.  Rounding moves the result by up to eps |z0| / y, z0 the translated input.
    """
    x, y = p.x, p.y
    for _ in range(1080):
        x -= np.floor(x + 0.5)
        if x * x + y * y >= 1.0 - 1e-15:
            return HPoint(x, y)
        r = math.hypot(x, y)
        x, y = -x / r / r, y / r / r
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"reducing z = {p.x} + {p.y}i: the inverted point overflows "
                             f"(height y / |z|^2 = {y})")
    raise RuntimeError("fundamental-domain reduction did not terminate")


def cosh_distance(z: complex, w: complex) -> float:
    """cosh of the hyperbolic distance: 1 + |z-w|^2 / (2 Im z Im w)."""
    return 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)


def hyperbolic_distance(z: complex, w: complex) -> float:
    return float(np.arccosh(max(cosh_distance(z, w), 1.0)))


@dataclass(frozen=True)
class QuadSpec:
    """2-D quadrature recipe over the fundamental domain with measure dx dy / y^2.

    Tensor rule: Gauss-Legendre in x on [-1/2, 1/2]; for each x node, geometric
    Gauss-Legendre panels in y starting exactly on the arc y = sqrt(1 - x^2)
    and ending at the height cutoff y_max.
    """

    nx: int = 96
    y_panels: int = 8
    ny_per_panel: int = 16
    y_max: float = 10.0

    def __post_init__(self):
        if self.y_max <= 1.0:
            raise ValueError("height cutoff must clear the arc: y_max > 1")
        if min(self.nx, self.y_panels, self.ny_per_panel) < 1:
            raise ValueError("quadrature sizes must be positive")

    def nodes(self):
        """Return flat arrays (x, y, w) with w the dx dy / y^2 weights."""
        x, wx = gauss_rule(0.0, 0.5, self.nx)
        y_lo = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        # geometric panel edges from the arc up to y_max
        widths = 1.9 ** np.arange(self.y_panels)
        widths = widths * ((self.y_max - y_lo) / widths.sum())[:, None]
        edges = y_lo[:, None] + np.cumsum(np.insert(widths, 0, 0.0, axis=1), axis=1)
        a, b = edges[:, :-1], edges[:, 1:]
        y, wy = gauss_rule(0.5 * (a + b), 0.5 * (b - a), self.ny_per_panel)
        w = wx[:, None, None] * wy / y ** 2
        return np.broadcast_to(x[:, None, None], y.shape).ravel(), y.ravel(), w.ravel()
