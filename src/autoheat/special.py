"""Special functions: K-Bessel of imaginary order and zeta on the line Re = 1.

Everything here is needed to evaluate the continuous-spectrum basis functions
and the cusp forms.  The K-Bessel routine is the workhorse: for spectral
parameter R and argument x < R the function oscillates with an overall
exponentially small envelope e^{-pi R/2}, so the exponentially rescaled
value e^{pi R/2} K_{iR}(x) is what every caller actually wants.  A direct
quadrature of the cosh integral loses all relative accuracy in that regime
(the integrand is O(1) while the answer is O(e^{-pi R/2})), so below the
monotone region we continue the solution of the modified Bessel ODE inward
from a quadrature-seeded starting point.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gamma as complex_gamma

# B_2 .. B_16, the even Bernoulli numbers used by the Euler-Maclaurin tail.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

ZETA_LINE_T_MAX = 100.0


def zeta_euler_maclaurin(s: complex, n_terms: int = 100, tail_terms: int = 8) -> complex:
    """Riemann zeta via Euler-Maclaurin summation.

    Accurate to ~1e-13 relative for Re(s) > -1 and |Im(s)| <= 100 with the
    default truncation.  The pole at s = 1 is rejected.
    """
    s = complex(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    if tail_terms > len(_BERNOULLI_EVEN):
        raise ValueError(f"at most {len(_BERNOULLI_EVEN)} Bernoulli tail terms supported")
    n = np.arange(1, n_terms)
    total = np.sum(n ** (-s))
    total += 0.5 * n_terms ** (-s)
    total += n_terms ** (1.0 - s) / (s - 1.0)
    # Tail: sum_k B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    poch = s
    fact = 1.0
    for k in range(1, tail_terms + 1):
        fact *= (2 * k - 1) * (2 * k)
        total += _BERNOULLI_EVEN[k - 1] / fact * poch * n_terms ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return complex(total)


def zeta_line(t: float) -> complex:
    """zeta(1 + it) on the edge of the critical strip.

    Relative accuracy ~1e-12 for |t| <= 100.  t = 0 hits the pole and is
    rejected.
    """
    if t == 0.0:
        raise ValueError("zeta(1 + it) has a pole at t = 0")
    if abs(t) > ZETA_LINE_T_MAX:
        raise ValueError(f"|t| <= {ZETA_LINE_T_MAX} required, got {t}")
    return zeta_euler_maclaurin(complex(1.0, t))


def xi_line(r: float) -> complex:
    """Completed zeta xi(1 + 2ir) = pi^{-s/2} Gamma(s/2) zeta(s) at s = 1 + 2ir."""
    s = complex(1.0, 2.0 * r)
    return np.pi ** (-s / 2) * complex_gamma(s / 2) * zeta_euler_maclaurin(s)


def scattering_phase(r: float) -> complex:
    """Scattering term phi(1/2 + ir) = xi(2ir)/xi(1 + 2ir) of the modular surface.

    The numerator is moved to the line Re = 1 by the functional equation
    xi(s) = xi(1-s), which makes it the conjugate of the denominator; the
    result is exactly unimodular.  phi(1/2) = -1 in the r -> 0 limit.
    """
    if r == 0.0:
        return complex(-1.0)
    xi = xi_line(r)
    return np.conj(xi) / xi


# ---------------------------------------------------------------------------
# K_{iR}(x)
# ---------------------------------------------------------------------------

_QUAD_DECAY = 45.0  # integrate until x*(cosh u - 1) exceeds this
_PANELS = 48  # equal panels of each row's normalized log-x range
_PANEL_DEGREE = 16  # Chebyshev degree of the series on each panel


def _kbessel_quad_scaled(r: float, x: np.ndarray, want_derivative: bool = False):
    """e^x K_{iR}(x) (and optionally its x-derivative's companion) by quadrature.

    Computes J(x) = integral_0^inf exp(-x(cosh u - 1)) cos(R u) du, so that
    K_{iR}(x) = e^{-x} J(x).  The rescaling keeps the integrand O(1).  Only
    reliable in a relative sense for x >= R + O(10); used as the ODE seed and
    for the monotone region.  Trapezoid steps are halved until two successive
    levels agree.
    """
    x = np.asarray(x, dtype=float)
    xmin = float(np.min(x))
    if xmin <= 0.0:
        raise ValueError("argument of K_{iR} must be positive")
    u_max = math.acosh(1.0 + _QUAD_DECAY / xmin)
    # Initial step: resolve both the cos(R u) oscillation and the envelope.
    n = 256
    while n * 0.35 < u_max * (8.0 + r):
        n *= 2
    xcol = x[:, None]

    def level(npts: int) -> np.ndarray:
        u = np.linspace(0.0, u_max, npts + 1)
        ch = np.cosh(u) - 1.0
        f = np.exp(-xcol * ch[None, :]) * np.cos(r * u)[None, :]
        w = np.full(npts + 1, u_max / npts)
        w[0] *= 0.5
        w[-1] *= 0.5
        return f @ w

    val = level(n)
    for _ in range(6):
        n *= 2
        new = level(n)
        if np.max(np.abs(new - val)) <= 1e-13 * max(1.0, float(np.max(np.abs(new)))):
            val = new
            break
        val = new
    if not want_derivative:
        return val
    # J'(x) = -integral (cosh u - 1) e^{-x(cosh u - 1)} cos(Ru) du
    u = np.linspace(0.0, u_max, n + 1)
    ch = np.cosh(u) - 1.0
    w = np.full(n + 1, u_max / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    dval = -(np.exp(-xcol * ch[None, :]) * (ch * np.cos(r * u))[None, :]) @ w
    return val, dval


class KBesselBank:
    """e^{pi r/2} K_{ir}(x) on x >= x_min for every r of a spectral family.

    Row j holds r_j.  Past the turning-point region the quadrature answers
    directly.  Below it, w(x) = e^x K_{ir}(x) solves
    x^2 w'' + x(1 - 2x) w' + (r^2 - x) w = 0, and all rows are integrated
    inward as one stacked 2n-dimensional system from the shared quadrature
    seed x_seed = max r + 50.  Each row's rescaled value e^{pi r/2 - x} w(x)
    is fitted by its own Chebyshev series in log x on [x_min, fit_hi(r)] and
    re-expanded onto fixed panels; evaluation is one degree-16 Clenshaw pass
    over flat (row, argument) entries, O(1) values with absolute accuracy ~1e-11.
    """

    def __init__(self, rs, x_min: float = 1e-3):
        self.r = np.abs(np.asarray(rs, dtype=float).reshape(-1))  # K_{ir} is even in r
        self.x_min = float(x_min)
        self.x_seed = float(np.max(self.r, initial=0.0)) + 50.0
        # past fit_hi the value has decayed to where the quadrature answers directly
        self.fit_hi = np.minimum(self.r + 50.0, np.pi * self.r / 2.0 + 45.0)
        if np.any(self.x_min >= self.fit_hi):
            raise ValueError(f"x_min={self.x_min} must lie below every row's fit range")
        # the interpolant's absolute floor (~1e-12) keeps relative accuracy only
        # until the value decays; `accurate` takes the dense ODE output there
        self._split = np.minimum(np.pi * self.r / 2.0 + 5.0, self.fit_hi)
        # interpolate in u = log x: near zero the rescaled Bessel is a clean
        # cosine of u, and the e^{-x} roll-off stays resolvable
        u_lo = math.log(self.x_min)
        u_hi = np.array([math.log(h) for h in self.fit_hi])
        self._u_sum, self._u_span = u_lo + u_hi, u_hi - u_lo
        self.deg = (160 + 10.0 * (self.r * (u_hi - u_lo) / (2.0 * np.pi))
                    + 2.5 * self.fit_hi).astype(int)
        self._panels = np.zeros((_PANEL_DEGREE + 1, _PANELS * len(self.r)))
        if len(self.r):
            self._fit(u_lo, u_hi)

    def _fit(self, u_lo: float, u_hi: np.ndarray) -> None:
        n = len(self.r)
        seeds = [_kbessel_quad_scaled(r, np.array([self.x_seed]), want_derivative=True)
                 for r in self.r]
        y0 = np.array([float(s[i][0]) for i in (0, 1) for s in seeds])  # w' = J'
        r2 = self.r * self.r

        def rhs(x, y):
            w, wp = y[:n], y[n:]
            return np.concatenate((wp, -((1.0 - 2.0 * x) * wp / x + (r2 - x) * w / (x * x))))

        sol = solve_ivp(rhs, (self.x_seed, self.x_min), y0, method="DOP853",
                        dense_output=True, rtol=1e-12, atol=1e-280)
        if not sol.success:
            raise RuntimeError(f"K-Bessel ODE continuation failed: {sol.message}")
        # keep each row's own w component of the DOP853 interpolants and the
        # segment search of scipy's OdeSolution; the 2n-wide solution goes
        dense = sol.sol
        ips = dense.interpolants
        self._F = np.stack([ip.F[:, :n] for ip in ips], axis=1)  # (power, segment, row)
        self._y_old = np.stack([ip.y_old[:n] for ip in ips])
        self._t_old = np.array([ip.t_old for ip in ips])
        self._h = np.array([ip.h for ip in ips])
        self._ts, self._side, self._ascending = dense.ts_sorted.copy(), dense.side, dense.ascending
        del sol, dense, ips
        # one pass of the dense output over every row's first-kind Chebyshev
        # nodes and its 257 probes for the interpolation check
        ks = [np.arange(d + 1) for d in self.deg]
        thetas = [np.pi * (k + 0.5) / len(k) for k in ks]
        nodes = [np.exp(0.5 * (hi - u_lo) * (np.cos(th) + 1.0) + u_lo)
                 for hi, th in zip(u_hi, thetas)]
        probes = np.exp(np.linspace(u_lo, u_hi, 257, axis=1)).ravel()
        rows = np.concatenate((np.repeat(np.arange(n), self.deg + 1), np.repeat(np.arange(n), 257)))
        vals = self._dense(rows, np.concatenate(nodes + [probes]))
        # the cosine transform depends on the degree only: one matrix per
        # distinct degree, held while its rows are fitted
        fks = np.split(vals, np.cumsum(self.deg + 1))
        coef = np.zeros((int(np.max(self.deg)) + 1, n))
        for d in np.unique(self.deg):
            rows_d = np.flatnonzero(self.deg == d)
            k, theta = ks[rows_d[0]], thetas[rows_d[0]]
            cos_kt = (2.0 / len(k)) * np.cos(np.outer(k, theta))
            for j in rows_d:
                coef[:len(k), j] = cos_kt @ fks[j]
        coef[0] *= 0.5
        # the global series smooths the piecewise ODE output; re-expand it on
        # the panels, whose first-kind nodes every row shares: one product
        # with T_k at the nodes, then one cosine transform per panel
        k = np.arange(_PANEL_DEGREE + 1)
        theta = np.pi * (k + 0.5) / len(k)
        u = (np.arange(_PANELS)[:, None] + 0.5 * (np.cos(theta) + 1.0)) * (2.0 / _PANELS) - 1.0
        at_nodes = np.cos(np.outer(np.arccos(u.ravel()), np.arange(len(coef)))) @ coef
        at_nodes = at_nodes.reshape(_PANELS, len(k), n).transpose(1, 2, 0).reshape(len(k), -1)
        self._panels = (2.0 / len(k)) * np.cos(np.outer(k, theta)) @ at_nodes
        self._panels[0] *= 0.5
        err = np.abs(self._clenshaw(rows[-len(probes):], probes) - vals[-len(probes):])
        err = err.reshape(n, 257).max(axis=1)
        if np.max(err) > 1e-9:
            raise RuntimeError(f"K-Bessel interpolation failed for R={self.r[np.argmax(err)]}: "
                               f"max error {np.max(err):.2e}")

    def _dense(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """e^{pi r/2 - x} w(x) from the DOP853 dense output, one component per
        entry: scipy's segment choice and interpolant recurrence, replayed in
        its order of operations, so each value is the one sol.sol(x)[row] gives."""
        seg = np.searchsorted(self._ts, x, side=self._side) - 1
        np.clip(seg, 0, len(self._h) - 1, out=seg)
        if not self._ascending:
            seg = len(self._h) - 1 - seg
        s = (x - self._t_old[seg]) / self._h[seg]
        w = np.zeros(len(x))
        for i, f in enumerate(self._F[::-1]):
            w += f[seg, rows]
            w *= s if i % 2 == 0 else 1 - s
        w += self._y_old[seg, rows]
        return np.exp(np.pi * self.r[rows] / 2.0 - x) * w

    def _clenshaw(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Each entry's panel series at log x: the panel of its row's normalized
        variable, then a fixed-degree recurrence on coefficients gathered at
        the flat index row * _PANELS + panel."""
        s = ((2.0 * np.log(x) - self._u_sum[rows]) / self._u_span[rows] + 1.0) * (0.5 * _PANELS)
        p = np.clip(s.astype(np.intp), 0, _PANELS - 1)
        v, idx = 2.0 * (s - p) - 1.0, rows * _PANELS + p
        two_v, b0, b1 = 2.0 * v, np.zeros(len(x)), np.zeros(len(x))
        for c in self._panels[:0:-1]:
            b0, b1 = c.take(idx) + two_v * b0 - b1, b0
        return self._panels[0].take(idx) + v * b0 - b1

    def __call__(self, rows, x) -> np.ndarray:
        """Rescaled values at (row, argument) entries; `rows` broadcasts against x."""
        return self._evaluate(rows, x, accurate=False)

    def accurate(self, rows, x) -> np.ndarray:
        """Relative-accuracy variant: dense ODE output covers the window where
        the interpolant's absolute floor would dominate the decayed values."""
        return self._evaluate(rows, x, accurate=True)

    def _evaluate(self, rows, x, accurate: bool) -> np.ndarray:
        rows, x = np.broadcast_arrays(np.asarray(rows, dtype=np.intp),
                                      np.atleast_1d(np.asarray(x, dtype=float)))
        if np.any(x <= 0.0):
            raise ValueError("argument of K_{iR} must be positive")
        if np.any(x < self.x_min - 1e-12):
            raise ValueError(f"argument below cached domain x_min={self.x_min}")
        out = np.zeros(x.shape)
        lo = x < (self._split if accurate else self.fit_hi)[rows]
        mid = ~lo & (x < self.x_seed) & accurate
        hi = ~(lo | mid)
        if np.any(lo):
            out[lo] = self._clenshaw(rows[lo], x[lo])
        if np.any(mid):
            out[mid] = self._dense(rows[mid], x[mid])
        for j in np.unique(rows[hi]):
            sel = hi & (rows == j)
            # underflow to 0 is fine: these arguments contribute nothing
            safe = sel & (np.pi * self.r[j] / 2.0 - x > -700.0)
            if np.any(safe):
                out[safe] = np.exp(np.pi * self.r[j] / 2.0 - x[safe]) \
                    * _kbessel_quad_scaled(self.r[j], x[safe])
        return out


@functools.lru_cache(maxsize=64)
def kbessel_bank(rs: tuple[float, ...], x_min: float) -> KBesselBank:
    """The bank for a tuple of r at x_min, built once per key."""
    return KBesselBank(rs, x_min)


def bessel_k_imag_scaled(r: float, x, x_min: float = 1e-3) -> np.ndarray:
    """e^{pi R/2} K_{iR}(x), vectorized over x, through a cached one-row bank."""
    return kbessel_bank((round(abs(float(r)), 14),), x_min)(0, x)


def bessel_k_imag(r: float, x):
    """K_{iR}(x) = integral_0^inf e^{-x cosh u} cos(Ru) du.

    Symmetric in R; absolute accuracy well below 1e-10 for x >= 1e-3 and
    R <= 30.  Scalar x gives a float; an array of x gives an array.
    """
    scalar = np.isscalar(x)
    r = abs(float(r))
    val = kbessel_bank((round(r, 14),), 1e-3).accurate(0, x) * math.exp(-np.pi * r / 2.0)
    return float(val[0]) if scalar else val
