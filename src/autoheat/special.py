"""Special functions: K-Bessel of imaginary order and zeta on the line Re = 1.

Everything here is needed to evaluate the continuous-spectrum basis functions
and the cusp forms.  The K-Bessel routine is the workhorse: for spectral
parameter R and argument x < R the function oscillates with an overall
exponentially small envelope e^{-pi R/2}, so the exponentially rescaled
value e^{pi R/2} K_{iR}(x) is what every caller actually wants.  A direct
quadrature of the cosh integral loses all relative accuracy in that regime
(the integrand is O(1) while the answer is O(e^{-pi R/2})), so the integral
is taken on the steepest-descent path of e^{-x cosh t + iRt} instead, where
after the rescaling nothing cancels beyond an O(1) oscillation (Gil, Segura
& Temme, J. Comput. Phys. 175, 2002; Booker, Stroembergsson & Then, LMS J.
Comput. Math. 16, 2013).  A bank fits that quadrature once per spectral
family and serves it by piecewise Chebyshev series on a closed range of x.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# B_2 .. B_16, the even Bernoulli numbers used by the Euler-Maclaurin tail
# and the Stirling series.
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
_STIRLING_RE_MIN = 16.0  # the Stirling series is summed at Re z >= this


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
    """zeta(1 + it) on the edge of the critical strip, to ~1e-12 relative for
    0 < |t| <= 100; any other t (the pole t = 0, nan) is refused."""
    if not 0.0 < abs(t) <= ZETA_LINE_T_MAX:
        raise ValueError(f"zeta(1 + it) is computed on 0 < |t| <= {ZETA_LINE_T_MAX:g}, got {t}")
    return zeta_euler_maclaurin(complex(1.0, t))


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z) for Re z > 0 (not the principal branch): the
    recurrence up to Re z >= 16, then Stirling's series with 8 Bernoulli terms,
    whose first omitted term is below 1e-21 there."""
    shift = max(0, math.ceil(_STIRLING_RE_MIN - z.real))
    w = z + shift
    prod = complex(1.0)
    for k in range(shift):
        prod *= z + k
    series = sum(b / ((2 * k + 2) * (2 * k + 1) * w ** (2 * k + 1))
                 for k, b in enumerate(_BERNOULLI_EVEN))
    return (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series - cmath.log(prod)


def xi_line(r: float) -> complex:
    """Completed zeta xi(1 + 2ir) = pi^{-s/2} Gamma(s/2) zeta(s) at s = 1 + 2ir;
    zeta_line's range applies, so |2r| <= ZETA_LINE_T_MAX."""
    s = complex(1.0, 2.0 * r)
    return cmath.exp(_log_gamma(s / 2) - s / 2 * math.log(math.pi)) * zeta_line(2.0 * r)


# ---------------------------------------------------------------------------
# K_{iR}(x)
# ---------------------------------------------------------------------------

_PATH_NODES = 48  # Gauss-Legendre nodes on the steepest-descent leg
_PATH_DECAY = 40.0  # that leg ends where its integrand has fallen by e^-40
_QUAD_ELEMENTS = 2 ** 14  # (entry, node) pairs per quadrature pass: bounds its arrays
_X_MIN = 1e-3  # smallest argument bessel_k_imag answers for
_PANELS = 48  # equal panels of each row's normalized log-x range
_PANEL_DEGREE = 16  # Chebyshev degree of the series on each panel
_FIT_BLOCK = 24  # bank rows per quadrature call of a fit: bounds its arrays
FOURIER_DECAY = 45.0  # callers keep Fourier terms with 2 pi n y <= r + this; banks cover them


# one eigenvalue solve per rule size and process; the arrays are shared, so
# no caller writes to them
_legendre_rule = functools.cache(leggauss)


def gauss_rule(mid, half, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on the panels
    [mid - half, mid + half], each of shape mid.shape + (n,); mid and half
    broadcast against each other."""
    t, w = _legendre_rule(n)
    mid, half = np.broadcast_arrays(np.asarray(mid, dtype=float)[..., None],
                                    np.asarray(half, dtype=float)[..., None])
    return mid + half * t, half * w


def _gauss_sum(n: int, entries: np.ndarray, integrand) -> np.ndarray:
    """Per entry, the n-point Gauss-Legendre sum on [0, 1] of integrand(entries, t),
    in passes of at most _QUAD_ELEMENTS (entry, node) pairs."""
    t, w = gauss_rule(0.5, 0.5, n)
    step = max(1, _QUAD_ELEMENTS // n)
    # row-wise sums, not a BLAS product: their order, set by n alone, keeps entries apart
    return np.concatenate([np.sum(integrand(entries[a:a + step], t) * w, axis=1)
                           for a in range(0, len(entries), step)])


def _sinh_ratio_root(log_rho: np.ndarray) -> np.ndarray:
    """The sigma > 0 with sinh(sigma)/sigma = rho, given log rho > 0.

    Newton on log(sinh sigma / sigma), which is convex and at most sigma^2/6,
    from sqrt(6 log rho): the first step overshoots, the rest descend."""
    s = np.sqrt(6.0 * log_rho)
    for _ in range(10):
        slope = np.where(s < 1e-3, s / 3.0, 1.0 / np.tanh(s) - 1.0 / s)
        s = s - (np.log(np.sinh(s) / s) - log_rho) / slope
    return s


def _path_exponent(r, s1, v, p, q, ch):
    """f = Re(-x cosh t + irt) + pi r/2 on the steepest-descent path at
    sigma = s1 + v, t = sigma + i tau, where x sinh(sigma) sin(tau) = r sigma
    keeps Im(-x cosh t + irt) at 0.  The caller passes p = x sinh s1,
    q = x cosh s1 - r and ch = x cosh s1, so that d = x sinh(sigma) - r sigma
    is a sum of nonnegative terms.  With c = x sinh(sigma) cos(tau) / sigma,
    f = r (pi/2 - tau) - c sigma coth(sigma).  Returns f, sigma and c."""
    sigma = s1 + v
    d = p * (np.cosh(v) - 1.0) + q * v + ch * (np.sinh(v) - v)
    d /= sigma
    c = np.sqrt(d * (d + 2.0 * r))
    return r * np.arctan2(c, r) - c * sigma / np.tanh(sigma), sigma, c


def kbessel_quad(r, x) -> np.ndarray:
    """e^{pi r/2} K_{ir}(x) by quadrature on the steepest-descent path of
    e^{-x cosh t + irt}, elementwise over broadcast r and x > 0.

    K_{ir}(x) is the real part of that integral over t in [0, inf).  For x < r
    the contour rises to i pi/2, runs along Im t = pi/2 to s1 + i pi/2 with
    sinh(s1)/s1 = r/x, where the phase is back at 0, and leaves along the
    steepest-descent path; for x >= r it rises to the saddle i arcsin(r/x)
    and leaves along the same path.  The rising legs add only imaginary
    parts.  After the rescaling the segment integrand is
    cos(r sigma - x sinh sigma), O(1), and the path integrand is real,
    positive and decreasing, so nothing cancels beyond the O(1) oscillation.
    Against 40-digit mpmath.besselk the absolute error is ~2e-14 for x >= 0.5
    and ~2e-13 down to x = 1e-3 (r <= 40), where the phase r sigma reaches
    ~350.  Values below ~1e-308 underflow to 0.
    """
    r, x = np.broadcast_arrays(np.abs(np.asarray(r, dtype=float)), np.asarray(x, dtype=float))
    if not np.all(x > 0.0):
        raise ValueError(f"K_iR(x) is computed for x > 0, got x = {x[~(x > 0.0)][0]}")
    shape, r, x = x.shape, r.ravel(), x.ravel()
    osc = x < r
    s1 = np.zeros(len(x))
    s1[osc] = _sinh_ratio_root(np.log(r[osc] / x[osc]))
    p, ch = x * np.sinh(s1), x * np.cosh(s1)
    q = ch - r
    # where x >= r the path starts at the saddle t = i arcsin(r/x), below 0
    c0 = np.sqrt(np.maximum(x - r, 0.0) * (x + r))
    f0 = np.where(osc, 0.0, r * np.arctan2(c0, r) - c0)
    # the leg is sigma = s1 + u^2 for u in [0, u_end], f(u_end) = f0 - decay.
    # Once sin(tau) <= 1/2 and x cosh(sigma) >= 2 (pi r/2 - f0 + decay) the
    # drop G = f0 - f exceeds the decay; Newton on log G in log u descends from
    # there, with dG/du = 2u (a^2 + b^2)/a, a = sigma c, b = r (sigma coth sigma - 1)
    hi = np.arccosh(np.maximum(1.0, 2.0 * (0.5 * math.pi * r - f0 + _PATH_DECAY) / x))
    half = 2.0 * r > x
    hi[half] = np.maximum(hi[half], _sinh_ratio_root(np.log(2.0 * r[half] / x[half])))
    u = np.sqrt(hi - s1)
    for _ in range(3):
        f, sigma, c = _path_exponent(r, s1, u * u, p, q, ch)
        a, b = sigma * c, r * (sigma / np.tanh(sigma) - 1.0)
        drop = np.maximum(f0 - f, 1.0)
        u = u * np.exp(-np.log(drop / _PATH_DECAY) * drop * a / (2.0 * u * u * (a * a + b * b)))

    def path(j, t):
        uu = u[j, None] * t
        f = _path_exponent(r[j, None], s1[j, None], uu * uu, p[j, None], q[j, None], ch[j, None])[0]
        return np.exp(f) * uu

    out = 2.0 * u * _gauss_sum(_PATH_NODES, np.arange(len(x)), path)
    if not np.any(osc):
        return out.reshape(shape)
    # the segment sigma in [0, s1] of Im t = pi/2, integrand cos(r sigma -
    # x sinh sigma), split at the stationary point s* = arccosh(r/x): below it
    # in sigma (|phase'| <= r), above it in w = x sinh sigma, where the
    # integrand is cos(r asinh(w/x) - w)/sqrt(x^2 + w^2) and |phase'| <= 1
    e = np.where(osc, r - x, 0.0) / x
    s_star = np.log1p(e + np.sqrt(e * (e + 2.0)))
    w_star, w_end = np.sqrt(np.maximum(r - x, 0.0) * (r + x)), r * s1

    def below(j, t):
        s = s_star[j, None] * t
        return s_star[j, None] * np.cos(r[j, None] * s - x[j, None] * np.sinh(s))

    def above(j, t):
        xj, span = x[j, None], (w_end - w_star)[j, None]
        w = w_star[j, None] + span * t
        h = np.sqrt(xj * xj + w * w)
        return span * np.cos(r[j, None] * np.log((w + h) / xj) - w) / h

    # nodes: half the phase each leg would sweep at its fastest, plus 24, in steps of 8
    i = np.flatnonzero(osc)
    for sweep, integrand in (((r - x)[i] * s_star[i], below),
                             ((w_end - w_star)[i] * (1.0 - np.tanh(s1[i]) / s1[i]), above)):
        n_nodes = 8 * np.ceil((sweep / 2.0 + 24.0) / 8.0)
        for n in np.unique(n_nodes):
            j = i[n_nodes == n]
            out[j] += _gauss_sum(int(n), j, integrand)
    return out.reshape(shape)


class KBesselBank:
    """e^{pi r/2} K_{ir}(x) for every r of a spectral family, on the closed range
    x_min <= x <= fit_hi = min(r + D + 5, pi r/2 + D), D = FOURIER_DECAY: past
    every Fourier term its callers keep (2 pi n y <= r + D); any other x, nan too, is refused.

    Row j holds r_j, fitted on first use from kbessel_quad at its own
    first-kind Chebyshev nodes in log x (`fitted` marks the rows fitted so
    far): one series per row from a cosine transform, re-expanded onto
    fixed panels and checked through the bank's own series against the
    quadrature at 257 probes.  A row depends on its r and x_min alone: it
    is bit for bit the row of a one-row bank and never changes once fitted.
    A call is one degree-16 Clenshaw pass, O(1) values with absolute
    accuracy ~2e-14 from x_min = 2 and ~4e-12 from x_min = 1e-3.
    """

    def __init__(self, rs, x_min: float):
        r, self.x_min = np.asarray(rs, dtype=float).reshape(-1), float(x_min)
        if not np.isfinite(r).all():
            raise ValueError(f"spectral parameters must be finite, got r={r[~np.isfinite(r)][0]}")
        if not 0.0 < self.x_min < math.inf:
            raise ValueError(f"x_min must be positive and finite, got x_min={self.x_min}")
        self.r = np.abs(r)  # K_{ir} is even in r
        self.fit_hi = np.minimum(self.r + (FOURIER_DECAY + 5.0),
                                 np.pi * self.r / 2.0 + FOURIER_DECAY)
        if np.any(self.x_min >= self.fit_hi):
            raise ValueError(f"x_min={self.x_min} must lie below every row's fit range")
        # interpolate in u = log x: near zero the rescaled Bessel is a clean
        # cosine of u, and the e^{-x} roll-off stays resolvable
        self._u_lo = u_lo = math.log(self.x_min)
        u_hi = np.array([math.log(h) for h in self.fit_hi])
        self._u_sum, self._u_span = u_lo + u_hi, u_hi - u_lo
        self.deg = (160 + 10.0 * (self.r * (u_hi - u_lo) / (2.0 * np.pi))
                    + 2.5 * self.fit_hi).astype(int)
        self._panels = np.zeros((_PANEL_DEGREE + 1, _PANELS * len(self.r)))
        self.fitted = np.zeros(len(self.r), dtype=bool)

    def _fit(self, rows: np.ndarray) -> None:
        """Fit the distinct unfitted rows with one quadrature call per
        _FIT_BLOCK of them, at their Chebyshev nodes and 257 probes each."""
        # row by row, so that the re-expansion mixes no rows: the
        # Chebyshev coefficients are the cosine transform of the node values,
        # an FFT of them mirrored to length 2m; the series is re-expanded on
        # the panels, whose first-kind nodes every row shares, by a product
        # with T_k at the nodes and one cosine transform per panel
        k = np.arange(_PANEL_DEGREE + 1)
        theta = np.pi * (k + 0.5) / len(k)
        u = (np.arange(_PANELS)[:, None] + 0.5 * (np.cos(theta) + 1.0)) * (2.0 / _PANELS) - 1.0
        t_k = np.cos(np.outer(np.arccos(u.ravel()), np.arange(np.max(self.deg[rows]) + 1)))
        to_panels = (2.0 / len(k)) * np.cos(np.outer(k, theta))
        to_panels[0] *= 0.5
        for a in range(0, len(rows), _FIT_BLOCK):
            block = rows[a:a + _FIT_BLOCK]
            sizes = self.deg[block] + 1
            nodes = [np.exp(du / 2 * (np.cos(np.pi * (np.arange(m) + 0.5) / m) + 1.0) + self._u_lo)
                     for du, m in zip(self._u_span[block], sizes)]
            probes = np.geomspace(self.x_min, self.fit_hi[block], 257, axis=1).ravel()
            at = np.concatenate((np.repeat(block, sizes), np.repeat(block, 257)))
            vals = kbessel_quad(self.r[at], np.concatenate(nodes + [probes]))
            for j, f in zip(block, np.split(vals[:-len(probes)], np.cumsum(sizes)[:-1])):
                m = len(f)
                spec = np.fft.rfft(np.concatenate((f, f[::-1])))[:m]
                coef = (np.exp(-0.5j * np.pi * np.arange(m) / m) * spec).real / m
                coef[0] *= 0.5
                self._panels[:, j * _PANELS:(j + 1) * _PANELS] = (
                    to_panels @ (t_k[:, :m] @ coef).reshape(_PANELS, len(k)).T)
            err = np.abs(self._series(at[-len(probes):], probes) - vals[-len(probes):])
            if np.max(err) > 1e-9:
                j = block[np.argmax(err) // 257]
                raise RuntimeError(f"K-Bessel interpolation failed for R={self.r[j]}: "
                                   f"max error {np.max(err):.2e}")
            self.fitted[block] = True

    def __call__(self, rows, x) -> np.ndarray:
        """Rescaled values at (row, argument) entries, rows broadcast against
        x; the rows not fitted yet are fitted first."""
        rows, x = np.broadcast_arrays(np.asarray(rows, dtype=np.intp),
                                      np.atleast_1d(np.asarray(x, dtype=float)))
        lo = max(self.x_min - 1e-12, math.ulp(0.0))  # x > 0, with 1e-12 of slack at x_min
        if not (x.min(initial=np.inf) >= lo and (x <= self.fit_hi[rows]).all()):  # nan fails
            k = np.argmin((x >= lo) & (x <= self.fit_hi[rows]), axis=None)  # the first outside
            j = rows.flat[k]
            raise ValueError(f"argument {x.flat[k]} outside [{self.x_min}, {self.fit_hi[j]}] "
                             f"of the row r={self.r[j]}")
        if not self.fitted.all() and len(new := np.unique(rows[~self.fitted[rows]])):
            self._fit(new)
        return self._series(rows, x)

    def _series(self, rows, x) -> np.ndarray:
        """The fitted rows' series at (row, argument) entries: per entry the
        panel of its row's normalized log x, then a Clenshaw recurrence on
        coefficients gathered at row * _PANELS + panel."""
        s = ((2.0 * np.log(x) - self._u_sum[rows]) / self._u_span[rows] + 1.0) * (0.5 * _PANELS)
        p = np.minimum(np.maximum(s.astype(np.intp), 0), _PANELS - 1)
        v, idx = 2.0 * (s - p) - 1.0, rows * _PANELS + p
        two_v, b0, b1 = 2.0 * v, np.zeros(v.shape), np.zeros(v.shape)
        for c in self._panels[:0:-1]:
            b0, b1 = c.take(idx) + two_v * b0 - b1, b0
        return self._panels[0].take(idx) + v * b0 - b1


def bessel_k_imag(r: float, x):
    """K_{iR}(x) = integral_0^inf e^{-x cosh u} cos(Ru) du, straight from
    kbessel_quad.

    Symmetric in R; absolute accuracy ~2e-13 e^{-pi R/2} for x >= 1e-3 and
    R <= 40, ~2e-14 e^{-pi R/2} for x >= 0.5.  Scalar x gives a float; an
    array of x gives an array.  A non-finite R or x is refused by name.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"K_iR(x) is answered for finite R, got R = {r}")
    bad = x[~((x >= _X_MIN) & (x < math.inf))]
    if len(bad):
        raise ValueError(f"K_iR(x) is answered for finite x >= {_X_MIN}, got x = {bad[0]}")
    val = kbessel_quad(abs(r), x) * math.exp(-np.pi * abs(r) / 2.0)
    return float(val[0]) if scalar else val
