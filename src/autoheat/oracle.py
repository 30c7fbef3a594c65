"""Independent correctness oracle: the group-periodized plane heat kernel.

The kernel on the surface is the sum of the explicit hyperbolic-plane heat
kernel over the orbit of the basepoint.  This shares no spectral machinery
with the synthesis path (no zeta, no Eisenstein series, no Maass data), so
agreement between the two is an end-to-end check of everything.

Truncation: group elements of Frobenius norm <= bound, i.e. orbit points
within hyperbolic distance rho_B = acosh(bound^2/2) of i, are enumerated.
Orbit points multiply like e^rho while the kernel's mass sits around radius
~ t, so at moderate t the orbit beyond that ball still carries percents of
the sum.  orbit_tail supplies it from the main term of the hyperbolic
lattice-point count: the translates of a fundamental domain tile H, so
beyond rho_B the orbit is replaced by the plane kernel integrated against
the area measure times the density 1/vol = 3/pi.  That constant is
Gauss-Bonnet geometry and carries no Maass or Eisenstein data, so the oracle
stays independent of the spectral side.  What remains is the lattice-count
fluctuation of the orbit around that mean near rho_B, which the tail term
cannot see; the boundary-shell warning still flags a ball that is small for
the requested t.  For the basepoint itself the matrix count by norm factors
through sums-of-two-squares counts, which makes bounds in the thousands
(long times) affordable.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import leggauss

from .hyperbolic import HPoint, hyperbolic_distance

SHELL_TOLERANCE = 1e-4
T_MIN, T_MAX = 0.2, 10.0
_PLANE_BLOCK = 4096  # distances per quadrature block in heat_kernel_plane
_COUNT_CHUNK = 2 ** 18  # norms per count block in periodized_oracle_basepoint


def heat_kernel_plane(t: float, rho, n_nodes: int = 160) -> np.ndarray:
    """Heat kernel of the hyperbolic plane at distance rho, vectorized.

    p_t(rho) = sqrt(2) e^{-t/4} (4 pi t)^{-3/2} *
               integral_rho^inf s e^{-s^2/4t} (cosh s - cosh rho)^{-1/2} ds.

    The endpoint square-root singularity is removed by s = rho + u^2, and the
    difference of coshes is evaluated as 2 sinh(rho + u^2/2) sinh(u^2/2) to
    dodge cancellation.  The distances go through the quadrature in fixed
    blocks, which bounds memory; each value is its own row sum either way.
    """
    if not t > 0.0:
        raise ValueError("t > 0 required")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho < 0.0):
        raise ValueError("distances are nonnegative")
    xg, wg = leggauss(n_nodes)
    val = np.empty(len(rho))
    for lo in range(0, len(rho), _PLANE_BLOCK):
        r = rho[lo:lo + _PLANE_BLOCK, None]
        u_max = np.sqrt(np.maximum(r, 1.0) + math.sqrt(4.0 * t * 46.0) - r)
        u = 0.5 * u_max * (xg[None, :] + 1.0)
        w = 0.5 * u_max * wg[None, :]
        s = r + u * u
        denom = 2.0 * np.sinh(r + 0.5 * u * u) * np.sinh(0.5 * u * u)
        integrand = 2.0 * u * s * np.exp(-s * s / (4.0 * t)) / np.sqrt(denom)
        val[lo:lo + _PLANE_BLOCK] = np.sum(integrand * w, axis=1)
    return math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5 * val


def enumerate_group(bound: float) -> np.ndarray:
    """Integer matrices (a, b, c, d), ad - bc = 1, Frobenius norm <= bound,
    deduplicated by sign (first nonzero entry positive)."""
    if bound < math.sqrt(2.0):
        raise ValueError("bound below the identity's norm sqrt(2)")
    top = int(math.floor(bound))
    b2 = bound * bound
    rng = np.arange(-top, top + 1)
    bb, cc = np.meshgrid(rng, rng, indexing="ij")
    bc = bb * cc
    quads = []
    for a in range(1, top + 1):  # a > 0 half; sign dedupe keeps a >= 0
        num = 1 + bc
        mask = num % a == 0
        d = np.where(mask, num // a, 0)
        mask &= a * a + bb * bb + cc * cc + d * d <= b2
        if np.any(mask):
            n = int(mask.sum())
            quads.append(np.stack(
                [np.full(n, a), bb[mask], cc[mask], d[mask]], axis=1))
    # a = 0 forces bc = -1; keep the sign-canonical b = 1, c = -1 family
    dmax = int(math.floor(math.sqrt(max(b2 - 2.0, 0.0))))
    d = np.arange(-dmax, dmax + 1)
    quads.append(np.stack(
        [np.zeros_like(d), np.ones_like(d), -np.ones_like(d), d], axis=1))
    return np.concatenate(quads, axis=0)


def orbit_tail(t: float, z: HPoint, norm_bound: float) -> float:
    """Gamma-average of the plane kernel over the orbit beyond the norm bound.

    T_B(t, z) = (3/pi) int_{rho_B}^inf sinh r int_0^{2pi} p_t(d(r, theta)) dtheta dr

    in geodesic polar coordinates (r, theta) about i, with cosh rho_B = B^2/2.
    3/pi = 1/vol(PSL2(Z)\\H) is the density of group elements counted up to
    sign, as enumerate_group counts them.  For a = d(i, z),
    cosh d = cosh(r - a) + 2 sinh r sinh a sin^2(theta/2) is the hyperbolic
    law of cosines without cancellation.  Gauss-Legendre in r out to where
    the e^r growth times the Gaussian decay of p_t has dropped by e^-46;
    midpoint rule in theta, which is spectrally accurate for the periodic,
    even integrand; 200 x 64 nodes agree with 800 x 256 to 1e-13.  At z = i
    the integrand is radial.
    """
    rho_b = math.acosh(max(0.5 * norm_bound * norm_bound, 1.0))
    a = hyperbolic_distance(z.z, 1j)
    # sinh r p_t(r - a) peaks at r - a ~ t with width ~ sqrt(2t)
    r_hi = max(rho_b, a + t) + math.sqrt(4.0 * t * 46.0)
    xg, wg = leggauss(200)
    r = rho_b + 0.5 * (r_hi - rho_b) * (xg + 1.0)
    wr = 0.5 * (r_hi - rho_b) * wg * np.sinh(r)
    if a == 0.0:
        theta, wt = np.zeros(1), np.array([2.0 * math.pi])
    else:  # even in theta: half the circle, doubled weights
        m = 32
        theta = (np.arange(m) + 0.5) * math.pi / m
        wt = np.full(m, 2.0 * math.pi / m)
    coshd = (np.cosh(r - a)[:, None] + 2.0 * math.sinh(a)
             * np.sinh(r)[:, None] * np.sin(0.5 * theta)[None, :] ** 2)
    p = heat_kernel_plane(t, np.arccosh(coshd).ravel()).reshape(coshd.shape)
    return 3.0 / math.pi * float(wr @ p @ wt)


def periodized_oracle(t: float, z: HPoint, norm_bound: float,
                      shell_warning: bool = True) -> float:
    """Sum of plane heat-kernel values over the orbit of i: the elements of
    Frobenius norm <= norm_bound enumerated, the rest by orbit_tail.

    Warns when the outermost shell [norm_bound - 1, norm_bound] still
    contributes noticeably to the enumerated sum: the ball is then small for
    this t and the answer leans on the tail term.
    """
    if not (T_MIN <= t <= T_MAX):
        raise ValueError(f"t in [{T_MIN}, {T_MAX}] required, got {t}")
    mats = enumerate_group(norm_bound)
    a, b, c, d = (mats[:, k].astype(float) for k in range(4))
    orbit = (a * 1j + b) / (c * 1j + d)
    zc = z.z
    coshd = 1.0 + np.abs(zc - orbit) ** 2 / (2.0 * z.y * orbit.imag)
    rho = np.arccosh(np.maximum(coshd, 1.0))
    vals = heat_kernel_plane(t, rho)
    total = float(np.sum(vals))
    if shell_warning:
        norms2 = a * a + b * b + c * c + d * d
        shell = norms2 >= (norm_bound - 1.0) ** 2
        shell_part = float(np.sum(vals[shell]))
        if shell_part > SHELL_TOLERANCE * max(abs(total), 1e-300):
            warnings.warn(
                f"boundary shell contributes {shell_part / total:.2e} of the "
                f"periodized sum at t={t}: norm_bound={norm_bound} is too small",
                stacklevel=2,
            )
    return total + orbit_tail(t, z, norm_bound)


def _two_squares_counts(n_max: int) -> np.ndarray:
    """r2[m] = number of (alpha, beta) in Z^2 with alpha^2 + beta^2 = m."""
    r2 = np.zeros(n_max + 1, dtype=np.int32)
    amax = int(math.isqrt(n_max))
    for alpha in range(amax + 1):
        rem = n_max - alpha * alpha
        dmax = int(math.isqrt(rem))
        d = np.arange(dmax + 1)
        vals = alpha * alpha + d * d
        mult = (np.where(d > 0, 2, 1) * (2 if alpha > 0 else 1)).astype(np.int32)
        np.add.at(r2, vals, mult)
    return r2


def matrix_counts_by_norm(n_max: int) -> np.ndarray:
    """count[n] = #{(a,b,c,d): ad - bc = 1, a^2+b^2+c^2+d^2 = n}, both signs.

    Splitting along a+d, a-d, b+c, b-c turns the determinant and norm
    conditions into a pair of circles alpha^2 + delta^2 = n + 2 and
    beta^2 + gamma^2 = n - 2 with parity couplings, so the count factors
    through sums-of-two-squares counts:
      n = 2 mod 4:  r2((n+2)/4) r2((n-2)/4)
      n = 3 mod 4:  r2(n+2) r2(n-2) / 2
      otherwise:    0 (parity obstruction).
    Verified against direct enumeration in the tests.
    """
    counts = np.zeros(n_max + 1, dtype=np.float64)
    counts[2:] = _counts_at(np.arange(2, n_max + 1), _two_squares_counts(n_max + 2))
    return counts


def _counts_at(n: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """matrix_counts_by_norm's formula at the norms n >= 2 (r2 up to max(n) + 2)."""
    counts = np.zeros(len(n))
    m2 = n % 4 == 2
    counts[m2] = r2[(n[m2] + 2) // 4].astype(np.float64) * r2[(n[m2] - 2) // 4]
    m3 = n % 4 == 3
    counts[m3] = r2[n[m3] + 2].astype(np.float64) * r2[n[m3] - 2] / 2.0
    return counts


def periodized_oracle_basepoint(t: float, norm_bound: float) -> float:
    """Periodized sum at z = i via arithmetic norm counts.

    At the basepoint cosh d(i, gamma i) = ||gamma||_F^2 / 2 is half an
    integer, so the enumerated sum is sum_n count(n) p_t(acosh(n/2)) / 2; the
    plane kernel is Chebyshev-interpolated in the distance.  The same
    orbit_tail completes it, so this is the same answer as
    periodized_oracle(t, i, norm_bound), but bounds in the thousands run in
    seconds.
    """
    if not (T_MIN <= t <= T_MAX):
        raise ValueError(f"t in [{T_MIN}, {T_MAX}] required, got {t}")
    n_max = int(math.floor(norm_bound * norm_bound))
    rho_max = float(np.arccosh(n_max / 2.0))
    deg = 240
    xk = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
    rk = np.maximum(0.5 * rho_max * (xk + 1.0), 1e-9)
    cheb = Chebyshev.fit(rk, heat_kernel_plane(t, rk), deg, domain=[0.0, rho_max])
    r2 = _two_squares_counts(n_max + 2)
    total = 0.0
    for lo in range(2, n_max + 1, _COUNT_CHUNK):
        n = np.arange(lo, min(lo + _COUNT_CHUNK, n_max + 1), dtype=np.int64)
        cnt = _counts_at(n, r2)
        live = cnt > 0.0
        if not np.any(live):
            continue
        rho = np.arccosh(n[live] / 2.0)
        total += float(np.sum(cnt[live] * cheb(rho)))
    # 0.5: sign dedupe
    return 0.5 * total + orbit_tail(t, HPoint(0.0, 1.0), norm_bound)
