"""Independent correctness oracle: the group-periodized plane heat kernel.

The kernel on the surface is the sum of the explicit hyperbolic-plane heat
kernel over the orbit of the basepoint.  This shares no spectral machinery
with the synthesis path (no zeta, no Eisenstein series, no Maass data), so
agreement between the two is an end-to-end check of everything.

Truncation: the orbit points gamma i with gamma of Frobenius norm <= bound,
i.e. within hyperbolic distance rho_B = acosh(bound^2/2) of i, are enumerated.
Orbit points multiply like e^rho while the kernel's mass sits around radius
~ t, so at moderate t the orbit beyond that ball still carries percents of
the sum.  orbit_tail supplies it from the main term of the hyperbolic
lattice-point count: the translates of a fundamental domain tile H, so
beyond rho_B the orbit is replaced by the plane kernel integrated against
the area measure times the density 1/vol = 3/pi.  That constant is
Gauss-Bonnet geometry and carries no Maass or Eisenstein data, so the oracle
stays independent of the spectral side.  The integral is one-dimensional:
the kernel's mass beyond a radius closes in one radial quadrature
(_mass_beyond), and only the circles about z that cross the ball's sphere
need their share outside it.  What remains is the lattice-count
fluctuation of the orbit around that mean near rho_B, which the tail term
cannot see; the boundary-shell warning still flags a ball that is small for
the requested t.  For the basepoint itself the matrix count by norm factors
through sums-of-two-squares counts, which makes bounds in the thousands
(long times) affordable, and the sum over those counts is a linear
functional of the kernel: one dot product of a Chebyshev fit with moments
of the counts that are built once per bound (periodized_oracle_basepoint).

The sum over the enumerated orbit evaluates the plane kernel through one
Chebyshev interpolant per call, sampled from the quadrature heat_kernel_plane
at a few dozen nodes.  It interpolates the smooth ratio of p_t to its
envelope e^{-rho^2/4t} sqrt(rho/sinh rho), whose only singularities are
branch points at rho = +-i pi, and takes its degree from the Bernstein
ellipse through i pi.
On the distances that decide the sums it is within ~1.5e-14 of mpmath,
where heat_kernel_plane is within ~1e-14, and the bound-25 sums at the
verify points are within 3e-15 of sums with every orbit point taken from
mpmath.  The orbit is enumerated point by point (orbit_of_i), and each
point stands for the two elements gamma, gamma S of the ball that send i to it.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np

from .hyperbolic import HPoint, hyperbolic_distance
from .special import gauss_rule

SHELL_TOLERANCE = 1e-4
T_MIN, T_MAX = 0.2, 10.0
_PLANE_BLOCK = 4096  # distances per quadrature block in heat_kernel_plane
_NEAR_DIAGONAL = (1e-16, 1e-3)  # distances that heat_kernel_plane integrates in sinh
_COUNT_CHUNK = 2 ** 16  # residues m per count block in _count_moments
ORBIT_MAX = 10 ** 6  # orbit points orbit_of_i lists at most, ~1.5 bound^2: bounds to ~816
# norms periodized_oracle_basepoint counts at most: its two int16
# sums-of-two-squares tables take ~1 byte per norm, 100 MB; bounds to 10^4
COUNT_MAX = 10 ** 8


def heat_kernel_plane(t: float, rho) -> np.ndarray:
    """Heat kernel of the hyperbolic plane at distance rho, vectorized.

    p_t(rho) = sqrt(2) e^{-t/4} (4 pi t)^{-3/2} *
               integral_rho^inf s e^{-s^2/4t} (cosh s - cosh rho)^{-1/2} ds.

    The endpoint square-root singularity is removed by s = rho + u^2, and the
    difference of coshes is evaluated as 2 sinh(rho + u^2/2) sinh(u^2/2) to
    dodge cancellation.  Just off the diagonal the integrand in u bends at
    u ~ sqrt(rho), which Gauss-Legendre in u misses by up to ~5e-9, so on
    _NEAR_DIAGONAL the rule runs in v with u = sqrt(rho) sinh v; below it the
    bend is lost in rounding.  The distances go through the quadrature in
    fixed blocks, which bounds memory; each value is its own row sum either way.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"finite t > 0 required, got {t}")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"finite distances required, got {rho[~np.isfinite(rho)][0]}")
    if np.any(rho < 0.0):
        raise ValueError("distances are nonnegative")
    xg, wg = gauss_rule(0.5, 0.5, 160)  # on [0, 1]
    val = np.empty(len(rho))
    for lo in range(0, len(rho), _PLANE_BLOCK):
        r = rho[lo:lo + _PLANE_BLOCK, None]
        u_max = np.sqrt(np.maximum(r, 1.0) + math.sqrt(4.0 * t * 46.0) - r)
        u, w = u_max * xg, u_max * wg
        near = (r[:, 0] > _NEAR_DIAGONAL[0]) & (r[:, 0] < _NEAR_DIAGONAL[1])
        if np.any(near):
            sq = np.sqrt(r[near])
            v_max = np.arcsinh(u_max[near] / sq)
            v = v_max * xg
            u[near] = sq * np.sinh(v)
            w[near] = v_max * wg * sq * np.cosh(v)
        s = r + u * u
        denom = 2.0 * np.sinh(r + 0.5 * u * u) * np.sinh(0.5 * u * u)
        integrand = 2.0 * u * s * np.exp(-s * s / (4.0 * t)) / np.sqrt(denom)
        val[lo:lo + _PLANE_BLOCK] = np.sum(integrand * w, axis=1)
    return math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5 * val


def _envelope(t: float, rho: np.ndarray) -> np.ndarray:
    """e^{-rho^2/4t} sqrt(rho / sinh rho), with rho/sinh rho written as
    2 rho / (1 - e^{-2 rho}) times e^{-rho}: no overflow, 1 at rho = 0."""
    r = np.maximum(rho, 1e-300)
    out = np.divide(r, 4.0 * t)
    out += 0.5
    out *= r
    np.exp(np.negative(out, out=out), out=out)  # in place, bit for bit the plain expression
    ratio = np.multiply(r, -2.0, out=r)
    ratio /= np.expm1(ratio)
    out *= np.sqrt(ratio, out=ratio)
    return out


def _count_weight(rho: np.ndarray) -> np.ndarray:
    """w = e^{-rho} sqrt(2 rho / (1 - e^{-2 rho})), the t-independent factor
    of p_t that the basepoint moments carry; 1 at rho = 0."""
    r = np.maximum(rho, 1e-300)
    return np.exp(-r) * np.sqrt(-2.0 * r / np.expm1(-2.0 * r))


def _bernstein_degree(length: float) -> int:
    """Nodes at which a Chebyshev series on [0, length] of a function whose
    nearest singularity is i pi has fallen to e^-38: R^-n with R the radius
    of the Bernstein ellipse through i pi."""
    w = -1.0 + 2j * math.pi / length  # i pi in the interpolation variable
    radius = abs(w - cmath.sqrt(w * w - 1.0))  # the root outside the unit circle
    return math.ceil(38.0 / math.log(radius)) + 1


def _chebyshev_coef(f, length: float, n: int) -> np.ndarray:
    """Coefficients on [0, length] of the interpolant of f at n Chebyshev points."""
    theta = (np.arange(n) + 0.5) * math.pi / n  # node rho = L sin^2(theta/2), x = -cos theta
    nodes = length * np.sin(0.5 * theta) ** 2
    # T_k(-cos theta) = (-1)^k cos(k theta) directly: the three-term recurrence
    # behind chebinterpolate loses ~4e-14 at the nodes next to x = -1
    k = np.arange(n)
    coef = (2.0 / n) * (-1.0) ** k * (np.cos(np.outer(k, theta)) @ f(nodes))
    coef[0] *= 0.5
    return coef


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """chebval(x, c) for a 1-d x and len(c) >= 2, bit for bit: numpy's
    Clenshaw recurrence operation for operation, in three buffers of x's
    size in place of three fresh arrays per degree."""
    x2 = 2 * x
    c0, c1, tmp = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
    for ck in c[-3::-1]:
        np.multiply(c1, x2, out=tmp)
        np.subtract(ck, c1, out=c1)  # c0 = c[-i] - c1
        np.add(c0, tmp, out=c0)  # c1 = tmp + c1 * x2, tmp the former c0
        c0, c1 = c1, c0
    return np.add(c0, np.multiply(c1, x, out=tmp), out=tmp)


def _plane_kernel_fit(t: float, rho_max: float):
    """heat_kernel_plane(t, .) on [0, rho_max] as one Chebyshev interpolant.

    It interpolates q = p_t / envelope, which is smooth: its only
    singularities are the branch points rho = +-i pi of sqrt(rho/sinh rho),
    so its Chebyshev coefficients on [0, L] fall like R^-n, with R the radius
    of the Bernstein ellipse through i pi, and the degree is the n at which
    R^-n reaches e^-38.  Past the distance where the envelope drops below
    e^-700 the kernel is returned as 0.
    """
    cut = math.sqrt(t * t + 2800.0 * t) - t  # rho^2/4t + rho/2 = 700
    length = min(max(rho_max, 1.0), cut)
    coef = _chebyshev_coef(lambda r: heat_kernel_plane(t, r) / _envelope(t, r),
                           length, _bernstein_degree(length))

    def kernel(rho: np.ndarray) -> np.ndarray:
        out = np.zeros(rho.shape)
        live = rho <= length
        r = rho[live]
        out[live] = _clenshaw(r * (2.0 / length) - 1.0, coef) * _envelope(t, r)
        return out

    return kernel


def _check_time(t: float) -> None:
    """Refuse times outside [T_MIN, T_MAX], where the oracle is checked."""
    if not T_MIN <= t <= T_MAX:
        raise ValueError(f"t in [{T_MIN}, {T_MAX}] required, got {t}")


def _check_bound(bound: float) -> None:
    """Refuse norm bounds that enumerate nothing or cannot be enumerated."""
    if not math.isfinite(bound):
        raise ValueError(f"finite norm bound required, got {bound}")
    if bound < math.sqrt(2.0):
        raise ValueError("bound below the identity's norm sqrt(2)")


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) of integers 0 <= n < 2^52: the float root, less one where it rounded up."""
    s = np.sqrt(n).astype(n.dtype)
    return s - (s * s > n)


def _ragged(count: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer pairs (i, first[i] + j), 0 <= j < count[i], in order of i, then j."""
    pair = np.repeat(np.arange(len(count)), count)
    return pair, first[pair] + np.arange(len(pair)) - (np.cumsum(count) - count)[pair]


def _sl2_rows(n_max: int) -> tuple[np.ndarray, ...]:
    """(a, b, c, d) of one gamma = [[a, b], [c, d]] in SL2(Z) for each coprime
    (c, d), c >= 1, d >= 0, c^2 + d^2 < n_max, sorted by (c, d): Euclid run
    backwards from [[0, -1], [1, 0]].  Each level adds k >= 1 times its fixed
    column to the other, which the next level fixes; the norm bounds k, and
    each bottom row arises once (d >= c and c > d at odd and even levels)."""
    levels, cols = [], np.array([[0], [1], [-1], [0]])  # (a, c), (b, d)
    while cols.shape[1]:
        levels.append(cols if len(levels) % 2 == 0 else cols[[2, 3, 0, 1]])
        fa, fc, ga, gc = cols
        count = np.maximum((_isqrt(n_max - 1 - fc * fc) - gc) // fc, 0)
        pair, k = _ragged(count, np.ones_like(count))
        cols = np.stack([ga[pair] + k * fa[pair], gc[pair] + k * fc[pair], fa[pair], fc[pair]])
    a, c, b, d = np.concatenate(levels, axis=1)
    order = np.argsort(c * n_max + d)  # by (c, d): d < n_max, so the keys are distinct
    return a[order], b[order], c[order], d[order]


def orbit_of_i(bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer arrays (X, q) with gamma i = (X + i)/q, one entry for each
    point of the PSL2(Z) orbit of i whose gamma has Frobenius norm <= bound.

    gamma = [[a, b], [c, d]] sends i to (ac + bd + i)/(c^2 + d^2), and
    (a^2 + b^2)(c^2 + d^2) = X^2 + 1 gives ||gamma||^2 = q + (X^2 + 1)/q.
    The bottom rows +-(c, d) and +-(d, -c) of +-gamma and +-gamma S give the
    same point, so each point keeps the one with c > 0, d >= 0, coprime
    (_sl2_rows).  Moving (a, b) to (a + kc, b + kd) shifts X by kq, so
    X = (ac + bd) mod q + kq; the bound leaves |X| <= m, m^2 <= q (n_max - q) - 1.
    The orbit holds ~1.5 bound^2 points.  Past ORBIT_MAX it is refused before
    any array is built, which also keeps q (n_max - q) < 2e11 inside int64."""
    _check_bound(bound)
    if 1.5 * bound * bound > ORBIT_MAX:
        raise ValueError(f"norm bound {bound:g} would list ~{1.5 * bound * bound:.1e} orbit "
                         f"points, over the limit ORBIT_MAX = {ORBIT_MAX}")
    n_max = math.floor(bound * bound)
    a, b, c, d = _sl2_rows(n_max)
    q = c * c + d * d
    x0 = (a * c + b * d) % q
    m = _isqrt(q * (n_max - q) - 1)
    lo, hi = -((m + x0) // q), (m - x0) // q  # the translates k with |x0 + kq| <= m
    pair, k = _ragged(hi - lo + 1, lo)
    q = q[pair]
    return x0[pair] + k * q, q


def _mass_beyond(t: float, rho: float) -> float:
    """M(t, rho) = 2 pi int_rho^inf sinh r p_t(r) dr, the plane kernel's mass
    outside the ball of radius rho.

    Swapping the order of integration in heat_kernel_plane's Abel form, with
    int_rho^s sinh r (cosh s - cosh r)^{-1/2} dr = 2 sqrt(cosh s - cosh rho),
    closes the radial integral:
      M = 4 pi C int_rho^inf s e^{-s^2/4t} sqrt(cosh s - cosh rho) ds,
    C = sqrt(2) e^{-t/4} (4 pi t)^{-3/2}.  As there, s = rho + u^2 and the
    difference of coshes is 2 sinh(rho + u^2/2) sinh(u^2/2); the rule stops
    where the Gaussian has fallen by e^-46 past the peak of the integrand,
    s ~ max(rho, t).  M(t, 0) = 1 to ~4e-15.
    """
    u_max = math.sqrt(max(rho, t) + math.sqrt(184.0 * t) - rho)
    u, w = gauss_rule(0.5 * u_max, 0.5 * u_max, 160)
    s = rho + u * u
    gap = 2.0 * np.sinh(rho + 0.5 * u * u) * np.sinh(0.5 * u * u)
    val = float(np.sum(2.0 * u * s * np.exp(-s * s / (4.0 * t)) * np.sqrt(gap) * w))
    return 4.0 * math.pi * math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5 * val


def orbit_tail(t: float, z: HPoint, norm_bound: float) -> float:
    """Gamma-average of the plane kernel over the orbit beyond the norm bound.

    T_B(t, z) = (3/pi) int_{d(w, i) > rho_B} p_t(d(z, w)) dmu(w), cosh rho_B = B^2/2.

    3/pi = 1/vol(PSL2(Z)\\H) is the density of PSL2(Z) elements; each orbit
    point stands for two of them, which periodized_oracle counts by its
    weight 2.  In geodesic polar coordinates (rho, phi) about z, with
    a = d(z, i), the law of cosines puts the point outside the ball where
    cos phi < kappa = (cosh rho cosh a - cosh rho_B) / (sinh rho sinh a),
    on the share f(rho) = 1/2 + arcsin(kappa)/pi of the circle.  Circles of
    radius above rho_B + a lie wholly outside, those below |rho_B - a| wholly
    inside (a < rho_B) or outside (a > rho_B), so

      T_B = (3/pi) [M(rho_B + a) + 2 pi int_{|rho_B - a|}^{rho_B + a} sinh rho p_t f drho
                    + (1 - M(a - rho_B) if a > rho_B)]

    with M = _mass_beyond.  The window is integrated in theta,
    rho = max(rho_B, a) - min(rho_B, a) cos theta, by 64-node Gauss-Legendre
    with heat_kernel_plane at the nodes: f's square-root kinks at the
    window's ends become smooth in theta.  At z = i the window is empty.
    """
    rho_b = math.acosh(max(0.5 * norm_bound * norm_bound, 1.0))
    a = hyperbolic_distance(z.z, 1j)
    mass = _mass_beyond(t, rho_b + a)
    if a > rho_b:
        mass += 1.0 - _mass_beyond(t, a - rho_b)
    half = min(rho_b, a)
    if half > 0.0:
        theta, w = gauss_rule(0.5 * math.pi, 0.5 * math.pi, 64)
        rho = max(rho_b, a) - half * np.cos(theta)
        kappa = (np.cosh(rho) * math.cosh(a) - math.cosh(rho_b)) / (np.sinh(rho) * math.sinh(a))
        share = 0.5 + np.arcsin(np.clip(kappa, -1.0, 1.0)) / math.pi
        weight = 2.0 * math.pi * half * w * np.sin(theta) * np.sinh(rho) * share
        mass += float(weight @ heat_kernel_plane(t, rho))
    return 3.0 / math.pi * mass


def _warn_shell(t: float, norm_bound: float, shell_part: float, total: float) -> None:
    """Warn, at the oracle's caller, when the shell [norm_bound - 1, norm_bound]
    carries more than SHELL_TOLERANCE of the enumerated sum."""
    if shell_part > SHELL_TOLERANCE * max(abs(total), 1e-300):
        warnings.warn(
            f"boundary shell contributes {shell_part / total:.2e} of the "
            f"periodized sum at t={t}: norm_bound={norm_bound} is too small",
            stacklevel=3,
        )


def periodized_oracle(t: float, z: HPoint, norm_bound: float,
                      shell_warning: bool = True) -> float:
    """Sum of plane heat-kernel values over PSL2(Z) acting on i: the points
    of orbit_of_i(norm_bound) with weight 2 (gamma and gamma S), the rest by
    orbit_tail.  For gamma i = (X + i)/q, cosh d(z, gamma i) is
    1 + |z - gamma i|^2 q / 2y, with no cancellation.

    Warns when the outermost shell [norm_bound - 1, norm_bound] still
    contributes noticeably to the enumerated sum: the ball is then small for
    this t and the answer leans on the tail term.
    """
    _check_time(t)
    x_num, q = orbit_of_i(norm_bound)
    rho = np.square(np.subtract(z.x, np.divide(x_num, q)))
    rho += np.square(np.subtract(z.y, np.divide(1.0, q)))
    rho *= q
    rho /= 2.0 * z.y
    rho += 1.0  # cosh d(z, gamma i), in place
    np.arccosh(np.maximum(rho, 1.0, out=rho), out=rho)
    vals = _plane_kernel_fit(t, float(rho.max()))(rho)
    total = 2.0 * float(np.sum(vals))
    if shell_warning:
        shell = q * q + x_num * x_num + 1 >= math.ceil((norm_bound - 1.0) ** 2) * q
        _warn_shell(t, norm_bound, 2.0 * float(np.sum(vals[shell])), total)
    return total + orbit_tail(t, z, norm_bound)


def _two_squares_counts(n_max: int) -> list[np.ndarray]:
    """The values of r2(m) = #{(alpha, beta) in Z^2: alpha^2 + beta^2 = m}
    that the norm counts up to n_max read (_class_counts): r2(m) at index m
    for m <= (n_max - 2) // 4 + 1, and r2(4j + 1) at index j for
    4j + 1 <= n_max + 2.  The two int16 tables (r2(m) <= 4 d(m)) take a
    quarter of the memory of one int32 table up to n_max + 2.  The scatter
    visits the lattice points 0 <= alpha <= d of one octant of the disc and
    adds each with its images under sign changes and the swap alpha <-> d:
    one point at the origin, four on the axes and the diagonal, eight
    elsewhere."""
    tables = []
    for top, step in (((n_max - 2) // 4 + 1, 1), (n_max + 2, 4)):
        r2 = np.zeros(top // step + 1, dtype=np.int16)
        sq = np.arange(math.isqrt(top) + 1) ** 2
        if step == 1:
            r2[0] = 1
            r2[2 * sq[1:math.isqrt(top // 2) + 1]] += 4  # 0 < alpha = d
        # step 4 keeps alpha^2 + d^2 = 1 mod 4: alpha and d of opposite parity
        stride = 2 if step == 4 else 1
        r2[sq[1::stride] // step] += 4  # 0 = alpha < d
        for alpha in range(1, math.isqrt(top // 2) + 1):  # 0 < alpha < d
            d_sq = sq[alpha + 1:math.isqrt(top - alpha * alpha) + 1:stride]
            # alpha^2 + d^2 is distinct for each d, so a plain scatter adds each count once
            r2[(alpha * alpha + d_sq) // step] += 8
        tables.append(r2)
    return tables


def matrix_counts_by_norm(n_max: int) -> np.ndarray:
    """count[n] = #{(a,b,c,d): ad - bc = 1, a^2+b^2+c^2+d^2 = n}, both signs.

    Splitting along a+d, a-d, b+c, b-c turns the determinant and norm
    conditions into a pair of circles alpha^2 + delta^2 = n + 2 and
    beta^2 + gamma^2 = n - 2 with parity couplings, so the count factors
    through sums-of-two-squares counts:
      n = 4m + 2:  r2(m + 1) r2(m)
      n = 4m + 3:  r2(4m + 5) r2(4m + 1) / 2
      otherwise:   0 (parity obstruction).
    Verified against direct enumeration in the tests.
    """
    counts = np.zeros(n_max + 1, dtype=np.float64)
    r2 = _two_squares_counts(n_max)
    for cls in (2, 3):
        counts[cls::4] = _class_counts(cls, 0, len(counts[cls::4]), r2)
    return counts


def _class_counts(cls: int, lo: int, hi: int, r2: list[np.ndarray]) -> np.ndarray:
    """matrix_counts_by_norm's formula at n = 4m + cls, lo <= m < hi, from the
    tables of _two_squares_counts: r2(m + 1) r2(m) for cls 2, from the first
    table, and r2(4(m + 1) + 1) r2(4m + 1) / 2 for cls 3, from the second."""
    table = r2[cls - 2]
    cnt = table[lo + 1:hi + 1].astype(np.float64) * table[lo:hi]
    return cnt if cls == 2 else 0.5 * cnt


def _count_length(n_max: int) -> float:
    """The interval [0, L] of the basepoint moments: L = acosh(n_max / 2), at least 1."""
    return max(math.acosh(n_max / 2.0), 1.0)


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """Rows z^0, ..., z^(count - 1), by repeated products."""
    out = np.empty((count, len(z)), dtype=z.dtype)
    out[0] = 1.0
    for j in range(1, count):
        np.multiply(out[j - 1], z, out=out[j])
    return out


@functools.lru_cache(maxsize=16)
def _count_moments(n_max: int, shell_lo: int, size: int) -> np.ndarray:
    """Chebyshev moments of the norm counts on [0, _count_length(n_max)].

    Row 0 holds mu_k = sum_n count(n) w(rho_n) T_k(x_n) / 2 over n <= n_max,
    row 1 the same over shell_lo <= n <= n_max, for k < size, with
    cosh rho_n = n/2, x_n = 2 rho_n / L - 1 = cos theta_n and w = _count_weight.
    One pass over the residue classes n = 4m + 2 and 4m + 3 in blocks of m.
    T_k(x) = Re e^{ik theta} with k = aB + b (B ~ sqrt(size)) is the product
    of e^{iaB theta} and e^{ib theta}, each at most B repeated products, so
    every block is one matrix product and T_k stays within ~B ulps.  (The
    three-term recurrence in k put the bound-1000 sums up to 1e-14 off at
    t <= 0.5.)  The sums-of-two-squares tables live only in this call.
    """
    length = _count_length(n_max)
    r2 = _two_squares_counts(n_max)
    block = 1 << (size.bit_length() // 2)
    mu = np.zeros((2, size))
    for cls in (2, 3):
        m_top = (n_max - cls) // 4 + 1
        for lo in range(0, m_top, _COUNT_CHUNK):
            hi = min(lo + _COUNT_CHUNK, m_top)
            cnt = _class_counts(cls, lo, hi, r2)
            live = np.flatnonzero(cnt)
            n = 4.0 * (lo + live) + cls
            rho = np.arccosh(n / 2.0)
            cw = 0.5 * cnt[live] * _count_weight(rho)  # 0.5: counts hold gamma and -gamma
            # e^{i theta}: cos theta = x, sin theta = 2 sqrt(rho (L - rho)) / L
            step = (2.0 * rho - length
                    + 2j * np.sqrt(rho * np.maximum(length - rho, 0.0))) / length
            inner = _powers(step, block)
            terms = _powers(inner[-1] * step, size // block) * cw
            shell = np.searchsorted(n, shell_lo)  # n ascends: the shell is a suffix
            mu[0] += (terms @ inner.T).real.ravel()
            mu[1] += (terms[:, shell:] @ inner[:, shell:].T).real.ravel()
    mu.setflags(write=False)
    return mu


def periodized_oracle_basepoint(t: float, norm_bound: float) -> float:
    """Periodized sum at z = i via arithmetic norm counts.

    At the basepoint cosh d(i, gamma i) = ||gamma||_F^2 / 2 is half an
    integer, so the enumerated sum is sum_n count(n) p_t(rho_n) / 2,
    cosh rho_n = n/2.  Write p_t = w h_t with the t-independent weight
    w = _count_weight; h_t = p_t / w is smooth on [0, L], L = acosh(n_max/2).
    With h_t = sum_k c_k T_k as a Chebyshev interpolant the sum is c @ mu,
    where the moments mu (_count_moments) depend on the bound alone and are
    cached per bound and moment count (64 or the next power of two above the
    degree).  So a repeated call costs one fit of h_t (at most 165
    heat_kernel_plane nodes at bound 3000), one dot product and orbit_tail,
    which at i is one 160-node radial quadrature.  A bound whose norms pass
    COUNT_MAX is refused before any table is built.

    The degree is the larger of the Bernstein-ellipse degree of the ratio
    that _plane_kernel_fit interpolates (branch points at +-i pi) and the
    degree at which the Chebyshev series of e^{-rho^2/4t} on [0, L] has
    fallen to e^-38: 60 for t >= 2 and 165 at T_MIN, at bound 3000.  The
    weight e^{-rho} balances two growths.  h_t = q e^{rho/2 - rho^2/4t}
    stays within e^{t/4} of the ratio q, and the moments, sums of
    count(n) w(rho_n), grow only like log n_max (mu_0 = 183 at bound 3000),
    where e^{-rho/2} would let them grow like the bound.  At bounds 25, 60
    and 1000 and t in {0.2, 0.5, 1, 2, 4, 8, 10} the result is within 6e-15
    of heat_kernel_plane summed over the same counts, at bound 3000 and t in
    {0.2, 0.5, 4, 8} within 3e-15.  orbit_tail completes the sum, so this
    is the same answer as periodized_oracle(t, i, norm_bound), with the same
    boundary-shell warning.
    """
    _check_time(t)
    _check_bound(norm_bound)
    if norm_bound * norm_bound > COUNT_MAX:
        raise ValueError(f"norm bound {norm_bound:g} would count norms up to "
                         f"{norm_bound * norm_bound:.1e}, over the limit COUNT_MAX = {COUNT_MAX}")
    n_max = int(math.floor(norm_bound * norm_bound))
    length = _count_length(n_max)
    # e^{-rho^2/4t} = e^{-a (1 + x)^2} on [-1, 1], a = L^2/16t
    gauss = math.ceil(2.0 * math.sqrt(2.0 * 38.0 * length * length / (16.0 * t))) + 8
    n = max(_bernstein_degree(length), gauss)
    mu = _count_moments(n_max, math.ceil((norm_bound - 1.0) ** 2),
                        max(64, 1 << (n - 1).bit_length()))
    coef = _chebyshev_coef(lambda r: heat_kernel_plane(t, r) / _count_weight(r), length, n)
    total, shell_part = (float(v) for v in mu[:, :n] @ coef)
    _warn_shell(t, norm_bound, shell_part, total)
    return total + orbit_tail(t, HPoint(0.0, 1.0), norm_bound)
