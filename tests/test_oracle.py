import math
import time
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from autoheat import oracle
from autoheat.hyperbolic import HPoint, cosh_distance, hyperbolic_distance
from numpy.polynomial.chebyshev import chebval

from autoheat.oracle import (
    _PLANE_BLOCK,
    _clenshaw,
    _envelope,
    _mass_beyond,
    _plane_kernel_fit,
    heat_kernel_plane,
    matrix_counts_by_norm,
    orbit_of_i,
    orbit_tail,
    periodized_oracle,
    periodized_oracle_basepoint,
)
from autoheat.special import gauss_rule
from autoheat.verify import ORACLE_POINTS, ORACLE_TIMES


def _plane_kernel_mpmath(t: float, rho: float) -> float:
    """p_t(rho) at 20 digits: the same integral in u (s = rho + u^2), in 40
    equal pieces out to where the Gaussian has fallen by ~e^-100, split
    again where the integrand bends (u ~ sqrt(rho)) for tiny rho.  The
    integrand is scaled by e^{rho^2/4t + rho/2} to O(1), since mpmath.quad
    stops a piece on an absolute error estimate."""
    with mpmath.workdps(20):
        t, rho = mpmath.mpf(t), mpmath.mpf(rho)
        scale = mpmath.exp(rho * rho / (4 * t) + rho / 2)

        def integrand(u):
            s = rho + u * u
            denom = 2 * mpmath.sinh(rho + u * u / 2) * mpmath.sinh(u * u / 2)
            return scale * 2 * u * s * mpmath.exp(-s * s / (4 * t)) / mpmath.sqrt(denom)

        u_end = mpmath.sqrt(max(t - rho, 0) + 20 * mpmath.sqrt(t) + 1)
        cuts = [u_end * k / 40 for k in range(41)]
        if 0 < rho < 0.01:
            cuts = sorted(cuts + [mpmath.sqrt(rho), 10 * mpmath.sqrt(rho)])
        val = mpmath.quad(integrand, cuts + [mpmath.inf], method="gauss-legendre") / scale
        return float(mpmath.sqrt(2) * mpmath.exp(-t / 4) / (4 * mpmath.pi * t) ** 1.5 * val)


def _count_quadrature(t: float, bound: int) -> float:
    """The basepoint sum with heat_kernel_plane at every distance of the counts."""
    counts = matrix_counts_by_norm(bound * bound)
    n = np.flatnonzero(counts)
    direct = 0.5 * float(counts[n] @ heat_kernel_plane(t, np.arccosh(n / 2.0)))
    return direct + orbit_tail(t, HPoint(0.0, 1.0), bound)


def _enumerate_group_grid(bound: float) -> np.ndarray:
    """The group ball by brute force: every (b, c) of the box, each a.
    Matrices (a, b, c, d), ad - bc = 1, norm <= bound, first nonzero entry
    positive; each orbit point gamma i appears twice, as gamma and gamma S."""
    top = int(math.floor(bound))
    b2 = bound * bound
    rng = np.arange(-top, top + 1)
    bb, cc = np.meshgrid(rng, rng, indexing="ij")
    bc = bb * cc
    quads = []
    for a in range(1, top + 1):
        num = 1 + bc
        mask = num % a == 0
        d = np.where(mask, num // a, 0)
        mask &= a * a + bb * bb + cc * cc + d * d <= b2
        if np.any(mask):
            n = int(mask.sum())
            quads.append(np.stack([np.full(n, a), bb[mask], cc[mask], d[mask]], axis=1))
    dmax = int(math.floor(math.sqrt(max(b2 - 2.0, 0.0))))
    d = np.arange(-dmax, dmax + 1)
    quads.append(np.stack([np.zeros_like(d), np.ones_like(d), -np.ones_like(d), d], axis=1))
    return np.concatenate(quads, axis=0)


class TestPlaneHeatKernel:
    def test_positive_and_decreasing(self):
        rho = np.linspace(1e-6, 8.0, 60)
        for t in (0.25, 1.0, 4.0):
            p = heat_kernel_plane(t, rho)
            assert np.all(p > 0.0)
            assert np.all(np.diff(p) < 0.0)

    def test_total_mass_one(self):
        for t in (0.5, 2.0):
            rho = np.linspace(1e-9, 30.0 + 10.0 * t, 20001)
            p = heat_kernel_plane(t, rho)
            mass = np.trapezoid(p * 2.0 * np.pi * np.sinh(rho), rho)
            assert abs(mass - 1.0) < 1e-6

    def test_short_time_euclidean_limit(self):
        t = 0.01
        assert abs(heat_kernel_plane(t, [1e-12])[0] * 4.0 * math.pi * t - 1.0) < 5e-3

    def test_blocked_values_equal_single_values(self):
        # an array spanning three quadrature blocks gives, bit for bit, the
        # values of the same distances evaluated one at a time
        rho = np.random.default_rng(7).uniform(0.0, 9.0, 2 * _PLANE_BLOCK + 5)
        vals = heat_kernel_plane(0.7, rho)
        edges = (0, 1, _PLANE_BLOCK - 1, _PLANE_BLOCK, _PLANE_BLOCK + 1,
                 2 * _PLANE_BLOCK - 1, 2 * _PLANE_BLOCK, len(rho) - 1)
        for k in edges + tuple(range(17, len(rho), 613)):
            assert vals[k] == heat_kernel_plane(0.7, rho[k])[0]

    @pytest.mark.parametrize("t", [0.2, 0.5, 2.0, 8.0])
    def test_matches_mpmath_on_and_off_the_diagonal(self, t):
        # 1e-8 .. 1e-4: the integrand bends at u ~ sqrt(rho), which a plain
        # Gauss rule in u misses by up to ~5e-9; 8 .. 15: the far distances
        # of bound-160 sums, decided out to rho_B ~ 10.15 (measured at most
        # 3.8e-14 off, at t = 0.2 and rho = 15)
        rho = [0.0, 1e-8, 1e-6, 1e-4, 0.3, 1.0, 2.5, 5.0, 8.0, 10.15, 12.0, 15.0]
        vals = heat_kernel_plane(t, rho)
        for r, v in zip(rho, vals):
            ref = _plane_kernel_mpmath(t, r)
            assert abs(v - ref) < 1e-13 * ref, (t, r)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel_plane(0.0, [1.0])

    @pytest.mark.parametrize("t, rho, named", [
        (math.inf, [1.0], "inf"), (math.nan, [1.0], "nan"),
        (1.0, [0.5, math.nan], "nan"), (1.0, [math.inf], "inf"), (1.0, [-math.inf], "-inf")])
    def test_non_finite_inputs_refused(self, t, rho, named, monkeypatch):
        # refused by name before any quadrature runs, not answered as nan
        monkeypatch.setattr(oracle, "gauss_rule", None)
        with pytest.raises(ValueError, match=f"got {named}$"):
            heat_kernel_plane(t, rho)


def _envelope_plain(t: float, rho: np.ndarray) -> np.ndarray:
    """_envelope as one expression, as it was written before it was computed in place."""
    r = np.maximum(rho, 1e-300)
    return np.exp(-r * (r / (4.0 * t) + 0.5)) * np.sqrt(-2.0 * r / np.expm1(-2.0 * r))


class TestPlaneKernelFit:
    @pytest.mark.parametrize("t", [0.2, 1.0, 10.0])
    def test_envelope_is_the_plain_expression_bit_for_bit(self, t):
        rng = np.random.default_rng(11)
        rho = np.concatenate([[0.0, 1e-300, 1e-12, 1e-3, 1.0, 700.0],
                              rng.uniform(0.0, 12.0, 4000), rng.uniform(0.0, 60.0, 1000)])
        before = rho.copy()
        assert np.array_equal(_envelope(t, rho), _envelope_plain(t, rho))
        assert np.array_equal(rho, before)  # the distances are not overwritten

    @pytest.mark.parametrize("t", [0.2, 2.0, 10.0])
    @pytest.mark.parametrize("rho_max", [12.0, 63.0])
    def test_matches_the_quadrature(self, t, rho_max):
        # 63: a long interval at t = 10, where the degree that serves [0, 17]
        # would be 1e-8 off
        rho = np.linspace(0.0, rho_max, 2001)
        ref = heat_kernel_plane(t, rho)
        fit = _plane_kernel_fit(t, rho_max)(rho)
        live = ref > 1e-290
        assert np.all(np.abs(fit[live] - ref[live]) <= 1e-12 * ref[live])
        assert np.all(np.isfinite(fit)) and np.all(fit[~live] < 1e-280)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("rho_max", [10.15, 17.0])
    def test_matches_mpmath_where_the_orbit_sums_are_decided(self, t, rho_max):
        # rho = 0 is an end of the interpolation interval, where coefficients
        # built by numpy's chebinterpolate (a three-term recurrence) are 5e-14 off
        rho = np.array([0.0, 1e-3, 0.05, 0.3, 1.0])
        fit = _plane_kernel_fit(t, rho_max)(rho)
        for r, v in zip(rho, fit):
            ref = _plane_kernel_mpmath(t, r)
            assert abs(v - ref) < 2e-14 * ref, (t, rho_max, r)

    @pytest.mark.parametrize("size", [3, 4, 17, 49, 117, 256])
    def test_clenshaw_is_chebval_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        coef = rng.standard_normal(size) * np.exp(-0.3 * np.arange(size))
        x = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 997)])
        assert np.array_equal(_clenshaw(x, coef), chebval(x, coef))
        assert _clenshaw(np.empty(0), coef).shape == (0,)

    def test_zero_past_the_envelope_underflow(self):
        t = 0.2
        rho = np.array([0.0, 20.0, 30.0, 1e3])
        vals = _plane_kernel_fit(t, float(rho.max()))(rho)
        assert vals[0] > 0.0 and vals[1] > 0.0
        assert vals[2] == 0.0 and vals[3] == 0.0  # envelope below e^-700 past ~23.5


def _orbit_by_inverses(bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of i as orbit_of_i listed it before the backward Euclid:
    the coprime (c, d) of a meshgrid in (c, d) order, X0 = -d c^{-1} mod q
    by modular inverses, then the translates X0 + kq with |X| <= m."""
    n_max = math.floor(bound * bound)
    side = np.arange(math.isqrt(n_max - 1) + 1)
    c, d = np.meshgrid(side[1:], side, indexing="ij")
    q = c * c + d * d
    keep = (np.gcd(c, d) == 1) & (q < n_max)
    c, d, q = c[keep], d[keep], q[keep]
    x0 = np.array([-dd * pow(cc, -1, qq) % qq
                   for cc, dd, qq in zip(c.tolist(), d.tolist(), q.tolist())], dtype=q.dtype)
    room = q * (n_max - q) - 1
    m = np.sqrt(room).astype(q.dtype)
    m -= m * m > room
    lo, hi = -((m + x0) // q), (m - x0) // q
    count = hi - lo + 1
    pair = np.repeat(np.arange(len(q)), count)
    k = lo[pair] + np.arange(len(pair)) - (np.cumsum(count) - count)[pair]
    return x0[pair] + k * q[pair], q[pair]


def _tail_by_polar_grid(t: float, z: HPoint, bound: float, n_theta: int) -> float:
    """orbit_tail as a two-dimensional rule, the way it was computed before
    the radial integral was closed: geodesic polar coordinates (r, theta)
    about i, 200 Gauss-Legendre nodes in r from rho_B to where the kernel has
    decayed, the midpoint rule with n_theta nodes on half the circle, and
    the kernel from _plane_kernel_fit.  The former tail took 32 nodes in theta."""
    rho_b = math.acosh(max(0.5 * bound * bound, 1.0))
    a = hyperbolic_distance(z.z, 1j)
    r_hi = max(rho_b, a + t) + math.sqrt(4.0 * t * 46.0)
    r, wr = gauss_rule(0.5 * (r_hi + rho_b), 0.5 * (r_hi - rho_b), 200)
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    coshd = (np.cosh(r - a)[:, None] + 2.0 * math.sinh(a)
             * np.sinh(r)[:, None] * np.sin(0.5 * theta)[None, :] ** 2)
    rho = np.arccosh(coshd).ravel()
    p = _plane_kernel_fit(t, float(rho.max()))(rho).reshape(coshd.shape)
    return 6.0 / n_theta * float((wr * np.sinh(r)) @ p.sum(axis=1))


# float.hex of periodized_oracle(t, x + iy, 160) from the inverse construction,
# at the heights of both benchmark workloads.  The entry at 0.5 + 6i moved by
# 5.8e-11 relative when orbit_tail closed its radial integral: the former
# tail's 32-node rule in theta was that far off there (TestOrbitTail)
_BOUND_160_SUMS = {
    (0.5, 0.3, 0.95): "0x1.541b15bb56c06p+0",
    (0.7, -0.2, 1.15): "0x1.385472c44a179p+0",
    (0.8, 0.45, 1.4): "0x1.2b4c0cc92ea85p+0",
    (0.6, 0.1, 2.0): "0x1.1e31540f6179dp+0",
    (1.0, -0.35, 3.5): "0x1.d9d9b44251a2ep-1",
    (2.0, 0.5, 6.0): "0x1.c6fb7349c6bd5p-1",
}


def _grid_orbit(bound: float) -> Counter:
    """How often each orbit point (X, q), gamma i = (X + i)/q, occurs in the grid ball."""
    a, b, c, d = _enumerate_group_grid(bound).T
    return Counter(zip((a * c + b * d).tolist(), (c * c + d * d).tolist()))


def _orbit_norms(bound: float) -> np.ndarray:
    x_num, q = orbit_of_i(bound)
    return (q * q + x_num * x_num + 1) // q


class TestEnumeration:
    def test_points_are_orbit_points_within_the_bound(self):
        x_num, q = orbit_of_i(9.0)
        assert np.all(q > 0) and np.all((x_num * x_num + 1) % q == 0)  # a^2 + b^2 integral
        assert np.all(_orbit_norms(9.0) <= 81)

    def test_each_point_once(self):
        x_num, q = orbit_of_i(60.0)
        assert len(set(zip(x_num.tolist(), q.tolist()))) == len(q)

    def test_identity_ball(self):
        # the identity and the elliptic inversion S both send i to i
        x_num, q = orbit_of_i(math.sqrt(2.0) + 1e-9)
        assert (x_num.tolist(), q.tolist()) == ([0], [1])

    @pytest.mark.parametrize("bound", [math.sqrt(2.0) + 1e-9, 2.0, 9.0, 25.0, 60.0, 160.0])
    def test_same_array_as_the_grid_algorithm(self, bound):
        # sorted by (q, X), orbit_of_i's points are the grid ball's orbit
        # points, each of which the ball holds twice (gamma and gamma S)
        x_num, q = orbit_of_i(bound)
        ball = _grid_orbit(bound)
        assert set(ball.values()) == {2}
        order = np.lexsort((x_num, q))
        ref = np.array(sorted(ball, key=lambda p: (p[1], p[0]))).T
        assert np.array_equal(np.stack([x_num[order], q[order]]), ref)

    @pytest.mark.parametrize("bound", [math.sqrt(2.0) + 1e-9, 2.0, 3.0, 9.0, 25.0, 25.3,
                                       60.0, 159.9, 160.0, 300.0])
    def test_same_order_and_dtype_as_the_inverse_construction(self, bound):
        x_num, q = orbit_of_i(bound)
        x_ref, q_ref = _orbit_by_inverses(bound)
        assert (x_num.dtype, q.dtype) == (x_ref.dtype, q_ref.dtype)
        assert np.array_equal(x_num, x_ref) and np.array_equal(q, q_ref)

    @pytest.mark.parametrize("bound", [1e5, 1e200])
    def test_oversized_orbit_refused(self, bound):
        # at once, before any array of the ~1.5 bound^2 points is built
        start = time.perf_counter()
        with pytest.raises(ValueError, match="ORBIT_MAX") as exc:
            orbit_of_i(bound)
        assert time.perf_counter() - start < 0.5
        assert f"norm bound {bound:g} " in str(exc.value) and str(oracle.ORBIT_MAX) in str(exc.value)

    def test_size_matches_arithmetic_counts(self):
        # a point stands for four matrices: +-gamma and +-gamma S
        assert 4 * len(orbit_of_i(160.0)[1]) == int(matrix_counts_by_norm(160 * 160)[2:].sum())

    def test_counts_identity_against_enumeration(self):
        bound = 12
        norms = Counter(_orbit_norms(float(bound)).tolist())
        fast = matrix_counts_by_norm(bound * bound)
        for n in range(2, bound * bound + 1):
            assert 4 * norms.get(n, 0) == int(fast[n])


class TestPeriodizedOracle:
    def test_time_domain(self):
        with pytest.raises(ValueError):
            periodized_oracle(0.1, HPoint(0.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            periodized_oracle(11.0, HPoint(0.0, 1.0), 10.0)

    @pytest.mark.parametrize("t, x, y", list(_BOUND_160_SUMS))
    def test_bound_160_sums_frozen(self, t, x, y):
        assert periodized_oracle(t, HPoint(x, y), 160.0).hex() == _BOUND_160_SUMS[t, x, y]

    @pytest.mark.parametrize("t, x, y, bound, frozen", [
        (1.0, 0.25, 1.3, 60.0, "0x1.2202eaa588253p+0"),
        (0.5, -0.1, 1.2, 300.0, "0x1.4e8ea58a791c1p+0"),
        (1.0, 0.2, 2.0, 816.0, "0x1.137785e0ee0fbp+0")])  # 816: the top ORBIT_MAX allows
    def test_sums_frozen_across_bounds(self, t, x, y, bound, frozen):
        value = periodized_oracle(t, HPoint(x, y), bound, shell_warning=False)
        assert value.hex() == frozen

    @pytest.mark.parametrize("bound", [1.5, 2.0, 25.0, 33.3, 60.0, 100.7, 160.0, 300.0, 816.0])
    def test_shell_mask_without_a_division(self, bound):
        # periodized_oracle's shell mask, N q >= ceil((B - 1)^2) q, against
        # the norms N = (q^2 + X^2 + 1) / q it stands for
        x_num, q = orbit_of_i(bound)
        mask = q * q + x_num * x_num + 1 >= math.ceil((bound - 1.0) ** 2) * q
        assert np.array_equal(mask, _orbit_norms(bound) >= (bound - 1.0) ** 2)

    def test_sum_frozen_with_the_shell_check(self):
        with pytest.warns(UserWarning, match="contributes 3.41e-02 of the periodized sum"):
            value = periodized_oracle(8.0, HPoint(0.3, 1.1), 25.0, shell_warning=True)
        assert value.hex() == "0x1.ea67f200c90d5p-1"

    @pytest.mark.parametrize("t, frozen", [(4.0, "0x1.f5190ccdf7fbep-1"),
                                           (8.0, "0x1.eafc193c2de3ap-1")])
    def test_basepoint_sums_frozen_at_the_benchmark_bound(self, t, frozen):
        assert periodized_oracle_basepoint(t, 3000.0).hex() == frozen

    @pytest.mark.filterwarnings("ignore:boundary shell")
    def test_fast_basepoint_path_matches_enumeration(self):
        for t in (0.5, 2.0, 8.0):
            direct = periodized_oracle(t, HPoint(0.0, 1.0), 25.0, shell_warning=False)
            fast = periodized_oracle_basepoint(t, 25.0)
            assert abs(direct - fast) < 1e-11 * abs(direct)

    @pytest.mark.filterwarnings("ignore:boundary shell")  # t = 10 warns
    @pytest.mark.parametrize("t", [0.2, 0.5, 4.0, 10.0])
    def test_basepoint_path_equals_quadrature_over_the_same_counts(self, t):
        direct = _count_quadrature(t, 1000)
        fast = periodized_oracle_basepoint(t, 1000)
        assert abs(fast - direct) < 1e-13 * direct

    def test_basepoint_moments_cached_per_degree(self, monkeypatch):
        builds = []
        table = oracle._two_squares_counts
        monkeypatch.setattr(oracle, "_two_squares_counts",
                            lambda n: builds.append(n) or table(n))
        oracle._count_moments.cache_clear()
        bound = 1500
        first = periodized_oracle_basepoint(4.0, bound)
        periodized_oracle_basepoint(8.0, bound)
        again = periodized_oracle_basepoint(4.0, bound)
        assert len(builds) == 1  # t = 4 and t = 8 share the 64 moments
        assert again == first
        short = periodized_oracle_basepoint(0.2, bound)  # needs 256 moments
        assert len(builds) == 2
        direct = _count_quadrature(0.2, bound)
        assert abs(short - direct) < 1e-13 * direct

    @pytest.mark.parametrize("bound, message", [
        (1.0, r"identity's norm sqrt\(2\)"), (math.sqrt(2.0) - 1e-9, r"identity's norm sqrt\(2\)"),
        (math.nan, "finite norm bound"), (math.inf, "finite norm bound")])
    def test_bounds_outside_the_domain_refused(self, bound, message):
        with pytest.raises(ValueError, match=message):
            periodized_oracle_basepoint(0.5, bound)
        with pytest.raises(ValueError, match=message):
            orbit_of_i(bound)

    @pytest.mark.parametrize("bound", [1e5, 1e200])
    def test_uncountable_bounds_refused(self, bound):
        # at once, before the sums-of-two-squares tables (two int16 tables of
        # ~2.5e9 entries at 1e5) are built; 1e200 squares to inf
        start = time.perf_counter()
        with pytest.raises(ValueError, match="COUNT_MAX") as exc:
            periodized_oracle_basepoint(4.0, bound)
        assert time.perf_counter() - start < 0.5
        assert f"norm bound {bound:g} " in str(exc.value) and str(oracle.COUNT_MAX) in str(exc.value)

    def test_basepoint_shell_warning_matches_enumeration(self):
        with pytest.warns(UserWarning, match="boundary shell") as fast:
            periodized_oracle_basepoint(2.0, 25.0)
        with pytest.warns(UserWarning, match="boundary shell") as enumerated:
            periodized_oracle(2.0, HPoint(0.0, 1.0), 25.0)
        assert str(fast[0].message) == str(enumerated[0].message)

    @pytest.mark.parametrize("t", [0.2, 0.5, 2.0, 8.0])
    def test_continuous_at_the_basepoint(self, t):
        # the identity's distance 1e-7 sits where a plain Gauss rule in u is
        # ~1e-10 off; the true difference is ~1e-15
        near = periodized_oracle(t, HPoint(1e-7, 1.0), 25.0, shell_warning=False)
        at = periodized_oracle(t, HPoint(0.0, 1.0), 25.0, shell_warning=False)
        assert abs(near - at) < 1e-13 * at

    @pytest.mark.parametrize("t", ORACLE_TIMES)
    @pytest.mark.parametrize("z", [*ORACLE_POINTS, HPoint(0.4, 0.95)])
    def test_orbit_sum_equals_the_group_sum(self, t, z):
        # weight 2 per orbit point against every matrix of the ball, with the
        # same plane-kernel fit; measured within 3.6e-16
        a, b, c, d = (_enumerate_group_grid(25.0)[:, k].astype(float) for k in range(4))
        orbit = (a * 1j + b) / (c * 1j + d)
        coshd = 1.0 + np.abs(z.z - orbit) ** 2 / (2.0 * z.y * orbit.imag)
        rho = np.arccosh(np.maximum(coshd, 1.0))
        group = float(np.sum(_plane_kernel_fit(t, float(rho.max()))(rho))) + orbit_tail(t, z, 25.0)
        assert abs(periodized_oracle(t, z, 25.0, shell_warning=False) - group) < 1e-15 * group

    def test_shell_warning_fires_when_truncation_is_inadequate(self):
        with pytest.warns(UserWarning, match="boundary shell"):
            periodized_oracle(2.0, HPoint(0.0, 1.0), 25.0)

    def test_no_warning_at_short_time(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            periodized_oracle(0.5, HPoint(0.0, 1.0), 25.0)

    def test_short_time_locality(self):
        # recorded fixture: at t=0.25 near the basepoint the identity-ball
        # sum (identity + elliptic inversion) carries 1/2.84 of the total;
        # the ratio shrinks toward 1 as t decreases
        z = HPoint(0.2, 1.0)
        ident = 2.0 * heat_kernel_plane(
            0.25, [math.acosh(cosh_distance(z.z, 1j))])[0]
        full = periodized_oracle(0.25, z, 25.0, shell_warning=False)
        ratio = full / ident
        assert abs(ratio - 2.84) < 0.1
        ratios = []
        for t in (0.2, 0.3, 0.45):
            ident_t = 2.0 * heat_kernel_plane(
                t, [math.acosh(cosh_distance(z.z, 1j))])[0]
            ratios.append(periodized_oracle(t, z, 25.0, shell_warning=False) / ident_t)
        assert ratios[0] < ratios[1] < ratios[2]

    @pytest.mark.slow
    def test_long_time_limit_with_arithmetic_counts(self):
        val = periodized_oracle_basepoint(8.0, 6000.0)
        assert abs(val - 3.0 / math.pi) < 2e-2


class TestOrbitTail:
    """The tail term against quadratures of the same integral, and against the
    enumerated orbit it stands for; no spectral data enters.  What is left
    over against the orbit is the lattice-count fluctuation."""

    @pytest.mark.parametrize("t", [0.2, 1.0, 4.0, 10.0])
    def test_unit_mass(self, t):
        assert abs(_mass_beyond(t, 0.0) - 1.0) < 1e-14

    # orbit_tail(t, i, bound) = (3/pi) M(t, rho_B) at 30 digits (40 agree with
    # 80 subintervals at 40 digits to 1e-30; breakpoints at u = 1, 3 and 8
    # alone put t = 0.2, bound 160 off by 3.9e-4):
    #
    #   import mpmath as mp
    #   mp.mp.dps = 30
    #   def tail_at_i(t, bound):
    #       t, rho = mp.mpf(t), mp.acosh(mp.mpf(bound) ** 2 / 2)
    #       def f(u):  # s = rho + u^2
    #           s = rho + u * u
    #           return 2 * u * s * mp.exp(-s * s / (4 * t)) \
    #               * mp.sqrt(2 * mp.sinh(rho + u * u / 2) * mp.sinh(u * u / 2))
    #       top = mp.sqrt(max(rho, t) + mp.sqrt(400 * t) - rho)
    #       mass = 4 * mp.pi * mp.sqrt(2) * mp.exp(-t / 4) / (4 * mp.pi * t) ** 1.5 \
    #           * mp.quad(f, mp.linspace(0, top, 41) + [mp.inf])
    #       return 3 / mp.pi * mass
    TAIL_AT_I_REFERENCE = {
        (1.0, 25.0): 0.00018186123739088344,
        (2.0, 25.0): 0.028235483382302123,
        (4.0, 25.0): 0.29616585439533927,
        (10.0, 25.0): 0.8439661818080424,
        (2.0, 160.0): 6.071712627028069e-05,
        (4.0, 3000.0): 2.498301866273164e-05,
        (8.0, 3000.0): 0.03603880456174542,
        (8.0, 6000.0): 0.015610451743322503,
    }

    @pytest.mark.parametrize("t, bound", list(TAIL_AT_I_REFERENCE))
    def test_basepoint_tail_matches_frozen_mpmath(self, t, bound):
        # measured within 3.3e-15 .. 5.7e-15
        ref = self.TAIL_AT_I_REFERENCE[t, bound]
        assert abs(orbit_tail(t, HPoint(0.0, 1.0), bound) - ref) < 2e-14 * ref

    @pytest.mark.parametrize("bound", [25.0, 160.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("z, n_theta", [
        (HPoint(0.25, 1.3), 128), (HPoint(0.0, 2.0), 128), (HPoint(-0.35, 3.5), 128),
        (HPoint(0.5, 6.0), 128), (HPoint(0.2, 30.0), 512)])
    def test_tail_off_the_basepoint_matches_the_polar_grid(self, z, n_theta, t, bound):
        # the kernel about 0.2 + 30i is ~e^-a = 1/30 wide in theta, so 32 nodes
        # were 48% off there (t = 1) and 256 still 7e-10 (t = 0.5); measured
        # within 2.4e-13
        ref = _tail_by_polar_grid(t, z, bound, n_theta)
        assert abs(orbit_tail(t, z, bound) - ref) < 1e-12 * ref

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_basepoint_outside_the_ball(self, t):
        # a = log 6 > rho_B = acosh 2: the circles about z smaller than
        # a - rho_B lie wholly outside the ball; measured within 1.4e-14
        z = HPoint(0.0, 6.0)
        ref = _tail_by_polar_grid(t, z, 2.0, 128)
        assert abs(orbit_tail(t, z, 2.0) - ref) < 1e-12 * ref

    def test_tail_difference_matches_enumerated_shell(self):
        t, inner, outer = 2.0, 25.0, 160.0
        x_num, q = orbit_of_i(outer)
        in_shell = _orbit_norms(outer) > inner * inner
        for z in ORACLE_POINTS:
            coshd = 1.0 + ((z.x - x_num / q) ** 2 + (z.y - 1.0 / q) ** 2) * q / (2.0 * z.y)
            rho = np.arccosh(np.maximum(coshd, 1.0))
            shell = 2.0 * float(np.sum(heat_kernel_plane(t, rho[in_shell])))
            ball = 2.0 * float(np.sum(heat_kernel_plane(t, rho[~in_shell])))
            total = ball + shell + orbit_tail(t, z, outer)
            predicted = orbit_tail(t, z, inner) - orbit_tail(t, z, outer)
            assert abs(shell - predicted) < 1e-3 * total

    @pytest.mark.filterwarnings("ignore:boundary shell")
    def test_tail_difference_matches_arithmetic_counts_long_time(self):
        t, inner, outer = 8.0, 160, 1000
        counts = matrix_counts_by_norm(outer * outer)
        n = np.arange(len(counts))
        live = (n > inner * inner) & (counts > 0.0)
        shell = 0.5 * float(counts[live] @ heat_kernel_plane(t, np.arccosh(n[live] / 2.0)))
        z = HPoint(0.0, 1.0)
        predicted = orbit_tail(t, z, inner) - orbit_tail(t, z, outer)
        total = periodized_oracle_basepoint(t, outer)
        # far from the ball the count fluctuation is ~1e-6 of the total
        assert abs(shell - predicted) < 1e-5 * total
