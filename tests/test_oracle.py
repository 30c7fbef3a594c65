import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from autoheat import oracle
from autoheat.hyperbolic import HPoint, cosh_distance
from autoheat.oracle import (
    _PLANE_BLOCK,
    _plane_kernel_fit,
    enumerate_group,
    heat_kernel_plane,
    matrix_counts_by_norm,
    orbit_tail,
    periodized_oracle,
    periodized_oracle_basepoint,
)
from autoheat.verify import ORACLE_POINTS


def _plane_kernel_mpmath(t: float, rho: float) -> float:
    """p_t(rho) at 30 digits: the same integral in u (s = rho + u^2), split
    where the integrand bends (u ~ sqrt(rho)) and decays."""
    with mpmath.workdps(30):
        t, rho = mpmath.mpf(t), mpmath.mpf(rho)

        def integrand(u):
            s = rho + u * u
            denom = 2 * mpmath.sinh(rho + u * u / 2) * mpmath.sinh(u * u / 2)
            return 2 * u * s * mpmath.exp(-s * s / (4 * t)) / mpmath.sqrt(denom)

        bends = [mpmath.sqrt(rho), 10 * mpmath.sqrt(rho)] if 0 < rho < 0.01 else []
        val = mpmath.quad(integrand, [0, *bends, 1, 3, 8, mpmath.inf])
        return float(mpmath.sqrt(2) * mpmath.exp(-t / 4) / (4 * mpmath.pi * t) ** 1.5 * val)


def _count_quadrature(t: float, bound: int) -> float:
    """The basepoint sum with heat_kernel_plane at every distance of the counts."""
    counts = matrix_counts_by_norm(bound * bound)
    n = np.flatnonzero(counts)
    direct = 0.5 * float(counts[n] @ heat_kernel_plane(t, np.arccosh(n / 2.0)))
    return direct + orbit_tail(t, HPoint(0.0, 1.0), bound)


def _enumerate_group_grid(bound: float) -> np.ndarray:
    """enumerate_group's former algorithm: every (b, c) of the box, each a."""
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
        # Gauss rule in u misses by up to ~5e-9
        rho = [0.0, 1e-8, 1e-6, 1e-4, 0.3, 1.0, 2.5, 5.0]
        vals = heat_kernel_plane(t, rho)
        for r, v in zip(rho, vals):
            ref = _plane_kernel_mpmath(t, r)
            assert abs(v - ref) < 1e-13 * ref, (t, r)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel_plane(0.0, [1.0])


class TestPlaneKernelFit:
    @pytest.mark.parametrize("t", [0.2, 2.0, 10.0])
    @pytest.mark.parametrize("rho_max", [12.0, 63.0])
    def test_matches_the_quadrature(self, t, rho_max):
        # 63 is as far as orbit_tail reaches at t = 10, where the degree that
        # serves [0, 17] would be 1e-8 off
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

    def test_zero_past_the_envelope_underflow(self):
        t = 0.2
        rho = np.array([0.0, 20.0, 30.0, 1e3])
        vals = _plane_kernel_fit(t, float(rho.max()))(rho)
        assert vals[0] > 0.0 and vals[1] > 0.0
        assert vals[2] == 0.0 and vals[3] == 0.0  # envelope below e^-700 past ~23.5


class TestEnumeration:
    def test_matrices_are_unimodular_and_bounded(self):
        mats = enumerate_group(9.0)
        a, b, c, d = mats.T
        assert np.all(a * d - b * c == 1)
        assert np.all(a * a + b * b + c * c + d * d <= 81)

    def test_sign_canonical_and_duplicate_free(self):
        mats = enumerate_group(9.0)
        seen = set(map(tuple, mats))
        assert len(seen) == len(mats)
        for row in mats:
            first = next(v for v in row if v != 0)
            assert first > 0
            assert tuple(-row) not in seen

    def test_identity_ball(self):
        mats = enumerate_group(math.sqrt(2.0) + 1e-9)
        # exactly the identity and the elliptic inversion survive sign dedupe
        assert sorted(map(tuple, mats)) == [(0, 1, -1, 0), (1, 0, 0, 1)]

    @pytest.mark.parametrize("bound", [math.sqrt(2.0) + 1e-9, 9.0, 25.0, 60.0])
    def test_same_array_as_the_grid_algorithm(self, bound):
        fast, ref = enumerate_group(bound), _enumerate_group_grid(bound)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)

    def test_size_matches_arithmetic_counts(self):
        assert 2 * len(enumerate_group(160.0)) == int(matrix_counts_by_norm(160 * 160)[2:].sum())

    def test_counts_identity_against_enumeration(self):
        bound = 12
        mats = enumerate_group(float(bound))
        norms = Counter(int(n) for n in np.sum(mats * mats, axis=1))
        fast = matrix_counts_by_norm(bound * bound)
        for n in range(2, bound * bound + 1):
            assert 2 * norms.get(n, 0) == int(fast[n])  # fast counts both signs


class TestPeriodizedOracle:
    def test_time_domain(self):
        with pytest.raises(ValueError):
            periodized_oracle(0.1, HPoint(0.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            periodized_oracle(11.0, HPoint(0.0, 1.0), 10.0)

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
            enumerate_group(bound)

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
    """The tail term against the enumerated orbit it stands for; no spectral
    data enters.  What is left over is the lattice-count fluctuation."""

    def test_tail_difference_matches_enumerated_shell(self):
        t, inner, outer = 2.0, 25.0, 160.0
        mats = enumerate_group(outer)
        a, b, c, d = (mats[:, k].astype(float) for k in range(4))
        orbit = (a * 1j + b) / (c * 1j + d)
        in_shell = np.sum(mats * mats, axis=1) > inner * inner
        for z in ORACLE_POINTS:
            coshd = 1.0 + np.abs(z.z - orbit) ** 2 / (2.0 * z.y * orbit.imag)
            rho = np.arccosh(np.maximum(coshd, 1.0))
            shell = float(np.sum(heat_kernel_plane(t, rho[in_shell])))
            ball = float(np.sum(heat_kernel_plane(t, rho[~in_shell])))
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
