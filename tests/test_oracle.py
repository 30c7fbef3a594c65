import math
import warnings
from collections import Counter

import numpy as np
import pytest

from autoheat.hyperbolic import HPoint, cosh_distance
from autoheat.oracle import (
    _PLANE_BLOCK,
    enumerate_group,
    heat_kernel_plane,
    matrix_counts_by_norm,
    orbit_tail,
    periodized_oracle,
    periodized_oracle_basepoint,
)
from autoheat.verify import ORACLE_POINTS


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

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel_plane(0.0, [1.0])


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

    def test_fast_basepoint_path_matches_enumeration(self):
        for t in (0.5, 2.0, 8.0):
            direct = periodized_oracle(t, HPoint(0.0, 1.0), 25.0, shell_warning=False)
            fast = periodized_oracle_basepoint(t, 25.0)
            assert abs(direct - fast) < 1e-11 * abs(direct)

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
