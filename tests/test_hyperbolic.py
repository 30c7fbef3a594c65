import math
import warnings

import numpy as np
import pytest

from autoheat.hyperbolic import (
    HPoint,
    QuadSpec,
    cosh_distance,
    reduce_to_fundamental_domain,
)


def in_domain(p: HPoint) -> bool:
    return abs(p.x) <= 0.5 + 1e-12 and p.x * p.x + p.y * p.y >= 1.0 - 1e-12


class TestReduction:
    def test_lands_in_domain(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = HPoint(float(rng.uniform(-30, 30)), float(np.exp(rng.uniform(-6, 3))))
            assert in_domain(reduce_to_fundamental_domain(z))

    def test_fixes_reduced_points(self):
        p = HPoint(0.21, 1.4)
        q = reduce_to_fundamental_domain(p)
        assert (q.x, q.y) == (p.x, p.y)

    def test_inversion_orbit(self):
        z = HPoint(0.3, 0.4)
        w = -1.0 / z.z
        a = reduce_to_fundamental_domain(z)
        b = reduce_to_fundamental_domain(HPoint(w.real, w.imag))
        assert abs(a.z - b.z) < 1e-12

    def test_inverts_below_the_square_underflow(self):
        # |z|^2 underflows to 0 below |z| ~ 1e-154; the inversion goes through |z|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = reduce_to_fundamental_domain(HPoint(0.0, 1e-300))
        assert p.x == 0.0 and abs(p.y - 1e300) < 1e-15 * 1e300

    @pytest.mark.parametrize("y", [1e-300, 5e-324])
    def test_deep_points_land_in_the_domain(self, y):
        # sqrt(2) - 1 needs 210 and 226 inversions here; below y = 1/2 each
        # inversion at least doubles y, so at most 1074 reach any height
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert in_domain(reduce_to_fundamental_domain(HPoint(math.sqrt(2.0) - 1.0, y)))
        rng = np.random.default_rng(38)
        for x in rng.uniform(-0.5, 0.5, 100):
            assert in_domain(reduce_to_fundamental_domain(HPoint(float(x), y)))

    def test_overflowing_inversion_refused(self):
        # 1/|z| overflows below the smallest normal float: the error names the
        # inversion, not the coordinate it would have produced
        with pytest.raises(ValueError, match="inverted point overflows"):
            reduce_to_fundamental_domain(HPoint(0.0, 1e-310))

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)

    @pytest.mark.parametrize("x, y", [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0)])
    def test_rejects_non_finite_coordinates(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            HPoint(x, y)


class TestHPoint:
    def test_from_complex(self):
        for z, want in ((0.25 + 1.3j, (0.25, 1.3)), (np.complex128(1j), (0.0, 1.0))):
            p = HPoint.from_complex(z)
            assert (p.x, p.y) == want and type(p.x) is float and type(p.y) is float
            assert p.z == complex(z)


class TestDistance:
    def test_translation_distance(self):
        # cosh d(i, i+1) = 1 + 1/2
        assert abs(cosh_distance(1j, 1j + 1.0) - 1.5) < 1e-15

    def test_matrix_norm_identity(self):
        # cosh d(i, gamma i) = ||gamma||_F^2 / 2
        a, b, c, d = 2.0, 1.0, 1.0, 1.0
        w = (a * 1j + b) / (c * 1j + d)
        assert abs(cosh_distance(1j, w) - (a * a + b * b + c * c + d * d) / 2.0) < 1e-14


class TestQuadrature:
    @pytest.mark.parametrize("spec, message", [
        (dict(y_max=1.0), "height cutoff must clear the arc: y_max > 1"),
        (dict(nx=0), "quadrature sizes must be positive")])
    def test_refusals(self, spec, message):
        with pytest.raises(ValueError) as exc:
            QuadSpec(**spec)
        assert str(exc.value) == message

    def test_volume(self):
        vol = float(np.sum(QuadSpec(nx=64, y_panels=24, ny_per_panel=12, y_max=4000.0).nodes()[2]))
        # remaining defect is the analytic cusp tail 1/y_max of the default spec
        assert abs(vol - np.pi / 3.0) < 3e-4

    def test_smooth_integral_converges(self):
        def f(x, y):
            return np.exp(-3.0 * ((y - 1.5) ** 2 + x * x))

        vals = []
        for spec in (QuadSpec(nx=64, y_panels=6, ny_per_panel=12),
                      QuadSpec(nx=128, y_panels=10, ny_per_panel=20)):
            x, y, w = spec.nodes()
            vals.append(float(np.sum(w * f(x, y))))
        assert abs(vals[0] - vals[1]) < 1e-12 * abs(vals[1])
