import numpy as np
import pytest

from autoheat.heat import heat_coefficients
from autoheat.hyperbolic import QuadSpec
from autoheat.sobolev import (
    CoeffFn,
    analyze,
    apply_generator,
    apply_one_minus_laplacian,
    apply_resolvent,
    basis_values,
    delta_coefficients,
    invert_one_minus_laplacian,
    pairing,
    pairing_s,
    sobolev_norm,
    sobolev_weights,
)
from autoheat.verify import sobolev_suite

RNG = np.random.default_rng(101)


def rand_fn(grid):
    return CoeffFn(grid, RNG.standard_normal(grid.size)
                   + 1j * RNG.standard_normal(grid.size))


def indicator(grid, index):
    vals = np.zeros(grid.size, dtype=complex)
    vals[index] = 1.0
    return CoeffFn(grid, vals)


class TestCoeffFn:
    def test_wrong_shape_refused(self, tiny_grid):
        with pytest.raises(ValueError) as exc:
            CoeffFn(tiny_grid, np.zeros(3))
        assert str(exc.value) == "expected 17 values, got shape (3,)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_values_refused(self, tiny_grid, bad):
        vals = np.zeros(tiny_grid.size, dtype=complex)
        vals[-1] = bad
        with pytest.raises(ValueError) as exc:
            CoeffFn(tiny_grid, vals)
        assert str(exc.value) == "coefficient values must be finite"


class TestNorms:
    def test_zero_vector(self, tiny_grid):
        z = CoeffFn(tiny_grid, np.zeros(tiny_grid.size))
        for s in (-4, 0, 3):
            assert sobolev_norm(z, s) == 0.0

    def test_residual_indicator_norm_one_for_every_index(self, tiny_grid):
        e = indicator(tiny_grid, tiny_grid.n_cusp)
        for s in (-6, -2, 0, 5, 11):
            assert abs(sobolev_norm(e, s) - 1.0) < 1e-15

    def test_delta_norm_regression(self, grid):
        # the size of the delta datum two indices below square-integrability,
        # frozen from 24 uniform panels of 32 nodes on [0, 12] (15 x 40 and
        # 40 x 24 node grids give the same 16 digits)
        val = sobolev_norm(delta_coefficients(grid), -2)
        assert abs(val - 1.0562797460518960) < 1e-9

    def test_delta_unbounded_at_index_zero(self, grid, doubled_grid):
        a = sobolev_norm(delta_coefficients(grid), 0)
        b = sobolev_norm(delta_coefficients(doubled_grid), 0)
        assert b > 1.1 * a  # keeps growing with the spectral cutoff

    def test_overflowing_weights_refused(self, grid):
        # (1 - lambda)^120 overflows on the cusp rows and would meet the
        # coefficients that flushed to zero as inf * 0 = nan
        coeffs = heat_coefficients(1.0, grid).coeffs
        assert np.isfinite(sobolev_norm(coeffs, 80))
        for fn in (lambda s: sobolev_norm(coeffs, s), lambda s: pairing_s(coeffs, coeffs, s),
                   lambda s: sobolev_weights(grid, s)):
            with pytest.raises(ValueError, match="overflow"):
                fn(120)

    def test_nesting(self, tiny_grid):
        for _ in range(30):
            f = rand_fn(tiny_grid)
            for s in (-3, 0, 4):
                assert sobolev_norm(f, s - 1) <= sobolev_norm(f, s) + 1e-13


class TestPairing:
    def test_residual_self_pairing(self, tiny_grid):
        e = indicator(tiny_grid, tiny_grid.n_cusp)
        assert abs(pairing(e, e) - 1.0) < 1e-15

    def test_sesquilinearity(self, tiny_grid):
        for _ in range(20):
            f, g = rand_fn(tiny_grid), rand_fn(tiny_grid)
            assert abs(pairing(f, g) - np.conj(pairing(g, f))) < 1e-13

    def test_cauchy_schwarz_with_split_weights(self, tiny_grid):
        for _ in range(50):
            f, g = rand_fn(tiny_grid), rand_fn(tiny_grid)
            for s in (-2, 0, 2):
                bound = sobolev_norm(f, s) * sobolev_norm(g, -s)
                assert abs(pairing(f, g)) <= bound * (1.0 + 1e-13)

    def test_grid_mismatch_rejected(self, tiny_grid, residual_only_grid):
        f = rand_fn(tiny_grid)
        g = CoeffFn(residual_only_grid, np.ones(1))
        with pytest.raises(ValueError, match="different grids"):
            pairing(f, g)


class TestSmoothingShift:
    def test_residual_fixed_point(self, tiny_grid):
        e = indicator(tiny_grid, tiny_grid.n_cusp)
        out = apply_one_minus_laplacian(e)
        assert np.allclose(out.values, e.values, rtol=0, atol=1e-16)

    def test_isometry_across_the_scale(self, tiny_grid):
        for _ in range(100):
            f = rand_fn(tiny_grid)
            s = int(RNG.integers(-4, 5))
            a = sobolev_norm(apply_one_minus_laplacian(f), s - 2)
            b = sobolev_norm(f, s)
            assert abs(a - b) <= 1e-12 * b

    def test_invertibility(self, tiny_grid):
        f = rand_fn(tiny_grid)
        g = invert_one_minus_laplacian(apply_one_minus_laplacian(f))
        assert np.max(np.abs(g.values - f.values)) < 1e-13 * np.max(np.abs(f.values))


class TestGenerator:
    def test_kills_the_residual_direction(self, tiny_grid):
        e = indicator(tiny_grid, tiny_grid.n_cusp)
        assert np.all(apply_generator(e).values == 0.0)

    def test_symmetry_in_weighted_inner_products(self, tiny_grid):
        for _ in range(30):
            f, g = rand_fn(tiny_grid), rand_fn(tiny_grid)
            s = int(RNG.integers(-3, 4))
            lhs = pairing_s(apply_generator(f), g, s)
            rhs = pairing_s(f, apply_generator(g), s)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)

    def test_negativity(self, tiny_grid):
        for _ in range(30):
            f = rand_fn(tiny_grid)
            s = int(RNG.integers(-3, 4))
            q = pairing_s(apply_generator(f), f, s)
            assert q.real <= 1e-13
            assert abs(q.imag) <= 1e-13 * max(abs(q.real), 1.0)


class TestResolvent:
    def test_residual_direction_flips_sign(self, tiny_grid):
        e = indicator(tiny_grid, tiny_grid.n_cusp)
        out = apply_resolvent(1.0, e)
        assert np.allclose(out.values, -e.values, rtol=0, atol=1e-16)

    def test_roundtrip(self, tiny_grid):
        for c in (0.5, 1.0, 3.0):
            f = rand_fn(tiny_grid)
            rf = apply_resolvent(c, f)
            back = apply_generator(rf).values - c * rf.values
            assert np.max(np.abs(back - f.values)) < 1e-13 * np.max(np.abs(f.values))

    def test_norm_bound(self, tiny_grid):
        for c in (0.5, 1.0, 3.0):
            for _ in range(10):
                f = rand_fn(tiny_grid)
                s = int(RNG.integers(-3, 4))
                assert sobolev_norm(apply_resolvent(c, f), s) <= \
                    sobolev_norm(f, s) / c * (1.0 + 1e-13)

    def test_nonpositive_shift_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            apply_resolvent(0.0, rand_fn(tiny_grid))
        with pytest.raises(ValueError):
            apply_resolvent(-2.0, rand_fn(tiny_grid))


class TestDeltaCoefficients:
    def test_residual_entry(self, grid):
        d = delta_coefficients(grid)
        assert abs(d.values[grid.n_cusp] - np.sqrt(3.0 / np.pi)) < 1e-12

    def test_odd_cusp_entries_vanish(self, grid):
        d = delta_coefficients(grid)
        for i, odd in enumerate(grid.table.odd[:grid.n_cusp]):
            if odd:
                assert d.values[i] == 0.0

    def test_is_the_basis_column_at_i(self, grid):
        # the delta data are the grid's one basis evaluation at i, bit for
        # bit: exactly 0 on every odd cusp form, exactly sqrt(3/pi) on the
        # constant form
        vals = delta_coefficients(grid).values
        assert np.array_equal(vals, basis_values(grid, np.array([0.0]), np.array([1.0]))[:, 0])
        odd = grid.table.odd[:grid.n_cusp]
        assert odd.any() and np.all(vals[:grid.n_cusp][odd] == 0.0)
        assert vals[grid.n_cusp] == np.sqrt(3.0 / np.pi)


class TestAnalyze:
    def test_constant_function_hits_the_residual_direction(self, grid):
        # tall cutoff: the constant carries mass 1/y_max above any cutoff
        quad = QuadSpec(nx=48, y_panels=24, ny_per_panel=12, y_max=4000.0)
        const = np.sqrt(3.0 / np.pi)
        c = analyze(lambda x, y: np.full_like(y, const), grid, quad=quad)
        assert abs(c.values[grid.n_cusp] - 1.0) < 1e-3
        cusp = np.abs(c.values[:grid.n_cusp])
        assert float(np.max(cusp)) < 1e-4

    def test_cusp_form_projects_onto_itself(self, grid):
        idx = next(i for i in range(grid.n_cusp) if not grid.table.odd[i])
        c = analyze(lambda x, y: grid.table(np.array([idx]), x, y)[0], grid)
        assert abs(c.values[idx] - 1.0) < 1e-3
        assert abs(c.values[grid.n_cusp]) < 1e-3

    def test_linearity(self, grid):
        quad = QuadSpec(nx=32, y_panels=4, ny_per_panel=8, y_max=6.0)

        def f(x, y):
            return np.exp(-((y - 1.4) ** 2 + x * x))

        def g(x, y):
            return np.cos(2.0 * np.pi * x) * np.exp(-y)

        a, b = 0.7, -1.3
        combo = analyze(lambda x, y: a * f(x, y) + b * g(x, y), grid, quad=quad)
        parts = a * analyze(f, grid, quad=quad).values \
            + b * analyze(g, grid, quad=quad).values
        scale = float(np.max(np.abs(parts)))
        assert float(np.max(np.abs(combo.values - parts))) < 1e-12 * scale

    def test_mass_warning_above_cutoff(self, tiny_grid):
        quad = QuadSpec(nx=16, y_panels=4, ny_per_panel=8, y_max=8.0)
        with pytest.warns(UserWarning, match="height cutoff"):
            analyze(lambda x, y: np.ones_like(y), tiny_grid, quad=quad)


class TestSobolevSuite:
    def test_worst_excess_is_measured(self, grid):
        # every draw sits strictly inside these four bounds, so the reported
        # worst excess over the draws is negative, not a floor at zero
        measured = {c.name: c.measured for c in sobolev_suite(grid)}
        for name in ("resolvent bound ||(M-C)^-1 f|| <= ||f||/C",
                     "resolvent bound C ||(M-C)^-1 f|| / ||f|| <= 1",
                     "scale nesting ||f||_{s-1} <= ||f||_s",
                     "pairing Cauchy-Schwarz across dual indices"):
            assert measured[name] < 0.0, name
