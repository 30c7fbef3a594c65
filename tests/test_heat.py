import numpy as np
import pytest

from autoheat.heat import (
    HeatState,
    _damping,
    euler_error,
    heat_coefficients,
    heat_equation_residual,
    initial_condition_gap,
    profile,
    resolvent_laplace_defect,
    semigroup_apply,
    uniqueness_gap,
)
from autoheat.sobolev import (
    NEGLIGIBLE,
    CoeffFn,
    _not_negligible,
    apply_generator,
    delta_coefficients,
    sobolev_norm,
)

RNG = np.random.default_rng(2024)


def rand_fn(grid):
    return CoeffFn(grid, RNG.standard_normal(grid.size)
                   + 1j * RNG.standard_normal(grid.size))


class TestHeatCoefficients:
    def test_time_zero_is_the_delta_data(self, grid):
        state = heat_coefficients(0.0, grid)
        assert np.array_equal(state.coeffs.values, delta_coefficients(grid).values)

    def test_residual_entry_constant_in_time(self, grid):
        for t in (0.1, 1.0, 7.0):
            state = heat_coefficients(t, grid)
            assert abs(state.coeffs.values[grid.n_cusp]
                       - np.sqrt(3.0 / np.pi)) < 1e-14

    def test_cusp_entries_numerically_dead_by_time_one(self, grid):
        # lowest eigenvalue ~ -91.14: the damping alone is < 1e-39
        state = heat_coefficients(1.0, grid)
        base = delta_coefficients(grid)
        for i in range(grid.n_cusp):
            if base.values[i] != 0.0:
                ratio = abs(state.coeffs.values[i]) / abs(base.values[i])
                assert ratio < 1e-39

    def test_negative_time_rejected(self, grid):
        with pytest.raises(ValueError):
            heat_coefficients(-0.5, grid)

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.2, 0.35, 0.5, 1.0, 2.0, 4.0, 4.9, 8.0,
                                   1e3, 2.8e3, 5e3, 1e308])
    def test_nodes_kept_by_the_synthesis_rule(self, t, grid):
        # sobolev._not_negligible on the upper and lower bounds keeps the
        # nodes of the expression it replaced, whose threshold fell back to
        # the least double where it underflows to 0 (from t = 2.8e3 here);
        # the heat data built from those nodes are the same bits
        n = grid.n_cusp
        lo, hi = grid.table.bounds_at_i
        damp = _damping(grid, t)
        w = grid.weights[n + 1:] * damp[n + 1:]
        threshold = NEGLIGIBLE * np.max(w * lo, initial=0.0)
        assert (threshold == 0.0) == (t >= 2.8e3)
        old = w * hi >= (threshold or 5e-324)
        assert np.array_equal(_not_negligible(w * hi, w * lo), old)
        keep = np.concatenate([np.ones(n + 1, dtype=bool), old])
        keep[-1] = True
        values = np.zeros(grid.size)
        values[keep] = grid.basis_at_i(keep) * damp[keep]
        assert np.array_equal(heat_coefficients(t, grid).coeffs.values, values)

    def test_node_weight_has_one_copy(self, fresh_grid):
        # the heat data read the node weights from grid.weights, the array
        # the synthesis multiplies by: a node whose weight is set to 0 there
        # drops out of the heat data as its term drops out of every sum
        j = fresh_grid.n_cusp + 11
        assert heat_coefficients(1.0, fresh_grid).coeffs.values[j] != 0.0
        fresh_grid.weights[j] = 0.0
        assert heat_coefficients(1.0, fresh_grid).coeffs.values[j] == 0.0

    def test_negative_time_state_refused(self, tiny_grid):
        # the state and the damping share one rule, which refuses nan and inf too
        for t in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError) as exc:
                HeatState(t, CoeffFn(tiny_grid, np.zeros(tiny_grid.size)))
            assert str(exc.value) == f"heat flow needs a finite time t >= 0, got t = {t}"

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, tiny_grid, t):
        # the damping is shared: the heat data and the semigroup both refuse
        with pytest.raises(ValueError, match="finite time"):
            heat_coefficients(t, tiny_grid)
        with pytest.raises(ValueError, match="finite time"):
            semigroup_apply(t, rand_fn(tiny_grid))


class TestSemigroup:
    def test_identity_at_zero(self, tiny_grid):
        f = rand_fn(tiny_grid)
        assert np.array_equal(semigroup_apply(0.0, f).values, f.values)

    def test_one_sided(self, tiny_grid):
        with pytest.raises(ValueError):
            semigroup_apply(-1e-9, rand_fn(tiny_grid))

    def test_composition_law(self, tiny_grid):
        for _ in range(20):
            f = rand_fn(tiny_grid)
            a = semigroup_apply(0.3, semigroup_apply(0.7, f))
            b = semigroup_apply(1.0, f)
            assert np.max(np.abs(a.values - b.values)) \
                <= 1e-13 * np.max(np.abs(b.values))

    def test_contraction(self, tiny_grid):
        for t in (0.1, 1.0, 10.0):
            for s in range(-4, 5):
                f = rand_fn(tiny_grid)
                assert sobolev_norm(semigroup_apply(t, f), s) \
                    <= sobolev_norm(f, s) * (1.0 + 1e-13)

    def test_strong_continuity_at_zero(self, tiny_grid):
        f = rand_fn(tiny_grid)
        gaps = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            gt = semigroup_apply(t, f)
            gaps.append(sobolev_norm(gt.with_values(gt.values - f.values), -2))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * gaps[0]

    def test_laplace_transform_matches_resolvent(self, tiny_grid):
        f = rand_fn(tiny_grid)
        assert resolvent_laplace_defect(1.0, f) < 0.02


class TestHeatEquationResidual:
    def test_residual_only_grid_is_stationary(self, residual_only_grid):
        assert heat_equation_residual(1.0, 1e-2, -4, residual_only_grid) < 1e-15

    def test_second_order_in_the_step(self, grid):
        r1 = heat_equation_residual(1.0, 1e-2, -4, grid)
        r2 = heat_equation_residual(1.0, 5e-3, -4, grid)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_small_step_residual_bound(self, grid):
        scale = sobolev_norm(apply_generator(heat_coefficients(1.0, grid).coeffs), -4)
        assert heat_equation_residual(1.0, 1e-3, -4, grid) <= 1e-5 * scale

    def test_step_domain(self, grid):
        with pytest.raises(ValueError):
            heat_equation_residual(1.0, 2.0, -4, grid)


class TestInitialCondition:
    def test_gap_strictly_decreasing(self, grid):
        ts = (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-4)
        gaps = [initial_condition_gap(t, grid) for t in ts]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_gap_vanishes_linearly(self, grid):
        assert initial_condition_gap(1e-4, grid) <= 1e-2 * initial_condition_gap(1.0, grid)
        bound = sobolev_norm(apply_generator(delta_coefficients(grid)), -2)
        for t in (0.1, 0.01):
            assert initial_condition_gap(t, grid) <= t * bound

    def test_gap_refused_at_time_zero(self, tiny_grid):
        with pytest.raises(ValueError) as exc:
            initial_condition_gap(0.0, tiny_grid)
        assert str(exc.value) == "the gap is defined for t > 0"

    def test_profile_rows(self, grid):
        # t = 0 is allowed for contrast: the heat data are the delta data
        rows = profile([0.0, 0.5], [0, -2], grid)
        assert rows[0][:2] == [0.0, 0.0]
        assert rows[1][:2] == [0.5, initial_condition_gap(0.5, grid)]
        assert rows[1][2:] == [sobolev_norm(heat_coefficients(0.5, grid).coeffs, s)
                               for s in (0, -2)]
        with pytest.raises(ValueError, match="t >= 0"):
            profile([-1.0], [0], grid)


class TestUniqueness:
    def test_equal_data_stay_equal(self, tiny_grid):
        f = rand_fn(tiny_grid)
        assert uniqueness_gap(f, f, 2.0, -2) == 0.0

    def test_contraction_of_differences(self, tiny_grid):
        for t in (0.1, 1.0, 10.0):
            for _ in range(20):
                f, g = rand_fn(tiny_grid), rand_fn(tiny_grid)
                init = sobolev_norm(f.with_values(f.values - g.values), -2)
                assert uniqueness_gap(f, g, t, -2) <= init * (1.0 + 1e-13)

    def test_euler_first_order_convergence(self, grid):
        e1 = euler_error(0.5, 1024, grid)
        e2 = euler_error(0.5, 2048, grid)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_data_on_two_grids_refused(self, tiny_grid, residual_only_grid):
        with pytest.raises(ValueError) as exc:
            uniqueness_gap(rand_fn(tiny_grid), rand_fn(residual_only_grid), 1.0, -2)
        assert str(exc.value) == "coefficient functions live on different grids"

    def test_euler_needs_a_step(self, tiny_grid):
        with pytest.raises(ValueError) as exc:
            euler_error(1.0, 0, tiny_grid)
        assert str(exc.value) == "at least one step"

    def test_euler_stability_guard(self, grid):
        with pytest.raises(ValueError, match="step too large"):
            euler_error(0.5, 10, grid)
