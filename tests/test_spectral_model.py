import numpy as np
import pytest

from autoheat import special
from autoheat.config import RunConfig
from autoheat.forms import _ENTRY_BLOCK, EisensteinEvaluator, load_maass_data, maass_values
from autoheat.sobolev import basis_values
from autoheat.spectral_model import build_grid, eisenstein_nodes


class TestEigenvalue:
    def test_residual_is_harmonic(self, grid):
        assert grid.lambdas[grid.residual_index] == 0.0

    def test_eisenstein_bottom_of_spectrum(self, grid):
        # lambda = -(1/4 + r^2) on the nodes: the continuum lies below -1/4
        r = grid.eisenstein_r
        lam = grid.lambdas[grid.residual_index + 1:]
        assert np.array_equal(lam, -(0.25 + r * r))
        assert np.all(lam < -0.25)

    def test_cuspidal_from_ingested_parameter(self, grid):
        # lowest form: r = 9.53369526135...; lambda = -(1/4 + r^2)
        r, lam = grid.cusp_forms[0].r, grid.lambdas[0]
        assert abs(r - 9.53369526135) < 1e-9
        assert abs(lam + (0.25 + r ** 2)) == 0.0
        assert abs(lam + 91.1413) < 2e-4


class TestSobolevWeight:
    # the weight (1 - lambda)^s of index s, as sobolev_norm applies it

    def test_residual_weight_is_one(self, grid):
        for s in (-6, -1, 0, 3, 12):
            assert (1.0 - grid.lambdas[grid.residual_index]) ** s == 1.0

    def test_eisenstein_inverse_square(self, grid):
        r = grid.eisenstein_r
        weight = (1.0 - grid.lambdas[grid.residual_index + 1:]) ** -2
        assert np.max(np.abs(weight * (1.25 + r * r) ** 2 - 1.0)) < 1e-15

    def test_cuspidal_squared_shift(self, grid):
        r, weight = grid.cusp_forms[0].r, (1.0 - grid.lambdas[0]) ** 2
        expected = (1.0 + 0.25 + r ** 2) ** 2
        assert abs(weight - expected) < 1e-9 * expected
        assert abs(weight - 8490.0) < 1.0

    def test_duality_and_recurrence(self, grid):
        shift = 1.0 - grid.lambdas
        for s in (-4, -1, 0, 2, 5):
            assert np.max(np.abs(shift ** s * shift ** -s - 1.0)) < 1e-14
            rhs = shift ** s * shift ** 2
            assert np.all(np.abs(shift ** (s + 2) - rhs) <= 1e-12 * rhs)


class TestBuildGrid:
    def test_structure_without_cusp_forms(self, tiny_grid):
        assert tiny_grid.n_cusp == 0
        assert tiny_grid.n_eisenstein == 2 * 8
        assert tiny_grid.size == 17

    def test_weights_reproduce_folded_measure(self, tiny_grid, grid):
        # Gauss-Legendre is exact on constants panel by panel
        for g in (tiny_grid, grid):
            total = float(np.sum(g.eisenstein_w))
            assert abs(total - g.r_max / (2.0 * np.pi)) < 1e-12

    def test_duplicate_parameters_rejected(self, dataset):
        doubled = [dataset[0], dataset[0]]
        with pytest.raises(ValueError, match="duplicate"):
            build_grid(doubled, r_max=10.0, panels=2, nodes_per_panel=8)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            build_grid([], r_max=-1.0, panels=2)
        with pytest.raises(ValueError):
            build_grid([], r_max=10.0, panels=0)

    def test_refinement_stability(self):
        # doubling panel count moves a smooth quadrature by < the declared tol
        def g(r):
            return np.exp(-r * r / 3.0) * np.cos(r)

        r1, w1 = eisenstein_nodes(10.0, panels=4, nodes_per_panel=32)
        r2, w2 = eisenstein_nodes(10.0, panels=8, nodes_per_panel=32)
        a = float(np.sum(w1 * g(r1)))
        b = float(np.sum(w2 * g(r2)))
        assert abs(a - b) < 1e-12

    def test_lambda_and_weight_layout(self, grid):
        assert grid.lambdas[grid.residual_index] == 0.0
        assert np.all(grid.lambdas <= 0.0)
        assert np.all(grid.weights[:grid.residual_index + 1] == 1.0)
        assert np.all(grid.weights[grid.residual_index + 1:] > 0.0)
        assert np.all(np.diff(grid.eisenstein_r) > 0.0)


class TestKBesselBanks:
    def test_fresh_default_grid_makes_two_ode_solves(self, monkeypatch):
        # one stacked solve for the cusp forms, one for the Eisenstein nodes;
        # the data load and the grid build share the cusp forms' bank
        calls = []
        solve_ivp = special.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(special, "solve_ivp", counting)
        special.kbessel_bank.cache_clear()
        cfg = RunConfig()
        build_grid(load_maass_data(cfg.resolve_data_path()), cfg.r_max, cfg.panels,
                   cfg.nodes_per_panel)
        assert len(calls) == 2

    def test_blocked_basis_equals_per_block_values(self, grid):
        # an array spanning several entry blocks, from the arc (the most
        # Fourier terms) into the cusp, gives bit for bit the values of its
        # parts evaluated apart and of single points
        rng = np.random.default_rng(17)
        n = 400
        x = rng.uniform(-0.5, 0.5, n)
        y = np.sqrt(1.0 - x * x) + rng.uniform(0.0, 3.0, n) ** 2
        per_point = np.sum(grid.eisenstein_r + 45.0) / (2.0 * np.pi * y)
        assert per_point.sum() > 3 * _ENTRY_BLOCK
        whole = basis_values(grid, x, y)
        cuts = (0, 150, 151, 330, n)
        parts = [basis_values(grid, x[a:b], y[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))
        for k in (0, 149, 150, 151, 330, n - 1):
            assert np.array_equal(whole[:, k], basis_values(grid, x[k:k + 1], y[k:k + 1])[:, 0])

    def test_dense_replay_equals_ode_solution(self, grid, monkeypatch):
        # the bank keeps only each row's own component of scipy's DOP853
        # interpolants and replays them; sampled entries of both default
        # banks, at step endpoints, x_min and near the seed, must equal what
        # the full solution object gives, bit for bit
        sols = []
        solve_ivp = special.solve_ivp

        def capturing(*args, **kwargs):
            sols.append(solve_ivp(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(special, "solve_ivp", capturing)
        rng = np.random.default_rng(23)
        for bank in (grid.cusp_bank, grid.eisenstein.bank):
            fresh = special.KBesselBank(bank.r, bank.x_min)
            assert np.array_equal(fresh._coef_t, bank._coef_t)
            sol = sols[-1]
            seed, x_min = fresh.x_seed, fresh.x_min
            x = np.concatenate((sol.t, [x_min, x_min * (1.0 + 1e-12), seed, seed - 1e-9,
                                        seed - 0.5], rng.uniform(x_min, seed, 400)))
            rows = rng.integers(0, len(fresh.r), len(x))
            want = np.exp(np.pi * fresh.r[rows] / 2.0 - x) * sol.sol(x)[rows, np.arange(len(x))]
            assert np.array_equal(fresh._dense(rows, x), want)

    def test_height_sorted_sums_equal_single_points(self, grid):
        # shuffled points with repeated heights and +-x pairs: each basis
        # column is bit for bit the column of its point evaluated alone
        rng = np.random.default_rng(29)
        heights = np.array([0.95, 1.0, 1.3, 2.4, 6.0])
        x = np.concatenate([np.concatenate((xs, -xs)) for xs in
                            (rng.uniform(np.sqrt(max(0.0, 1.0 - h * h)), 0.5, 3) for h in heights)])
        y = np.repeat(heights, 6)
        perm = rng.permutation(len(x))
        x, y = x[perm], y[perm]
        whole = basis_values(grid, x, y)
        for k in range(len(x)):
            assert np.array_equal(whole[:, k], basis_values(grid, x[k:k + 1], y[k:k + 1])[:, 0])

    def test_grid_rows_match_one_row_evaluators(self, grid):
        # the family banks against one bank per r: seeds, ODE steps and
        # Chebyshev blocks all differ, the functions must not
        x = np.array([0.0, 0.25, -0.41, 0.5, 0.07])
        y = np.array([1.0, 1.3, 0.92, 2.4, 6.0])
        rows = basis_values(grid, x, y)
        for i, form in enumerate(grid.cusp_forms):
            single = maass_values(form, x, y)
            assert np.max(np.abs(rows[i] - single)) <= 1e-10 * max(1.0, np.max(np.abs(single)))
        for j, r in enumerate(grid.eisenstein_r):
            single = EisensteinEvaluator(float(r)).unitary_values(x, y)
            row = rows[grid.n_cusp + 1 + j]
            assert np.max(np.abs(row - single)) <= 1e-10 * max(1.0, np.max(np.abs(single)))
