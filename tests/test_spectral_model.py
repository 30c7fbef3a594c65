import time
import tracemalloc

import numpy as np
import pytest

from autoheat import special
from autoheat.config import RunConfig
from autoheat.forms import _ENTRY_BLOCK, BasisTable, load_maass_data
from autoheat.sobolev import basis_values
from autoheat.special import ZETA_LINE_T_MAX
from autoheat.spectral_model import NODES_MAX, build_grid, eisenstein_nodes


class TestEigenvalue:
    def test_residual_is_harmonic(self, grid):
        assert grid.lambdas[grid.n_cusp] == 0.0

    def test_eisenstein_bottom_of_spectrum(self, grid):
        # lambda = -(1/4 + r^2) on the nodes: the continuum lies below -1/4
        r = grid.table.bank.r[grid.n_cusp:]
        lam = grid.lambdas[grid.n_cusp + 1:]
        assert np.array_equal(lam, -(0.25 + r * r))
        assert np.all(lam < -0.25)

    def test_cuspidal_from_ingested_parameter(self, grid):
        # lowest form: r = 9.53369526135...; lambda = -(1/4 + r^2)
        r, lam = grid.table.bank.r[0], grid.lambdas[0]
        assert abs(r - 9.53369526135) < 1e-9
        assert abs(lam + (0.25 + r ** 2)) == 0.0
        assert abs(lam + 91.1413) < 2e-4


class TestSobolevWeight:
    # the weight (1 - lambda)^s of index s, as sobolev_norm applies it

    def test_residual_weight_is_one(self, grid):
        for s in (-6, -1, 0, 3, 12):
            assert (1.0 - grid.lambdas[grid.n_cusp]) ** s == 1.0

    def test_eisenstein_inverse_square(self, grid):
        r = grid.table.bank.r[grid.n_cusp:]
        weight = (1.0 - grid.lambdas[grid.n_cusp + 1:]) ** -2
        assert np.max(np.abs(weight * (1.25 + r * r) ** 2 - 1.0)) < 1e-15

    def test_cuspidal_squared_shift(self, grid):
        r, weight = grid.table.bank.r[0], (1.0 - grid.lambdas[0]) ** 2
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
        assert len(tiny_grid.table.bank.r) == 2 * 8
        assert tiny_grid.size == 17

    def test_table_holds_the_sorted_forms(self, grid, dataset, forms_of):
        # the table is the grid's one record of the forms: each one's r,
        # parity and coefficients, bit for bit, in increasing r
        for held, form in zip(forms_of(grid), sorted(dataset, key=lambda f: f.r), strict=True):
            assert (held.r, held.parity) == (form.r, form.parity)
            assert np.array_equal(held.coeffs, form.coeffs)

    def test_weights_reproduce_folded_measure(self, tiny_grid, grid):
        # Gauss-Legendre is exact on constants panel by panel
        for g in (tiny_grid, grid):
            total = float(np.sum(g.weights[g.n_cusp + 1:]))
            assert abs(total - g.r_max / (2.0 * np.pi)) < 1e-12

    def test_duplicate_parameters_rejected(self, dataset):
        doubled = [dataset[0], dataset[0]]
        with pytest.raises(ValueError, match="duplicate"):
            build_grid(doubled, r_max=10.0, panels=2, nodes_per_panel=8)

    def test_bad_arguments_rejected(self):
        for r_max in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="r_max must be positive and finite"):
                build_grid([], r_max=r_max, panels=2, nodes_per_panel=8)
        with pytest.raises(ValueError):
            build_grid([], r_max=10.0, panels=0, nodes_per_panel=8)
        with pytest.raises(ValueError, match="nodes_per_panel must be at least 1, got 0"):
            build_grid([], r_max=10.0, panels=2, nodes_per_panel=0)

    @pytest.mark.parametrize("r_max, panels, nodes, message", [
        (12.0, 100000, 32, "100000 panels of 32 nodes make 3200000 Eisenstein nodes, "
                           "over the limit NODES_MAX = 2048"),
        (12.0, 5, 5000, "5 panels of 5000 nodes make 25000 Eisenstein nodes"),
        (12.0, 2049, 1, "2049 Eisenstein nodes, over the limit"),
        (60.0, 5, 32, "r_max=60 puts the top Eisenstein node at r = 59.9836, past r = 50"),
    ])
    def test_unbuildable_grid_refused_before_any_fit(self, r_max, panels, nodes, message,
                                                     dataset, monkeypatch):
        # too many nodes to fit, or a top node past xi_line's range: refused
        # at once, with no quadrature run and no panel allocated
        monkeypatch.setattr(special, "kbessel_quad", None)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            build_grid(dataset, r_max=r_max, panels=panels, nodes_per_panel=nodes)
        assert time.perf_counter() - t0 < 0.5

    def test_fine_grid_is_within_both_limits(self):
        # the finest grid planned so far, r_max 44 in 44 panels of 32 nodes
        # (1 408), passes the node count and xi_line's range
        assert 44 * 32 <= NODES_MAX
        assert 2.0 * eisenstein_nodes(44.0, 44, 32)[0][-1] <= ZETA_LINE_T_MAX

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
        assert grid.lambdas[grid.n_cusp] == 0.0
        assert np.all(grid.lambdas <= 0.0)
        assert np.all(grid.weights[:grid.n_cusp + 1] == 1.0)
        assert np.all(grid.weights[grid.n_cusp + 1:] > 0.0)
        assert np.all(np.diff(grid.table.bank.r[grid.n_cusp:]) > 0.0)


class TestKBesselBanks:
    def test_fresh_default_grid_runs_one_quadrature_fill_per_bank(self, monkeypatch):
        # loading the data parses it and fits nothing; building the default
        # grid fits the 22 cusp rows, which its data check needs, in one
        # quadrature call, and leaves every Eisenstein row to its first use
        calls = []
        kbessel_quad = special.kbessel_quad

        def counting(r, x):
            calls.append(np.size(x))
            return kbessel_quad(r, x)

        monkeypatch.setattr(special, "kbessel_quad", counting)
        cfg = RunConfig()
        data = load_maass_data(cfg.resolve_data_path())
        assert len(calls) == 0
        grid = build_grid(data, cfg.r_max, cfg.panels, cfg.nodes_per_panel)
        bank, n = grid.table.bank, grid.n_cusp
        assert n == 22 and np.array_equal(bank.fitted, np.arange(len(bank.r)) < n)
        assert calls == [int(np.sum(bank.deg[:n] + 1)) + 257 * n] == [15526]

    def test_fitting_every_row_bounds_its_traced_memory(self):
        # building the default grid and fitting all 182 rows (the column at i)
        # peaks at ~11.3 MiB of traced allocations in calls of 24 rows, and at
        # ~19.5 MiB in calls of 128: the quadrature's arrays grow with the rows
        # per call (tracemalloc counts numpy's buffers, whatever the heap layout)
        cfg = RunConfig()
        data = load_maass_data(cfg.resolve_data_path())
        tracemalloc.start()
        try:
            grid = build_grid(data, cfg.r_max, cfg.panels, cfg.nodes_per_panel)
            grid.basis_at_i()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.table.bank.fitted.all() and len(grid.table.bank.r) == 182
        assert peak < 14 * 2 ** 20

    def test_rows_are_independent(self, grid):
        # every row of the default grid's bank, fitted as the grid uses it,
        # with all the others, with all of them in reversed order, or in a
        # random half, holds the panels of a one-row bank of its r, bit for bit
        r, p = grid.table.bank.r, special._PANELS
        ones = [special.KBesselBank(r[j:j + 1], 2.0) for j in range(len(r))]
        for one in ones:
            one(0, 2.0)
        whole, backward, half = (special.KBesselBank(rs, 2.0) for rs in (r, r[::-1], r))
        for bank in (grid.table.bank, whole, backward):
            bank(np.arange(len(r)), 2.0)
        assert np.array_equal(grid.table.bank._panels, whole._panels)
        some = np.sort(np.random.default_rng(32).permutation(len(r))[:len(r) // 2])
        half(some, 2.0)
        assert np.array_equal(np.flatnonzero(half.fitted), some)
        for bank, rows in ((whole, range(len(r))), (half, some)):
            for j in rows:
                assert np.array_equal(bank._panels[:, j * p:(j + 1) * p], ones[j]._panels)
        for j in range(len(r)):
            k = len(r) - 1 - j
            assert np.array_equal(backward._panels[:, k * p:(k + 1) * p], ones[j]._panels)

    def test_bank_values_equal_one_row_banks(self, grid):
        # the grid's one bank answers each row of each family with the bits
        # of a one-row bank over the whole range [2, fit_hi], and refuses an
        # argument past a row's fit_hi with that row's r
        bank, n = grid.table.bank, grid.n_cusp
        rng = np.random.default_rng(31)
        for family in (np.arange(n), np.arange(n, len(bank.r), 8)):
            rows = rng.choice(family, 400)
            x = np.exp(rng.uniform(np.log(2.0), np.log(bank.fit_hi[rows])))
            x[:2] = 2.0, bank.fit_hi[rows[1]]  # both ends of the range
            ones = {j: special.KBesselBank(bank.r[j:j + 1], 2.0) for j in np.unique(rows)}
            want = np.array([ones[j](0, xk)[0] for j, xk in zip(rows, x)])
            assert np.array_equal(bank(rows, x), want)
            past = np.append(x, bank.fit_hi[rows[0]] + 1e-9)
            with pytest.raises(ValueError, match=f"of the row r={bank.r[rows[0]]}"):
                bank(np.append(rows, rows[0]), past)

    @pytest.mark.parametrize("which", ["grid", "tiny_grid", "residual_only_grid"])
    def test_basis_rows_equal_family_evaluations(self, which, request, forms_of):
        # the one Fourier sum over both families gives, bit for bit, the rows
        # of a table of the cusp forms alone and of a table of the nodes
        # alone, from the arc floor to y ~ 1e3, with gaps in both families'
        # live rows: no row's value depends on the rows evaluated beside it
        grid = request.getfixturevalue(which)
        forms_only = BasisTable(forms_of(grid), ())
        nodes_only = BasisTable((), grid.table.bank.r[grid.n_cusp:])
        rng = np.random.default_rng(37)
        x = rng.uniform(-0.5, 0.5, 60)
        y = np.sqrt(1.0 - x * x) * np.exp(rng.uniform(0.0, np.log(1150.0), 60))
        n = grid.n_cusp
        for live in (np.ones(grid.size, dtype=bool), rng.random(grid.size) < 0.5):
            cusp, eis = np.flatnonzero(live[:n]), np.flatnonzero(live[n + 1:])
            rows = grid.basis_rows(x, y, live)
            assert np.array_equal(rows[cusp], forms_only(cusp, x, y))
            assert np.array_equal(rows[n + 1 + eis], nodes_only(eis, x, y))
            assert not rows[~live].any()

    def test_row_subsets_equal_rows_of_the_whole(self, grid):
        # a live set with gaps inside both families (the cusp forms and the
        # Eisenstein nodes) gives, bit for bit, those rows of the all-rows call
        rng = np.random.default_rng(23)
        x = rng.uniform(-0.5, 0.5, 40)
        y = np.sqrt(1.0 - x * x) + rng.uniform(0.0, 2.0, 40) ** 2
        live = rng.random(grid.size) < 0.5
        for family in (live[:grid.n_cusp], live[grid.n_cusp + 1:]):
            assert not family[:family.sum()].all()  # not a prefix of the family
        whole = grid.basis_rows(x, y, np.ones(grid.size, dtype=bool))
        part = grid.basis_rows(x, y, live)
        assert np.array_equal(part[live], whole[live])
        assert not part[~live].any()

    def test_blocked_basis_equals_per_block_values(self, grid):
        # an array spanning several entry blocks, from the arc (the most
        # Fourier terms) into the cusp, gives bit for bit the values of its
        # parts evaluated apart and of single points
        rng = np.random.default_rng(17)
        n = 400
        x = rng.uniform(-0.5, 0.5, n)
        y = np.sqrt(1.0 - x * x) + rng.uniform(0.0, 3.0, n) ** 2
        per_point = np.sum(grid.table.bank.r[grid.n_cusp:] + 45.0) / (2.0 * np.pi * y)
        assert per_point.sum() > 3 * _ENTRY_BLOCK
        whole = basis_values(grid, x, y)
        cuts = (0, 150, 151, 330, n)
        parts = [basis_values(grid, x[a:b], y[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))
        for k in (0, 149, 150, 151, 330, n - 1):
            assert np.array_equal(whole[:, k], basis_values(grid, x[k:k + 1], y[k:k + 1])[:, 0])

    # e^{pi r/2} K_{ir}(x) from mpmath.besselk at 40 digits, at seeded rows and
    # log-uniform x in [2, fit_hi] of each family of the default grid's bank:
    # (row within the family, r, x, value)
    BANK_REFERENCE = {
        "cusp": [
            (1, 12.1730083246798, 24.792255, 4.347674396315854e-5),
            (2, 13.7797513518907, 39.428279, 3.408909414347494e-10),
            (3, 14.35850951826, 6.46139, 5.228390762950733e-1),
            (5, 16.6442592018997, 9.009958, 5.104952520159541e-1),
            (7, 18.1809178345236, 16.281403, 8.214589561709005e-1),
            (7, 18.1809178345236, 62.572866, 1.908916081511406e-17),
            (7, 18.1809178345236, 52.858249, 2.107710661366186e-13),
            (11, 21.3157959402045, 2.464926, 2.821879561814837e-1),
            (11, 21.3157959402045, 30.79378, 1.702267424143597e-3),
            (13, 22.1946739775726, 3.518865, -2.229670372073369e-1),
            (13, 22.1946739775726, 5.41122, 2.566745850055104e-1),
            (14, 22.7859084941902, 16.296811, -6.190340579695704e-1),
            (15, 23.2013961812267, 33.083294, 1.44575609090542e-3),
            (16, 23.2637115379391, 3.734329, -5.102617418023752e-1),
            (18, 24.419715442326, 57.086771, 6.334749049602025e-12),
            (18, 24.419715442326, 7.051328, -4.353442545768885e-1),
            (18, 24.419715442326, 41.342993, 6.350015675882359e-6),
            (18, 24.419715442326, 51.277774, 1.207385539441874e-9),
            (20, 26.152085449222, 4.584323, 3.53647221797945e-1),
            (21, 26.4469964180473, 3.630893, 4.749233072697795e-1),
        ],
        "eisenstein": [
            (13, 0.9128551652974355, 5.608153, 7.447018979629961e-3),
            (23, 1.9956531203162582, 4.433859, 1.047862919628611e-1),
            (25, 2.153380555161531, 30.099491, 5.260708762189056e-13),
            (47, 3.5420308011747137, 23.659169, 2.735807405516863e-9),
            (50, 3.887144834702564, 32.642723, 5.195235593317652e-13),
            (51, 3.9982423227385526, 12.190864, 5.102745535184478e-4),
            (56, 4.478618542488348, 36.16777, 3.517744143598873e-14),
            (87, 6.795653120316258, 3.081232, -9.70861799272788e-1),
            (90, 7.019241136479084, 37.852228, 2.383720928803444e-13),
            (92, 7.1218872911252875, 6.891315, 8.158250108598633e-1),
            (102, 7.446619444838469, 7.995631, 5.338211695238551e-1),
            (113, 8.573366353899356, 33.188202, 1.971307079430434e-10),
            (113, 8.573366353899356, 23.28221, 2.958061641502247e-6),
            (125, 9.557714706705008, 2.391595, -8.005249826960521e-1),
            (126, 9.582733813854322, 4.715918, -7.568837019520133e-1),
            (134, 9.846619444838469, 45.9268, 3.820653550826481e-15),
            (140, 10.401757677261445, 2.860925, -7.744693307877075e-1),
            (140, 10.401757677261445, 23.465803, 2.086031720347129e-5),
            (144, 10.857969198825286, 5.386477, -4.215648658881119e-1),
            (159, 11.996716634219377, 7.718559, -4.280863210224688e-1),
        ],
    }

    @pytest.mark.parametrize("family", ["cusp", "eisenstein"])
    def test_bank_values_match_frozen_mpmath_references(self, grid, family):
        # the panel evaluation callers get, against the Bessel function itself
        bank = grid.table.bank
        rows, r, x, want = (np.array(c) for c in zip(*self.BANK_REFERENCE[family]))
        rows += 0 if family == "cusp" else grid.n_cusp
        assert np.max(np.abs(bank.r[rows] - r)) < 1e-12
        assert np.max(np.abs(bank(rows, x) - want)) < 1e-11

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

    def test_grid_rows_match_one_row_evaluators(self, grid, forms_of):
        # the grid's table against one table per r: the same functions,
        # through separately built banks and Fourier sums
        x = np.array([0.0, 0.25, -0.41, 0.5, 0.07])
        y = np.array([1.0, 1.3, 0.92, 2.4, 6.0])
        rows = basis_values(grid, x, y)
        for i, form in enumerate(forms_of(grid)):
            single = BasisTable([form], ())(np.array([0]), x, y)[0]
            assert np.max(np.abs(rows[i] - single)) <= 1e-10 * max(1.0, np.max(np.abs(single)))
        for j, r in enumerate(grid.table.bank.r[grid.n_cusp:]):
            single = BasisTable((), (r,))(np.array([0]), x, y)[0]
            row = rows[grid.n_cusp + 1 + j]
            assert np.max(np.abs(row - single)) <= 1e-10 * max(1.0, np.max(np.abs(single)))
