import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from autoheat.forms import (
    BasisTable,
    MaassDataError,
    MaassFormData,
    Parity,
    load_maass_data,
    parse_maass_data,
)
from autoheat import cli, forms, special
from autoheat.forms import _divisor_table, _fourier_rows, _norm_squares
from autoheat.hyperbolic import HPoint, QuadSpec
from autoheat.sobolev import basis_values
from autoheat.spectral_model import build_grid, eisenstein_nodes
from autoheat.special import gauss_rule


def _raw_unitary(r, z):
    """The unreduced one-row expansion at z."""
    return BasisTable((), (r,))(np.array([0]), [z.x], [z.y])[0, 0]


def _one_form(form, x, y):
    """The form's values at the points as given, through its own table."""
    return BasisTable([form], ())(np.array([0]), np.asarray(x, float), np.asarray(y, float))[0]


def _one_sum(form, x, y):
    """The form's Fourier sum at the points as given, on a bank of its own."""
    bank = special.KBesselBank((form.r,), 2.0)
    return _fourier_rows(bank, [0], form.coeffs[None], np.array([form.n_coeffs]),
                         np.array([form.parity is Parity.ODD]), np.asarray(x, float),
                         np.asarray(y, float))[0]


class TestEisenstein:
    def test_periodicity_unreduced(self):
        a = _raw_unitary(3.0, HPoint(0.17, 1.2))
        b = _raw_unitary(3.0, HPoint(1.17, 1.2))
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("r", [1.0, 5.0])
    def test_inversion_invariance_unreduced(self, r):
        # -1/z is not term-by-term invariant: this checks the whole expansion,
        # constant term, scattering phase, and Bessel coefficients together
        for zc in (0.3 + 1.1j, 0.15 + 0.95j, -0.41 + 0.9j):
            w = -1.0 / zc
            a = _raw_unitary(r, HPoint(zc.real, zc.imag))
            b = _raw_unitary(r, HPoint(w.real, w.imag))
            assert abs(a - b) < 1e-9

    # the unitary-frame value of E_{1/2+ir}(x + iy) from its Fourier expansion,
    # mpmath at 30 digits: (r, x, y, value).  Made by
    #
    #   import mpmath as mp
    #   mp.mp.dps = 30
    #   def unitary_eisenstein(r, x, y):
    #       r, x, y = mp.mpf(r), mp.mpf(x), mp.mpf(y)
    #       s = mp.mpf(1) / 2 + 1j * r
    #       xi = mp.pi ** (-s) * mp.gamma(s) * mp.zeta(2 * s)  # xi(2s) = xi(1 + 2ir)
    #       val = 2 * mp.sqrt(y) * mp.cos(r * mp.log(y) + mp.arg(xi))
    #       n = 1
    #       while 2 * mp.pi * n * y < r + 90:
    #           sigma = mp.fsum(mp.cos(r * mp.log(mp.mpf(n) / d ** 2))
    #                           for d in range(1, n + 1) if n % d == 0)
    #           val += (4 * mp.sqrt(y) / abs(xi)) * sigma \
    #               * mp.re(mp.besselk(1j * r, 2 * mp.pi * n * y)) * mp.cos(2 * mp.pi * n * x)
    #           n += 1
    #       return val
    #
    # where sigma is n^{ir} sigma_{-2ir}(n) = sum_{d | n} (n/d^2)^{ir}, real.
    EISENSTEIN_REFERENCE = [
        (0.9, 0.0, 1.0, -1.6923857008135766),
        (1.7, 0.3, 0.96, -1.8923980216606292),
        (3.2, -0.45, 0.9, -2.2047738758981272),
        (5.5, 0.5, 0.8660254037844386, -3.4132493559006899),
        (7.3, 0.0, 1.45, 0.20283261289256439),
        (9.1, 0.21, 2.2, 0.7290974260538956),
        (10.6, -0.13, 1.12, -1.7662930985172671),
        (12.0, 0.37, 3.0, -0.87604466653164381),
    ]

    def test_rows_match_frozen_mpmath_references(self):
        # one node per reference point, from the arc floor to y = 3, on and
        # off x = 0 (measured at most 1.6e-14)
        r, x, y, want = (np.array(c) for c in zip(*self.EISENSTEIN_REFERENCE))
        got = np.diag(BasisTable((), r)(np.arange(len(r)), x, y))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_heights_beyond_the_multipliers_rejected(self):
        # r = 9 at y = 0.1 needs ceil(54 / (0.2 pi)) = 86 > 72 multipliers
        with pytest.raises(ValueError, match="outside the evaluator's domain"):
            _raw_unitary(9.0, HPoint(0.1, 0.1))

    def test_divisor_table_matches_the_divisor_loop(self):
        # the loop it replaced: the same terms added in the same order
        def divisor_cos(n, r):
            total, d = 0.0, 1
            while d * d <= n:
                if n % d == 0:
                    e = n // d
                    total += math.cos(r * math.log(e / d))
                    if e != d:
                        total += math.cos(r * math.log(d / e))
                d += 1
            return total

        rs = np.array([0.3, 1.0, 7.07, 12.0, 26.45, 40.0])
        loop = np.array([[divisor_cos(n, float(r)) for n in range(1, 73)] for r in rs])
        assert np.array_equal(_divisor_table(rs, 72), loop)

    def test_fold_equals_unfold(self):
        # folded (1/2pi) int_0^R g |E(i)|^2 dr against the symmetric
        # (1/4pi) int_{-R}^{R} version on an independent node set; evenness
        # in r comes from reality/unitarity of the normalized values.  Each
        # node set is one BasisTable over |r|.
        r_cut = 6.0

        def integral(edges, scale):
            edges = np.array(edges)
            rs, ws = (a.ravel() for a in gauss_rule(0.5 * (edges[1:] + edges[:-1]),
                                                    0.5 * (edges[1:] - edges[:-1]), 48))
            at_i = BasisTable((), np.abs(rs))(np.arange(len(rs)), [0.0], [1.0])[:, 0]
            density = np.exp(-rs * rs / 8.0) * at_i ** 2
            return float(np.sum(ws * density)) / scale

        folded = integral([0.0, 2.0, 4.0, r_cut], 2.0 * np.pi)
        unfolded = integral([-r_cut, -3.0, 0.0, 3.0, r_cut], 4.0 * np.pi)
        assert abs(folded - unfolded) < 1e-9 * abs(folded)


class TestMaass:
    def test_odd_forms_vanish_on_the_imaginary_axis(self, dataset):
        odd = next(f for f in dataset if f.parity is Parity.ODD)
        assert not _one_form(odd, [0.0, 0.0], [1.37, 1.0]).any()

    def test_periodicity(self, dataset):
        form = next(f for f in dataset if f.parity is Parity.EVEN)
        a, b = _one_form(form, [0.13, 1.13], [1.21, 1.21])
        assert abs(a - b) < 1e-12

    def test_inversion_invariance_unreduced(self, dataset):
        form = next(f for f in dataset if f.parity is Parity.EVEN)
        for zc in (0.31 + 0.87j, 0.11 + 1.02j):
            w = -1.0 / zc
            a, b = _one_form(form, [zc.real, w.real], [zc.imag, w.imag])
            assert abs(a - b) < 1e-8

    def test_truncation_guard(self):
        form = MaassFormData(r=40.0, parity=Parity.EVEN,
                             coeffs=np.concatenate([[1.0], np.zeros(9)]))
        with pytest.raises(ValueError, match="too few"):
            _one_sum(form, [0.0], [0.9])

    def test_short_expansion_refused_where_a_term_would_drop(self):
        # 10 coefficients at r = 34 reach 2 pi N y = 54.4 at the domain's
        # floor, but the terms run to 2 pi n y <= r + 45: n = 11 alone adds
        # Ktilde_{34i}(59.85) ~ 1.4e-8.  At y = 1.3 ten terms suffice.
        form = MaassFormData(r=34.0, parity=Parity.EVEN,
                             coeffs=np.concatenate([[1.0], np.full(9, 0.1)]))
        with pytest.raises(ValueError, match="too few"):
            _one_sum(form, [0.0], [math.sqrt(3.0) / 2.0])
        assert np.isfinite(_one_sum(form, [0.0], [1.3])[0])

    def test_norms_against_refined_rules(self, grid, forms_of):
        # the Parseval-plus-cap rule against itself at doubled node counts
        # (measured 8.9e-16; the former 2-D rule is 1.6e-13 off) and, on
        # three forms (both parities, lowest and highest r), against a fine
        # 2-D rule over the whole domain (measured <= 2.1e-14 there, 5.4e-14
        # over all forms)
        dataset = forms_of(grid)
        norm_sq = grid.table.norm ** -2.0
        doubled = _norm_squares(grid.table, ny=64, nphi=64, nx=64)
        assert np.max(np.abs(norm_sq / doubled - 1.0)) < 5e-15
        rows = [0, 2, len(dataset) - 1]
        x, y, w = QuadSpec(nx=192, y_panels=12, ny_per_panel=24, y_max=10.0).nodes()
        vals = np.array([_one_sum(dataset[i], x, y) for i in rows]) * np.sqrt(y)
        assert np.max(np.abs(norm_sq[rows] / ((vals * vals) @ w) - 1.0)) < 1e-13

    def test_table_norms_are_the_grids(self, grid, forms_of):
        # a table of the forms alone normalizes and checks them with the
        # grid's bits: its cusp rows are fitted alone in both
        table = BasisTable(forms_of(grid), ())
        assert np.array_equal(grid.table.norm[:grid.n_cusp], table.norm)
        assert np.array_equal(grid.table.hecke, table.hecke)
        assert np.array_equal(grid.table.inversion, table.inversion)

    def test_degenerate_norm_refused(self, dataset):
        # a NaN coefficient is refused by the record itself; finite
        # coefficients whose squares overflow still leave no L2 norm
        with pytest.raises(ValueError, match="Fourier coefficients must be finite"):
            MaassFormData(r=dataset[0].r, parity=dataset[0].parity,
                          coeffs=np.concatenate([[1.0], np.full(39, np.nan)]))
        huge = MaassFormData(r=dataset[0].r, parity=dataset[0].parity,
                             coeffs=np.concatenate([[1.0], np.full(39, 1e160)]))
        with pytest.raises(ValueError, match="degenerate L2 norm"), np.errstate(all="ignore"):
            BasisTable([huge], ())

    @pytest.mark.parametrize("r, coeffs", [(math.nan, [1.0] * 10), (math.inf, [1.0] * 10),
                                           (9.5, [1.0, math.inf] + [0.5] * 8)])
    def test_non_finite_record_refused(self, r, coeffs):
        with pytest.raises(ValueError, match="finite"):
            MaassFormData(r=r, parity=Parity.EVEN, coeffs=coeffs)


def _bessel_table(bank, rows, heights, n_cols=72):
    """The synthesis path's Bessel table, with its live entries as (row,
    argument) pairs for the bank's public call and its live mask."""
    rows = np.asarray(rows, dtype=np.intp)
    cut = bank.r[rows] + special.FOURIER_DECAY
    table = forms._bessel_table(bank, rows, cut, 2.0 * np.pi * np.arange(1, n_cols + 1), heights)
    arg = np.multiply.outer(heights, 2.0 * np.pi * np.arange(1, table.shape[1] + 1))
    live = arg[:, :, None] <= cut
    h, k, i = np.nonzero(live)
    return table, rows[i], arg[h, k], live


class TestBesselTable:
    """The Fourier sums take their Bessel entries from one bank call, which
    answers from the panel series on [x_min, fit_hi] and refuses anything
    past fit_hi; every value must be the one the public call gives, bit for
    bit."""

    FLOOR = math.sqrt(3.0) / 2.0  # the arc floor of the fundamental domain

    @pytest.fixture(scope="class")
    def generator_bank(self):
        # the data generator's bank reaches down to x_min = 2 pi 0.09 0.9
        return special.KBesselBank((9.53, 13.78, 19.48), x_min=2.0 * np.pi * 0.09 * 0.9)

    def _banks(self, grid, generator_bank):
        floor = np.array([self.FLOOR, 0.9, 1.0, 1.37, 2.0, 6.0])
        return ((grid.table.bank, floor),
                (generator_bank, np.array([0.081, 0.09, 0.2, 0.5, self.FLOOR])))

    def test_table_equals_the_bank_call(self, grid, generator_bank):
        for bank, heights in self._banks(grid, generator_bank):
            rows = np.arange(len(bank.r))
            table, entry_rows, args, live = _bessel_table(bank, rows, heights)
            assert np.all(args <= bank.fit_hi[entry_rows])
            assert np.array_equal(table[live], bank(entry_rows, args))
            assert live.sum() > 10 * len(rows) and not table[~live].any()
            # one more entry just past its row's fit_hi refuses the whole call
            past = np.nextafter(bank.fit_hi[0], 99.0)
            refusal = (f"argument {past} outside [{bank.x_min}, {bank.fit_hi[0]}] "
                       f"of the row r={bank.r[0]}")
            with pytest.raises(ValueError) as exc:
                bank(np.append(entry_rows, 0), np.append(args, past))
            assert str(exc.value) == refusal

    def test_every_default_row_is_in_range(self, grid):
        # the cut r + FOURIER_DECAY of the Fourier sums never passes
        # fit_hi = min(r + 50, pi r/2 + 45) in floating point, since rounding
        # is monotone; the two meet only where pi r/2 vanishes beside 45.
        # Checked on the default grid's rows, on rows at the ends of the
        # range, and at every node of grids with 1, 5 and 40 panels
        def fit_hi(r):
            return np.minimum(r + 50.0, np.pi * r / 2.0 + 45.0)

        bank = grid.table.bank
        assert np.array_equal(fit_hi(bank.r), bank.fit_hi)
        assert np.all(bank.r + special.FOURIER_DECAY < bank.fit_hi)
        ends = special.KBesselBank((0.0, 1e-300, 1e-17, 26.45, 50.0), x_min=2.0)
        assert np.array_equal(ends.r + special.FOURIER_DECAY == ends.fit_hi,
                              [True, True, True, False, False])
        for panels in (1, 5, 40):
            for r_max in (12.0, 44.0):
                r = eisenstein_nodes(r_max, panels, 32)[0]
                assert np.all(r + special.FOURIER_DECAY <= fit_hi(r))

    def test_row_out_of_range_in_floating_point_gets_the_call(self):
        # at r = 1e-17, pi r/2 + 45 rounds to 45 = r + 45: the row's cut
        # reaches its fit_hi, the right end of its panels, and the entries
        # there agree with the quadrature; every entry equals the public call
        bank = special.KBesselBank((1e-17, 5.0), x_min=2.0)
        assert bank.r[0] + special.FOURIER_DECAY == bank.fit_hi[0]
        heights = np.array([self.FLOOR, 1.3, 45.0 / (2.0 * np.pi)])
        table, entry_rows, args, live = _bessel_table(bank, [0, 1], heights)
        edge = (entry_rows == 0) & (args == bank.fit_hi[0])
        assert np.any(edge)
        quad = float(special.kbessel_quad(bank.r[0], bank.fit_hi[0]))
        assert np.all(np.abs(table[live][edge] - quad) <= 1e-15)
        assert np.array_equal(table[live], bank(entry_rows, args)) and not table[~live].any()

    def test_height_below_the_bank_domain_refused(self, grid):
        # 2 pi y < x_min = 2 below y ~ 0.318: the bank's own refusal, through
        # the forms and through the whole basis
        x, y = np.array([0.1, 0.2]), np.array([1.2, 0.3])
        refusal = (f"argument {2.0 * math.pi * 0.3} outside [2.0, {grid.table.bank.fit_hi[0]}] "
                   f"of the row r={grid.table.bank.r[0]}")
        for call in (lambda: grid.table(np.arange(grid.n_cusp), x, y),
                     lambda: basis_values(grid, x, y)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == refusal


class TestBasepoint:
    def test_residual_value_against_volume_quadrature(self):
        vol = float(np.sum(QuadSpec(nx=64, y_panels=24, ny_per_panel=12, y_max=4000.0).nodes()[2]))
        assert abs(1.0 / math.sqrt(vol) - math.sqrt(3.0 / math.pi)) < 2e-4
        assert abs(math.sqrt(3.0 / math.pi) - 0.9772050) < 1e-7

    def test_even_forms_real_at_basepoint(self, dataset):
        even = next(f for f in dataset if f.parity is Parity.EVEN)
        val = _one_form(even, [0.0], [1.0])[0]
        assert np.isfinite(val) and val != 0.0


HEADER = "#maass-sl2z v1"


def _form_block(form: MaassFormData) -> str:
    lines = [f"form r={form.r:.13f} parity={form.parity.value} n={form.n_coeffs}"]
    lines.append(" ".join(f"{c:.13e}" for c in form.coeffs))
    return "\n".join(lines)


class TestIngestion:
    def test_single_even_form_roundtrip(self, dataset, grid, tmp_path):
        even = next(f for f in dataset if f.parity is Parity.EVEN)
        assert abs(even.r - 13.77975) < 1e-4
        path = tmp_path / "one.dat"
        path.write_text(HEADER + "\n" + _form_block(even) + "\n")
        loaded = load_maass_data(path)
        assert len(loaded) == 1
        assert loaded[0].parity is Parity.EVEN
        norm = BasisTable(loaded, ()).norm[0]
        assert abs(norm - grid.table.norm[dataset.index(even)]) < 1e-9

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text(HEADER + "\n")
        assert load_maass_data(path) == []

    def test_bad_normalization_rejected(self, tmp_path):
        coeffs = " ".join(["5.0e-01"] + ["0.1"] * 11)
        text = f"{HEADER}\nform r=9.5336952613536 parity=odd n=12\n{coeffs}\n"
        with pytest.raises(MaassDataError, match="a_1 = 1"):
            parse_maass_data(text)

    def test_unknown_header_rejected(self):
        with pytest.raises(MaassDataError, match="header"):
            parse_maass_data("#maass-sl2z v2\n")

    def test_parse_errors_carry_line_numbers(self):
        text = f"{HEADER}\nform r=9.5 parity=odd n=12\n1.0 bogus\n"
        with pytest.raises(MaassDataError, match="line 3"):
            parse_maass_data(text)

    def test_missing_coefficients_detected(self):
        text = f"{HEADER}\nform r=9.5 parity=odd n=12\n1.0 0.5 0.25\n"
        with pytest.raises(MaassDataError, match="expected 12"):
            parse_maass_data(text)

    def test_too_few_coefficients_rejected(self):
        coeffs = " ".join(["1.0"] + ["0.1"] * 4)
        text = f"{HEADER}\nform r=9.5 parity=odd n=5\n{coeffs}\n"
        with pytest.raises(MaassDataError, match="at least 10"):
            parse_maass_data(text)

    TEN = " ".join(["1.0"] + ["0.1"] * 9)

    @pytest.mark.parametrize("body, message", [
        # comments and blank lines between records are skipped and counted
        (f"\n# lead\nform r=9.5 parity=odd n=10\n{TEN}\n\n# between\nbogus\n",
         "line 8: expected 'form' record, got 'bogus'"),
        ("form r=9.5 parity n=10 bogus\n", "line 2: malformed field 'parity'"),
        ("form r=9.5 parity=odd\n", "line 2: bad form record 'form r=9.5 parity=odd': 'n'"),
        ("form r=9.5 parity=evn n=10\n",
         "line 2: bad form record 'form r=9.5 parity=evn n=10': 'evn' is not a valid Parity"),
        ("form r=9.5 parity=odd n=1.5\n", "line 2: bad form record 'form r=9.5 parity=odd "
         "n=1.5': invalid literal for int() with base 10: '1.5'"),
        # a record that begins before the last one's n coefficients: the
        # count mismatch is named on the last line read
        (f"form r=9.5 parity=odd n=12\n1.0 0.5\n# c\nform r=12.1 parity=odd n=10\n{TEN}\n",
         "line 4: form r=9.5: expected 12 coefficients, found 2"),
        # a comment inside a block adds no coefficients and is counted
        (f"form r=9.5 parity=odd n=10\n1.0 0.1\n# note\n\n{TEN[8:]}\nform n=10 extra\n",
         "line 7: malformed field 'extra'"),
    ])
    def test_refusal_named_with_its_line(self, body, message):
        with pytest.raises(MaassDataError) as refusal:
            parse_maass_data(f"{HEADER}\n{body}")
        assert str(refusal.value) == message

    def test_comment_and_blank_line_inside_a_block(self):
        (form,) = parse_maass_data(f"{HEADER}\nform r=9.5 parity=odd n=10\n1.0 0.1\n# note\n\n"
                                   f"{self.TEN[8:]}\n")
        assert np.array_equal(form.coeffs, [1.0] + [0.1] * 9)

    def test_packaged_dataset_is_validated(self, dataset, grid):
        assert len(dataset) >= 10
        rs = [f.r for f in dataset]
        assert rs == sorted(rs)
        grid.table.check()
        assert np.all(grid.table.norm > 0.0)


def _fault(form: MaassFormData, fault: str) -> MaassFormData:
    r, parity, coeffs = form.r, form.parity, form.coeffs.copy()
    if fault == "random coefficients":
        coeffs[1:] = np.random.default_rng(7).standard_normal(len(coeffs) - 1)
    elif fault == "r + 0.37":
        r += 0.37
    elif fault == "swapped parity":
        parity = Parity.ODD if parity is Parity.EVEN else Parity.EVEN
    else:  # "-a(2)"
        coeffs[1] = -coeffs[1]
    return MaassFormData(r=r, parity=parity, coeffs=coeffs)


class TestDataCheck:
    """The one data check (BasisTable's defects and check()) that every run
    evaluating the forms, the generator and criterion 11 share: it sees the
    coefficients and r, so a fault fails it (the packaged forms' own defects
    are criterion 11's).  Parsing a file does not evaluate its forms."""

    @pytest.mark.parametrize("fault", ["random coefficients", "r + 0.37", "swapped parity",
                                       "-a(2)"])
    def test_faulty_form_refused_at_load(self, dataset, tmp_path, capsys, fault):
        # the even form at 13.78 reads (Hecke, inversion) 7e-11, 1.8e-12;
        # each fault, measured, raises at least one of them above 0.3.  The
        # file parses; building a grid on it, and each command that loads it
        # with --data, refuses it with one message and exit code 1
        even = next(f for f in dataset if f.parity is Parity.EVEN)
        bad = _fault(even, fault)
        path = tmp_path / "fault.dat"
        path.write_text(HEADER + "\n" + _form_block(bad) + "\n")
        (loaded,) = load_maass_data(path)
        pattern = rf"^form r={bad.r} fails the data check: Hecke defect .*inversion defect .*\)$"
        with pytest.raises(MaassDataError, match=pattern) as refusal:
            build_grid([loaded], r_max=2.0, panels=1, nodes_per_panel=4)
        small = ["--r-max", "2", "--panels", "1", "--nodes-per-panel", "4"]
        for argv, prefix in ((["eval", "--t", "1", "--x", "0", "--y", "1"] + small, "error: "),
                             (["verify", "sobolev"] + small, "error: "),
                             (["ingest-check"], f"ingest-check FAILED for {path}: ")):
            assert cli.main(argv + ["--data", str(path)]) == 1
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"{prefix}{refusal.value}\n")

    def test_repeated_form_refused_at_load(self, dataset, tmp_path):
        path = tmp_path / "twice.dat"
        path.write_text(HEADER + "\n" + _form_block(dataset[2]) + "\n"
                        + _form_block(dataset[2]) + "\n")
        with pytest.raises(MaassDataError, match="duplicate cusp spectral parameter"):
            load_maass_data(path)


def _load_tool(monkeypatch, name):
    # a script under tools/, loaded without running main
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends "src"
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def generator(monkeypatch):
    # the generator of the packaged data file
    pytest.importorskip("scipy")
    return _load_tool(monkeypatch, "make_maass_data")


def test_data_generator_imports(generator):
    # a package name the generator imports cannot be removed unnoticed
    assert callable(generator.main) and callable(generator.system_matrix)


def test_stage_timer_stages_resolve(monkeypatch):
    # the stage timer wraps each stage where its call looks the function
    # up: a stage renamed or moved away fails here instead of timing nothing
    timer = _load_tool(monkeypatch, "time_stages")
    assert len(timer.STAGES) == 6
    for title, _, stages, _, _ in timer.STAGES.values():
        for space, name in stages:
            assert callable(getattr(space, name, None)), (title, name)


def test_generator_system_reproduces_packaged_forms(generator, dataset):
    # the system's Bessel entries stay inside its bank's range, and at the
    # packaged r it solves back to the packaged coefficients (measured
    # <= 1.9e-10 apart, mismatch <= 1.2e-11 at the three lowest forms)
    for form in dataset[:3]:
        coeffs, mismatch = generator.solve_coefficients(form.r, form.parity)
        assert np.max(np.abs(coeffs[:form.n_coeffs] - form.coeffs)) < 1e-9
        assert abs(mismatch) < 1e-10


def test_generator_refines_each_sign_change_in_its_own_bracket(generator, monkeypatch):
    # two roots one scan step apart: a +-0.015 bracket around the midpoint
    # of either step holds both, so its ends have one sign; the scan's own
    # steps hold one root each
    roots = (25.8251, 25.8349)
    monkeypatch.setattr(generator, "solve_coefficients",
                        lambda r, parity: (np.ones(1), (r - roots[0]) * (r - roots[1])))
    found = generator.scan_seeds(25.80, 25.86)
    even = [bracket for bracket, parity in found if parity == "even"]
    assert len(even) == 2
    got = [generator.refine(bracket, Parity.EVEN)[0] for bracket in even]
    assert np.allclose(got, roots, rtol=0.0, atol=1e-12)
    assert generator.refine((25.81, 25.84), Parity.EVEN) is None


def test_generator_writes_what_the_loader_reads(generator, dataset, monkeypatch, tmp_path, capsys):
    # the validate-and-write path of the generator on one packaged form, with
    # the root finding stubbed to return that form: the written file reloads
    # to the same r and coefficients; with a(2) negated the form fails the
    # data check, is not written, and the run reports failure
    form = next(f for f in dataset if f.parity is Parity.EVEN)
    monkeypatch.setattr(generator, "SEEDS", [(form.r, form.parity.value)])
    monkeypatch.setattr(generator, "scan_seeds", lambda r_lo, r_hi: [])
    coeffs = form.coeffs.copy()
    monkeypatch.setattr(generator, "refine", lambda bracket, parity: (form.r, coeffs, 0.0))
    assert generator.main(tmp_path / "out.dat") == 0
    assert "OK" in capsys.readouterr().out
    (loaded,) = load_maass_data(tmp_path / "out.dat")
    assert loaded.r == form.r and loaded.parity is form.parity
    assert np.array_equal(loaded.coeffs, form.coeffs)
    coeffs[1] = -coeffs[1]
    assert generator.main(tmp_path / "bad.dat") == 1
    assert "REJECTED" in capsys.readouterr().out
