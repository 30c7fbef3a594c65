import math
import warnings

import numpy as np
import pytest

from autoheat import special
from autoheat.special import (
    KBesselBank,
    bessel_k_imag,
    gauss_rule,
    kbessel_quad,
    xi_line,
    zeta_euler_maclaurin,
    zeta_line,
)
from autoheat.synthesis import _gaussian_tail


def k0_series_oracle(x: float, n_terms: int = 30) -> float:
    """Classical ascending series for K_0, written independently of the
    steepest-descent quadrature: K_0 = -(log(x/2) + gamma) I_0 + correction sum."""
    euler_gamma = 0.57721566490153286
    i0 = sum((x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(n_terms))
    harmonic = 0.0
    extra = 0.0
    for k in range(1, n_terms):
        harmonic += 1.0 / k
        extra += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2 * harmonic
    return -(math.log(x / 2.0) + euler_gamma) * i0 + extra


class TestBesselKImag:
    def test_k0_at_1_matches_series_oracle(self):
        oracle = k0_series_oracle(1.0)
        assert abs(oracle - 0.4210244382) < 5e-11  # frozen from the oracle
        assert abs(bessel_k_imag(0.0, 1.0) - 0.4210244382) < 1e-10

    def test_symmetric_in_order(self):
        for x in (0.5, 3.0, 11.0):
            assert bessel_k_imag(-5.0, x) == bessel_k_imag(5.0, x)

    def test_deep_decay_magnitude(self):
        # envelope: |K_{iR}(x)| <= K_0(x) <= e^{-x} sqrt(pi/2x)
        assert abs(bessel_k_imag(5.0, 40.0)) < 1e-17

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k_imag(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k_imag(1.0, -2.0)

    @pytest.mark.parametrize("r, x, refused", [
        (math.nan, 1.0, "finite R, got R = nan"),
        (math.inf, 1.0, "finite R, got R = inf"),
        (-math.inf, 1.0, "finite R, got R = -inf"),
        (5.0, math.nan, "finite x >= 0.001, got x = nan"),
        (5.0, [1.0, math.nan], "finite x >= 0.001, got x = nan"),
        (5.0, math.inf, "finite x >= 0.001, got x = inf")])
    def test_non_finite_inputs_refused(self, r, x, refused, monkeypatch):
        # refused by name before any quadrature runs, not answered as nan
        # (or, at R = inf, an OverflowError inside the quadrature)
        monkeypatch.setattr(special, "kbessel_quad", None)
        with pytest.raises(ValueError) as exc:
            bessel_k_imag(r, x)
        assert str(exc.value) == f"K_iR(x) is answered for {refused}"

    # reference values computed with mpmath.besselk at 40 digits (rescaled by
    # e^{pi R/2}); they pin both the oscillatory and the monotone regimes
    REFERENCE = [
        (5.0, 2.0, -8.921561628119e-01),
        (9.5337, 5.44, -6.748472461184e-01),
        (13.7798, 12.0, 9.076848052517e-01),
        (19.4847, 1.0, 3.788323813522e-01),
        (24.0, 30.0, 2.239378189844e-02),
        (5.0, 40.0, 1.587161495505e-15),
    ]

    @pytest.fixture(scope="class")
    def reference_bank(self):
        return KBesselBank([r for r, _, _ in self.REFERENCE], 1e-3)

    @pytest.mark.parametrize("r,x,expected", REFERENCE)
    def test_rescaled_reference_values(self, r, x, expected, reference_bank):
        got = float(KBesselBank((r,), 1e-3)(0, np.array([x]))[0])
        assert abs(got - expected) < 5e-11 * max(1.0, abs(expected))
        # the same pair through one bank holding all six r: a shared seed
        # point and rows of mixed Chebyshev degree
        _, xs, _ = zip(*self.REFERENCE)
        row = self.REFERENCE.index((r, x, expected))
        got = reference_bank(np.arange(len(xs)), np.array(xs))[row]
        assert abs(got - expected) < 5e-11 * max(1.0, abs(expected))

    def test_one_row_bank_at_small_x_min_matches_mpmath(self):
        # the most phase per panel: r = 26.45 on [1e-3, fit_hi]; references
        # from mpmath.besselk at 40 digits, rescaled by e^{pi r/2}
        x, want = np.array([
            (11.569461, -6.371548963650688e-2),
            (8.856458, -1.791918768235312e-1),
            (0.001671, -1.162349582918852e-1),
            (22.198338, 3.988971534273624e-1),
            (0.001464, 2.740821336752795e-1),
            (1.100609, 4.782025004486869e-1),
            (0.493029, -2.810459317505485e-1),
            (0.002962, 3.522250144413568e-1),
        ]).T
        assert np.max(np.abs(KBesselBank((26.45,), 1e-3)(0, x) - want)) < 1e-11

    def test_monotone_decreasing_past_the_turn(self):
        # oscillation lives in x < R; for R <= 1 the sampled window is clean
        for r in (0.0, 0.5, 1.0):
            xs = np.linspace(1.0, 50.0, 160)
            vals = np.array([bessel_k_imag(r, float(x)) for x in xs])
            assert np.all(np.diff(vals) < 0.0)

    def test_panels_agree_with_the_quadrature_up_to_fit_hi(self):
        # the bank answers from its panels up to fit_hi, its right end
        # included, and refuses any argument past it
        bank = KBesselBank((9.0,), x_min=2.0)
        xs = np.linspace(bank.fit_hi[0] - 8.0, bank.fit_hi[0], 41)
        assert xs[-1] == bank.fit_hi[0]
        assert np.max(np.abs(bank(0, xs) - kbessel_quad(9.0, xs))) < 1e-11
        for past in (np.nextafter(bank.fit_hi[0], np.inf), bank.fit_hi[0] + 8.0):
            with pytest.raises(ValueError) as exc:
                bank(0, np.append(xs, past))
            assert str(exc.value) == f"argument {past} outside [2.0, 59.0] of the row r=9.0"


class TestKBesselBankRefusals:
    def test_x_min_past_the_fit_range(self):
        # fit_hi = min(r + 50, pi r / 2 + 45) is 45 at r = 0
        with pytest.raises(ValueError) as exc:
            KBesselBank((0.0,), 50.0)
        assert str(exc.value) == "x_min=50.0 must lie below every row's fit range"

    @pytest.mark.parametrize("rs, x_min, message", [
        ((5.0,), 0.0, "x_min must be positive and finite, got x_min=0.0"),
        ((5.0,), -1.0, "x_min must be positive and finite, got x_min=-1.0"),
        ((5.0,), math.nan, "x_min must be positive and finite, got x_min=nan"),
        ((math.nan,), 2.0, "spectral parameters must be finite, got r=nan"),
        ((math.inf,), 2.0, "spectral parameters must be finite, got r=inf")])
    def test_non_finite_or_non_positive_inputs_refused(self, rs, x_min, message):
        # refused by name before the log of x_min or the panel count's cast
        # to int, which raised "math domain error" or warned and built a bank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                KBesselBank(rs, x_min)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_argument_not_positive(self, x):
        # refused before the row is fitted
        bank = KBesselBank((5.0,), 2.0)
        with pytest.raises(ValueError) as exc:
            bank([0, 0], [3.0, x])
        assert str(exc.value) == f"argument {x} outside [2.0, 52.853981633974485] of the row r=5.0"
        assert not bank.fitted.any()

    @pytest.mark.parametrize("x", [math.nan, [3.0, math.nan], [math.nan, 3.0], math.inf,
                                   -math.inf, 2.0 - 2e-12])
    def test_arguments_outside_the_range_refused_by_value(self, x):
        # one rule for x > 0, x_min - 1e-12 <= x <= fit_hi: a nan fails it
        # too, before the panel index's cast to int (which warned) and any fit
        bank = KBesselBank((5.0, 12.0), 2.0)
        bad = [v for v in np.atleast_1d(x) if v != 3.0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                bank(0, x)
        assert str(exc.value) == (f"argument {bad} outside [2.0, 52.853981633974485] "
                                  "of the row r=5.0")
        assert not bank.fitted.any()

    def test_slack_below_x_min_kept(self):
        # 1e-12 below x_min is still answered, from the first panel
        bank = KBesselBank((5.0,), 2.0)
        assert bank(0, 2.0 - 1e-13)[0] == pytest.approx(kbessel_quad(5.0, 2.0), abs=1e-11)

    def test_probe_check_names_the_row(self, monkeypatch):
        # the 257 probe values, the last of the fit's one quadrature call,
        # moved by 1e-6 off the series fitted through the nodes
        quad = special.kbessel_quad

        def perturbed(r, x):
            vals = quad(r, x)
            vals[-257:] += 1e-6
            return vals

        monkeypatch.setattr(special, "kbessel_quad", perturbed)
        bank = KBesselBank((5.0,), 2.0)
        with pytest.raises(RuntimeError) as exc:
            bank(0, 3.0)
        assert str(exc.value) == "K-Bessel interpolation failed for R=5.0: max error 1.00e-06"
        assert not bank.fitted.any()


class TestKBesselQuad:
    # e^{pi r/2} K_{ir}(x) from mpmath.besselk at 40 digits: the turning point
    # x = r(1 +- 1e-3) and r +- 0.3, the longest segment (r = 26.45 at small
    # x) and the smallest order
    REFERENCE = [
        (9.53369526135, 9.52416156608865, 0.66520073909497791),
        (9.53369526135, 9.543228956611348, 0.65946235119445429),
        (9.53369526135, 9.233695261349999, 0.75337769827033746),
        (9.53369526135, 9.83369526135, 0.57400049124122491),
        (26.45, 26.42355, 0.4755099513173999),
        (26.45, 26.476449999999996, 0.46763019027842174),
        (26.45, 26.15, 0.51634141966818082),
        (26.45, 26.75, 0.42728284624473295),
        (26.45, 0.001, -0.46320584076791844),
        (26.45, 0.003, 0.22094606051961356),
        (26.45, 1.1, 0.47954466771827169),
        (0.05, 0.35, 1.3308298438389022),
    ]

    def test_against_frozen_mpmath_values(self):
        r, x, want = (np.array(c) for c in zip(*self.REFERENCE))
        assert np.max(np.abs(kbessel_quad(r, x) - want)) < 1e-13

    def test_entries_do_not_depend_on_their_batch(self):
        r, x, _ = (np.array(c) for c in zip(*self.REFERENCE))
        whole = kbessel_quad(r, x)
        for k in range(len(r)):
            assert np.array_equal(kbessel_quad(r[k], x[k]), whole[k])

    def test_broadcasting_and_domain(self):
        x = np.array([[0.5, 3.0], [9.0, 40.0]])
        got = kbessel_quad(5.0, x)
        assert got.shape == x.shape
        assert np.array_equal(got, kbessel_quad(np.full(x.shape, -5.0), x))
        with pytest.raises(ValueError):
            kbessel_quad(1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("x", [math.inf, 1e20, 1e300])
    def test_underflowed_values_are_exact_zeros(self, x):
        # past pi r/2 + 745 the value is below half the least subnormal:
        # 0.0 with no quadrature, which turns nan from x ~ 1.48e19 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kbessel_quad(np.array([5.0, 50.0, 5.0]), np.array([x, x, 3.0]))
            assert bessel_k_imag(5.0, min(x, 1e300)) == 0.0
        assert got[0] == got[1] == 0.0 and got[2] == kbessel_quad(5.0, 3.0)

    @pytest.mark.parametrize("r", [0.0, 5.0, 20.0, 50.0])
    def test_the_quadrature_at_the_underflow_bound_is_zero(self, r):
        # the bound moves no value: just below it the quadrature answers 0.0
        bound = 0.5 * math.pi * r + 745.0
        assert kbessel_quad(r, np.nextafter(bound, 0.0)) == 0.0

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, -math.inf])
    def test_arguments_outside_the_domain_refused_by_value(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                kbessel_quad(5.0, np.array([3.0, x]))
        assert str(exc.value) == f"K_iR(x) is computed for x > 0, got x = {x}"


class TestZetaLine:
    def test_euler_closed_form(self):
        assert abs(zeta_euler_maclaurin(2.0) - math.pi ** 2 / 6.0) < 1e-13

    def test_matches_mpmath_on_the_line(self):
        # the production truncation against mpmath at 30 digits: <= 1.1e-14
        # relative measured, the largest at t = 48
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for t in (0.5, 2.0, 11.0, 48.0, 99.0, 100.0, -7.3):
                want = complex(mpmath.zeta(mpmath.mpc(1, t)))
                assert abs(zeta_line(t) - want) / abs(want) < 1e-12

    def test_schwarz_reflection(self):
        for t in (0.7, 3.0, 25.0):
            assert abs(np.conj(zeta_line(t)) - zeta_line(-t)) < 1e-13

    def test_pole_and_range_errors(self):
        with pytest.raises(ValueError):
            zeta_line(0.0)
        with pytest.raises(ValueError):
            zeta_line(150.0)

    @pytest.mark.parametrize("t", [0.0, -0.0, 101.0, -math.inf, math.inf, math.nan])
    def test_outside_the_line_refused_by_value(self, t):
        # one rule, 0 < |t| <= 100: the pole, the range and nan
        with pytest.raises(ValueError) as exc:
            zeta_line(t)
        assert str(exc.value) == f"zeta(1 + it) is computed on 0 < |t| <= 100, got {t}"
        assert np.isfinite(zeta_line(100.0)) and np.isfinite(zeta_line(-100.0))

    def test_euler_maclaurin_refuses_the_pole(self):
        with pytest.raises(ValueError) as exc:
            zeta_euler_maclaurin(1)
        assert str(exc.value) == "zeta has a pole at s = 1"

    def test_xi_line_refused_past_the_zeta_range(self):
        # the Euler-Maclaurin sum is 1.9e-6 off zeta(1 + 400i) (mpmath), so
        # xi(1 + 2ir) and with it Eisenstein rows past r = 50 are refused
        assert np.isfinite(xi_line(50.0))
        for r in (50.5, -60.0, 200.0):
            with pytest.raises(ValueError, match="zeta"):
                xi_line(r)

    def test_reference_value(self):
        # zeta(1 + 2i), mpmath at 30 digits
        ref = complex(0.598165569762381737, -0.351854745217845290)
        assert abs(zeta_line(2.0) - ref) < 1e-12


class TestScatteringPhase:
    def test_unimodular_by_direct_continuation(self):
        # phi(1/2 + ir) = xi(2ir)/xi(1 + 2ir): the functional equation
        # xi(s) = xi(1-s) makes the numerator conj(xi_line(r)), so phi is
        # exactly unimodular; compare with xi(2ir) computed directly on Re = 0
        from scipy.special import gamma as complex_gamma

        for r in (2.0, 5.0, 10.0):
            xi = xi_line(r)
            phi = np.conj(xi) / xi
            assert abs(abs(phi) - 1.0) < 1e-9
            s0 = complex(0.0, 2.0 * r)
            xi_direct = np.pi ** (-s0 / 2) * complex_gamma(s0 / 2) \
                * zeta_euler_maclaurin(s0)
            phi_direct = xi_direct / xi
            assert abs(phi - phi_direct) < 1e-9


class TestAgainstMpmath:
    def test_xi_line(self):
        # the Stirling series for Gamma(1/2 + ir) through xi(1 + 2ir)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for r in (0.01, 0.5, 6.0, 12.0, 25.0, 50.0):
            s = mpmath.mpc(1, 2 * r)
            want = complex(mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s))
            assert abs(xi_line(r) - want) <= 1e-13 * abs(want)

    def test_gaussian_tail(self):
        # e^{-t/4} sqrt(pi/t)/2 erfc(r_max sqrt(t)); the last pair underflows
        # to 0 in double precision on both sides
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for r_max, t in ((12.0, 0.05), (12.0, 1.0), (1.5, 0.4), (12.0, 8.0)):
            t_mp = mpmath.mpf(t)
            want = float(mpmath.sqrt(mpmath.pi / t_mp) / 2 * mpmath.exp(-t_mp / 4)
                         * mpmath.erfc(r_max * mpmath.sqrt(t_mp)))
            assert abs(_gaussian_tail(r_max, t) - want) <= 1e-14 * want
        assert _gaussian_tail(12.0, 8.0) == 0.0


class TestGaussRule:
    # panels of unequal width, centres broadcast against a column of widths
    MID = np.array([-1.5, 0.25, 3.0])
    HALF = np.array([[0.5], [2.0]])

    def test_shape_and_weights_sum_to_each_width(self):
        nodes, weights = gauss_rule(self.MID, self.HALF, 7)
        assert nodes.shape == weights.shape == (2, 3, 7)
        assert np.allclose(weights.sum(axis=-1), np.broadcast_to(2.0 * self.HALF, (2, 3)),
                           rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_exact_on_polynomials_up_to_degree_2n_minus_1(self, n):
        nodes, weights = gauss_rule(self.MID, self.HALF, n)
        lo, hi = self.MID - self.HALF, self.MID + self.HALF
        for k in range(2 * n):
            want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            got = np.sum(weights * nodes ** k, axis=-1)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
