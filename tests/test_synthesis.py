import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from autoheat import forms, special, synthesis, verify
from autoheat.config import RunConfig
from autoheat.heat import _damping, heat_coefficients, profile
from autoheat.hyperbolic import HPoint, QuadSpec, reduce_to_fundamental_domain
from autoheat.oracle import periodized_oracle
from autoheat.sobolev import (
    NEGLIGIBLE,
    CoeffFn,
    apply_generator,
    basis_values,
    sobolev_weights,
    synthesis_parts,
    synthesis_rows,
    synthesize_values,
)
from autoheat.spectral_model import build_grid
from autoheat.synthesis import evaluate_heat_kernel, partial_synthesis_sup_difference

POINTS = (HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(0.3, 1.1))


def _report_rows(coeffs, y):
    """The rows evaluate_heat_kernel evaluates: synthesis_rows and the last
    node whenever its term is nonzero (the tail estimate reads it)."""
    live = synthesis_rows(coeffs, y)
    live[-1] |= coeffs.values[-1] != 0.0
    return live


def _seeded_field(rng, top, npoints=200):
    """Seeded reduced points, y log-uniform from 0.87 to top, over the arc."""
    x = rng.uniform(-0.5, 0.5, npoints)
    y = np.maximum(np.exp(rng.uniform(math.log(0.87), math.log(top), npoints)),
                   np.sqrt(np.maximum(1.0 - x * x, 0.0)))
    return x, y


def _eisenstein_tail_norm(t, grid, r_from, s):
    """Index-s norm of the heat data at time t on the nodes with r > r_from."""
    tail = np.zeros(grid.size, dtype=bool)
    tail[grid.n_cusp + 1:] = grid.table.bank.r[grid.n_cusp:] > r_from
    values = heat_coefficients(t, grid).coeffs.values[tail]
    return float(np.sqrt(np.sum(sobolev_weights(grid, s)[tail] * np.abs(values) ** 2)))


class TestEvaluateHeatKernel:
    def test_rejects_time_zero(self, grid):
        with pytest.raises(ValueError):
            evaluate_heat_kernel(0.0, HPoint(0.0, 1.0), grid)

    def test_parts_sum_to_value(self, grid):
        rep = evaluate_heat_kernel(0.8, HPoint(0.3, 1.1), grid)
        total = rep.cusp_part + rep.residual_part + rep.eisenstein_part
        assert abs(rep.value - total) <= 1e-14 * abs(rep.value)
        assert rep.tail_estimate >= 0.0
        live = _report_rows(heat_coefficients(0.8, grid).coeffs, np.array([1.1]))
        assert 0 < rep.nodes_used == np.count_nonzero(live[grid.n_cusp + 1:]) < grid.size - grid.n_cusp - 1

    def test_reduction_rounding_sets_the_warning(self, grid):
        # eps |z0| / y against TAIL_TOLERANCE: 9.2e-10 at y = 1e-7, 9.2e-8 at 1e-9;
        # both reduce to y > 1, where no other term warns
        for y, warned in ((1e-7, False), (1e-9, True)):
            rep = evaluate_heat_kernel(1.0, HPoint(math.sqrt(2.0) - 1.0, y), grid)
            assert rep.tail_warning is warned

    def test_real_valued(self, grid):
        for z in POINTS:
            rep = evaluate_heat_kernel(1.0, z, grid)
            assert abs(rep.value.imag) <= 1e-9 * abs(rep.value.real)

    @pytest.mark.parametrize("t, z", [(1.0, HPoint(0.25, 1.3)), (0.2, HPoint(0.1, 3.5)),
                                      (1.0, HPoint(0.0, 1e4)), (8.0, HPoint(0.0, 1.0))])
    def test_parts_are_floats_and_the_report_serializes(self, grid, t, z):
        # the heat data hold no imaginary part and the basis is real, so the
        # complex sums the parts are taken from have imaginary parts exactly 0
        assert not np.any(heat_coefficients(t, grid).coeffs.values.imag)
        rep = evaluate_heat_kernel(t, z, grid)
        parts = (rep.value, rep.cusp_part, rep.residual_part, rep.eisenstein_part)
        assert all(type(part) is float for part in parts)
        assert json.loads(json.dumps(dataclasses.asdict(rep)))["value"] == rep.value

    def test_positivity(self, grid):
        for t in (0.5, 1.0, 2.0, 8.0):
            for z in POINTS:
                assert evaluate_heat_kernel(t, z, grid).value.real > 0.0

    def test_modular_invariance(self, grid):
        z = HPoint(0.3, 0.8)
        w = -1.0 / z.z
        vals = [
            evaluate_heat_kernel(1.0, z, grid).value.real,
            evaluate_heat_kernel(1.0, HPoint(z.x + 1.0, z.y), grid).value.real,
            evaluate_heat_kernel(1.0, HPoint(w.real, w.imag), grid).value.real,
        ]
        assert max(vals) - min(vals) <= 1e-8 * abs(vals[0])

    def test_short_time_matches_periodization(self, grid):
        # at t = 0.2 the bound-25 periodization has converged; the default
        # Eisenstein rule must resolve the r-integrand's zeta-zero poles near
        # r = 7.07 and 10.51 (measured defects 2.3e-14..2.2e-13)
        for z in (HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(0.25, 1.3)):
            value = evaluate_heat_kernel(0.2, z, grid).value.real
            oracle = periodized_oracle(0.2, z, 25.0)
            assert abs(value - oracle) <= 1e-9 * oracle

    def test_long_time_limit(self, grid):
        for z in POINTS:
            rep = evaluate_heat_kernel(8.0, z, grid)
            assert abs(rep.value.real - 3.0 / math.pi) < 2e-2

    def test_value_is_the_synthesis_at_the_reduced_point(self, grid):
        # an arc point given outside the fundamental domain and a cusp point;
        # the default grid holds odd forms, whose heat coefficients are zero
        t = 0.7
        coeffs = heat_coefficients(t, grid).coeffs
        odd = coeffs.values[:grid.n_cusp] == 0.0
        assert np.any(odd)
        for z in (HPoint(2.45, 0.9 / (0.45 ** 2 + 0.9 ** 2)), HPoint(0.37, 6.0)):
            p = reduce_to_fundamental_domain(z)
            x, y = np.array([p.x]), np.array([p.y])
            rep = evaluate_heat_kernel(t, z, grid)
            value = rep.value
            skipping = synthesize_values(coeffs, x, y)[0]
            full = ((grid.weights * coeffs.values) @ basis_values(grid, x, y))[0]
            assert value == skipping
            assert abs(skipping - full) <= 1e-13 * abs(full)
            # the skipped rows, the odd forms among them, are left unevaluated
            live = synthesis_rows(coeffs, y)
            column = grid.basis_rows(x, y, live)[:, 0]
            assert not np.any(live[:grid.n_cusp][odd])
            assert np.all(column[~live] == 0.0) and np.all(column[live] != 0.0)
            # each reported part sums the synthesis terms of its rows, bit for bit
            terms = grid.weights * coeffs.values * column
            n = grid.n_cusp
            assert (rep.cusp_part, rep.residual_part, rep.eisenstein_part) == (
                terms[:n].sum(), terms[n], terms[n + 1:].sum())

    def test_report_is_the_one_point_field(self, grid):
        # seeded points, most of them outside the fundamental domain: the
        # value is the field's at the reduced point and the parts are
        # synthesis_parts' over the report's rows, bit for bit
        rng = np.random.default_rng(36)
        for t in (0.05, 0.2, 0.6, 1.0, 2.5, 8.0):
            coeffs = heat_coefficients(t, grid).coeffs
            for x, y in zip(rng.uniform(-3.0, 3.0, 20), np.exp(rng.uniform(-1.5, 2.1, 20))):
                rep = evaluate_heat_kernel(t, HPoint(float(x), float(y)), grid)
                p = reduce_to_fundamental_domain(HPoint(float(x), float(y)))
                px, py = np.array([p.x]), np.array([p.y])
                parts = synthesis_parts(coeffs, grid.basis_rows(px, py, _report_rows(coeffs, py)))
                assert (rep.cusp_part, rep.residual_part, rep.eisenstein_part) == tuple(
                    part[0].real for part in parts)
                assert rep.value == synthesize_values(coeffs, px, py)[0].real

    def test_one_fourier_sum_per_evaluation(self, grid, monkeypatch):
        # the cusp forms and the Eisenstein nodes are rows of one table, so a
        # point costs one Fourier sum, not one per family
        calls = []
        fourier_rows = forms._fourier_rows

        def counting(bank, rows, *args):
            calls.append(len(rows))
            return fourier_rows(bank, rows, *args)

        monkeypatch.setattr(forms, "_fourier_rows", counting)
        evaluate_heat_kernel(0.6, HPoint(0.1, 1.2), grid)
        live = _report_rows(heat_coefficients(0.6, grid).coeffs, np.array([1.2]))
        assert live[:grid.n_cusp].any() and live[grid.n_cusp + 1:].any()
        assert calls == [np.count_nonzero(live) - 1]  # every live row but the constant

    def test_tail_warning_on_inadequate_cutoff(self, dataset):
        small = build_grid([], r_max=1.5, panels=1, nodes_per_panel=16)
        rep = evaluate_heat_kernel(0.25, HPoint(0.0, 1.0), small)
        assert rep.tail_warning
        assert rep.tail_estimate > 1e-6

    @pytest.mark.parametrize("y, warns", [(1e3, False), (1e4, True)])
    def test_cancellation_high_in_the_cusp_warns(self, grid, y, warns):
        # at t = 1 the O(1) residual and Eisenstein parts cancel to a tiny
        # value: at y = 1e4 it is 2.777671337e-8, 3.1e-7 off the closed-form
        # constant term 2.777670474509e-8, over the 1e-8 tolerance, while the
        # r > r_max tail alone is ~1e-62; at y = 1e3 the value is still clear
        rep = evaluate_heat_kernel(1.0, HPoint(0.0, y), grid)
        assert rep.value.real > 0.0 and rep.tail_estimate < 1e-60
        assert abs(rep.residual_part) > 0.9 and abs(rep.eisenstein_part) > 0.9
        assert rep.tail_warning is warns  # a Python bool, which JSON takes
        assert json.dumps(rep.tail_warning) == str(warns).lower()


# float.hex of every SynthesisReport field (value, cusp, residual and
# Eisenstein parts, tail estimate), then nodes_used and tail_warning, at
# each benchmark workload's three point heights (arc 0.95, 1.15, 1.4; cusp
# 2, 3.5, 6) for t in {0.5, 0.8, 3}, and at x = +-1/2 on the arc floor of
# the field band, y = 0.875
_FROZEN_REPORTS = {
    (0.5, 0.41, 0.95): ("0x1.550fdf62f8a13p+0", "0x1.5b790f127a32ap-137", "0x1.e8ec8a4aeacc4p-1",
                        "0x1.826668f60cec4p-2", "0x1.11b3d207fbb08p-106", 126, False),
    (3.0, -0.37, 0.95): ("0x1.fe2ec02c9d667p-1", "-0x1.6a4ada031f302p-822", "0x1.e8ec8a4aeacc4p-1",
                         "0x1.54235e1b29a31p-5", "0x1.9641508deb314p-630", 52, False),
    (0.8, 0.23, 1.15): ("0x1.301b0df47021cp+0", "-0x1.c7f6d872e88a8p-218", "0x1.e8ec8a4aeacc4p-1",
                        "0x1.dd264677d5dcep-3", "0x1.523aebbbd7514p-170", 107, False),
    (0.5, -0.48, 1.15): ("0x1.5101e6d988ac2p+0", "0x1.e0a090adfc119p-136", "0x1.e8ec8a4aeacc4p-1",
                         "0x1.722e86d04d180p-2", "0x1.7b5734c9c5f5cp-106", 126, False),
    (3.0, 0.12, 1.4): ("0x1.fd0ec26f13b79p-1", "-0x1.12629a2d5edb8p-821", "0x1.e8ec8a4aeacc4p-1",
                       "0x1.422382428eb50p-5", "0x1.2ab0c1a728e4fp-630", 52, False),
    (0.8, -0.31, 1.4): ("0x1.2b4474a114d49p+0", "0x1.0c407f8950779p-219", "0x1.e8ec8a4aeacc4p-1",
                        "0x1.b6717bdcfb739p-3", "0x1.8e895a673e47ep-171", 107, False),
    (0.5, 0.07, 2.0): ("0x1.20703d6463bb9p+0", "0x1.b6ca75bde3ed4p-135", "0x1.e8ec8a4aeacc4p-1",
                       "0x1.5fcfc1f772ab9p-3", "0x1.df9aca9113bd3p-106", 126, False),
    (3.0, -0.44, 2.0): ("0x1.f9d300bf4f176p-1", "-0x1.0b1f81c4244fep-820", "0x1.e8ec8a4aeacc4p-1",
                        "0x1.0e67674644b1ep-5", "0x1.dcb3179602491p-631", 52, False),
    (0.8, 0.36, 3.5): ("0x1.c7e378f91bda1p-1", "-0x1.e3f5d3e26a5e5p-226", "0x1.e8ec8a4aeacc4p-1",
                       "-0x1.08488a8e77919p-4", "0x1.748add1de7ffep-169", 107, False),
    (0.5, -0.19, 3.5): ("0x1.86b5af0ef2f0cp-1", "0x1.55dab06b8d957p-144", "0x1.e8ec8a4aeacc4p-1",
                        "-0x1.88db6cefdf6e0p-3", "0x1.91810e06271a5p-106", 126, False),
    (3.0, 0.3, 6.0): ("0x1.dc0bed3d8446fp-1", "-0x1.568ccb0553334p-850", "0x1.e8ec8a4aeacc4p-1",
                      "-0x1.9c13a1acd0aaep-6", "0x1.1dc30a4d71c67p-628", 52, False),
    (0.8, -0.5, 6.0): ("0x1.437703fb9d762p-1", "-0x1.7e4606ac78940p-245", "0x1.e8ec8a4aeacc4p-1",
                       "-0x1.4aeb0c9e9aac5p-2", "0x1.ddd00ad136eebp-169", 107, False),
    (0.5, 0.5, 0.875): ("0x1.55c0eb03d2b06p+0", "0x1.0704ab43d9458p-134", "0x1.e8ec8a4aeacc4p-1",
                        "0x1.852a977975290p-2", "0x1.159477ca318cap-105", 126, False),
    (0.8, -0.5, 0.875): ("0x1.32903bf44eb77p+0", "0x1.ae14e9a2e63bep-217", "0x1.e8ec8a4aeacc4p-1",
                         "0x1.f0cfb676ca8a8p-3", "0x1.01bace80c3ff5p-168", 107, False),
}

# SHA-256 of the bytes of synthesize_values at t = 0.7 on 500 seeded points
# (seed 39: x uniform in [-1/2, 1/2], y log-uniform in [0.875, 8] and lifted
# onto the arc where below it)
_FROZEN_FIELD = "f47e75c00b329bc2717b85520923a47591144c50de3f0e332b05bf1ada59b672"


class TestFrozenSynthesis:
    """The synthesis side bit for bit: every report field and one field."""

    @pytest.mark.parametrize("t, x, y", list(_FROZEN_REPORTS))
    def test_report_fields_frozen(self, grid, t, x, y):
        rep = evaluate_heat_kernel(t, HPoint(x, y), grid)
        floats = (rep.value, rep.cusp_part, rep.residual_part, rep.eisenstein_part,
                  rep.tail_estimate)
        assert (*(v.hex() for v in floats), rep.nodes_used, rep.tail_warning) == \
            _FROZEN_REPORTS[t, x, y]

    def test_seeded_field_frozen(self, grid):
        rng = np.random.default_rng(39)
        x = rng.uniform(-0.5, 0.5, 500)
        y = np.maximum(np.exp(rng.uniform(math.log(0.875), math.log(8.0), 500)),
                       np.sqrt(1.0 - x * x))
        field = synthesize_values(heat_coefficients(0.7, grid).coeffs, x, y)
        assert hashlib.sha256(field.tobytes()).hexdigest() == _FROZEN_FIELD


def _report_fields(rep):
    return (rep.value, rep.cusp_part, rep.residual_part, rep.eisenstein_part,
            rep.tail_estimate, rep.tail_warning)


class TestNegligibleRows:
    """Synthesis skips the rows whose terms cannot reach a double's digits;
    every printed number must equal, bit for bit, the synthesis over all
    rows of nonzero weight."""

    @staticmethod
    def _against_nonzero_rows(monkeypatch, grid, cases):
        skipping = [_report_fields(evaluate_heat_kernel(t, z, grid)) for t, z in cases]
        monkeypatch.setattr(synthesis, "synthesis_rows",
                            lambda f, y: f.grid.weights * f.values != 0.0)
        full = [_report_fields(evaluate_heat_kernel(t, z, grid)) for t, z in cases]
        assert skipping == full

    def test_seeded_sweep_is_bit_identical(self, grid, monkeypatch):
        rng = np.random.default_rng(18)
        t = np.exp(rng.uniform(math.log(0.05), math.log(8.0), 300))
        y = np.exp(rng.uniform(math.log(0.87), math.log(1e5), 300))
        x = rng.uniform(-0.5, 0.5, 300)
        cases = [(float(a), HPoint(float(b), float(c))) for a, b, c in zip(t, x, y)]
        self._against_nonzero_rows(monkeypatch, grid, cases)

    def test_low_time_is_bit_identical(self, grid, monkeypatch):
        cases = [(0.05, z) for z in (*POINTS, HPoint(0.45, 0.9), HPoint(0.2, 7.5))]
        self._against_nonzero_rows(monkeypatch, grid, cases)

    def test_edge_node_follows_its_damping(self, grid, monkeypatch):
        # the tail estimate reads the last node: the report evaluates it
        # while its damping is nonzero, where synthesis_rows finds it
        # negligible, and leaves it out (counting as 1) once the damping
        # underflowed, past t ~ 4.9
        z = HPoint(0.0, 1.0)
        for t, edge in ((1.0, True), (6.0, False)):
            coeffs = heat_coefficients(t, grid).coeffs
            live = synthesis_rows(coeffs, np.array([z.y]))
            assert not live[-1] and not live[-2] and bool(coeffs.values[-1]) is edge
            rep = evaluate_heat_kernel(t, z, grid)
            assert rep.nodes_used == np.count_nonzero(live[grid.n_cusp + 1:]) + edge
        cases = [(1.0, HPoint(0.0, 1.0)), (4.95, HPoint(0.3, 1.2)), (6.0, HPoint(0.0, 1.0))]
        self._against_nonzero_rows(monkeypatch, grid, cases)

    def test_cusp_part_from_rows_beyond_a_zero_row(self, grid, monkeypatch):
        # at y = 10.6 the forms with r <= 19.4 keep no Fourier term, so the
        # printed cusp part comes from r >= 21 alone; a family maximum taken
        # over weights, not over rows nonzero here, would cut those to 0
        cases = [(0.35, HPoint(x, 10.6)) for x in (0.0, 0.13, 0.41)]
        assert all(evaluate_heat_kernel(t, z, grid).cusp_part != 0.0 for t, z in cases)
        self._against_nonzero_rows(monkeypatch, grid, cases)

    def test_fields_are_bit_identical(self, grid):
        rng = np.random.default_rng(11)
        for t, top in ((0.05, 1.6), (0.35, 12.0), (1.0, 8.0), (4.0, 50.0)):
            x, y = _seeded_field(rng, top)
            coeffs = heat_coefficients(t, grid).coeffs
            nonzero = grid.weights * coeffs.values != 0.0
            assert np.array_equal(synthesize_values(coeffs, x, y),
                                  sum(synthesis_parts(coeffs, grid.basis_rows(x, y, nonzero))))

    def test_field_values_do_not_depend_on_their_batch(self, grid):
        rng = np.random.default_rng(36)
        for t, top in ((0.05, 1.6), (0.35, 12.0), (1.0, 8.0), (4.0, 50.0)):
            x, y = _seeded_field(rng, top)
            coeffs = heat_coefficients(t, grid).coeffs
            field = synthesize_values(coeffs, x, y)
            alone = [synthesize_values(coeffs, x[k:k + 1], y[k:k + 1])[0] for k in range(len(x))]
            assert np.array_equal(field, alone)
            assert np.array_equal(field[:100], synthesize_values(coeffs, x[:100], y[:100]))

    def test_no_row_is_forced(self, grid):
        # a seeded non-heat function whose last node, and one node inside
        # the line, is below NEGLIGIBLE of the largest node term: both are
        # left out, and the rest of the line is kept
        rng = np.random.default_rng(36)
        n, mid = grid.n_cusp, grid.n_cusp + 1 + (grid.size - grid.n_cusp - 1) // 2
        values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        nodes = np.abs(grid.weights * values)[n + 1:]
        for row in (mid, -1):
            values[row] *= 0.1 * NEGLIGIBLE * nodes.max() / nodes[row - n - 1]
        live = synthesis_rows(CoeffFn(grid, values), np.array([1.0, 3.0]))
        assert not live[-1] and not live[mid]
        assert np.count_nonzero(live[n + 1:]) == grid.size - n - 3


class TestFieldRefusals:
    @pytest.mark.parametrize("x, y, message", [
        ([math.nan], [1.0], "points need finite x, 0 < y < inf, got x = nan, y = 1.0 at 0"),
        ([0.1, -math.inf], [1.0, 2.0],
         "points need finite x, 0 < y < inf, got x = -inf, y = 2.0 at 1"),
        ([0.1], [math.inf], "points need finite x, 0 < y < inf, got x = 0.1, y = inf at 0"),
        ([0.1], [math.nan], "points need finite x, 0 < y < inf, got x = 0.1, y = nan at 0"),
        ([0.1], [0.0], "points need finite x, 0 < y < inf, got x = 0.1, y = 0.0 at 0"),
        ([0.1], [-1.0], "points need finite x, 0 < y < inf, got x = 0.1, y = -1.0 at 0"),
        ([0.1, 0.2], [1.0], "x and y must be 1-d of one length, got (2,), (1,)"),
        ([0.1], [1.0, 2.0], "x and y must be 1-d of one length, got (1,), (2,)"),
        ([[0.1]], [[1.0]], "x and y must be 1-d of one length, got (1, 1), (1, 1)")])
    def test_fields_refuse_what_points_refuse(self, grid, monkeypatch, x, y, message):
        # by name, before any basis row: no nan answered, no numpy warning,
        # no IndexError and no value at the wrong height
        coeffs = heat_coefficients(1.0, grid).coeffs
        monkeypatch.setattr(type(grid), "basis_rows", None)
        x, y = np.array(x), np.array(y)
        for call in (lambda: synthesize_values(coeffs, x, y), lambda: basis_values(grid, x, y)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as exc:
                    call()
            assert str(exc.value) == message


def _report_hex(rep):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rep))


class TestCoordinateTypes:
    """Integer and sequence coordinates answer with the float inputs' bits."""

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_integer_points(self, grid, kind):
        for t, x, y in [(1, 0, 2), (2, -1, 1), (1, 3, 5)]:
            want = evaluate_heat_kernel(float(t), HPoint(float(x), float(y)), grid)
            got = evaluate_heat_kernel(kind(t), HPoint(kind(x), kind(y)), grid)
            assert _report_hex(got) == _report_hex(want)

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_integer_and_sequence_fields(self, grid, kind):
        coeffs = heat_coefficients(1.0, grid).coeffs
        x, y = [0, 1, -2, 0], [1, 2, 6, 3]
        xf, yf = np.array(x, dtype=float), np.array(y, dtype=float)
        assert synthesize_values(coeffs, kind(x), kind(y)).tobytes() == \
            synthesize_values(coeffs, xf, yf).tobytes()
        assert basis_values(grid, kind(x), kind(y)).tobytes() == \
            basis_values(grid, xf, yf).tobytes()

    def test_integer_patch(self, grid, half_grid):
        patch = [(0, 1), (1, 2), (0, 3)]
        want = partial_synthesis_sup_difference(
            1.0, grid, half_grid, [HPoint(float(x), float(y)) for x, y in patch])
        got = partial_synthesis_sup_difference(1, grid, half_grid, [HPoint(x, y) for x, y in patch])
        assert got.hex() == want.hex()


class TestRowsOnFirstUse:
    """A fresh grid fits its Eisenstein rows on first use.  The heat data
    choose their rows before any fit, and the rows they choose must hold
    every row the synthesis keeps, with the terms of a fully fitted grid."""

    @staticmethod
    def _fresh(dataset):
        cfg = RunConfig()
        return build_grid(dataset, cfg.r_max, cfg.panels, cfg.nodes_per_panel)

    def test_cold_golden_eval_fits_few_rows(self, dataset):
        # 22 cusp rows for the data check and 94 of the 160 nodes at t = 1
        grid = self._fresh(dataset)
        rep = evaluate_heat_kernel(1.0, HPoint(0.25, 1.3), grid)
        assert f"{rep.value.real:.12e}" == "1.132857050437e+00"
        assert grid.n_cusp == 22 and np.count_nonzero(grid.table.bank.fitted) <= 22 + 96

    @pytest.mark.parametrize("t", [0.2, 0.35, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_heat_data_hold_every_live_row(self, t, dataset, grid):
        # synthesis_rows keeps the same rows from the heat data of a fresh
        # grid as from the whole column at i, every one of them fitted, and
        # their terms are bit for bit those of the whole column
        fresh = self._fresh(dataset)
        lazy = heat_coefficients(t, fresh).coeffs
        fitted = np.insert(fresh.table.bank.fitted, fresh.n_cusp, True)
        full = CoeffFn(grid, grid.basis_at_i() * _damping(grid, t))
        for y in (0.87, 1.3, 6.0, 1e3):
            live = synthesis_rows(lazy, np.array([y]))
            assert np.array_equal(live, synthesis_rows(full, np.array([y])))
            assert np.all(fitted[live])
            assert np.array_equal(lazy.values[live], full.values[live])

    def test_repeated_eval_runs_no_quadrature(self, dataset, monkeypatch):
        grid = self._fresh(dataset)
        first = evaluate_heat_kernel(1.0, HPoint(0.25, 1.3), grid)
        monkeypatch.setattr(special, "kbessel_quad", None)
        assert evaluate_heat_kernel(1.0, HPoint(0.25, 1.3), grid) == first

    def test_verify_rows_do_not_depend_on_the_fill(self, dataset):
        # the verify suites print the same rows on a fresh grid that they
        # fill as they go (the oracle suite first) as on a fully fitted grid
        lazy, full = self._fresh(dataset), self._fresh(dataset)
        assert full.basis_at_i().shape == (full.size,) and full.table.bank.fitted.all()
        suites = {"sobolev": verify.sobolev_suite, "semigroup": verify.semigroup_suite,
                  "heat": verify.heat_suite,
                  "oracle": lambda g: verify.oracle_suite(g, RunConfig().oracle_norm_bound)}

        def rows(grid, order):
            return {name: [check.row() for check in suites[name](grid)] for name in order}

        assert rows(lazy, ["oracle", "heat", "sobolev", "semigroup"]) == rows(full, suites)


class TestTranslationToPhysicalSide:
    def test_generator_image_synthesizes_to_the_laplacian(self, grid):
        # two routes to Delta U(t): apply the multiplication under the
        # integral sign, or differentiate the synthesized function; matching
        # them is the numerical content of moving operators through synthesis
        t, h = 0.6, 1e-3
        coeffs = heat_coefficients(t, grid).coeffs
        gen = apply_generator(coeffs)
        for z in (HPoint(0.11, 1.08), HPoint(0.0, 1.3), HPoint(0.27, 1.9),
                  HPoint(-0.35, 1.12), HPoint(0.45, 2.4)):
            xs = np.array([z.x, z.x + h, z.x - h, z.x, z.x])
            ys = np.array([z.y, z.y, z.y, z.y + h, z.y - h])
            u = synthesize_values(coeffs, xs, ys).real
            lap_fd = z.y * z.y * (u[1] + u[2] + u[3] + u[4] - 4.0 * u[0]) / (h * h)
            direct = synthesize_values(gen, np.array([z.x]), np.array([z.y]))[0].real
            assert abs(lap_fd - direct) < 5e-4 * max(abs(direct), 1e-3)


def _cutoff_doubling(t, s_list, grid, doubled_grid):
    """The index-s norms at t on both grids and their largest relative change."""
    (row,), (doubled,) = (profile([t], s_list, g) for g in (grid, doubled_grid))
    a, b = np.array(row[2:]), np.array(doubled[2:])
    return a, b, float(np.max(np.abs(b - a) / a))


class TestSmoothness:
    def test_all_norms_finite_and_tail_stable(self, grid, doubled_grid):
        norms, _, rel = _cutoff_doubling(1.0, [0, 4, 8, 12, 16, 20], grid, doubled_grid)
        assert np.all(np.isfinite(norms) & (norms > 0.0))
        assert rel <= 1e-6

    def test_delta_data_diverges_at_index_zero(self, grid, doubled_grid):
        (a,), (b,), rel = _cutoff_doubling(0.0, [0], grid, doubled_grid)
        assert b >= 1.10 * a
        assert rel > 1e-6

    def test_embedding_constant_on_a_patch(self, grid, half_grid):
        # one classical derivative needs index > 2; the sup-norm change of
        # partial synthesis is controlled by the index-3 tail (empirical
        # constant 0.0088 recorded on the default grids, asserted with margin)
        t = 0.05
        patch = [HPoint(x, y) for x in (0.0, 0.1, 0.31) for y in (1.0, 1.37, 2.0)]
        sup = partial_synthesis_sup_difference(t, grid, half_grid, patch)
        tail = _eisenstein_tail_norm(t, grid, half_grid.r_max, 3)
        assert sup <= 0.02 * tail


@pytest.mark.slow
class TestMassConservation:
    def test_constant_form_coefficient_recovered_by_quadrature(self, grid):
        # close the loop: synthesize U(t), integrate against the constant
        # form over the domain, and land back on the residual coefficient
        quad = QuadSpec(nx=72, y_panels=30, ny_per_panel=18, y_max=2e5)
        x, y, w = quad.nodes()
        constant = grid.basis_at_i([grid.n_cusp])[0]
        masses = []
        for t in (0.7, 1.5):
            vals = synthesize_values(heat_coefficients(t, grid).coeffs, x, y).real
            masses.append(float(np.sum(w * vals)) * constant)
        for m in masses:
            assert abs(m - constant) < 1e-9
        assert abs(masses[0] - masses[1]) < 1e-9
