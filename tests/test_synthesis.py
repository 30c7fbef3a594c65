import math

import numpy as np
import pytest

from autoheat.heat import heat_coefficients, profile
from autoheat.hyperbolic import HPoint, QuadSpec, reduce_to_fundamental_domain
from autoheat.oracle import periodized_oracle
from autoheat.sobolev import (
    apply_generator,
    basis_values,
    synthesis_basis,
    synthesize_values,
)
from autoheat.spectral_model import build_grid
from autoheat.synthesis import (
    eisenstein_tail_norm,
    evaluate_heat_kernel,
    partial_synthesis_sup_difference,
)

POINTS = (HPoint(0.0, 1.0), HPoint(0.0, 2.0), HPoint(0.3, 1.1))


class TestEvaluateHeatKernel:
    def test_rejects_time_zero(self, grid):
        with pytest.raises(ValueError):
            evaluate_heat_kernel(0.0, HPoint(0.0, 1.0), grid)

    def test_parts_sum_to_value(self, grid):
        rep = evaluate_heat_kernel(0.8, HPoint(0.3, 1.1), grid)
        total = rep.cusp_part + rep.residual_part + rep.eisenstein_part
        assert abs(rep.value - total) <= 1e-14 * abs(rep.value)
        assert rep.tail_estimate >= 0.0
        assert rep.nodes_used == grid.n_eisenstein

    def test_real_valued(self, grid):
        for z in POINTS:
            rep = evaluate_heat_kernel(1.0, z, grid)
            assert abs(rep.value.imag) <= 1e-9 * abs(rep.value.real)

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
            value = evaluate_heat_kernel(t, z, grid).value
            skipping = synthesize_values(coeffs, x, y)[0]
            full = ((grid.weights * coeffs.values) @ basis_values(grid, x, y))[0]
            assert abs(value - skipping) <= 1e-13 * abs(skipping)
            assert abs(skipping - full) <= 1e-13 * abs(full)
            # the skipped rows are left unevaluated
            column = synthesis_basis(coeffs, x, y)[:grid.n_cusp, 0]
            assert np.all(column[odd] == 0.0) and np.all(column[~odd] != 0.0)

    def test_tail_warning_on_inadequate_cutoff(self, dataset):
        small = build_grid([], r_max=1.5, panels=1, nodes_per_panel=16)
        rep = evaluate_heat_kernel(0.25, HPoint(0.0, 1.0), small)
        assert rep.tail_warning
        assert rep.tail_estimate > 1e-6


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
        tail = eisenstein_tail_norm(t, grid, half_grid.r_max, 3)
        assert sup <= 0.02 * tail


@pytest.mark.slow
class TestMassConservation:
    def test_constant_form_coefficient_recovered_by_quadrature(self, grid):
        # close the loop: synthesize U(t), integrate against the constant
        # form over the domain, and land back on the residual coefficient
        quad = QuadSpec(nx=72, y_panels=30, ny_per_panel=18, y_max=2e5)
        x, y, w = quad.nodes()
        constant = grid.basis_at_i[grid.residual_index]
        masses = []
        for t in (0.7, 1.5):
            vals = synthesize_values(heat_coefficients(t, grid).coeffs, x, y).real
            masses.append(float(np.sum(w * vals)) * constant)
        for m in masses:
            assert abs(m - constant) < 1e-9
        assert abs(masses[0] - masses[1]) < 1e-9
