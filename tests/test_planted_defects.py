"""Planted defects that `verify` must catch.

Each defect is one edit: to an array of a freshly built default grid, never
the session grid and never in the package, or, on the reference side, to
one oracle function for the length of its test (monkeypatch).  Its test
asserts that at least one row of the named suite fails, and the same fresh
grid without a defect passes every row.
"""

import pytest

from autoheat import oracle, verify

ORACLE_BOUND = 25.0


def _node_weights(grid, factor):
    grid.weights[grid.n_cusp + 1:] *= factor


def _node_eigenvalues(grid, factor):
    grid.lambdas[grid.n_cusp + 1:] *= factor


def _residual_weight(grid, factor):
    grid.weights[grid.n_cusp] *= factor


def _plane_kernel(monkeypatch, factor):
    plane = oracle.heat_kernel_plane
    monkeypatch.setattr(oracle, "heat_kernel_plane", lambda t, rho: factor * plane(t, rho))


def _orbit_tail(monkeypatch, factor):
    tail = oracle.orbit_tail
    monkeypatch.setattr(oracle, "orbit_tail", lambda t, z, bound: factor * tail(t, z, bound))


def test_fresh_grid_passes_the_oracle_suite(fresh_grid):
    assert all(check.passed for check in verify.oracle_suite(fresh_grid, ORACLE_BOUND))


@pytest.mark.parametrize("defect", [_node_weights, _node_eigenvalues, _residual_weight])
def test_oracle_suite_catches_a_one_percent_defect(fresh_grid, defect):
    # measured: all 9 rows fail with the node weights or the residual
    # weight off, 4 of 9 with the node eigenvalues off
    defect(fresh_grid, 1.01)
    assert not all(check.passed for check in verify.oracle_suite(fresh_grid, ORACLE_BOUND))


@pytest.mark.parametrize("defect, factor", [(_plane_kernel, 1.01), (_orbit_tail, 1.1)])
def test_oracle_suite_catches_a_defective_reference(fresh_grid, monkeypatch, defect, factor):
    # measured: all 9 rows fail with the plane kernel 1% off, 3 of 9 with
    # the orbit-tail density 3.3/pi in place of 3/pi
    defect(monkeypatch, factor)
    assert not all(check.passed for check in verify.oracle_suite(fresh_grid, ORACLE_BOUND))
