"""Planted defects that `verify` must catch.

Each defect is applied to the arrays of a freshly built default grid, never
to the session grid and never in the package; its test asserts that at
least one row of the named suite fails, and the same fresh grid without a
defect passes every row.
"""

import pytest

from autoheat import verify
from autoheat.config import RunConfig
from autoheat.spectral_model import build_grid

ORACLE_BOUND = 25.0


def _node_weights(grid, factor):
    grid.weights[grid.n_cusp + 1:] *= factor
    grid.eisenstein_w *= factor


def _node_eigenvalues(grid, factor):
    grid.lambdas[grid.n_cusp + 1:] *= factor


@pytest.fixture
def fresh_grid(dataset):
    cfg = RunConfig()
    return build_grid(dataset, cfg.r_max, cfg.panels, cfg.nodes_per_panel)


def test_fresh_grid_passes_the_oracle_suite(fresh_grid):
    assert all(check.passed for check in verify.oracle_suite(fresh_grid, ORACLE_BOUND))


@pytest.mark.parametrize("defect", [_node_weights, _node_eigenvalues])
def test_oracle_suite_catches_a_one_percent_defect(fresh_grid, defect):
    # measured: all 9 rows fail with the weights off, 4 of 9 with the eigenvalues off
    defect(fresh_grid, 1.01)
    assert not all(check.passed for check in verify.oracle_suite(fresh_grid, ORACLE_BOUND))
