import numpy as np
import pytest

from autoheat.config import RunConfig
from autoheat.forms import MaassFormData, Parity, load_maass_data
from autoheat.spectral_model import SpectralGrid, build_grid
from autoheat.verify import grid_for_config

DATA_PATH = RunConfig().resolve_data_path()


@pytest.fixture(scope="session")
def forms_of():
    # the cusp-form records a grid's table holds, rebuilt from its rows
    def rebuild(grid):
        t = grid.table
        return tuple(MaassFormData(float(t.bank.r[j]), Parity.ODD if t.odd[j] else Parity.EVEN,
                                   t.coeffs[j, :t.n_max[j]].copy()) for j in range(t.n_cusp))
    return rebuild


@pytest.fixture(scope="session")
def dataset():
    return load_maass_data(DATA_PATH)


@pytest.fixture(scope="session")
def grid():
    # same cache the CLI uses, so the suite builds the default grid once
    return grid_for_config(RunConfig())


@pytest.fixture
def fresh_grid(dataset):
    # a default grid of its own, for a test that edits the grid's arrays
    cfg = RunConfig()
    return build_grid(dataset, cfg.r_max, cfg.panels, cfg.nodes_per_panel)


@pytest.fixture(scope="session")
def doubled_grid(dataset):
    return build_grid(dataset, r_max=24.0, panels=7, nodes_per_panel=32)


@pytest.fixture(scope="session")
def half_grid(dataset):
    return build_grid(dataset, r_max=6.0, panels=5, nodes_per_panel=32)


@pytest.fixture(scope="session")
def parseval_grid(dataset):
    return build_grid(dataset, r_max=20.0, panels=7, nodes_per_panel=32)


@pytest.fixture(scope="session")
def tiny_grid():
    # residual plus a short Eisenstein line: fast algebra checks
    return build_grid([], r_max=4.0, panels=2, nodes_per_panel=8)


@pytest.fixture(scope="session")
def residual_only_grid():
    return SpectralGrid(
        cusp_forms=(),
        eisenstein_r=np.array([]),
        eisenstein_w=np.array([]),
        r_max=1.0,
    )
