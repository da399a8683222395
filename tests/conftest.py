import numpy as np
import pytest
from hypothesis import settings

from gaugeport import PricePanel, TimeGrid, constant_spec, simulate
from gaugeport.sim import EnvironmentSeries

# `pytest --hypothesis-profile=ci`: the same examples on every run, and no
# per-example time limit on a slow runner
settings.register_profile("ci", derandomize=True, deadline=None)

FIXTURE_SEED = 20050701

# 11 tradable indices plus a cash column, two years of daily data.
FIXTURE_LABELS = (
    "EM Stock",
    "Large Cap Stock",
    "Developed ex-US Stock",
    "High Yield Bond",
    "EM Bond",
    "IG Corporate Bond",
    "Broad Bond",
    "Inflation Linked Bond",
    "US Real Estate",
    "Global ex-US Real Estate",
    "Commodities",
    "USD#cash",
)

FIXTURE_MU = np.array(
    [0.09, 0.08, 0.06, 0.06, 0.055, 0.045, 0.035, 0.03, 0.07, 0.065, 0.02, -0.01]
)
FIXTURE_SIGMA = np.array(
    [0.24, 0.18, 0.20, 0.10, 0.12, 0.07, 0.05, 0.06, 0.22, 0.21, 0.25, 0.012]
)


def build_fixture_panel() -> PricePanel:
    grid = TimeGrid(t0=0.0, dt=1.0 / 252, steps=504)
    spec = constant_spec(12, FIXTURE_MU, FIXTURE_SIGMA)
    env = EnvironmentSeries.constant(grid)
    paths = simulate(spec, env, grid, n_paths=1, seed=FIXTURE_SEED)
    return PricePanel(grid=grid, prices=paths.paths[0], asset_ids=FIXTURE_LABELS)


@pytest.fixture(scope="session")
def fixture_panel() -> PricePanel:
    return build_fixture_panel()


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory, fixture_panel):
    from gaugeport.io import export_panel

    path = tmp_path_factory.mktemp("data") / "panel.csv"
    export_panel(fixture_panel, path)
    return path
