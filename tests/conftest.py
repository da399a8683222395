import numpy as np
import pytest
from hypothesis import settings

from gaugeport import PricePanel, TimeGrid

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
    """The panel's bits are frozen: its noise is drawn here, from its own
    Philox key, so a change of the simulator's generator leaves it as it is."""
    grid = TimeGrid(dt=1.0 / 252, steps=504)
    z = np.random.Generator(np.random.Philox(key=[FIXTURE_SEED, 2**62])).standard_normal(
        (grid.steps, FIXTURE_MU.size)
    )
    # the exact log-normal step, multiplied along the steps from s0 = 1
    log_step = (FIXTURE_MU - 0.5 * FIXTURE_SIGMA**2) * grid.dt + FIXTURE_SIGMA * np.sqrt(grid.dt) * z
    prices = np.ones((grid.n_points, FIXTURE_MU.size))
    np.cumprod(np.exp(log_step), axis=0, out=prices[1:])
    return PricePanel(grid=grid, prices=prices, asset_ids=FIXTURE_LABELS)


@pytest.fixture(scope="session")
def fixture_panel() -> PricePanel:
    return build_fixture_panel()


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory, fixture_panel):
    from gaugeport.io import export_panel

    path = tmp_path_factory.mktemp("data") / "panel.csv"
    export_panel(fixture_panel, path)
    return path
