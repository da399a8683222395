"""Named catalog of drift/volatility functionals for declarative configs.

Calibration from historical data is out of scope, so configs pick a family
by name instead of supplying expressions.  Each family's parameters,
defaults and rules live here and nowhere else.
"""

from __future__ import annotations

import sys
from typing import Mapping

import numpy as np

from .sim import ProcessSpec

#: The one table of each family's parameters with their defaults, and whether
#: its parameters also take lists of numbers (per asset for constant, per
#: sector for sector-block).  Configs may set only these parameters.
FAMILIES = {
    "constant": ({"mu": 0.05, "sigma": 0.2}, True),
    "affine": ({"mu0": 0.0, "mu1": 0.0, "sigma0": 0.2, "sigma1": 0.0}, False),
    "sector-block": ({"mu_sectors": [0.0], "sigma_sectors": [0.2]}, True),
}


def finite_number(value) -> bool:
    """An int or float, not a bool, of finite magnitude."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def family_params(name: str, params: Mapping) -> dict:
    """``params`` over the ``FAMILIES`` defaults of family ``name``, as floats
    and lists of floats.  Raises ValueError with the config's message for an
    unknown family or parameter, a value that is not a finite number (or,
    where the family allows, a nonempty list of them), a negative ``sigma`` or
    ``sigma_sectors``, and sector lists of unequal length."""
    if name not in FAMILIES:
        raise ValueError(f"invalid config: unknown process {name!r}")
    defaults, lists = FAMILIES[name]
    unknown = sorted(set(params) - set(defaults), key=str)
    if unknown:
        raise ValueError(f"invalid config: unknown process_params for process {name}: {unknown}")
    kind = "a finite number or a nonempty list of them" if lists else "a finite number"
    for key, value in params.items():
        numbers = value if lists and type(value) is list and value else [value]
        if not all(map(finite_number, numbers)):
            raise ValueError(f"invalid config: simulate.process_params.{key} must be {kind}, got {value!r}")
        # constant and sector-block take sigma as given; affine clips its sigma at 0
        if key in ("sigma", "sigma_sectors") and min(numbers) < 0:
            raise ValueError(f"invalid config: simulate.process_params.{key} must be >= 0, got {value!r}")
    p = {k: [float(x) for x in v] if type(v) is list else float(v) for k, v in {**defaults, **params}.items()}
    if name == "sector-block" and np.size(p["mu_sectors"]) != np.size(p["sigma_sectors"]):
        raise ValueError(
            "invalid config: simulate.process_params.mu_sectors and sigma_sectors must have "
            f"equal length, got {np.size(p['mu_sectors'])} and {np.size(p['sigma_sectors'])}"
        )
    return p


def build_process(
    name: str, params: Mapping, n_assets: int, noise: str = "normal", xi: float = 0.0
) -> ProcessSpec:
    """Instantiate a ProcessSpec from a catalog entry, evaluated at the
    environment factor ``xi``: every family is constant in time.

    constant:     mu, sigma (scalar or per-asset list)
    affine:       mu = mu0 + mu1 * xi; sigma = max(sigma0 + sigma1 * xi, 0)
    sector-block: per-sector mu/sigma lists, assets assigned round-robin

    Raises ValueError with the config's message for what :func:`family_params`
    rejects and for a constant list of neither 1 nor ``n_assets`` values.
    """
    p = family_params(name, params)

    if name == "constant":
        for key, value in p.items():
            if np.size(value) not in (1, n_assets):
                raise ValueError(
                    f"invalid config: simulate.process_params.{key} has {np.size(value)} values, "
                    f"not 1 or one per asset of the run ({n_assets})"
                )
        return ProcessSpec(n_assets, p["mu"], p["sigma"], noise)

    if name == "affine":
        # Python floats overflow to inf without a warning; the run's checks
        # report an inf or NaN that reaches the paths
        mu = p["mu0"] + p["mu1"] * float(xi)
        sigma = p["sigma0"] + p["sigma1"] * float(xi)
        # max(sigma, 0.0); np.maximum would turn -0.0 into 0.0
        return ProcessSpec(n_assets, mu, 0.0 if sigma < 0.0 else sigma, noise)

    # sector-block
    mus, sigmas = (np.atleast_1d(p[k]) for k in ("mu_sectors", "sigma_sectors"))
    sector = np.arange(n_assets) % mus.size
    return ProcessSpec(n_assets, mus[sector], sigmas[sector], noise)
