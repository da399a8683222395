"""Named catalog of drift/volatility functionals for declarative configs.

Calibration from historical data is out of scope, so configs pick a family
by name instead of supplying expressions.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .sim import ProcessSpec, constant_spec

#: Each family's parameters with their defaults, and whether its parameters
#: also take lists of numbers (per asset for constant, per sector for
#: sector-block).  Configs may set only these parameters.
FAMILIES = {
    "constant": ({"mu": 0.0, "sigma": 0.2}, True),
    "affine": ({"mu0": 0.0, "mu1": 0.0, "sigma0": 0.2, "sigma1": 0.0}, False),
    "sector-block": ({"mu_sectors": [0.0], "sigma_sectors": [0.2]}, True),
}


def build_process(
    name: str, params: Mapping, n_assets: int, noise: str = "normal"
) -> ProcessSpec:
    """Instantiate a ProcessSpec from a catalog entry.

    constant:     mu, sigma (scalar or per-asset list)
    affine:       mu = mu0 + mu1 * xi[0]; sigma = max(sigma0 + sigma1 * xi[0], 0)
    sector-block: per-sector mu/sigma lists, assets assigned round-robin

    Parameters missing from ``params`` take their ``FAMILIES`` defaults.
    """
    if name not in FAMILIES:
        raise ValueError(f"unknown catalog entry {name!r}; known: {tuple(FAMILIES)}")
    p = {**FAMILIES[name][0], **params}

    if name == "constant":
        if np.any(np.asarray(p["sigma"], dtype=float) < 0):
            raise ValueError("constant catalog entry has negative sigma")
        return constant_spec(n_assets, p["mu"], p["sigma"], noise)

    if name == "affine":
        mu0, mu1, sigma0, sigma1 = (float(p[k]) for k in ("mu0", "mu1", "sigma0", "sigma1"))

        def sigma(xi):
            s = sigma0 + sigma1 * xi[:, :1]
            # max(s, 0.0) cell by cell; np.maximum would turn -0.0 into 0.0
            return np.where(s < 0.0, 0.0, s)

        return ProcessSpec(n_assets, lambda xi: mu0 + mu1 * xi[:, :1], sigma, noise)

    # sector-block
    mus = np.atleast_1d(np.asarray(p["mu_sectors"], dtype=float))
    sigmas = np.atleast_1d(np.asarray(p["sigma_sectors"], dtype=float))
    if np.any(sigmas < 0):
        raise ValueError("sector-block catalog entry has negative sigma")
    if mus.size != sigmas.size:
        raise ValueError("mu_sectors and sigma_sectors must have equal length")
    sector = np.arange(n_assets) % mus.size
    return constant_spec(n_assets, mus[sector], sigmas[sector], noise)
