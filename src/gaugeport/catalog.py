"""Named catalog of drift/volatility functionals for declarative configs.

Calibration from historical data is out of scope, so configs pick a family
by name instead of supplying expressions.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .sim import ProcessSpec, constant_spec

CATALOG_NAMES = ("constant", "affine", "sector-block")


def build_process(
    name: str, params: Mapping, n_assets: int, noise: str = "normal"
) -> ProcessSpec:
    """Instantiate a ProcessSpec from a catalog entry.

    constant:     mu, sigma (scalar or per-asset list)
    affine:       mu = mu0 + mu1 * xi[0]; sigma = max(sigma0 + sigma1 * xi[0], 0)
    sector-block: per-sector mu/sigma lists, assets assigned round-robin
    """
    if name == "constant":
        sigma = params.get("sigma", 0.2)
        if np.any(np.asarray(sigma, dtype=float) < 0):
            raise ValueError("constant catalog entry has negative sigma")
        return constant_spec(n_assets, params.get("mu", 0.0), sigma, noise)

    if name == "affine":
        mu0 = float(params.get("mu0", 0.0))
        mu1 = float(params.get("mu1", 0.0))
        sigma0 = float(params.get("sigma0", 0.2))
        sigma1 = float(params.get("sigma1", 0.0))

        def sigma(xi):
            s = sigma0 + sigma1 * xi[:, :1]
            # max(s, 0.0) cell by cell; np.maximum would turn -0.0 into 0.0
            return np.where(s < 0.0, 0.0, s)

        return ProcessSpec(n_assets, lambda xi: mu0 + mu1 * xi[:, :1], sigma, noise)

    if name == "sector-block":
        mus = np.asarray(params.get("mu_sectors", [0.0]), dtype=float)
        sigmas = np.asarray(params.get("sigma_sectors", [0.2]), dtype=float)
        if np.any(sigmas < 0):
            raise ValueError("sector-block catalog entry has negative sigma")
        if mus.size != sigmas.size:
            raise ValueError("mu_sectors and sigma_sectors must have equal length")
        sector = np.arange(n_assets) % mus.size
        return constant_spec(n_assets, mus[sector], sigmas[sector], noise)

    raise ValueError(f"unknown catalog entry {name!r}; known: {CATALOG_NAMES}")
