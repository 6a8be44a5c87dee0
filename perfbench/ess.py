"""Multi-chain effective sample size, written independently of bregbayes.

The estimator follows Vehtari, Gelman, Simpson, Carpenter & Buerkner,
"Rank-normalization, folding, and localization: an improved R-hat"
(Bayesian Analysis 16, 2021), without the rank normalisation: the
between/within-chain variance combination and Geyer's (1992) initial
monotone sequence of paired autocorrelations.
"""

from __future__ import annotations

import numpy as np


def ess_per_coordinate(chains) -> np.ndarray:
    """ESS of every coordinate from an (M chains, N draws, d) array.

    A 2-D (M, N) input is one coordinate. Coordinates that never move in
    any chain have no defined ESS and come back as NaN.
    """
    x = np.asarray(chains, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3:
        raise ValueError("chains must be shaped (chains, draws[, coords])")
    m, n, _ = x.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    means = x.mean(axis=1)
    centered = x - means[:, None, :]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, n=nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=1)[:, :n, :] / n
    within = acov[:, 0, :].mean(axis=0) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus = var_plus + means.var(axis=0, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    n_pairs = n // 2
    pairs = rho[0:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    # initial positive sequence, then made monotone non-increasing
    positive = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(np.where(positive, pairs, 0.0), axis=0)
    tau = -1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=0)
    total = m * n
    tau = np.maximum(tau, 1.0 / np.log10(total))
    out = total / tau
    out[~(var_plus > 0.0)] = np.nan
    return out


def median_ess(chains) -> float:
    """Median over coordinates of the multi-chain ESS."""
    return float(np.nanmedian(ess_per_coordinate(chains)))
