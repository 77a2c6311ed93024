"""The resampling version of the contraction map, kept beside the tests as a
Monte Carlo cross-check of the exact map in `clt_harness`.

`apply_T` here iterates clouds of samples by bootstrap resampling, from the
counter-seeded standardized uniform cloud of `uniform_cloud`; the empirical
CDF of each cloud then stands against the exact law's CDF within a
Dvoretzky-Kiefer-Wolfowitz bound.
"""

import math

import numpy as np

from trielab.clt_harness import EmptyCloud
from trielab.markov_source import MarkovChain, stream_seeds, uniforms_at


def apply_T(
    x0: np.ndarray, x1: np.ndarray, chain: MarkovChain, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One resampling step of the distributional map on centered laws.

    Output samples combine independent with-replacement draws W0, W1 from the
    two clouds as (sqrt(p00) W0 + sqrt(p01) W1, sqrt(p10) W0 + sqrt(p11) W1);
    each coefficient pair has squares summing to 1, so unit-variance inputs
    give unit variance in expectation.  The map contracts only on centered
    laws, and its coefficient rows sum to more than 1, so each output cloud is
    centered on its own sample mean: without that the O(1/sqrt(m)) mean error
    of every step would grow about 1.4x per step.  Outputs have mean 0 up to
    rounding.
    """
    if x0.size == 0 or x1.size == 0:
        raise EmptyCloud("both clouds must be nonempty")

    def draws(salt: int, count: int, source: np.ndarray) -> np.ndarray:
        u = uniforms_at(stream_seeds(seed, salt), np.arange(count)) * 2.0**-53
        return source[(u * source.size).astype(np.int64)]

    r00, r01, r10, r11 = (math.sqrt(p) for p in (chain.p00, chain.p01, chain.p10, chain.p11))
    out0 = r00 * draws(0, x0.size, x0) + r01 * draws(1, x0.size, x1)
    out1 = r10 * draws(2, x1.size, x0) + r11 * draws(3, x1.size, x1)
    return out0 - out0.mean(), out1 - out1.mean()


def uniform_cloud(m: int, seed: int) -> np.ndarray:
    """Standardized uniform samples (mean 0, variance 1), counter seeded."""
    u = uniforms_at(stream_seeds(seed, 100), np.arange(m)) * 2.0**-53
    return (u - 0.5) * math.sqrt(12.0)
