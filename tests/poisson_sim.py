"""Poisson-sized Monte Carlo, kept beside the tests as a certificate.

Each replicate trie holds Poisson(lam)-many strings, so the sample mean of
`simulate_epl_poisson` estimates the Poisson mixture of the exact table
(`poisson_analysis.poissonized(...).mean`).  The sizes come from the package's own
counter generator: the Poisson CDF, summed from the package's pmf over its
summation window, is inverted at salted uniforms.
"""

import math

import numpy as np

from trielab.markov_source import replicate_seed, stream_seeds, uniforms_at
from trielab.poisson_analysis import _weights, summation_window
from trielab.trie import batch_external_path_lengths

_POISSON_SIZE_SALT = 200  # stream of the per-replicate Poisson sizes


def poisson_sizes(lam: float, m: int, seed: int) -> np.ndarray:
    """m counter-seeded Poisson(lam) draws, by inverting the CDF at salted uniforms.

    The CDF is the running sum of the exact pmf up to the top of the
    summation window (`poisson_analysis.summation_window`), past which the
    mass is far below one uniform's resolution.  A rate that is negative or not finite
    raises ValueError.
    """
    if lam == 0.0:
        return np.zeros(m, dtype=np.intp)
    top = summation_window(lam, math.inf)[1]
    u = uniforms_at(stream_seeds(seed, _POISSON_SIZE_SALT), np.arange(m)) * 2.0**-53
    return np.searchsorted(np.cumsum(_weights(lam, 0, top)), u, side="right")


def simulate_epl_poisson(chain, lam: float, m: int, seed: int) -> np.ndarray:
    """Path lengths of tries over Poisson(lam)-many strings, one draw per replicate."""
    sizes = poisson_sizes(lam, m, seed)
    raw = batch_external_path_lengths(chain, sizes, replicate_seed(seed, np.arange(m)))
    return (raw - np.where(sizes >= 2, sizes, 0)).astype(np.float64)
