"""Monte Carlo engine: sample path lengths, standardize, and test normality.

The simulated statistic follows the oracle's convention: it is the trie's
external path length minus n, i.e. depth is counted below the level that
resolves each string's initial state.  That makes sample means directly
comparable to the exact mean from `exact_moments.root_split` and keeps every
centered or scaled quantity unchanged (the shift is deterministic).

All randomness is counter based: replicate r of a run with master seed s uses
sub-seed mix(s, r), so results are independent of execution order and thread
count.  The distributional fixed-point map T is realized by resampling on
centered laws, the space where it contracts: it combines independent draws
from two clouds with coefficients whose squares sum to one and centers each
output cloud, so a pair of standard normal clouds is (statistically) a fixed
point, and iterating from any other centered unit-variance pair contracts
toward it.  Every sample cloud is a plain float64 array.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from trielab.exact_moments import MomentTable, root_split
from trielab.markov_source import MarkovChain, replicate_seed, stream_seeds, uniforms_at
from trielab.trie import DepthExceeded, batch_external_path_lengths


class EmptyCloud(ValueError):
    """Operation requires at least one sample."""


class BadScale(ValueError):
    """Standardization scale must be a positive finite number."""


class SingularFit(ValueError):
    """Variance-growth regression needs >= 4 distinct grid points."""


_SQRT_HALF = math.sqrt(0.5)


def summary(x: np.ndarray) -> dict:
    """Moment summary of a sample plus soft pass flags at the 4/sqrt(m) scale.

    The flags describe a standardized cloud (mean near 0, variance near 1);
    on raw clouds they are still reported but not meaningful.  Skewness and
    excess kurtosis use the biased central moments, and read 0 on a constant
    cloud.
    """
    m = x.size
    if m == 0:
        raise EmptyCloud("cloud has no samples")
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if m > 1 else 0.0
    c = x - mean
    m2 = float(np.mean(c * c))
    skew = float(np.mean(c**3)) / m2**1.5 if m2 else 0.0
    kurt = float(np.mean(c**4)) / (m2 * m2) - 3.0 if m2 else 0.0
    ks = ks_distance(x)
    return {
        "count": m,
        "mean": mean,
        "var": var,
        "skew": skew,
        "kurt": kurt,
        "ks": ks,
        "mean_ok": bool(abs(mean) <= 4.0 / math.sqrt(m)),
        "var_ok": bool(abs(var - 1.0) <= 8.0 / math.sqrt(m)),
        "ks_ok": bool(ks <= 0.05),
    }


def check_threads(threads: int) -> None:
    """Raise ValueError unless threads is a usable thread count: >= 0, 0 = auto."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")


def simulate_epl(chain: MarkovChain, n: int, m: int, seed: int, threads: int = 0) -> np.ndarray:
    """m path lengths of tries over n strings; replicate r depends only on (seed, r).

    The first symbol follows the chain's mu0; a chain with mu0 = 1 - i starts
    every string in state i.  Thread-parallel over replicate blocks; the
    counter-based seeding makes the output identical for any thread count.
    threads = 0 picks min(cpu count, 8), an explicit count is clamped to the
    cpu count, and a negative count is a ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    check_threads(threads)
    seeds = replicate_seed(seed, np.arange(m))
    sizes = np.full(m, n, dtype=np.int64)
    threads = max(1, min(threads or 8, os.cpu_count() or 1, m))
    raw = np.empty(m, dtype=np.int64)
    ranges = [
        (start, min(start + math.ceil(m / threads), m))
        for start in range(0, m, math.ceil(m / threads))
    ]

    def run_block(block):
        start, stop = block
        try:
            raw[start:stop] = batch_external_path_lengths(
                chain, sizes[start:stop], seeds[start:stop]
            )
        except DepthExceeded as err:
            raise DepthExceeded(
                err.indices, err.depth, replicate=start + (err.replicate or 0)
            ) from None

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for job in [pool.submit(run_block, b) for b in ranges]:
            job.result()
    shift = n if n >= 2 else 0
    return (raw - shift).astype(np.float64)


def standardize(x: np.ndarray, center: float, scale: float) -> np.ndarray:
    """Elementwise (x - center) / scale."""
    if not (np.isfinite(scale) and scale > 0.0):
        raise BadScale(f"scale must be positive and finite, got {scale}")
    return (x - center) / scale


def ks_distance(x: np.ndarray) -> float:
    """sup_x |empirical CDF - Phi(x)|, evaluated at the sample points."""
    if x.size == 0:
        raise EmptyCloud("cloud has no samples")
    x = np.sort(x)
    m = x.size
    cdf = _normal_cdf(x)
    grid = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / m))))


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-z)/2 by the C library's erfc, z = x * sqrt(1/2) rounded as cephes'
    ndtr rounds it; the memoryview hands math.erfc plain floats without a list of them."""
    return 0.5 * np.fromiter(map(math.erfc, memoryview(x * -_SQRT_HALF)), np.float64, x.size)


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
        u = uniforms_at(stream_seeds(seed, salt), np.arange(count))
        return source[(u * source.size).astype(np.int64)]

    r00, r01, r10, r11 = (math.sqrt(p) for p in (chain.p00, chain.p01, chain.p10, chain.p11))
    out0 = r00 * draws(0, x0.size, x0) + r01 * draws(1, x0.size, x1)
    out1 = r10 * draws(2, x1.size, x0) + r11 * draws(3, x1.size, x1)
    return out0 - out0.mean(), out1 - out1.mean()


def fit_growth_values(ns, values) -> tuple[float, float]:
    """Least-squares (a, b) of the two-term growth model value ~ a n log n + b n
    over explicit (n, value) pairs."""
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ns.size < 4 or ns.min() == ns.max():
        raise SingularFit("need >= 4 grid points with at least 2 distinct sizes")
    design = np.column_stack([ns * np.log(ns), ns])
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2:
        raise SingularFit("design matrix is rank deficient")
    return float(coef[0]), float(coef[1])


def fit_variance_growth(table: MomentTable, grid) -> tuple[float, float]:
    """Growth fit (a, b) of the oracle variance for the table's chain over `grid`."""
    grid = [int(n) for n in grid]
    if any(n < 2 or n > table.N for n in grid):
        raise ValueError(f"grid must lie within [2, {table.N}]")
    values = [root_split(table.chain, table, n)[1] for n in grid]
    return fit_growth_values(grid, values)


def uniform_cloud(m: int, seed: int) -> np.ndarray:
    """Standardized uniform samples (mean 0, variance 1), counter seeded."""
    u = uniforms_at(stream_seeds(seed, 100), np.arange(m))
    return (u - 0.5) * math.sqrt(12.0)
