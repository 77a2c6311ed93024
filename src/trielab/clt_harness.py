"""Monte Carlo engine: sample path lengths, standardize, and test normality.

The simulated statistic follows the oracle's convention: it is the trie's
external path length minus n, i.e. depth is counted below the level that
resolves each string's initial state.  That makes sample means directly
comparable to `exact_moments.mean_for_initial` and keeps every centered or
scaled quantity unchanged (the shift is deterministic).

All randomness is counter based: replicate r of a run with master seed s uses
sub-seed mix(s, r), so results are independent of execution order and thread
count.  The distributional fixed-point map T is realized by resampling on
centered laws, the space where it contracts: it combines independent draws
from two clouds with coefficients whose squares sum to one and centers each
output cloud, so a pair of standard normal clouds is (statistically) a fixed
point, and iterating from any other centered unit-variance pair contracts
toward it.  Every sample cloud is a plain float64 array.

The normal CDF behind `ks_distance` is Phi(x) = erfc(-z)/2, z = x/sqrt 2,
with erf and erfc from W. J. Cody's rational Chebyshev approximations
(Math. Comp. 23, 1969; netlib specfun CALERF): one for |z| <= 0.5, one for
0.5 < |z| <= 4 and one in 1/z^2 beyond, the last two times exp(-z^2) split
at trunc(16z)/16 so that the exponential keeps full relative accuracy.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from trielab.exact_moments import MomentTable, mean_for_initial, variance_for_initial
from trielab.markov_source import MarkovChain, replicate_seed, stream_seeds, uniforms_at
from trielab.trie import DepthExceeded, batch_external_path_lengths


class EmptyCloud(ValueError):
    """Operation requires at least one sample."""


class BadScale(ValueError):
    """Standardization scale must be a positive finite number."""


class SingularFit(ValueError):
    """Variance-growth regression needs >= 4 distinct grid points."""


_STANDARDIZATIONS = ("oracle", "asymptotic")


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


def simulate_epl(chain: MarkovChain, n: int, m: int, seed: int, threads: int = 0) -> np.ndarray:
    """m path lengths of tries over n strings; replicate r depends only on (seed, r).

    The first symbol follows the chain's mu0; a chain with mu0 = 1 - i starts
    every string in state i.  Thread-parallel over replicate blocks; the
    counter-based seeding makes the output identical for any thread count.
    threads = 0 picks min(cpu count, 8); a negative count is a ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
    seeds = replicate_seed(seed, np.arange(m))
    sizes = np.full(m, n, dtype=np.int64)
    if threads == 0:
        threads = min(os.cpu_count() or 1, 8)
    threads = max(1, min(threads, m))
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


def standardization_parameters(
    chain: MarkovChain, table: MomentTable, n: int, mode: str, sigma2: float
) -> tuple[float, float]:
    """(center, scale) of the n-string law; center is always the exact mean.

    The scale is the oracle-exact standard deviation for mode "oracle" and
    the asymptotic sqrt(sigma2 n log n) for mode "asymptotic".
    """
    if mode not in _STANDARDIZATIONS:
        raise ValueError(f"standardization must be one of {_STANDARDIZATIONS}")
    center = mean_for_initial(chain, table, n)
    if mode == "oracle":
        scale = math.sqrt(variance_for_initial(chain, table, n))
    else:
        scale = math.sqrt(sigma2 * n * math.log(n))
    return center, scale


def ks_distance(x: np.ndarray) -> float:
    """sup_x |empirical CDF - Phi(x)|, evaluated at the sample points."""
    if x.size == 0:
        raise EmptyCloud("cloud has no samples")
    x = np.sort(x)
    m = x.size
    cdf = _normal_cdf(x)
    grid = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / m))))


# Cody's coefficients, lowest order first: erf(y) = y P(y^2)/Q(y^2) on
# |y| <= 0.5; erfc(y) = exp(-y^2) P(y)/Q(y) on (0.5, 4]; erfc(y) =
# exp(-y^2) (1/sqrt(pi) - r P(r)/Q(r)) / y with r = 1/y^2 beyond 4.  Each Q
# is monic in its top degree.
_ERF_NEAR = (
    (3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
     3.16112374387056560e00, 1.85777706184603153e-1),
    (2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
     2.36012909523441209e01),
)
_ERFC_MID = (
    (1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
     8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
     8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8),
    (1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
     3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
     1.17693950891312499e02, 1.57449261107098347e01),
)
_ERFC_FAR = (
    (6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
     3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2),
    (2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
     1.87295284992346725e00, 2.56852019228982242e00),
)
_ERF_EDGE, _ERFC_EDGE = 0.5, 4.0
_ERFC_CAP = 64.0  # erfc is 0.0 past ~27; capping keeps y = inf from making nan
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _ratio(coeffs, t: np.ndarray) -> np.ndarray:
    """P(t)/Q(t) by Horner, with Q's implicit leading 1."""
    num, den = coeffs
    p = np.full_like(t, num[-1])
    for c in num[-2::-1]:
        p = p * t + c
    q = t + den[-1]
    for c in den[-2::-1]:
        q = q * t + c
    return p / q


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) as exp(-s^2) exp(-(y-s)(y+s)), s = trunc(16y)/16: s^2 is exact."""
    s = np.trunc(16.0 * y) / 16.0
    return np.exp(-s * s) * np.exp(-(y - s) * (y + s))


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    return _exp_neg_square(y) * _ratio(_ERFC_MID, y)


def _erfc_far(y: np.ndarray) -> np.ndarray:
    y = np.minimum(y, _ERFC_CAP)
    r = 1.0 / (y * y)
    return _exp_neg_square(y) * (_INV_SQRT_PI - r * _ratio(_ERFC_FAR, r)) / y


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi at the ascending samples x, each region on its contiguous slice.

    With z = x/sqrt(2), Phi = 1/2 + erf(z)/2 on |z| <= 0.5, erfc(-z)/2 below
    and 1 - erfc(z)/2 above.  z is rounded as x * sqrt(1/2), as cephes' ndtr
    rounds it, so deep in the lower tail the two differ only by erfc's error.
    """
    z = x * _SQRT_HALF
    a, b = np.searchsorted(z, (-_ERFC_EDGE, -_ERF_EDGE), side="left")
    c, d = np.searchsorted(z, (_ERF_EDGE, _ERFC_EDGE), side="right")
    out = np.empty_like(z)
    near = z[b:c]
    out[b:c] = 0.5 + 0.5 * near * _ratio(_ERF_NEAR, near * near)
    with np.errstate(under="ignore"):
        out[:a] = 0.5 * _erfc_far(-z[:a])
        out[d:] = 1.0 - 0.5 * _erfc_far(z[d:])
    out[a:b] = 0.5 * _erfc_mid(-z[a:b])
    out[c:d] = 1.0 - 0.5 * _erfc_mid(z[c:d])
    return out


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


@dataclass(frozen=True)
class VarianceFit:
    """Least-squares var(n) ~ a n log n + b n over a grid of sizes."""

    a: float
    b: float
    residual: float


def fit_growth_values(ns, values) -> VarianceFit:
    """Fit the two-term growth model to explicit (n, value) pairs."""
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ns.size < 4 or ns.min() == ns.max():
        raise SingularFit("need >= 4 grid points with at least 2 distinct sizes")
    design = np.column_stack([ns * np.log(ns), ns])
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2:
        raise SingularFit("design matrix is rank deficient")
    resid = float(np.linalg.norm(design @ coef - values))
    return VarianceFit(float(coef[0]), float(coef[1]), resid)


def fit_variance_growth(table: MomentTable, grid) -> VarianceFit:
    """Growth fit of the oracle variance for the table's chain over `grid`."""
    grid = [int(n) for n in grid]
    if any(n < 2 or n > table.N for n in grid):
        raise ValueError(f"grid must lie within [2, {table.N}]")
    values = [variance_for_initial(table.chain, table, n) for n in grid]
    return fit_growth_values(grid, values)


def uniform_cloud(m: int, seed: int) -> np.ndarray:
    """Standardized uniform samples (mean 0, variance 1), counter seeded."""
    u = uniforms_at(stream_seeds(seed, 100), np.arange(m))
    return (u - 0.5) * math.sqrt(12.0)
