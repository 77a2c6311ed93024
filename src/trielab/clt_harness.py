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
toward it.

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
from trielab.poisson_analysis import _weights
from trielab.trie import DepthExceeded, batch_external_path_lengths


class EmptyCloud(ValueError):
    """Operation requires at least one sample."""


class BadScale(ValueError):
    """Standardization scale must be a positive finite number."""


class SingularFit(ValueError):
    """Variance-growth regression needs >= 4 distinct grid points."""


_POISSON_SIZE_SALT = 200  # stream of the per-replicate Poisson sizes
_STANDARDIZATIONS = ("oracle", "asymptotic")


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo run: m tries of n strings each.

    The first symbol follows the chain's mu0; a chain with mu0 = 1 - i starts
    every string in state i.  `standardization` selects the scale used
    downstream: the oracle-exact standard deviation or the asymptotic
    sqrt(sigma^2 n log n).
    """

    chain: MarkovChain
    n: int
    m: int
    seed: int
    standardization: str = "asymptotic"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.standardization not in _STANDARDIZATIONS:
            raise ValueError(f"standardization must be one of {_STANDARDIZATIONS}")


class EmpiricalCloud:
    """Sample cloud with moment summaries and acceptance flags."""

    def __init__(self, samples):
        self.samples = np.asarray(samples, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        self._require_nonempty()
        return float(self.samples.mean())

    def variance(self) -> float:
        self._require_nonempty()
        return float(self.samples.var(ddof=1)) if self.size > 1 else 0.0

    def skewness(self) -> float:
        self._require_nonempty()
        c = self.samples - self.samples.mean()
        m2 = float(np.mean(c * c))
        if m2 == 0.0:
            return 0.0
        return float(np.mean(c**3)) / m2**1.5

    def excess_kurtosis(self) -> float:
        self._require_nonempty()
        c = self.samples - self.samples.mean()
        m2 = float(np.mean(c * c))
        if m2 == 0.0:
            return 0.0
        return float(np.mean(c**4)) / (m2 * m2) - 3.0

    def summary(self) -> dict:
        """Moment summary plus soft pass flags at the 4/sqrt(m) scale.

        The flags describe a standardized cloud (mean near 0, variance near
        1); on raw clouds they are still reported but not meaningful.
        """
        m = self.size
        mean = self.mean()
        var = self.variance()
        ks = ks_distance(self)
        return {
            "count": m,
            "mean": mean,
            "var": var,
            "skew": self.skewness(),
            "kurt": self.excess_kurtosis(),
            "ks": ks,
            "mean_ok": bool(abs(mean) <= 4.0 / math.sqrt(m)),
            "var_ok": bool(abs(var - 1.0) <= 8.0 / math.sqrt(m)),
            "ks_ok": bool(ks <= 0.05),
        }

    def _require_nonempty(self):
        if self.size == 0:
            raise EmptyCloud("cloud has no samples")


def simulate_epl(config: SimulationConfig, threads: int = 0) -> EmpiricalCloud:
    """m independent path-length samples; replicate r depends only on (seed, r).

    Thread-parallel over replicate blocks; the counter-based seeding makes
    the output identical for any thread count.
    """
    m, n = config.m, config.n
    seeds = replicate_seed(config.seed, np.arange(m))
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
                config.chain, sizes[start:stop], seeds[start:stop]
            )
        except DepthExceeded as err:
            raise DepthExceeded(
                err.indices, err.depth, replicate=start + (err.replicate or 0)
            ) from None

    if threads == 1:
        for block in ranges:
            run_block(block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for job in [pool.submit(run_block, b) for b in ranges]:
                job.result()
    shift = n if n >= 2 else 0
    return EmpiricalCloud(raw - shift)


def simulate_epl_poisson(chain: MarkovChain, lam: float, m: int, seed: int) -> EmpiricalCloud:
    """Path lengths of tries over Poisson(lam)-many strings, one draw per replicate."""
    sizes = poisson_sizes(lam, m, seed)
    raw = batch_external_path_lengths(chain, sizes, replicate_seed(seed, np.arange(m)))
    return EmpiricalCloud(raw - np.where(sizes >= 2, sizes, 0))


def poisson_sizes(lam: float, m: int, seed: int) -> np.ndarray:
    """m counter-seeded Poisson(lam) draws, by inverting the CDF at salted uniforms.

    The CDF is the running sum of the exact pmf (`poisson_analysis._weights`)
    up to lam + 12 sqrt(lam) + 12, past which the mass is far below one
    uniform's resolution.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return np.zeros(m, dtype=np.intp)
    top = math.ceil(lam + 12.0 * math.sqrt(lam) + 12.0)
    u = uniforms_at(stream_seeds(seed, _POISSON_SIZE_SALT), np.arange(m))
    return np.searchsorted(np.cumsum(_weights(lam, 0, top)), u, side="right")


def standardize(cloud: EmpiricalCloud, center: float, scale: float) -> EmpiricalCloud:
    """Elementwise (x - center) / scale."""
    if not (np.isfinite(scale) and scale > 0.0):
        raise BadScale(f"scale must be positive and finite, got {scale}")
    return EmpiricalCloud((cloud.samples - center) / scale)


def standardization_parameters(
    config: SimulationConfig, table: MomentTable, sigma2: float
) -> tuple[float, float]:
    """(center, scale) for the configured mode; center is always the exact mean."""
    chain, n = config.chain, config.n
    center = mean_for_initial(chain, table, n)
    if config.standardization == "oracle":
        scale = math.sqrt(variance_for_initial(chain, table, n))
    else:
        scale = math.sqrt(sigma2 * n * math.log(n))
    return center, scale


def ks_distance(cloud: EmpiricalCloud) -> float:
    """sup_x |empirical CDF - Phi(x)|, evaluated at the sample points."""
    if cloud.size == 0:
        raise EmptyCloud("cloud has no samples")
    x = np.sort(cloud.samples)
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


def ks_two_sample(a: EmpiricalCloud, b: EmpiricalCloud) -> float:
    """sup_x |empirical CDF of a - empirical CDF of b|."""
    if a.size == 0 or b.size == 0:
        raise EmptyCloud("both clouds must be nonempty")
    xa, xb = np.sort(a.samples), np.sort(b.samples)
    allx = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, allx, side="right") / xa.size
    fb = np.searchsorted(xb, allx, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def apply_T(
    cloud0: EmpiricalCloud, cloud1: EmpiricalCloud, chain: MarkovChain, seed: int
) -> tuple[EmpiricalCloud, EmpiricalCloud]:
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
    if cloud0.size == 0 or cloud1.size == 0:
        raise EmptyCloud("both clouds must be nonempty")

    def draws(salt: int, count: int, source: np.ndarray) -> np.ndarray:
        u = uniforms_at(stream_seeds(seed, salt), np.arange(count))
        return source[(u * source.size).astype(np.int64)]

    out0 = math.sqrt(chain.p00) * draws(0, cloud0.size, cloud0.samples) + math.sqrt(
        chain.p01
    ) * draws(1, cloud0.size, cloud1.samples)
    out1 = math.sqrt(chain.p10) * draws(2, cloud1.size, cloud0.samples) + math.sqrt(
        chain.p11
    ) * draws(3, cloud1.size, cloud1.samples)
    return EmpiricalCloud(out0 - out0.mean()), EmpiricalCloud(out1 - out1.mean())


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


def uniform_cloud(m: int, seed: int) -> EmpiricalCloud:
    """Standardized uniform samples (mean 0, variance 1), counter seeded."""
    u = uniforms_at(stream_seeds(seed, 100), np.arange(m))
    return EmpiricalCloud((u - 0.5) * math.sqrt(12.0))
