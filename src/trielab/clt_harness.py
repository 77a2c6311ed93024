"""Monte Carlo engine: sample path lengths, standardize, and test normality.

The simulated statistic follows the oracle's convention: it is the trie's
external path length minus n, i.e. depth is counted below the level that
resolves each string's initial state.  That makes sample means directly
comparable to the exact mean from `exact_moments.root_split` and keeps every
centered or scaled quantity unchanged (the shift is deterministic).

All randomness is counter based: replicate r of a run with master seed s uses
sub-seed mix(s, r), so results are independent of execution order and thread
count.  Every sample cloud is a plain float64 array.

The distributional fixed-point map T acts on exact laws, with no sampling:
state i's new law is sqrt(p_i0) Y0 + sqrt(p_i1) Y1 with Y0 and Y1
independent.  From the standardized uniform pair, every iterate is a sum of
independent standardized uniforms, one per path of transitions, weighted by
the square root of the path's probability (`apply_T`).  Its characteristic
function is a product of sinc factors, and an FFT of that product gives the
CDF and so the KS distance to the normal (`law_ks`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from trielab.markov_source import MarkovChain, replicate_seed
from trielab.trie import DepthExceeded, batch_external_path_lengths


class EmptyCloud(ValueError):
    """Operation requires at least one sample."""


class BadScale(ValueError):
    """Standardization scale must be a positive finite number."""


class SingularFit(ValueError):
    """Variance-growth regression needs >= 4 distinct grid points."""


_SQRT_HALF = math.sqrt(0.5)

# the grid of an exact law's CDF: _LAW_POINTS points on [-_LAW_HALF_WIDTH,
# _LAW_HALF_WIDTH); the cumulative trapezoid's error, about dx^2 / 50 with
# dx = 2 * 12 / 2^13, is the floor of `law_ks` (1.7e-7)
_LAW_POINTS = 2**13
_LAW_HALF_WIDTH = 12.0
# where a bound on log|phi| lies below this, `law_ks` takes phi as 0; the
# grid's 4,097 frequencies then move its CDF by at most 2 * 4,097 * 1e-20
_LOG_PHI_FLOOR = math.log(1e-20)


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
    cpu count, and a negative count is a ValueError.  With more than one
    worker, each kernel call is marked shared and packs 2**17-string chunks,
    so the threads pass the GIL between half as many numpy calls; the gain was
    measured at two threads on a 2-core machine, not beyond.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    check_threads(threads)
    seeds = replicate_seed(seed, np.arange(m))
    sizes = np.full(m, n, dtype=np.int64)
    threads = max(1, min(threads or 8, os.cpu_count() or 1, m))
    step = math.ceil(m / threads)

    def run_block(start):
        try:
            return batch_external_path_lengths(chain, sizes[start:start + step],
                                               seeds[start:start + step], shared=threads > 1)
        except DepthExceeded as err:
            raise DepthExceeded(err.indices, err.depth, replicate=start + err.replicate) from None

    # map re-raises the first failing block in block order
    with ThreadPoolExecutor(max_workers=threads) as pool:
        raw = np.concatenate(list(pool.map(run_block, range(0, m, step))))
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


def apply_T(law0: dict, law1: dict) -> tuple[dict, dict]:
    """One step of the distributional map on exact laws.

    A law is a sum of independent standardized uniforms held as
    {(n00, n01, n10, n11): multiplicity}: the key is the transition counts of
    a path, and `multiplicity` uniforms carry that path's weight
    sqrt(p00^n00 p01^n01 p10^n10 p11^n11).  Both states start at
    {(0, 0, 0, 0): 1}.  State 0's new law is sqrt(p00) Y0 + sqrt(p01) Y1 and
    state 1's is sqrt(p10) Y0 + sqrt(p11) Y1, with Y0 and Y1 independent
    copies of the inputs, so each input key gains one transition and equal
    keys merge.  The weights enter only when a law is measured, so the map
    needs no chain and compares no floats.
    """
    out0, out1 = {}, {}
    for law, to0, to1 in ((law0, 0, 2), (law1, 1, 3)):
        for key, mult in law.items():
            for out, count in ((out0, to0), (out1, to1)):
                step = key[:count] + (key[count] + 1,) + key[count + 1:]
                out[step] = out.get(step, 0) + mult
    return out0, out1


def _log_sinc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|sin(a) / a|, sin(a) < 0) for a >= 0; the log is -inf at the zeros of sin.

    Below a = 0.1 the log comes from its Taylor series: there sin(a) / a
    rounds toward 1, and at tiny weights a class of large multiplicity would
    vanish from the product.
    """
    sin = np.sin(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(sin / a))
    small = a < 0.1
    a2 = a[small] ** 2
    out[small] = -a2 * (1 / 6 + a2 * (1 / 180 + a2 * (1 / 2835 + a2 / 37800)))
    return out, sin < 0.0


def _log_characteristic(law: dict, chain: MarkovChain, t: np.ndarray):
    """(log|phi(t)|, sign of phi(t)) of a law of `apply_T` at each t >= 0.

    A standardized uniform of weight w has characteristic function
    sinc(sqrt(3) w t), so phi is the product over classes of that factor to
    the class multiplicity: the logs are summed, and phi is negative where an
    odd number of classes of odd multiplicity have a negative factor.

    Each factor has a bound with no sine in it: |sinc(x)| <= 1/x, and for
    x < pi also log|sinc(x)| <= -x^2 / 6 (the series of log sinc has only
    negative terms there).  Where the product of these bounds lies below
    exp(_LOG_PHI_FLOOR), no factor is evaluated and phi is taken as 0 (log
    -inf, sign +1); on a law near the normal that leaves a few dozen of the
    grid's frequencies.  A class whose weight underflows to 0 has the factor
    sinc(0) = 1 at every t and is left out.
    """
    logp = np.log([chain.p00, chain.p01, chain.p10, chain.p11])
    a = math.sqrt(3.0) * np.exp(0.5 * (np.array(list(law), dtype=np.float64) @ logp))
    mults = np.array(list(law.values()), dtype=np.float64)
    nonzero = a > 0.0
    a, mults = a[nonzero], mults[nonzero]
    # the bound's log at each t: -mult log(a t) summed over the classes with
    # a t >= pi and -mult (a t)^2 / 6 over the others, from running sums over
    # the classes in decreasing order of a
    order = np.argsort(-a)
    log_a = np.log(a[order])
    count, weighted, square = (np.concatenate(([0.0], np.cumsum(mults[order] * v)))
                               for v in (1.0, log_a, a[order] ** 2))
    log_t = np.log(np.maximum(t, np.finfo(np.float64).tiny))
    j = np.searchsorted(-log_a, log_t - math.log(math.pi), side="right")
    bound = -(count[j] * log_t + weighted[j]) - t * t / 6.0 * (square[-1] - square[j])
    measured = bound >= _LOG_PHI_FLOOR
    log_sinc, negative = _log_sinc(a[:, None] * t[measured])
    odd = mults % 2 == 1
    log_abs = np.full(t.shape, -np.inf)
    log_abs[measured] = mults @ log_sinc
    sign = np.ones(t.shape, dtype=np.int64)
    sign[measured] = 1 - 2 * (np.count_nonzero(negative[odd], axis=0) % 2)
    return log_abs, sign


def _law_cdf(law: dict, chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    """(x, F(x)) of a law of `apply_T` on the grid of _LAW_POINTS points.

    The density is the inverse FFT of phi at t_k = k pi / L, the k-th term
    turned by (-1)^k to put the grid's first point at -L, and the CDF is its
    cumulative trapezoid from F(-L) = 0.  The window [-L, L) at L = 12 holds
    all but 2 exp(-L^2 / 6) = 7.6e-11 of the mass, by Hoeffding: the law is a
    sum of independent terms, the one of weight w within sqrt(3) w of 0, and
    the multiplicities times w^2 sum to 1.
    """
    size, half = _LAW_POINTS, _LAW_HALF_WIDTH
    dx = 2.0 * half / size
    log_abs, sign = _log_characteristic(law, chain, math.pi / half * np.arange(size // 2 + 1))
    phi = sign * np.exp(log_abs)
    phi[1::2] *= -1.0
    density = np.fft.irfft(phi, size) / dx
    cdf = np.zeros(size)
    np.cumsum((density[1:] + density[:-1]) * (0.5 * dx), out=cdf[1:])
    return -half + dx * np.arange(size), cdf


def law_ks(law: dict, chain: MarkovChain) -> float:
    """sup_x |F(x) - Phi(x)| of a law of `apply_T` on `chain`, over the grid of
    its CDF; exact up to that grid's floor, with no sampling."""
    x, cdf = _law_cdf(law, chain)
    return float(np.max(np.abs(cdf - _normal_cdf(x))))


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

