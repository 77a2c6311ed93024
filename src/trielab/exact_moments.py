"""Exact mean and variance of the path length by dynamic programming.

Write nu_i[n] for the expected path length over n strings emitted from state
i.  Splitting off the first emitted symbol gives, for n >= 2,

    nu_0[n] = n + sum_k b(n, p00, k) (nu_0[k] + nu_1[n-k]),
    nu_1[n] = n + sum_j b(n, p11, j) (nu_0[n-j] + nu_1[j]),

where b(n, p, .) is the binomial pmf.  The k = n and k = 0 terms refer back
to level n itself, so each level is a 2x2 linear system; its determinant
stays away from zero because all p_ij < 1, and `_solve` forms it from masses
without cancellation.  Once the means of level n are known, the law of total
variance over the split gives the variances by a system with the same
matrix: for state 0 the within term sum_k b (v_0[k] + v_1[n-k]) plus the
between term sum_k b (g_k - nu_0[n] + n)^2, g_k = nu_0[k] + nu_1[n-k].  Every
term is nonnegative, so the variance needs no subtraction of second moments
and no extended precision.  Everything below the current level is already
known, so one upward sweep fills the whole table.

Binomial weights are kept only in their significant window, truncated below
1e-16 of the peak and renormalized.  The sweep steps each row from the level
below by Pascal's rule, one multiply and one add over the window, which
keeps each level at O(sqrt(n)) work and the whole table at O(N^1.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trielab.markov_source import MarkovChain

# construction is O(N^1.5) time but O(N) memory; the cap keeps a typo like
# N=10**9 from looking like a hang
MAX_HORIZON = 32768

DEFAULT_HORIZON = 8192

# weights this far below the binomial peak are dropped and the rest rescaled
WEIGHT_FLOOR = 1e-16


class HorizonTooLarge(ValueError):
    """Requested table horizon exceeds the cap on the O(N^1.5) construction."""


def binomial_window(
    n: int, p: float, below: tuple[int, np.ndarray] | None = None
) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf restricted to its significant window.

    Returns (k0, w): w[j] is the pmf at k = k0 + j, renormalized to total
    mass 1 after dropping entries below WEIGHT_FLOOR times the peak.

    Without `below` the row is built directly from the mode outward; the
    support radius 10*sqrt(npq) + 8 holds everything above the floor.  With
    `below`, the window (k0, w) of Binomial(n-1, p), the row is one Pascal
    step b(n, k) = p b(n-1, k-1) + q b(n-1, k) over that window.
    """
    q = 1.0 - p
    if below is not None:
        k0, w = below
        v = np.empty(len(w) + 1)
        np.multiply(w, q, out=v[:-1])
        v[-1] = 0.0
        v[1:] += p * w
        # the row is unimodal, so only its ends can fall under the floor
        floor = WEIGHT_FLOOR * v.max()
        first, last = 0, len(v)
        while v[first] < floor:
            first += 1
        while v[last - 1] < floor:
            last -= 1
        v = v[first:last]
        v /= v.sum()
        return k0 + first, v
    if n == 0:
        return 0, np.ones(1)
    mode = int((n + 1) * p)
    mode = min(max(mode, 0), n)
    half = int(10.0 * np.sqrt(n * p * q)) + 8
    lo = max(0, mode - half)
    hi = min(n, mode + half)
    # pmf ratios b(k+1)/b(k) = (n-k)/(k+1) * p/q; cumprod outward from the
    # mode only ever decreases, so no overflow is possible
    w = np.empty(hi - lo + 1)
    w[mode - lo] = 1.0
    if hi > mode:
        k = np.arange(mode, hi, dtype=np.float64)
        w[mode - lo + 1 :] = np.cumprod((n - k) / (k + 1.0) * (p / q))
    if lo < mode:
        k = np.arange(mode, lo, -1.0)
        w[: mode - lo] = np.cumprod(k / (n - k + 1.0) * (q / p))[::-1]
    keep = w >= WEIGHT_FLOOR
    first = int(np.argmax(keep))
    last = len(w) - int(np.argmax(keep[::-1]))
    w = w[first:last]
    w /= w.sum()
    return lo + first, w


@dataclass
class MomentTable:
    """nu and var rows are indexed [i][n] for initial state i and size n."""

    chain: MarkovChain
    N: int
    nu: np.ndarray  # shape (2, N+1)
    var: np.ndarray

    @property
    def m2(self) -> np.ndarray:
        """Second moments E[L^2] = var + nu^2, derived afresh on each read."""
        return self.var + self.nu**2


def _solve(a01: float, a10: float, s0: float, s1: float,
           rhs0: float, rhs1: float) -> tuple[float, float]:
    """Solve (1 - a00) x - a01 y = rhs0, -a10 x + (1 - a11) y = rhs1.

    Row i's weights sum to 1, so 1 - a00 = a01 + s0 and 1 - a11 = a10 + s1,
    with s_i the interior mass 0 < k < n.  Written that way the determinant
    is a sum of nonnegative terms, which keeps it accurate to rounding even
    when a01 a10 is within 1e-8 of 1 (p00 and p11 near PROB_FLOOR).
    """
    det = a01 * s1 + a10 * s0 + s0 * s1
    c0, c1 = a01 + s0, a10 + s1
    return (c1 * rhs0 + a01 * rhs1) / det, (a10 * rhs0 + c0 * rhs1) / det


def compute_moment_table(chain: MarkovChain, N: int = DEFAULT_HORIZON) -> MomentTable:
    """Fill nu_i[n], var_i[n] for n = 0..N by one sweep of 2x2 level solves."""
    if N < 0:
        raise ValueError("horizon must be >= 0")
    if N > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {N} exceeds cap {MAX_HORIZON}")
    nu = np.zeros((2, N + 1))
    var = np.zeros((2, N + 1))
    nu0, nu1 = nu[0], nu[1]
    var0, var1 = var[0], var[1]
    # row i splits on the count k of strings staying in state i; `own` is
    # indexed by k and `opp` by n - k
    rows = ((chain.p00, nu0, nu1, var0, var1), (chain.p11, nu1, nu0, var1, var0))
    # Binomial(1, p) rows, stepped up one level per pass below
    windows = [(0, np.array([chain.p01, chain.p00])), (0, np.array([chain.p10, chain.p11]))]
    for n in range(2, N + 1):
        splits = []
        for i, (p, own, opp, _, _) in enumerate(rows):
            k0, w = windows[i] = binomial_window(n, p, windows[i])
            end = k0 + len(w)
            # endpoint weights feed back into level n; they are the off-window
            # exact masses, or the renormalized in-window values when present
            a_same = w[-1] if end == n + 1 else p**n
            a_other = w[0] if k0 == 0 else (1.0 - p) ** n
            s, e = max(k0, 1), min(end, n)
            w = w[s - k0 : e - k0]
            g = own[s:e] + opp[n - e + 1 : n - s + 1][::-1]
            splits.append((s, e, w, g, a_same, a_other, w.sum(), n + np.dot(w, g)))
        (*_, a00, a01, s0, rhs0), (*_, a11, a10, s1, rhs1) = splits
        x, y = _solve(a01, a10, s0, s1, rhs0, rhs1)
        nu0[n], nu1[n] = x, y
        # law of total variance over the split: within-part variances plus
        # the spread of g_k around its mean nu_i[n] - n; the k = n part has
        # g = nu_i[n] and the k = 0 part g = nu_other[n]
        rhs = []
        for (s, e, w, g, a_same, a_other, _, _), (_, _, _, v_own, v_opp), mean, other in zip(
            splits, rows, (x, y), (y, x)
        ):
            d = g - (mean - n)
            within = v_own[s:e] + v_opp[n - e + 1 : n - s + 1][::-1]
            rhs.append(np.dot(w, within + d * d)
                       + a_same * n * n + a_other * (other - mean + n) ** 2)
        var0[n], var1[n] = _solve(a01, a10, s0, s1, *rhs)
    return MomentTable(chain, N, nu, var)


def _split_weights(n: int, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Window of the B(n, mu0) root split; handles degenerate mu."""
    if mu0 <= 0.0:
        return np.array([0]), np.ones(1)
    if mu0 >= 1.0:
        return np.array([n]), np.ones(1)
    k0, w = binomial_window(n, mu0)
    return np.arange(k0, k0 + len(w)), w


def mean_for_initial(chain: MarkovChain, table: MomentTable, n: int) -> float:
    """E over the root split: sum_k b(n, mu0, k) (nu_0[k] + nu_1[n-k])."""
    if not 0 <= n <= table.N:
        raise ValueError(f"n={n} outside table horizon {table.N}")
    ks, w = _split_weights(n, chain.mu0)
    return float(np.dot(w, table.nu[0][ks] + table.nu[1][n - ks]))


def variance_for_initial(chain: MarkovChain, table: MomentTable, n: int) -> float:
    """Total variance over the root split: E[var | split] + var of E[. | split]."""
    if not 0 <= n <= table.N:
        raise ValueError(f"n={n} outside table horizon {table.N}")
    if n < 2:
        return 0.0
    ks, w = _split_weights(n, chain.mu0)
    g = table.nu[0][ks] + table.nu[1][n - ks]
    within = float(np.dot(w, table.var[0][ks] + table.var[1][n - ks]))
    center = float(np.dot(w, g))
    between = float(np.dot(w, (g - center) ** 2))
    return within + between


@dataclass(frozen=True)
class ErrorTermTable:
    """f_i[n] = nu_i[n] - (1/H) n log n and the max one-step increment."""

    f: np.ndarray  # shape (2, N+1)
    max_increment: float

    def window_max_increment(self, lo: int, hi: int) -> float:
        """max |f_i[n+1] - f_i[n]| over n in [lo, hi), both initial states."""
        steps = np.abs(np.diff(self.f[:, lo : hi + 1], axis=1))
        return float(steps.max())


def error_terms(table: MomentTable, entropy: float) -> np.ndarray:
    """f_i[n] = nu_i[n] - (1/H) n log n, shape (2, N+1), with 0 log 0 := 0."""
    ns = np.arange(table.N + 1, dtype=np.float64)
    lead = np.zeros_like(ns)
    lead[1:] = ns[1:] * np.log(ns[1:]) / entropy
    return table.nu - lead


def error_term_table(chain: MarkovChain, table: MomentTable, entropy: float) -> ErrorTermTable:
    """Deviation table of an asymmetric chain; symmetric ones raise SymmetricChain."""
    chain.require_asymmetric()
    f = error_terms(table, entropy)
    return ErrorTermTable(f, float(np.abs(np.diff(f, axis=1)).max()))
