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
1e-16 of the peak (read at the binomial mode) and renormalized.  The sweep
steps each row from the level below by Pascal's rule, one convolution of the
window with (q, p), which keeps each level at O(sqrt(n)) work and the whole
table at O(N^1.5).  Once a window holds neither endpoint k = 0 nor k = n, its
renormalized mass is all interior and the endpoint masses are the exact
q^n and p^n, so the level reads no endpoint from the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trielab.markov_source import MarkovChain, entropy_rate

# construction is O(N^1.5) time but O(N) memory; the cap keeps a typo like
# N=10**9 from looking like a hang
MAX_HORIZON = 32768

# weights this far below the binomial peak are dropped and the rest rescaled
WEIGHT_FLOOR = 1e-16


class HorizonTooLarge(ValueError):
    """Requested table horizon exceeds the cap on the O(N^1.5) construction."""


def pmf_from_mode(lo: int, mode: int, hi: int, up, down) -> np.ndarray:
    """Unnormalized unimodal pmf on lo..hi, anchored at 1 at its mode.

    `up(k)` gives the ratios f(k+1)/f(k) at k = mode..hi-1 and `down(k)` the
    ratios f(k-1)/f(k) at k = mode..lo+1, each for a float array of k.  Their
    cumulative products outward from the mode only ever decrease, so nothing
    overflows and no large logarithms have to cancel.
    """
    w = np.empty(hi - lo + 1)
    w[mode - lo] = 1.0
    if hi > mode:
        w[mode - lo + 1 :] = np.cumprod(up(np.arange(mode, hi, dtype=np.float64)))
    if lo < mode:
        w[: mode - lo] = np.cumprod(down(np.arange(mode, lo, -1.0)))[::-1]
    return w


def binomial_window(
    n: int, p: float, below: tuple[int, np.ndarray] | None = None
) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf restricted to its significant window.

    Returns (k0, w): w[j] is the pmf at k = k0 + j, renormalized to total
    mass 1 after dropping entries below WEIGHT_FLOOR times the peak.

    Without `below` the row is built directly from the mode outward; the
    support radius 10*sqrt(npq) + 8 holds everything above the floor.  With
    `below`, the window (k0, w) of Binomial(n-1, p), the row is one Pascal
    step b(n, k) = p b(n-1, k-1) + q b(n-1, k) over that window, the
    convolution of w with (q, p); its floor is taken from the entry at the
    mode int((n+1) p), where the stepped row peaks.
    """
    q = 1.0 - p
    if below is not None:
        k0, w = below
        # v[k] = p w[k-1] + q w[k], one full correlation (a convolution
        # with (q, p) that skips np.convolve's argument handling)
        v = np.correlate(w, (p, q), "full")
        # the row is unimodal with its peak at the binomial mode, so only its
        # ends can fall under the floor
        floor = WEIGHT_FLOOR * v[min(int((n + 1) * p), n) - k0]
        first, last = 0, len(v)
        while v[first] < floor:
            first += 1
        while v[last - 1] < floor:
            last -= 1
        v = v[first:last]
        v *= 1.0 / v.sum()
        return k0 + first, v
    mode = int((n + 1) * p)
    mode = min(max(mode, 0), n)
    half = int(10.0 * np.sqrt(n * p * q)) + 8
    lo = max(0, mode - half)
    hi = min(n, mode + half)
    # pmf ratios b(k+1)/b(k) = (n-k)/(k+1) * p/q and b(k-1)/b(k) = k/(n-k+1) * q/p
    w = pmf_from_mode(lo, mode, hi, lambda k: (n - k) / (k + 1.0) * (p / q),
                      lambda k: k / (n - k + 1.0) * (q / p))
    keep = w >= WEIGHT_FLOOR
    first = int(np.argmax(keep))
    last = len(w) - int(np.argmax(keep[::-1]))
    w = w[first:last]
    w /= w.sum()
    return lo + first, w


@dataclass(frozen=True)
class MomentTable:
    """nu and var rows are indexed [i][n] for initial state i and size n."""

    chain: MarkovChain
    N: int
    nu: np.ndarray  # shape (2, N+1)
    var: np.ndarray


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


def check_horizon(N: int) -> None:
    """Raise ValueError unless 0 <= N, and HorizonTooLarge if N exceeds MAX_HORIZON."""
    if N < 0:
        raise ValueError("horizon must be >= 0")
    if N > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {N} exceeds cap {MAX_HORIZON}")


def compute_moment_table(chain: MarkovChain, N: int) -> MomentTable:
    """Fill nu_i[n], var_i[n] for n = 0..N by one sweep of 2x2 level solves."""
    check_horizon(N)
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
            s, e = k0, k0 + len(w)
            if s >= 1 and e <= n:
                # both endpoints lie off the window: their exact masses feed
                # back into level n, and the renormalized row is all interior
                a_same, a_other, mass = p**n, (1.0 - p) ** n, 1.0
            else:
                # endpoint weights are the renormalized in-window values when
                # present, else the off-window exact masses
                a_same = w[-1] if e == n + 1 else p**n
                a_other = w[0] if s == 0 else (1.0 - p) ** n
                s, e = max(s, 1), min(e, n)
                w = w[s - k0 : e - k0]
                mass = w.sum()
            # opp[n - k] for k = s..e-1; the stop n - e is >= 0, so it never wraps
            g = own[s:e] + opp[n - s : n - e : -1]
            splits.append((s, e, w, g, a_same, a_other, mass, n + float(np.dot(w, g))))
        (*_, a00, a01, s0, rhs0), (*_, a11, a10, s1, rhs1) = splits
        x, y = _solve(a01, a10, s0, s1, rhs0, rhs1)
        nu0[n], nu1[n] = x, y
        # law of total variance over the split: within-part variances plus
        # the spread of g_k around its mean nu_i[n] - n, formed in g's own
        # buffer; the k = n part has g = nu_i[n] and the k = 0 part g = nu_other[n]
        rhs = []
        for (s, e, w, g, a_same, a_other, _, _), (_, _, _, v_own, v_opp), mean, other in zip(
            splits, rows, (x, y), (y, x)
        ):
            g -= mean - n
            g *= g
            g += v_own[s:e]
            g += v_opp[n - s : n - e : -1]
            rhs.append(float(np.dot(w, g)) + a_same * n * n + a_other * (other - mean + n) ** 2)
        var0[n], var1[n] = _solve(a01, a10, s0, s1, *rhs)
    return MomentTable(chain, N, nu, var)


def mixture(w: np.ndarray, means: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a w-mixture of parts with the given means and variances.

    The law of total variance, E[var] + Var(mean), with Var(mean) taken as
    the w-average of squared deviations from the mixed mean, so every term
    is nonnegative and nothing cancels.
    """
    mean = float(np.dot(w, means))
    return mean, float(np.dot(w, variances)) + float(np.dot(w, (means - mean) ** 2))


def root_split(chain: MarkovChain, table: MomentTable, n: int) -> tuple[float, float]:
    """Exact (mean, variance) of the path length of n strings under the chain's
    initial law, by the law of total variance over the B(n, mu0) root split:
    the split sending k strings to state 0 contributes nu_0[k] + nu_1[n-k]
    and var_0[k] + var_1[n-k].

    A delta initial law mu0 = 1 - i (and n = 0) needs no branch: its window is
    the single split sending every string to state i, at weight 1.0, so this
    returns (nu_i[n], var_i[n]) exactly.
    """
    if not 0 <= n <= table.N:
        raise ValueError(f"n={n} outside table horizon {table.N}")
    k0, w = binomial_window(n, chain.mu0)
    ks = np.arange(k0, k0 + len(w))
    return mixture(w, table.nu[0][ks] + table.nu[1][n - ks],
                   table.var[0][ks] + table.var[1][n - ks])


def error_terms(table: MomentTable) -> np.ndarray:
    """f_i[n] = nu_i[n] - (1/H) n log n, shape (2, N+1), with 0 log 0 := 0 and
    H the entropy rate of the table's chain."""
    ns = np.arange(table.N + 1, dtype=np.float64)
    lead = np.zeros_like(ns)
    lead[1:] = ns[1:] * np.log(ns[1:]) / entropy_rate(table.chain)[0]
    return table.nu - lead

