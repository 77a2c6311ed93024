"""Exact first and second moments of the path length by dynamic programming.

Write nu_i[n] for the expected path length over n strings emitted from state
i.  Splitting off the first emitted symbol gives, for n >= 2,

    nu_0[n] = n + sum_k b(n, p00, k) (nu_0[k] + nu_1[n-k]),
    nu_1[n] = n + sum_j b(n, p11, j) (nu_0[n-j] + nu_1[j]),

where b(n, p, .) is the binomial pmf.  The k = n and k = 0 terms refer back
to level n itself, so each level is a 2x2 linear system; its determinant
1 - p00^n ... stays away from zero because all p_ij < 1.  Second moments
expand E[(n + A + B)^2] with A, B independent given the split and satisfy a
system with the same matrix.  Everything below the current level is already
known, so one upward sweep fills the whole table.

Binomial weights come from a multiplicative recurrence away from the mode,
truncated below 1e-16 of the peak and renormalized; that keeps each level at
O(sqrt(n)) work and the whole table at O(N^1.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def binomial_window(n: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf restricted to its significant window.

    Returns (k0, w): w[j] is the pmf at k = k0 + j, renormalized to total
    mass 1 after dropping entries below WEIGHT_FLOOR times the peak.  The
    support radius 10*sqrt(npq) + 8 holds everything above the floor.
    """
    if n == 0:
        return 0, np.ones(1)
    q = 1.0 - p
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
    """nu, m2, var rows are indexed [i][n] for initial state i and size n."""

    chain: MarkovChain
    N: int
    nu: np.ndarray  # shape (2, N+1)
    m2: np.ndarray
    var: np.ndarray = field(init=False)

    def __post_init__(self):
        # the subtraction m2 - nu^2 loses ~12 digits at the top of the table,
        # so run it in extended precision before rounding back
        wide = self.m2.astype(np.longdouble) - self.nu.astype(np.longdouble) ** 2
        self.var = wide.astype(np.float64)


def compute_moment_table(chain: MarkovChain, N: int = DEFAULT_HORIZON) -> MomentTable:
    """Fill nu_i[n], m2_i[n] for n = 0..N by one sweep of 2x2 level solves."""
    if N < 0:
        raise ValueError("horizon must be >= 0")
    if N > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {N} exceeds cap {MAX_HORIZON}")
    nu = np.zeros((2, N + 1))
    m2 = np.zeros((2, N + 1))
    p00, p01, p10, p11 = chain.p00, chain.p01, chain.p10, chain.p11
    nu0, nu1 = nu[0], nu[1]
    m20, m21 = m2[0], m2[1]
    for n in range(2, N + 1):
        # endpoint weights feed back into level n; they are the off-window
        # exact masses, or the renormalized in-window values when present
        a00, a01 = p00**n, p01**n
        a11, a10 = p11**n, p10**n
        sums = []
        for p_row, a_hi, a_lo in ((p00, a00, a01), (p11, a11, a10)):
            k0, w = binomial_window(n, p_row)
            ks = np.arange(k0, k0 + len(w))
            interior = (ks > 0) & (ks < n)
            if not interior.all():
                if ks[0] == 0:
                    a_lo = w[0]
                if ks[-1] == n:
                    a_hi = w[-1]
                w = w[interior]
                ks = ks[interior]
            sums.append((ks, w, a_hi, a_lo))
        (ks0, w0, a00, a01), (ks1, w1, a11, a10) = sums
        own0 = nu0[ks0]
        opp0 = nu1[n - ks0]
        own1 = nu1[ks1]
        opp1 = nu0[n - ks1]
        rhs0 = n + np.dot(w0, own0 + opp0)
        rhs1 = n + np.dot(w1, own1 + opp1)
        det = (1.0 - a00) * (1.0 - a11) - a01 * a10
        x = ((1.0 - a11) * rhs0 + a01 * rhs1) / det
        y = (a10 * rhs0 + (1.0 - a00) * rhs1) / det
        nu0[n], nu1[n] = x, y
        # E[(n + A + B)^2] = n^2 + 2n E[A+B] + E[A^2] + 2 E[A]E[B] + E[B^2];
        # E[A+B] summed over the split equals nu_i[n] - n by the mean solve
        rhs0 = n * n + 2.0 * n * (x - n) + np.dot(w0, m20[ks0] + m21[n - ks0] + 2.0 * own0 * opp0)
        rhs1 = n * n + 2.0 * n * (y - n) + np.dot(w1, m21[ks1] + m20[n - ks1] + 2.0 * own1 * opp1)
        m20[n] = ((1.0 - a11) * rhs0 + a01 * rhs1) / det
        m21[n] = (a10 * rhs0 + (1.0 - a00) * rhs1) / det
    return MomentTable(chain, N, nu, m2)


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
