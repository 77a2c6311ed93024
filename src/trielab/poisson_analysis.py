"""Poissonized moments from the exact table.

Replacing the fixed string count by N ~ Poisson(lambda) makes the two subtree
counts independent Poissons, so the mean and variance satisfy exact functional
equations across the split intensities (lambda p_i0, lambda p_i1).  For one
state and one rate, `poissonized` sums the Poisson mixtures

    m_i(lambda)  = sum_n  e^-lambda lambda^n / n!  nu_i[n]
    m_i'(lambda) = sum_n  e^-lambda lambda^n / n!  (nu_i[n+1] - nu_i[n])
    v_i(lambda)  = Var of the size-mixed path length

over one window lambda +- (12 sqrt(lambda) + 12) with one set of weights.
The checks below test the functional equations numerically; their residuals
are pure truncation noise, which the tests' tail bounds on what the window
leaves out certify at <= 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trielab.exact_moments import MAX_HORIZON, MomentTable, mixture, pmf_from_mode


class HorizonTooSmall(ValueError):
    """Poisson window pokes past the moment-table horizon; rebuild with larger N."""


@dataclass(frozen=True)
class PoissonizedValue:
    """m, m' and v of one state at one rate, and their summation window."""

    lam: float
    mean: float
    slope: float
    variance: float
    window: tuple[int, int]


def check_rate(lam: float) -> None:
    """Raise ValueError unless lam is a usable Poisson rate: finite and > 0."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"Poisson rate must be finite and > 0, got {lam}")


def summation_window(lam: float, N: int) -> tuple[int, int]:
    """Summation window (lo, hi) of Poisson(lam); the slope reads the table
    one slot past hi, so the horizon N must reach hi + 1."""
    check_rate(lam)
    spread = 12.0 * math.sqrt(lam) + 12.0
    hi = math.ceil(lam + spread)
    if hi + 1 > N:
        need = f">= {hi + 1}" if hi + 1 <= MAX_HORIZON else f"above the cap of {MAX_HORIZON}"
        raise HorizonTooSmall(f"lambda={lam} needs table horizon {need}, have {N}")
    return max(0, math.floor(lam - spread)), hi


def _weights(lam: float, lo: int, hi: int) -> np.ndarray:
    """Poisson(lam) pmf on lo..hi, normalized to sum 1 over the window.

    The ratios w[n+1]/w[n] = lam/(n+1) are multiplied outward from the
    in-window mode, so no O(lam ln lam) terms have to cancel.  The mass
    outside the window is below 1e-26 of the total, far under rounding.
    """
    mode = min(max(int(lam), lo), hi)
    w = pmf_from_mode(lo, mode, hi, lambda n: lam / (n + 1.0), lambda n: n / lam)
    return w / w.sum()


def poissonized(table: MomentTable, i: int, lam: float) -> PoissonizedValue:
    """Poisson(lam) mixtures of state i from one window: the mean m, its
    derivative m' = E[nu_i(N + 1)] - E[nu_i(N)], the variance E[var | N] +
    Var(nu_i(N))."""
    lo, hi = summation_window(lam, table.N)
    w = _weights(lam, lo, hi)
    nu, var = table.nu[i], table.var[i]
    mean, variance = mixture(w, nu[lo : hi + 1], var[lo : hi + 1])
    slope = float(np.dot(w, nu[lo + 1 : hi + 2])) - mean
    return PoissonizedValue(lam, mean, slope, variance, (lo, hi))


def _split(table: MomentTable, i: int, lam: float) -> list[PoissonizedValue]:
    """State i's mixtures at rate lam, then its two subtrees' at lam p_i0 and lam p_i1."""
    p_i0 = table.chain.p00 if i == 0 else table.chain.p10
    return [poissonized(table, i, lam), poissonized(table, 0, lam * p_i0),
            poissonized(table, 1, lam * (1.0 - p_i0))]


def check_mean_decomposition(table: MomentTable, i: int, lam: float) -> float:
    """Residual of the split identity for Poissonized means, relative scale.

    m_i(lam) = m_0(lam p_i0) + m_1(lam p_i1) + lam (1 - e^-lam) holds exactly;
    the returned |lhs - rhs| / max(1, lhs) is truncation noise only.
    """
    whole, a, b = _split(table, i, lam)
    rhs = a.mean + b.mean + lam * (1.0 - math.exp(-lam))
    return abs(whole.mean - rhs) / max(1.0, abs(whole.mean))


def check_variance_decomposition(table: MomentTable, i: int, lam: float) -> float:
    """Residual of the exact variance decomposition across the first split.

    Direct route: Poisson mixture variance from the table.  Split route: the
    subtree variances plus derivative cross terms plus the toll corrections
    (the e^-lam terms matter only for small lam but are part of the exact
    identity).  Returns |direct - split| / max(1, direct).
    """
    whole, a, b = _split(table, i, lam)
    split = (
        a.variance + b.variance
        + 2.0 * a.lam * a.slope + 2.0 * b.lam * b.slope
        + 2.0 * lam * math.exp(-lam) * (a.mean + b.mean)
        + lam * (1.0 - math.exp(-lam))
        + lam * lam * math.exp(-lam) * (2.0 - math.exp(-lam))
    )
    return abs(whole.variance - split) / max(1.0, abs(whole.variance))
