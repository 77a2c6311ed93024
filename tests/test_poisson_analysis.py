import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from trielab.clt_harness import fit_growth_values
from trielab.exact_moments import compute_moment_table
from trielab.markov_source import MarkovChain
from trielab.poisson_analysis import (
    HorizonTooSmall,
    _weights,
    check_mean_decomposition,
    check_variance_decomposition,
    poissonized,
    summation_window,
)
from trielab.spectral import sigma_squared

from poisson_sim import simulate_epl_poisson


def _tail_bound(lam: float, lo: int, hi: int, values: np.ndarray) -> float:
    """Mass outside [lo, hi] times a growth envelope of the summand.

    Left of lo the weights shrink by at least lo/lam per step and the table
    values only decrease, giving a geometric bound.  Right of hi the weight
    ratio is at most rho = lam/hi < 1 while the summand grows no faster than
    c n^2 with c fitted (with 2x headroom) over the computed table, so the
    series sum_j rho^j c (hi+j)^2 converges and is summed directly.
    """
    ns = np.arange(2, len(values), dtype=np.float64)
    c = 0.0 if len(values) <= 2 else 2.0 * float(np.max(values[2:] / ns**2))
    bound = 0.0
    if lo > 0:
        log_p_lo = lo * math.log(lam) - lam - math.lgamma(lo + 1)
        r = lo / lam
        bound += math.exp(log_p_lo) * float(abs(values[lo])) * r / (1.0 - r)
    rho = lam / (hi + 1.0)
    log_p_hi = hi * math.log(lam) - lam - math.lgamma(hi + 1)
    terms = 1
    while rho**terms * (hi + terms) ** 2 > 1e-30 and terms < 20000:
        terms *= 2
    j = np.arange(1.0, terms + 1.0)
    bound += math.exp(log_p_hi) * c * float(np.sum(rho**j * (hi + j) ** 2))
    return bound


def truncation_bounds(table, i: int, lam: float) -> tuple[float, float]:
    """Certified bounds (mean_bound, variance_bound) on what the summation
    window of `poissonized(table, i, lam)` leaves out of m and of v; the
    variance one bounds the left-out second moment E[var + nu^2 | N]."""
    lo, hi = summation_window(lam, table.N)
    nu, var = table.nu[i], table.var[i]
    return _tail_bound(lam, lo, hi, nu), _tail_bound(lam, lo, hi, var + nu**2)


def test_weights_match_scipy_pmf():
    for lam in (7.0, 100.0, 200.0, 1e4, 3e4):
        lo, hi = summation_window(lam, 10**5)
        w = _weights(lam, lo, hi)
        if lam <= 200.0:
            # elementwise only here: at 3e4 scipy's own pmf drifts up to
            # 1.4e-10 relative in the far window
            exact = stats.poisson.pmf(np.arange(lo, hi + 1), lam)
            assert np.max(np.abs(w - exact)) <= 5e-14
            assert np.max(np.abs(w - exact) / np.maximum(exact, 1e-300)) <= 1e-12
        covered = stats.poisson.cdf(hi, lam) - stats.poisson.cdf(lo - 1, lam)
        assert abs(w.sum() - covered) <= 1e-13


def test_mean_frozen_value(table67):
    pv = poissonized(table67, 0, 100.0)
    assert pv.window == (0, 232)
    assert pv.mean == 869.0551111055711
    mean_bound, _ = truncation_bounds(table67, 0, 100.0)
    assert 0.0 <= mean_bound <= 1e-10 * max(1.0, abs(pv.mean))


def test_variance_bound_and_positivity(table67):
    for lam in (10.0, 100.0, 1000.0):
        pv = poissonized(table67, 1, lam)
        assert pv.variance > 0.0
        _, variance_bound = truncation_bounds(table67, 1, lam)
        assert variance_bound <= 1e-10 * max(1.0, pv.variance)


def test_mean_monotone_in_lambda(table67):
    values = [poissonized(table67, 0, lam).mean for lam in (5.0, 20.0, 80.0, 320.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_invalid_lambda(table67):
    for bad in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            poissonized(table67, 0, bad)


def test_horizon_too_small(chain67):
    table = compute_moment_table(chain67, 64)
    with pytest.raises(HorizonTooSmall):
        poissonized(table, 0, 60.0)
    # the slope reads one table slot past the window top, and every value of
    # one rate comes from that one window, so the horizon must reach hi + 1
    with pytest.raises(HorizonTooSmall, match="needs table horizon >= 98, have 97"):
        poissonized(compute_moment_table(chain67, 97), 0, 25.0)
    assert poissonized(compute_moment_table(chain67, 98), 0, 25.0).window == (0, 97)
    # a need above the table cap is named by the cap: no table can meet it
    with pytest.raises(HorizonTooSmall, match="above the cap of 32768, have 32768$"):
        summation_window(4e4, 32768)


def test_mean_derivative(table67):
    d = poissonized(table67, 0, 100.0).slope
    assert d == 10.261011561305054
    h = 0.5
    central = (
        poissonized(table67, 0, 100.0 + h).mean - poissonized(table67, 0, 100.0 - h).mean
    ) / (2.0 * h)
    assert d == pytest.approx(central, rel=1e-6)


# `poisson-check`'s default rates on chain67 at its default horizon 8192:
# (lambda, i) -> (mean residual, variance residual), exact floats
DEFAULT_RESIDUALS = {
    (10.0, 0): (0.0, 2.219147832889044e-16),
    (10.0, 1): (0.0, 6.399940599416673e-16),
    (50.0, 0): (1.49523474531535e-16, 1.9854388739604562e-16),
    (50.0, 1): (0.0, 7.663268911125517e-16),
    (200.0, 0): (1.1625434752809883e-16, 1.0624888779268633e-15),
    (200.0, 1): (0.0, 1.5515070371006204e-15),
    (1000.0, 0): (1.4784232176172724e-16, 5.927462220991726e-15),
    (1000.0, 1): (0.0, 1.9797177082803418e-15),
}


def test_default_residuals_pinned(table67):
    for (lam, i), pinned in DEFAULT_RESIDUALS.items():
        got = (check_mean_decomposition(table67, i, lam),
               check_variance_decomposition(table67, i, lam))
        assert got == pinned, (lam, i)


def test_decomposition_residuals(table67):
    for lam in (5.0, 10.0, 50.0, 200.0, 1000.0):
        for i in (0, 1):
            assert check_mean_decomposition(table67, i, lam) <= 1e-6
            assert check_variance_decomposition(table67, i, lam) <= 1e-6


def test_mean_decomposition_at_large_rate(chain67):
    # the window at lam = 1e4 reaches n = 11212; measured residuals are
    # 1.8e-16 for both states, so the bound leaves 50x headroom
    table = compute_moment_table(chain67, 11300)
    for i in (0, 1):
        assert check_mean_decomposition(table, i, 1e4) <= 1e-14


def test_fair_chain_states_agree():
    fair = MarkovChain(0.5, 0.5, 0.5)
    table = compute_moment_table(fair, 512)
    for lam in (10.0, 100.0):
        assert poissonized(table, 0, lam).mean == poissonized(table, 1, lam).mean
        assert check_mean_decomposition(table, 0, lam) <= 1e-6
        assert check_variance_decomposition(table, 0, lam) <= 1e-6


def test_poisson_sized_simulation_mean(chain67, table67):
    m = 20000
    cloud = simulate_epl_poisson(replace(chain67, mu0=1.0), 100.0, m, 314)
    exact = poissonized(table67, 0, 100.0).mean
    slack = 4.0 * math.sqrt(cloud.var(ddof=1) / m)
    assert abs(cloud.mean() - exact) <= slack


def test_variance_growth_slope_matches_spectral_constant(chain67, table67):
    # v_i(lam) - lam * m_i'(lam)^2 grows like sigma^2 lam log lam; the fitted
    # slope over a dyadic ladder should land near the spectral constant
    sig2 = sigma_squared(chain67)[1]
    lams = np.array([256.0, 512.0, 1024.0, 2048.0, 4096.0])
    for i in (0, 1):
        values = [poissonized(table67, i, lam) for lam in lams]
        adjusted = np.array([v.variance - v.lam * v.slope**2 for v in values])
        a, _ = fit_growth_values(lams, adjusted)
        assert abs(a - sig2) <= 0.25 * sig2
