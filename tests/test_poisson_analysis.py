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
    _window,
    check_mean_decomposition,
    check_variance_decomposition,
    poissonized_mean,
    poissonized_mean_derivative,
    poissonized_variance,
)
from trielab.spectral import sigma_squared

from poisson_sim import simulate_epl_poisson


def test_weights_match_scipy_pmf():
    for lam in (7.0, 100.0, 200.0, 1e4, 3e4):
        lo, hi = _window(lam, 10**5)
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
    pv = poissonized_mean(table67, 0, 100.0)
    assert pv.window == (0, 232)
    assert pv.value == pytest.approx(869.0551111056077, abs=1e-9)
    assert 0.0 <= pv.truncation_bound <= 1e-10 * max(1.0, abs(pv.value))


def test_variance_bound_and_positivity(table67):
    for lam in (10.0, 100.0, 1000.0):
        pv = poissonized_variance(table67, 1, lam)
        assert pv.value > 0.0
        assert pv.truncation_bound <= 1e-10 * max(1.0, pv.value)


def test_mean_monotone_in_lambda(table67):
    values = [poissonized_mean(table67, 0, lam).value for lam in (5.0, 20.0, 80.0, 320.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_invalid_lambda(table67):
    with pytest.raises(ValueError):
        poissonized_mean(table67, 0, 0.0)
    with pytest.raises(ValueError):
        poissonized_variance(table67, 0, -3.0)
    with pytest.raises(ValueError):
        poissonized_mean_derivative(table67, 0, 0.0)
    for bad in (math.nan, math.inf):
        for func in (poissonized_mean, poissonized_variance, poissonized_mean_derivative):
            with pytest.raises(ValueError, match="finite and > 0"):
                func(table67, 0, bad)


def test_horizon_too_small(chain67):
    table = compute_moment_table(chain67, 64)
    with pytest.raises(HorizonTooSmall):
        poissonized_mean(table, 0, 60.0)
    # the derivative needs one extra table slot past the window top
    edge = compute_moment_table(chain67, 97)
    assert poissonized_mean(edge, 0, 25.0).window[1] == 97
    with pytest.raises(HorizonTooSmall):
        poissonized_mean_derivative(edge, 0, 25.0)


def test_mean_derivative(table67):
    d = poissonized_mean_derivative(table67, 0, 100.0)
    assert d == pytest.approx(10.261011561305395, abs=1e-9)
    h = 0.5
    central = (
        poissonized_mean(table67, 0, 100.0 + h).value
        - poissonized_mean(table67, 0, 100.0 - h).value
    ) / (2.0 * h)
    assert d == pytest.approx(central, rel=1e-6)


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
        assert poissonized_mean(table, 0, lam).value == poissonized_mean(table, 1, lam).value
        assert check_mean_decomposition(table, 0, lam) <= 1e-6
        assert check_variance_decomposition(table, 0, lam) <= 1e-6


def test_poisson_sized_simulation_mean(chain67, table67):
    m = 20000
    cloud = simulate_epl_poisson(replace(chain67, mu0=1.0), 100.0, m, 314)
    exact = poissonized_mean(table67, 0, 100.0).value
    slack = 4.0 * math.sqrt(cloud.var(ddof=1) / m)
    assert abs(cloud.mean() - exact) <= slack


def test_variance_growth_slope_matches_spectral_constant(chain67, table67):
    # v_i(lam) - lam * m_i'(lam)^2 grows like sigma^2 lam log lam; the fitted
    # slope over a dyadic ladder should land near the spectral constant
    sig2 = sigma_squared(chain67)[1]
    lams = np.array([256.0, 512.0, 1024.0, 2048.0, 4096.0])
    for i in (0, 1):
        adjusted = np.array(
            [
                poissonized_variance(table67, i, lam).value
                - lam * poissonized_mean_derivative(table67, i, lam) ** 2
                for lam in lams
            ]
        )
        fit = fit_growth_values(lams, adjusted)
        assert abs(fit.a - sig2) <= 0.25 * sig2
