import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trielab.exact_moments import (
    DEFAULT_HORIZON,
    MAX_HORIZON,
    ErrorTermTable,
    HorizonTooLarge,
    binomial_window,
    compute_moment_table,
    error_term_table,
    mean_for_initial,
    variance_for_initial,
)
from trielab.markov_source import PROB_FLOOR, MarkovChain, SymmetricChain, entropy_rate

_EDGE_P = st.sampled_from([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5]) | st.floats(
    min_value=PROB_FLOOR, max_value=1.0 - PROB_FLOOR
)


def test_frozen_values_n2(chain67):
    table = compute_moment_table(chain67, 16)
    # solved by hand from the two-string split recursion
    assert abs(table.nu[0][2] - 335.0 / 78.0) <= 1e-12
    assert abs(table.nu[1][2] - 365.0 / 78.0) <= 1e-12
    assert abs(table.var[0][2] - 64765.0 / 6084.0) <= 1e-11
    assert abs(table.var[1][2] - 73585.0 / 6084.0) <= 1e-11


def test_fair_chain_small_values():
    fair = MarkovChain(0.5, 0.5, 0.5)
    table = compute_moment_table(fair, 32)
    assert (table.nu[0] == table.nu[1]).all()
    assert (table.var[0] == table.var[1]).all()
    # two strings separate after Geometric(1/2) shared levels:
    # L_2 = 2 * G with E[G] = 2, Var(G) = 2
    assert abs(table.nu[0][2] - 4.0) <= 1e-12
    assert abs(table.var[0][2] - 8.0) <= 1e-11
    assert table.nu[0][0] == 0.0 and table.nu[0][1] == 0.0
    assert table.var[0][0] == 0.0 and table.var[0][1] == 0.0


def test_horizon_guardrails(chain67):
    with pytest.raises(HorizonTooLarge):
        compute_moment_table(chain67, MAX_HORIZON + 1)
    with pytest.raises(ValueError):
        compute_moment_table(chain67, -1)
    assert compute_moment_table(chain67, 1).nu.shape == (2, 2)
    table = compute_moment_table(chain67, 16)
    assert table.N == 16
    assert table.nu.shape == (2, 17)
    assert DEFAULT_HORIZON == 8192


@given(st.integers(min_value=2, max_value=3000),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_binomial_window_matches_scipy(n, p):
    k0, w = binomial_window(n, p)
    ks = np.arange(k0, k0 + len(w))
    exact = stats.binom.pmf(ks, n, p)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(w - exact)) <= 1e-13
    # the window really does capture everything but dust
    assert stats.binom.cdf(k0 - 1, n, p) + stats.binom.sf(k0 + len(w) - 1, n, p) <= 1e-10


@pytest.mark.parametrize("p", [PROB_FLOOR, 0.05, 0.6, 0.7, 0.95, 1.0 - PROB_FLOOR])
def test_stepped_windows_match_direct(p):
    # the DP steps each row from Binomial(1, p) up by Pascal's rule; 8192
    # steps must stay on the directly built rows, and keep their mass
    k0, w = 0, np.array([1.0 - p, p])
    for n in range(2, 8193):
        k0, w = binomial_window(n, p, (k0, w))
        if n % 97 == 0:
            d0, dw = binomial_window(n, p)
            lo, hi = min(k0, d0), max(k0 + len(w), d0 + len(dw))
            stepped, direct = np.zeros(hi - lo), np.zeros(hi - lo)
            stepped[k0 - lo : k0 - lo + len(w)] = w
            direct[d0 - lo : d0 - lo + len(dw)] = dw
            assert np.max(np.abs(stepped - direct)) <= 1e-13 * dw.max()
        if n in (2, 97, 1000, 8192):
            outside = stats.binom.cdf(k0 - 1, n, p) + stats.binom.sf(k0 + len(w) - 1, n, p)
            assert outside <= 1e-10
            assert abs(w.sum() - 1.0) <= 1e-12


def _exact_moments(p00: float, p11: float, N: int):
    """nu and var rows in exact rationals from the second-moment recurrence.

    The chain is the one the float DP sees: p00 and p11 are the rationals of
    their floats, p01 = 1 - p00 and p10 = 1 - p11 exactly.  Full binomial
    sums, no window; var = m2 - nu^2 is exact here.
    """
    P = (Fraction(p00), Fraction(p11))
    nu = [[Fraction(0)] * (N + 1) for _ in range(2)]
    m2 = [[Fraction(0)] * (N + 1) for _ in range(2)]
    for n in range(2, N + 1):
        b = [[math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)] for p in P]
        # row i: nu_i[n] = c_i + b_i[n] nu_i[n] + b_i[0] nu_other[n]
        det = (1 - b[0][n]) * (1 - b[1][n]) - b[0][0] * b[1][0]

        def solve(r0, r1):
            return (((1 - b[1][n]) * r0 + b[0][0] * r1) / det,
                    (b[1][0] * r0 + (1 - b[0][n]) * r1) / det)

        means = [n + sum(b[i][k] * (nu[i][k] + nu[1 - i][n - k]) for k in range(1, n))
                 for i in (0, 1)]
        nu[0][n], nu[1][n] = solve(*means)
        # E[(n + A + B)^2] = n^2 + 2n E[A+B] + E[A^2] + 2 E[A]E[B] + E[B^2]
        seconds = []
        for i in (0, 1):
            own, opp, m_own, m_opp = nu[i], nu[1 - i], m2[i], m2[1 - i]
            r = sum(b[i][k] * (n * n + 2 * n * (own[k] + opp[n - k]) + m_own[k]
                               + 2 * own[k] * opp[n - k] + m_opp[n - k]) for k in range(1, n))
            r += b[i][n] * (n * n + 2 * n * own[n]) + b[i][0] * (n * n + 2 * n * opp[n])
            seconds.append(r)
        m2[0][n], m2[1][n] = solve(*seconds)
    var = [[m2[i][n] - nu[i][n] ** 2 for n in range(N + 1)] for i in (0, 1)]
    return nu, var


def test_moments_match_exact_rationals(chain67):
    # a certificate that needs no float wider than 64 bits
    N = 24
    table = compute_moment_table(chain67, N)
    nu, var = _exact_moments(chain67.p00, chain67.p11, N)
    for i in (0, 1):
        assert table.nu[i][0] == table.nu[i][1] == table.var[i][0] == table.var[i][1] == 0.0
        for n in range(2, N + 1):
            assert abs(table.nu[i][n] - float(nu[i][n])) <= 1e-13 * float(nu[i][n])
            assert abs(table.var[i][n] - float(var[i][n])) <= 1e-13 * float(var[i][n])


@given(_EDGE_P, _EDGE_P, st.integers(min_value=2, max_value=64))
@settings(max_examples=60, deadline=None)
def test_edge_chain_tables(p00, p11, N):
    table = compute_moment_table(MarkovChain(0.5, p00, p11), N)
    assert np.isfinite(table.nu).all() and np.isfinite(table.var).all()
    assert (table.var[:, 2:] > 0).all()
    # both recurrences against scipy's full pmf, no window
    for n in sorted({n for n in (2, 3, N // 2, N) if 2 <= n <= N}):
        k = np.arange(n + 1)
        for i, p in ((0, p00), (1, p11)):
            w = stats.binom.pmf(k, n, p)
            g = table.nu[i][k] + table.nu[1 - i][n - k]
            mean = n + float(np.dot(w, g))
            assert abs(table.nu[i][n] - mean) <= 1e-10 * table.nu[i][n]
            within = table.var[i][k] + table.var[1 - i][n - k]
            total = float(np.dot(w, within + (g - (table.nu[i][n] - n)) ** 2))
            assert abs(table.var[i][n] - total) <= 1e-10 * table.var[i][n]
    # a degenerate root split starts every string in one state
    for mu0, row in ((0.0, 1), (1.0, 0)):
        chain = MarkovChain(mu0, p00, p11)
        for n in (0, 1, N):
            assert mean_for_initial(chain, table, n) == table.nu[row][n]
            assert variance_for_initial(chain, table, n) == table.var[row][n]


def test_recurrence_residual_first_moment(chain67):
    # independent route: full binomial pmf from scipy, no windowing, no solve
    table = compute_moment_table(chain67, 512)
    for n in (2, 3, 17, 100, 512):
        k = np.arange(n + 1)
        w0 = stats.binom.pmf(k, n, chain67.p00)
        w1 = stats.binom.pmf(k, n, chain67.p11)
        rhs0 = n + float(np.dot(w0, table.nu[0][k] + table.nu[1][n - k]))
        rhs1 = n + float(np.dot(w1, table.nu[1][k] + table.nu[0][n - k]))
        assert abs(table.nu[0][n] - rhs0) <= 1e-8 * max(1.0, table.nu[0][n])
        assert abs(table.nu[1][n] - rhs1) <= 1e-8 * max(1.0, table.nu[1][n])


def test_recurrence_residual_second_moment(chain67):
    table = compute_moment_table(chain67, 256)
    for n in (2, 5, 40, 256):
        k = np.arange(n + 1)
        w0 = stats.binom.pmf(k, n, chain67.p00)
        inner = (table.m2[0][k] + table.m2[1][n - k]
                 + 2.0 * table.nu[0][k] * table.nu[1][n - k])
        rhs = n * n + 2.0 * n * (table.nu[0][n] - n) + float(np.dot(w0, inner))
        assert abs(table.m2[0][n] - rhs) <= 1e-8 * max(1.0, table.m2[0][n])


def test_variance_nonnegative_and_monotone_mean(chain67):
    table = compute_moment_table(chain67, 1024)
    assert (table.var >= 0).all()
    assert (np.diff(table.nu[:, 2:], axis=1) > 0).all()
    assert (table.var[:, 2:] > 0).all()


def test_mean_for_initial_split(chain67):
    table = compute_moment_table(chain67, 64)
    # direct mixture over the number of strings opening in state 0
    for mu0 in (0.0, 0.2, 0.5, 1.0):
        chain = MarkovChain(mu0, 0.6, 0.7)
        for n in (2, 7, 64):
            k = np.arange(n + 1)
            w = stats.binom.pmf(k, n, mu0)
            direct = float(np.dot(w, table.nu[0][k] + table.nu[1][n - k]))
            got = mean_for_initial(chain, table, n)
            assert abs(got - direct) <= 1e-10 * max(1.0, direct)
    assert mean_for_initial(chain67, table, 0) == 0.0
    assert mean_for_initial(chain67, table, 1) == 0.0


def test_mean_for_initial_degenerate_endpoints(chain67):
    table = compute_moment_table(chain67, 32)
    all_zero = MarkovChain(1.0, 0.6, 0.7)   # every string opens in state 0
    all_one = MarkovChain(0.0, 0.6, 0.7)
    assert mean_for_initial(all_zero, table, 20) == pytest.approx(table.nu[0][20], abs=1e-12)
    assert mean_for_initial(all_one, table, 20) == pytest.approx(table.nu[1][20], abs=1e-12)


def test_variance_for_initial_total_law(chain67):
    table = compute_moment_table(chain67, 64)
    chain = MarkovChain(0.3, 0.6, 0.7)
    for n in (2, 9, 50):
        k = np.arange(n + 1)
        w = stats.binom.pmf(k, n, chain.mu0)
        g = table.nu[0][k] + table.nu[1][n - k]
        within = float(np.dot(w, table.var[0][k] + table.var[1][n - k]))
        mean_g = float(np.dot(w, g))
        between = float(np.dot(w, (g - mean_g) ** 2))
        got = variance_for_initial(chain, table, n)
        assert abs(got - (within + between)) <= 1e-9 * max(1.0, got)
    assert variance_for_initial(chain, table, 0) == 0.0
    assert variance_for_initial(chain, table, 1) == 0.0


def test_for_initial_horizon_errors(chain67):
    table = compute_moment_table(chain67, 32)
    with pytest.raises(ValueError):
        mean_for_initial(chain67, table, 33)
    with pytest.raises(ValueError):
        variance_for_initial(chain67, table, 40)
    with pytest.raises(ValueError):
        mean_for_initial(chain67, table, -1)


def test_error_term_table_contents(chain67):
    table = compute_moment_table(chain67, 256)
    H, _, _ = entropy_rate(chain67)
    err = error_term_table(chain67, table, H)
    assert isinstance(err, ErrorTermTable)
    n = 100
    assert err.f[0][n] == pytest.approx(table.nu[0][n] - n * math.log(n) / H, abs=1e-10)
    assert err.f[1][0] == 0.0 and err.f[1][1] == 0.0
    manual = np.abs(np.diff(err.f, axis=1)).max()
    assert err.max_increment == manual
    assert err.window_max_increment(64, 128) <= err.max_increment
    inner = np.abs(np.diff(err.f[:, 64:129], axis=1)).max()
    assert err.window_max_increment(64, 128) == inner


def test_error_term_requires_asymmetric():
    fair = MarkovChain(0.5, 0.5, 0.5)
    table = compute_moment_table(fair, 16)
    with pytest.raises(SymmetricChain):
        error_term_table(fair, table, math.log(2))


def test_split_recursion_centered_drift(table67, chain67):
    # the centered toll residual |nu_i(n) - split expectation - n| is zero by
    # construction of the table; confirm it stays at float-noise scale
    # relative to the standard deviation along a dyadic ladder
    for n in (256, 512, 1024, 2048, 4096):
        k = np.arange(n + 1)
        for i, p in ((0, chain67.p00), (1, chain67.p11)):
            w = stats.binom.pmf(k, n, p)
            own, opp = table67.nu[i], table67.nu[1 - i]
            split = float(np.dot(w, own[k] + opp[n - k]))
            sd = math.sqrt(table67.var[i][n])
            drift = abs(table67.nu[i][n] - split - n) / sd
            assert drift <= 0.05
