"""Acceptance gate: eleven end-to-end checks at pinned tolerances.

Each test prints one summary line "criterion K: PASS/FAIL - detail" before
asserting, so a transcript shows the whole scorecard.  Criterion 8 tests the
asymptotic scale for what the limit theorem promises: the theorem fixes
sqrt(sigma^2 n log n) only as n -> oo, and at n = 2048 the exact variance is
still r_n = 2.71 times sigma^2 n log n, so the scaled cloud is held to
N(0, r_n) with r_n from the DP oracle, r_n must fall toward 1, and
sigma^2 must be the n ln n coefficient of the exact variance, which leaves
the linear correction (Var(n) - sigma^2 n ln n) / n flat.  Criterion 9 iterates the fixed-point map on centered laws, where it
contracts.  See the README section on tests.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from trielab.clt_harness import (
    fit_growth_values,
    ks_distance,
    simulate_epl,
    standardize,
    summary,
)
from trielab.exact_moments import (
    compute_moment_table,
    error_terms,
    root_split,
)
from trielab.markov_source import MarkovChain, entropy_rate, replicate_seed
from trielab.poisson_analysis import (
    check_mean_decomposition,
    check_variance_decomposition,
)
from trielab.spectral import (
    contraction_factor,
    lambda_derivatives,
    lambda_of_s,
    multivariate_condition_holds,
    sigma_squared,
)

from resample_map import apply_T, uniform_cloud


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def three_tables(chain67, table67):
    """Moment tables for the named chain trio, horizon 2^13."""
    others = [MarkovChain(0.5, 0.3, 0.8), MarkovChain(0.5, 0.55, 0.55)]
    tables = [(chain67, table67)]
    tables += [(c, compute_moment_table(c, 8192)) for c in others]
    return tables


def test_criterion_01_spectral_sweep():
    rng = np.random.default_rng(12345)
    ps = rng.uniform(0.05, 0.95, (800, 2))
    hard = rng.uniform(0.05, 0.95, (200, 2))
    which = rng.integers(0, 2, 200)
    low = rng.integers(0, 2, 200)
    extreme = np.where(low == 0, rng.uniform(0.005, 0.05, 200),
                       rng.uniform(0.95, 0.995, 200))
    hard[np.arange(200), which] = extreme
    chains = np.vstack([ps, hard])
    start = time.perf_counter()
    worst_lam = worst_dot = worst_rel = 0.0
    checked = 0
    for p00, p11 in chains:
        if abs(p00 - 0.5) < 1e-3 and abs(p11 - 0.5) < 1e-3:
            continue
        chain = MarkovChain(0.5, float(p00), float(p11))
        worst_lam = max(worst_lam, abs(lambda_of_s(chain, -1.0) - 1.0))
        H, _, _ = entropy_rate(chain)
        lam_dot, _ = lambda_derivatives(chain)
        worst_dot = max(worst_dot, abs(lam_dot - H))
        eigen, explicit = sigma_squared(chain)
        worst_rel = max(worst_rel, abs(eigen - explicit) / abs(explicit))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = (worst_lam <= 1e-12 and worst_dot <= 1e-6 and worst_rel <= 1e-8
          and elapsed < 5.0)
    assert report(
        1, ok,
        f"{checked} chains, worst |lambda(-1)-1| {worst_lam:.2e}, "
        f"worst |lambda_dot-H| {worst_dot:.2e}, worst sigma2 rel {worst_rel:.2e}, "
        f"{elapsed:.2f}s",
    )


def _truncated_split_moments(n_max, depth):
    """Exhaustive split-tree enumeration for the fair chain, depth-capped.

    Every internal node splits its k strings Binomial(k, 1/2); moments come
    from iterating that split relation `depth` levels down with zero beyond
    the cap.  No level-n feedback solve is involved, so this is an
    independent route to the same quantities.
    """
    mean_next = np.zeros(n_max + 1)
    sec_next = np.zeros(n_max + 1)
    pmf = {n: stats.binom.pmf(np.arange(n + 1), n, 0.5) for n in range(2, n_max + 1)}
    for _ in range(depth):
        mean_cur = np.zeros(n_max + 1)
        sec_cur = np.zeros(n_max + 1)
        for n in range(2, n_max + 1):
            k = np.arange(n + 1)
            w = pmf[n]
            m = n + float(np.dot(w, mean_next[k] + mean_next[n - k]))
            s = (n * n + 2.0 * n * (m - n)
                 + float(np.dot(w, sec_next[k] + sec_next[n - k]
                                + 2.0 * mean_next[k] * mean_next[n - k])))
            mean_cur[n] = m
            sec_cur[n] = s
        mean_next, sec_next = mean_cur, sec_cur
    return mean_next, sec_next


def test_criterion_02_brute_force_oracle():
    fair = MarkovChain(0.5, 0.5, 0.5)
    table = compute_moment_table(fair, 16)
    brute_mean, brute_sec = _truncated_split_moments(12, 48)
    worst = 0.0
    for n in range(13):
        worst = max(worst, abs(table.nu[0][n] - brute_mean[n]),
                    abs(table.var[0][n] + table.nu[0][n] ** 2 - brute_sec[n]))
    ok = worst <= 1e-8
    assert report(2, ok, f"n <= 12, worst moment deviation {worst:.2e}")


def test_criterion_03_monte_carlo_calibration(chain67, table67):
    start = time.perf_counter()
    m = 20000
    worst_z = 0.0
    var_dev = None
    for n in (16, 256, 1024):
        cloud = simulate_epl(chain67, n, m, replicate_seed(777, n))
        mu, var = root_split(chain67, table67, n)
        worst_z = max(worst_z, abs(cloud.mean() - mu) / math.sqrt(var / m))
        if n == 256:
            var_dev = abs(cloud.var(ddof=1) / var - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 4.0 and var_dev <= 0.05 and elapsed < 120.0
    assert report(
        3, ok,
        f"worst mean |z| {worst_z:.2f} (limit 4), n=256 variance off by "
        f"{var_dev:.4f} (limit 0.05), {elapsed:.1f}s",
    )


def test_criterion_04_mean_growth_trend(chain67, table67):
    H, _, _ = entropy_rate(chain67)
    dists = []
    for k in range(7, 14):
        n = 2**k
        ratio = H * root_split(chain67, table67, n)[0] / (n * math.log(n))
        dists.append(abs(ratio - 1.0))
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    ok = dists[-1] <= 0.15 and monotone
    assert report(
        4, ok,
        f"|H nu / (n log n) - 1| falls {dists[0]:.4f} -> {dists[-1]:.4f} "
        f"over n = 2^7..2^13, monotone={monotone}",
    )


def test_criterion_05_error_term_flatness(chain67, table67):
    # steps[:, n] = |f_i(n+1) - f_i(n)|, both initial states
    steps = np.abs(np.diff(error_terms(table67), axis=1))
    wide = steps[:, 64:4096].max()
    narrow = steps[:, 64:2048].max()
    ratio = wide / narrow
    ok = ratio <= 1.25
    assert report(
        5, ok,
        f"max |f(n+1)-f(n)| ratio [64,4096] / [64,2048] = {ratio:.4f} (limit 1.25)",
    )


def test_criterion_06_poisson_identities(three_tables):
    start = time.perf_counter()
    worst = 0.0
    for _, table in three_tables:
        for lam in (10.0, 50.0, 200.0, 1000.0):
            for i in (0, 1):
                worst = max(worst, check_mean_decomposition(table, i, lam),
                            check_variance_decomposition(table, i, lam))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(
        6, ok,
        f"worst split-identity residual {worst:.2e} over 3 chains x 4 rates, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_variance_slope(three_tables):
    details = []
    ok = True
    for chain, table in three_tables:
        sig2 = sigma_squared(chain)[1]
        grid = [2**k for k in range(8, 14)]
        a, _ = fit_growth_values(grid, [root_split(chain, table, n)[1] for n in grid])
        rel = abs(a - sig2) / sig2
        ok = ok and rel <= 0.15
        details.append(f"({chain.p00:g},{chain.p11:g}): slope {a:.4f} "
                       f"vs {sig2:.4f} (rel {rel:.3f})")
    assert report(7, ok, "; ".join(details))


def test_criterion_08_normal_limit(chain67, table67, scale_gap67):
    start = time.perf_counter()
    sig2 = scale_gap67["sigma2"]
    n = 2048
    cloud = simulate_epl(chain67, n, 2000, 20240817)
    center = root_split(chain67, table67, n)[0]
    std = standardize(cloud, center, math.sqrt(sig2 * n * math.log(n)))
    # r_n = exact Var(n) / (sigma2 n log n) is ~1 + 13.0 / ln n (2.71 here):
    # the law the theorem and the exact variance give at this n is N(0, r_n).
    # sigma2 is held to the n log n coefficient of the exact variance by the
    # flatness of (Var(n) - sigma2 n ln n) / n over 2^8..2^13, which a sigma2
    # off by 2% breaks.
    r = scale_gap67["ratio"][n]
    ratios = list(scale_gap67["ratio"].values())
    spread = scale_gap67["spread"]
    ks = ks_distance(standardize(std, 0.0, math.sqrt(r)))
    moments = summary(std)
    var_dev = moments["var"] / r - 1.0
    falling = all(b < a for a, b in zip(ratios, ratios[1:])) and ratios[-1] > 1.0
    skew = moments["skew"]
    kurt = moments["kurt"]
    elapsed = time.perf_counter() - start
    var_limit = 8.0 / math.sqrt(std.size)
    ok = (ks <= 0.05 and abs(var_dev) <= var_limit and falling and spread <= 0.02
          and abs(skew) <= 0.25 and abs(kurt) <= 0.5 and elapsed < 300.0)
    report(
        8, ok,
        f"asymptotic-scale cloud at n=2048 vs N(0, r_n), r_n {r:.4f}: ks {ks:.4f} "
        f"(limit 0.05), variance/r_n - 1 {var_dev:+.4f} (limit {var_limit:.4f}), "
        f"r_n over 2^7..2^13 {ratios[0]:.4f} -> {ratios[-1]:.4f} falling={falling}, "
        f"linear-correction spread {spread:.4f} (limit 0.02), "
        f"skew {skew:+.4f}, kurt {kurt:+.4f}, {elapsed:.1f}s",
    )
    assert abs(skew) <= 0.25
    assert abs(kurt) <= 0.5
    assert elapsed < 300.0
    assert ks <= 0.05
    assert abs(var_dev) <= var_limit
    assert falling
    assert spread <= 0.02


def test_criterion_09_contraction_iteration(chain67):
    m = 100_000
    cloud0 = cloud1 = uniform_cloud(m, 4242)
    track = [max(ks_distance(cloud0), ks_distance(cloud1))]
    for it in range(1, 11):
        cloud0, cloud1 = apply_T(cloud0, cloud1, chain67, replicate_seed(4242, 9000 + it))
        track.append(max(ks_distance(cloud0), ks_distance(cloud1)))
    final = track[-1]
    noise = 6.0 / math.sqrt(m)
    worst_bump = max((b - a) for a, b in zip(track, track[1:]))
    ok = final < 0.01 and worst_bump <= noise
    report(
        9, ok,
        f"ks trace {' '.join(f'{x:.4f}' for x in track)}; worst increase "
        f"{worst_bump:+.4f} (noise allowance {noise:.4f})",
    )
    assert worst_bump <= noise
    # apply_T centers its outputs, so the bootstrap mean noise that the
    # sqrt-coefficient rows (sums ~1.4) would amplify is removed each step;
    # over 50 master seeds (1000..1049) every final KS was < 0.01
    assert final < 0.01


def test_criterion_10_initial_law_insensitivity(chain67, table67):
    sig2 = sigma_squared(chain67)[1]
    clouds = []
    for mu in (0.2, 0.5, 0.8):
        chain = MarkovChain(mu, 0.6, 0.7)
        cloud = simulate_epl(chain, 2048, 2000, 31415)
        center = root_split(chain, table67, 2048)[0]
        clouds.append(standardize(cloud, center, math.sqrt(sig2 * 2048 * math.log(2048))))
    pair_ks = [
        stats.ks_2samp(clouds[0], clouds[1]).statistic,
        stats.ks_2samp(clouds[0], clouds[2]).statistic,
        stats.ks_2samp(clouds[1], clouds[2]).statistic,
    ]
    worst = max(pair_ks)
    ok = worst <= 0.06
    assert report(
        10, ok,
        "pairwise ks over mu0 in {0.2, 0.5, 0.8}: "
        + ", ".join(f"{d:.4f}" for d in pair_ks) + " (limit 0.06)",
    )


def test_criterion_11_condition_separation():
    chain = MarkovChain(0.5, 0.9, 0.2)
    cond = multivariate_condition_holds(chain)
    xi = contraction_factor(chain)
    ok = (cond is False) and xi < 1.0
    assert report(
        11, ok,
        f"joint condition {cond} while xi(3) = {xi:.4f} < 1 for (0.9, 0.2)",
    )
