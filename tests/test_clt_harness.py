import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

import trielab.clt_harness
from trielab.clt_harness import (
    _normal_cdf,
    BadScale,
    EmptyCloud,
    SingularFit,
    fit_growth_values,
    ks_distance,
    simulate_epl,
    standardize,
    summary,
)
from trielab.exact_moments import root_split
from trielab.markov_source import MarkovChain, stream_seeds, uniforms_at
from trielab.spectral import sigma_squared
import trielab.trie
from trielab.trie import DepthExceeded, default_max_depth

from poisson_sim import _POISSON_SIZE_SALT, poisson_sizes, simulate_epl_poisson
from resample_map import apply_T, uniform_cloud


@pytest.fixture(scope="module")
def big_run(chain67, table67, scale_gap67):
    """One large standardized run shared by the distribution tests."""
    sig2 = scale_gap67["sigma2"]
    cloud = simulate_epl(chain67, 2048, 2000, 20240817)
    center, variance = root_split(chain67, table67, 2048)
    return {
        "asymptotic": standardize(cloud, center, math.sqrt(sig2 * 2048 * math.log(2048))),
        "oracle": standardize(cloud, center, math.sqrt(variance)),
    }


def test_config_validation(chain67):
    with pytest.raises(ValueError):
        simulate_epl(chain67, -1, 10, 0)
    with pytest.raises(ValueError):
        simulate_epl(chain67, 8, 1, 0)


def test_negative_threads_rejected(chain67):
    # a negative count used to run one thread silently; 0 stays "auto"
    with pytest.raises(ValueError, match="threads must be >= 0"):
        simulate_epl(chain67, 8, 10, 0, threads=-4)
    auto = simulate_epl(chain67, 8, 10, 0, threads=0)
    assert (auto == simulate_epl(chain67, 8, 10, 0, threads=1)).all()


def test_explicit_threads_clamped_to_cpu_count(chain67, monkeypatch):
    # the count comes from outside the program: 64 must not start 64 threads
    # on a 2-core machine, and the clamp must not change the samples
    seen = []

    class Recording(trielab.clt_harness.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(trielab.clt_harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(trielab.clt_harness, "ThreadPoolExecutor", Recording)
    many = simulate_epl(chain67, 8, 64, 0, threads=64)
    assert seen and max(seen) <= 2
    assert (many == simulate_epl(chain67, 8, 64, 0, threads=1)).all()


def test_simulation_thread_invariance(chain67, monkeypatch):
    # four blocks on any machine, though threads are clamped to the core count
    monkeypatch.setattr(trielab.clt_harness.os, "cpu_count", lambda: 4)
    single = simulate_epl(chain67, 64, 400, 7, threads=1)
    multi = simulate_epl(chain67, 64, 400, 7, threads=4)
    again = simulate_epl(chain67, 64, 400, 7, threads=4)
    assert single.dtype == np.float64
    assert (single == multi).all()
    assert (multi == again).all()


def test_kernel_calls_are_shared_exactly_when_threads_run_together(chain67, monkeypatch):
    # more than one worker marks every kernel call shared; one worker, asked
    # for or clamped to, marks none
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs.get("shared", False))
        return original(*args, **kwargs)

    original = trielab.clt_harness.batch_external_path_lengths
    monkeypatch.setattr(trielab.clt_harness, "batch_external_path_lengths", recording)
    monkeypatch.setattr(trielab.clt_harness.os, "cpu_count", lambda: 2)
    for threads, want in ((1, [False]), (2, [True, True]), (0, [True, True])):
        calls.clear()
        simulate_epl(chain67, 16, 40, 5, threads=threads)
        assert calls == want, threads
    monkeypatch.setattr(trielab.clt_harness.os, "cpu_count", lambda: 1)
    calls.clear()
    simulate_epl(chain67, 16, 40, 5, threads=2)
    assert calls == [False]


def test_depth_cap_names_the_same_strings_at_any_thread_count(monkeypatch):
    # the first chunk that fails holds the lowest failing replicate, whatever
    # the chunk size, so one and two workers raise the same error
    monkeypatch.setattr(trielab.trie, "_CHUNK_ELEMENTS", 1024)
    monkeypatch.setattr(trielab.clt_harness.os, "cpu_count", lambda: 2)
    chain = MarkovChain(0.5, 0.999, 0.999)
    errors = []
    for threads in (1, 2):
        with pytest.raises(DepthExceeded) as err:
            simulate_epl(chain, 256, 24, 9, threads=threads)
        errors.append((err.value.replicate, err.value.depth, err.value.indices))
    assert errors[0] == errors[1]
    assert errors[0][1] == default_max_depth(256)


def test_trivial_sizes_give_zero(chain67):
    for n in (0, 1):
        cloud = simulate_epl(chain67, n, 50, 3)
        assert (cloud == 0.0).all()


def test_forced_clouds_match_oracle(chain67, table67):
    # the oracle's per-state rows are the laws of the clouds with mu0 = 1 - i;
    # sizes, replicates, seed and the 4-sigma bound were fixed before running
    m = 8000
    for i in (0, 1):
        chain = replace(chain67, mu0=1.0 - i)
        for n in (16, 128):
            cloud = simulate_epl(chain, n, m, 31)
            se = math.sqrt(table67.var[i][n] / m)
            assert abs(cloud.mean() - table67.nu[i][n]) <= 4.0 * se


def test_two_string_mean_fair_chain():
    # with mu0 = 1 both initial states are 0, so the pair shares Geometric(1/2)
    # >= 1 levels before splitting: shifted length 2 Geom, mean 4, variance 8.
    # with mu0 = 1/2 the first level already separates half the pairs, so
    # the mean drops to 2 while the variance stays 8
    fair = MarkovChain(0.5, 0.5, 0.5)
    m = 200_000
    forced = simulate_epl(replace(fair, mu0=1.0), 2, m, 99)
    se = math.sqrt(forced.var(ddof=1) / m)
    assert abs(forced.mean() - 4.0) <= 4.0 * se
    assert abs(forced.var(ddof=1) - 8.0) <= 0.5
    mixed = simulate_epl(fair, 2, m, 99)
    se = math.sqrt(mixed.var(ddof=1) / m)
    assert abs(mixed.mean() - 2.0) <= 4.0 * se
    assert abs(mixed.var(ddof=1) - 8.0) <= 0.5


def test_poisson_sizes_handle_small_counts(chain67):
    lam, m, seed = 1.0, 400, 11
    cloud = simulate_epl_poisson(chain67, lam, m, seed)
    sizes = poisson_sizes(lam, m, seed)
    assert (cloud[sizes < 2] == 0.0).all()
    assert (cloud >= 0.0).all()
    repeat = simulate_epl_poisson(chain67, lam, m, seed)
    assert (cloud == repeat).all()


def test_poisson_sizes_follow_poisson_law():
    m = 100_000
    for lam in (0.0, 3.5, 250.0):
        sizes = poisson_sizes(lam, m, 5)
        assert abs(sizes.mean() - lam) <= 4.0 * math.sqrt(lam / m)
        ks = np.arange(sizes.max() + 1)
        ecdf = np.cumsum(np.bincount(sizes)) / m
        assert np.max(np.abs(ecdf - stats.poisson.cdf(ks, lam))) <= 2.0 / math.sqrt(m)
        # draw for draw the same sizes as inverting scipy's Poisson CDF
        top = math.ceil(lam + 12.0 * math.sqrt(lam) + 12.0)
        u = uniforms_at(stream_seeds(5, _POISSON_SIZE_SALT), np.arange(m)) * 2.0**-53
        cdf = special.pdtr(np.arange(top + 1), lam)
        assert np.array_equal(sizes, np.searchsorted(cdf, u, side="right"))
    assert (poisson_sizes(3.5, m, 5) != poisson_sizes(3.5, m, 6)).any()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            poisson_sizes(bad, 10, 0)


def test_standardize_arithmetic_and_bad_scale():
    cloud = np.array([1.0, 3.0, 5.0])
    out = standardize(cloud, 3.0, 2.0)
    assert np.allclose(out, [-1.0, 0.0, 1.0])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(BadScale):
            standardize(cloud, 0.0, bad)


def test_ks_distance_known_cases():
    assert ks_distance(np.array([0.0])) == pytest.approx(0.5, abs=1e-12)
    assert ks_distance(np.full(10, 10.0)) >= 0.999
    x = np.random.default_rng(123).standard_normal(1_000_000)
    d = ks_distance(x)
    assert d <= 0.0017
    assert d == pytest.approx(stats.kstest(x, "norm").statistic, abs=1e-12)


def test_normal_cdf_matches_scipy():
    x = np.sort(np.concatenate([
        np.linspace(-38.0, 9.0, 470_001),
        np.random.default_rng(17).standard_normal(100_000),
    ]))
    got, ref = _normal_cdf(x), special.ndtr(x)
    assert np.max(np.abs(got - ref)) <= 1e-15
    normal = ref >= 1e-300
    assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 1e-13
    edges = _normal_cdf(np.array([-np.inf, 0.0, np.inf]))
    assert edges.tolist() == [0.0, 0.5, 1.0]


def test_empty_cloud_errors(chain67):
    empty = np.array([])
    with pytest.raises(EmptyCloud):
        summary(empty)
    with pytest.raises(EmptyCloud):
        ks_distance(empty)
    with pytest.raises(EmptyCloud):
        apply_T(empty, np.array([1.0]), chain67, 0)
    with pytest.raises(EmptyCloud):
        apply_T(np.array([1.0]), empty, chain67, 0)


def test_apply_T_coefficients(chain67):
    # T acts on centered laws, so the probe is a mean-0 two-point cloud in one
    # slot and zeros in the other: each output is then a two-point cloud whose
    # range is twice the coefficient that multiplies the nonzero slot
    pm = np.tile([-1.0, 1.0], 32)
    zeros = np.zeros(64)
    out0, out1 = apply_T(pm, zeros, chain67, 5)
    swap0, swap1 = apply_T(zeros, pm, chain67, 5)
    for out, p in ((out0, chain67.p00), (out1, chain67.p10),
                   (swap0, chain67.p01), (swap1, chain67.p11)):
        assert np.ptp(out) == pytest.approx(2.0 * math.sqrt(p), abs=1e-12)
        assert abs(out.mean()) <= 1e-12
    again = apply_T(pm, zeros, chain67, 5)
    assert (out0 == again[0]).all()
    assert (out1 == again[1]).all()


def test_apply_T_preserves_normal_pair(chain67):
    m = 100_000
    rng = np.random.default_rng(2024)
    out0, out1 = apply_T(rng.standard_normal(m), rng.standard_normal(m), chain67, 77)
    assert ks_distance(out0) <= 0.01
    assert ks_distance(out1) <= 0.01
    assert abs(out0.var(ddof=1) - 1.0) <= 0.03
    assert abs(out1.var(ddof=1) - 1.0) <= 0.03
    assert abs(out0.mean()) <= 0.02 and abs(out1.mean()) <= 0.02


def test_fit_growth_recovers_synthetic():
    ns = np.array([64, 128, 256, 512, 1024], dtype=float)
    values = 2.5 * ns * np.log(ns) + 1.25 * ns
    a, b = fit_growth_values(ns, values)
    assert a == pytest.approx(2.5, abs=1e-10)
    assert b == pytest.approx(1.25, abs=1e-9)
    with pytest.raises(SingularFit):
        fit_growth_values([64, 128, 256], [1.0, 2.0, 3.0])
    with pytest.raises(SingularFit):
        fit_growth_values([64, 64, 64, 64], [1.0, 2.0, 3.0, 4.0])


def test_fit_variance_growth_matches_spectral_constant(chain67, table67):
    sig2 = sigma_squared(chain67)[1]
    grid = [2**k for k in range(8, 14)]
    a, _ = fit_growth_values(grid, [root_split(chain67, table67, n)[1] for n in grid])
    assert abs(a - sig2) <= 0.15 * sig2


def test_moment_estimates_match_scipy():
    x = np.random.default_rng(5).standard_normal(1000) * 1.7 + 0.4
    moments = summary(x)
    assert moments["skew"] == pytest.approx(stats.skew(x, bias=True), abs=1e-12)
    assert moments["kurt"] == pytest.approx(
        stats.kurtosis(x, fisher=True, bias=True), abs=1e-12
    )
    assert moments["var"] == pytest.approx(float(np.var(x, ddof=1)), rel=1e-14)
    assert moments["mean"] == pytest.approx(float(np.mean(x)), rel=1e-14)
    constant = summary(np.full(5, 2.0))
    assert (constant["var"], constant["skew"], constant["kurt"]) == (0.0, 0.0, 0.0)
    assert summary(np.array([2.0]))["var"] == 0.0


def test_uniform_cloud_shape():
    m = 50_000
    cloud = uniform_cloud(m, 4242)
    assert cloud.size == m
    assert np.abs(cloud).max() <= math.sqrt(3.0) + 1e-12
    assert abs(cloud.mean()) <= 4.0 / math.sqrt(m)
    assert abs(cloud.var(ddof=1) - 1.0) <= 8.0 / math.sqrt(m)
    assert (cloud == uniform_cloud(m, 4242)).all()
    assert (cloud != uniform_cloud(m, 4243)).any()


def test_summary_flags():
    x = np.random.default_rng(31).standard_normal(20_000)
    good = summary(x)
    assert good["mean_ok"] and good["var_ok"] and good["ks_ok"]
    assert good["count"] == 20_000
    shifted = summary(x + 1.0)
    assert not shifted["mean_ok"]


def test_oracle_scale_cloud_is_normal(big_run):
    moments = summary(big_run["oracle"])
    assert moments["ks"] <= 0.05
    assert abs(moments["var"] - 1.0) <= 8.0 / math.sqrt(moments["count"])
    assert abs(moments["skew"]) <= 0.25
    assert abs(moments["kurt"]) <= 0.5


def test_asymptotic_scale_cloud_is_normal(big_run, scale_gap67):
    # The limit theorem gives the sqrt(sigma^2 n log n) scale only as n -> oo.
    # At n = 2048 the linear variance term is still ~1.7x the n log n term:
    # the oracle gives r_n ~ 1 + 13.0 / ln n = 2.71, and r_n <= 1.5 needs
    # n >~ 1e11.  So the asymptotic-scale cloud is held to N(0, r_n), with r_n
    # from the DP oracle (not fitted to the cloud), and r_n must fall toward 1.
    # Divided by sqrt(r_n) this cloud is the oracle-scale one, so the KS and
    # variance checks hold the same law as the oracle-scale test; what ties
    # the scale to sigma^2 is the flat linear correction (measured spread
    # 0.0039): a sigma^2 off by 2% spreads it by 0.027 or more.
    cloud = big_run["asymptotic"]
    moments = summary(cloud)
    r = scale_gap67["ratio"][2048]
    assert abs(moments["skew"]) <= 0.25
    assert abs(moments["kurt"]) <= 0.5
    assert ks_distance(standardize(cloud, 0.0, math.sqrt(r))) <= 0.05
    assert abs(moments["var"] / r - 1.0) <= 8.0 / math.sqrt(cloud.size)
    ratios = list(scale_gap67["ratio"].values())
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.0
    assert scale_gap67["spread"] <= 0.02


def test_scale_choice_insensitivity(big_run, chain67, table67, scale_gap67):
    # Swapping the oracle scale for the asymptotic one is not neutral at
    # n = 2048: it stretches the cloud by sqrt(r_n).  The test checks that
    # effect against the two-term law Var(n) ~ sigma^2 n ln n + b n, with b
    # fitted at the other sizes 2^8..2^13 and not through sigma^2, so the
    # predicted r_n = 1 + b / (sigma^2 ln n) does not share the cloud's scale.
    # That prediction must match the oracle's r_n to 0.5% (measured 0.07%; a
    # sigma^2 off by 2% misses by 0.67% or more), and the KS move it implies,
    # sup_x |Phi(x) - Phi(x / sqrt(r_n))| at x^2 = r ln r / (r - 1), must
    # match the measured move within 0.04 (0.118 against 0.098).
    n = 2048
    grid = [2**k for k in (8, 9, 10, 12, 13)]
    _, b = fit_growth_values(grid, [root_split(chain67, table67, k)[1] for k in grid])
    r = 1.0 + b / (scale_gap67["sigma2"] * math.log(n))
    assert abs(r / scale_gap67["ratio"][n] - 1.0) <= 0.005
    x = math.sqrt(r * math.log(r) / (r - 1.0))
    predicted = stats.norm.cdf(x) - stats.norm.cdf(x / math.sqrt(r))
    d = abs(ks_distance(big_run["oracle"]) - ks_distance(big_run["asymptotic"]))
    assert abs(d - predicted) <= 0.04
