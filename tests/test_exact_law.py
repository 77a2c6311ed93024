"""Certificates of the exact contraction map and of the KS distance of its laws.

The library measures a law by an FFT of its characteristic function on a
fixed grid; these tests hold that against closed forms, a Gil-Pelaez
inversion by adaptive quadrature, the resampling map of `resample_map`, and
the identities every iterate must satisfy.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, stats

from trielab.cli import MAX_CONTRACTION_ITERS
from trielab.clt_harness import _law_cdf, _log_characteristic, _log_sinc, apply_T, law_ks
from trielab.markov_source import PROB_FLOOR, MarkovChain, replicate_seed

import resample_map

UNIFORM = {(0, 0, 0, 0): 1}
EDGE = (PROB_FLOOR, 1.0 - PROB_FLOOR)


def iterates(steps):
    """(law0, law1) of the exact map from the standardized uniform pair, for
    iterations 0..steps."""
    law0 = law1 = UNIFORM
    for it in range(steps + 1):
        if it:
            law0, law1 = apply_T(law0, law1)
        yield law0, law1


def square_weight(key, chain):
    n00, n01, n10, n11 = key
    return chain.p00**n00 * chain.p01**n01 * chain.p10**n10 * chain.p11**n11


def test_apply_T_merges_paths_into_transition_classes():
    # after k steps each law holds 2^k uniforms, one per path of k
    # transitions, in about k^2 / 2 classes of equal transition counts
    classes = {}
    for k, (law0, law1) in enumerate(iterates(40)):
        for law in (law0, law1):
            assert sum(law.values()) == 2**k
            assert all(sum(key) == k for key in law)
        classes[k] = (len(law0), len(law1))
    assert [classes[k] for k in (6, 8, 10, 40)] == [(22, 22), (37, 37), (56, 56), (821, 821)]
    law0, law1 = apply_T(UNIFORM, UNIFORM)
    assert law0 == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}
    assert law1 == {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
    # paths with equal transition counts merge: 0 -> 1 -> 0 -> 0 and
    # 0 -> 0 -> 1 -> 0 both take one each of 00, 01 and 10
    law0 = list(iterates(3))[3][0]
    assert law0[(1, 1, 1, 0)] == 2


def test_log_sinc_matches_mpmath():
    # the series below a = 0.1 and the direct form above it, against 40 digits
    a = np.array([0.0, 1e-9, 1e-5, 0.01, 0.0999, 0.1, 0.1001, 0.5, 1.0, 3.0, 4.0, 10.0, 100.0])
    got, negative = _log_sinc(a)
    assert (negative == (np.sin(a) < 0)).all()
    with mpmath.workdps(40):
        want = [0.0] + [float(mpmath.log(abs(mpmath.sin(x) / x))) for x in map(mpmath.mpf, a[1:])]
    for g, w in zip(got, want):
        assert abs(g - w) <= 4e-16 * max(1.0, abs(w)) + 1e-13 * abs(w), (g, w)
    # at a tiny weight sin(a) / a rounds to 1 and its log to 0; the series does not
    assert _log_sinc(np.array([1e-9]))[0][0] == pytest.approx(-1e-18 / 6, rel=1e-15)


def test_law_ks_of_the_uniform_is_its_closed_form(chain67):
    # sup |F - Phi| of the standardized uniform sits where Phi' = 1 / (2 sqrt 3)
    x = math.sqrt(2.0 * math.log(2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi)))
    closed = stats.norm.cdf(x) - (x + math.sqrt(3.0)) / (2.0 * math.sqrt(3.0))
    assert closed == pytest.approx(0.0572067, abs=1e-7)
    # measured 1.9e-7 off, the grid's floor
    assert abs(law_ks(UNIFORM, chain67) - closed) <= 1e-6


def characteristic(law, chain, t):
    """phi(t) as the plain product of sinc factors."""
    out = 1.0
    for key, mult in law.items():
        a = math.sqrt(3.0 * square_weight(key, chain)) * t
        out *= (math.sin(a) / a if a else 1.0) ** mult
    return out


def gil_pelaez_cdf(law, chain, x):
    """F(x) = 1/2 + (1/pi) int_0^oo sin(t x) phi(t) / t dt, phi being real and
    even; the tail past t = 40 by QUADPACK's Fourier-integral rule."""
    head = integrate.quad(lambda t: characteristic(law, chain, t) * math.sin(t * x) / t
                          if t else x, 0.0, 40.0, limit=400, epsabs=1e-12)[0]
    tail = integrate.quad(lambda t: characteristic(law, chain, t) / t, 40.0, np.inf,
                          weight="sin", wvar=x)[0] if x else 0.0
    return 0.5 + (head + tail) / math.pi


@pytest.mark.parametrize("p00, p11", [(0.6, 0.7), (0.3, 0.99)])
def test_law_ks_matches_gil_pelaez(p00, p11):
    # measured: KS within 2.1e-7 and the CDF within 4.0e-7 at steps 1, 2, 6
    chain = MarkovChain(0.5, p00, p11)
    for k, laws in enumerate(iterates(6)):
        if k not in (1, 2, 6):
            continue
        for law in laws:
            x, cdf = _law_cdf(law, chain)
            gap = cdf - stats.norm.cdf(x)
            top = x[np.argmax(np.abs(gap))]
            worst = optimize.minimize_scalar(
                lambda y: -abs(gil_pelaez_cdf(law, chain, y) - stats.norm.cdf(y)),
                bounds=(top - 0.02, top + 0.02), method="bounded", options={"xatol": 1e-6})
            assert abs(law_ks(law, chain) + worst.fun) <= 1e-6, (k, law_ks(law, chain), -worst.fun)
            for y in np.arange(-4.0, 4.01, 0.5):
                assert abs(np.interp(y, x, cdf) - gil_pelaez_cdf(law, chain, y)) <= 1e-6, (k, y)


def ecdf_distance(cloud, x, cdf):
    """sup |empirical CDF - F| at the sample points, F interpolated on its grid."""
    s = np.sort(cloud)
    at = np.interp(s, x, cdf)
    ranks = np.arange(1, s.size + 1) / s.size
    return float(max(np.max(ranks - at), np.max(at - (ranks - 1.0 / s.size))))


@pytest.mark.parametrize("p00, p11", [(0.6, 0.7), (0.3, 0.99)])
def test_resampled_clouds_stay_within_dkw_of_exact_law(p00, p11):
    # DKW: an iid sample of m = 1e5 lies within sqrt(ln(2 / alpha) / (2 m))
    # = 0.0085 of its law except with probability alpha = 1e-6.  A resampled
    # cloud carries every earlier step's noise, which the map contracts; with
    # criterion 9's seeds the worst over steps 0..10 measured 0.0039 on
    # chain67 and 0.0046 on (0.3, 0.99)
    m = 100_000
    bound = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * m))
    assert bound == pytest.approx(0.0085, abs=5e-5)
    chain = MarkovChain(0.5, p00, p11)
    cloud0 = cloud1 = resample_map.uniform_cloud(m, 4242)
    for it, (law0, law1) in enumerate(iterates(10)):
        if it:
            cloud0, cloud1 = resample_map.apply_T(cloud0, cloud1, chain,
                                                  replicate_seed(4242, 9000 + it))
        assert ecdf_distance(cloud0, *_law_cdf(law0, chain)) <= bound, it
        assert ecdf_distance(cloud1, *_law_cdf(law1, chain)) <= bound, it


@pytest.mark.parametrize("p00, p11",
                         [(0.6, 0.7), (0.5, 0.5), *((a, b) for a in EDGE for b in EDGE)])
def test_every_iterate_has_unit_variance_and_normal_curvature(p00, p11):
    # the squared weights of each law sum to 1 (the map preserves variance),
    # and so log phi(t) = -t^2 / 2 (1 + O(t^2)): at t = 1e-6 the O(t^2) is
    # below 1e-13, so a class lost to rounding shows as a relative gap
    chain = MarkovChain(0.5, p00, p11)
    t = np.array([1e-7, 1e-6])
    for k, laws in enumerate(iterates(MAX_CONTRACTION_ITERS)):
        for law in laws:
            total = math.fsum(mult * square_weight(key, chain) for key, mult in law.items())
            assert abs(total - 1.0) <= 1e-14, (k, total)
            log_abs, sign = _log_characteristic(law, chain, t)
            assert (sign == 1).all()
            assert np.max(np.abs(log_abs / (-0.5 * t * t) - 1.0)) <= 1e-12, (k, log_abs)


def test_law_ks_leaves_out_classes_whose_weight_underflows():
    # at p00 = 1e-6 a class of about 108 or more 0 -> 0 transitions has a
    # weight below the smallest double; its factor is sinc(0) = 1 at every t,
    # and the log of its zero weight warned (an error under this suite)
    chain = MarkovChain(0.5, 1e-6, 0.99)
    *_, (law0, law1) = iterates(120)
    for law in (law0, law1):
        half_log_weights = {key: 0.5 * sum(n * math.log(p) for n, p in zip(
            key, (chain.p00, chain.p01, chain.p10, chain.p11))) for key in law}
        assert min(half_log_weights.values()) < -760.0
        # classes below -740 hold weights of 1e-321 or less, whose factors
        # round to 1 wherever phi is measured
        heavy = {key: law[key] for key, w in half_log_weights.items() if w > -740.0}
        ks = law_ks(law, chain)
        assert 0.0 < ks < 0.01
        assert ks == pytest.approx(law_ks(heavy, chain), abs=1e-15)


@pytest.mark.parametrize("p00, p11", [(0.6, 0.7), (0.3, 0.99), (0.05, 0.95), EDGE])
def test_label_swap_swaps_exact_ks(p00, p11):
    # renaming the bits maps the laws of (p00, p11) to those of (p11, p00)
    # with the states exchanged; the sums run in another order, so the KS
    # agree to rounding (measured within 1.2e-16 over steps 0..10)
    chain, swapped = MarkovChain(0.5, p00, p11), MarkovChain(0.5, p11, p00)
    for (law0, law1), (swap0, swap1) in zip(iterates(10), iterates(10)):
        assert abs(law_ks(law0, chain) - law_ks(swap1, swapped)) <= 1e-14
        assert abs(law_ks(law1, chain) - law_ks(swap0, swapped)) <= 1e-14


@pytest.mark.parametrize("p00, p11", [(0.6, 0.7), (0.3, 0.99), (0.5, 0.5), EDGE])
def test_characteristic_cutoff_drops_only_negligible_frequencies(p00, p11):
    # the frequencies at which phi is taken as 0 are those where every sinc
    # factor, evaluated anyway, puts |phi| below 1e-20; elsewhere |phi| is the
    # product of the factors (compared as |phi|, since log|phi| near a zero of
    # a factor magnifies the rounding of its weight)
    chain = MarkovChain(0.5, p00, p11)
    t = math.pi / 12.0 * np.arange(2**12 + 1)
    dropped_any = False
    for law0, law1 in iterates(16):
        for law in (law0, law1):
            log_abs, _ = _log_characteristic(law, chain, t)
            a = np.sqrt([3.0 * square_weight(key, chain) for key in law])
            full = np.array(list(law.values()), dtype=np.float64) @ _log_sinc(a[:, None] * t)[0]
            dropped = np.isneginf(log_abs)
            assert (full[dropped] <= math.log(1e-20)).all()
            assert np.allclose(np.exp(log_abs), np.exp(full), rtol=1e-12, atol=1e-15)
            dropped_any |= dropped.any()
    # on the edge chain a heavy stay path keeps phi above 1e-20 to the last t
    assert dropped_any != ((p00, p11) == EDGE)
