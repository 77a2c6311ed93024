import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trielab.markov_source import PROB_FLOOR, MarkovChain, SymmetricChain, entropy_rate
from trielab.spectral import (
    contraction_factor,
    lambda_derivatives,
    lambda_of_s,
    multivariate_condition_holds,
    sigma_squared,
    spectral_constants,
)

probs = st.floats(min_value=0.02, max_value=0.98)


def _richardson3(f, s: float, h: float, scheme: str) -> float:
    """Two Richardson levels over step halvings of a central difference.

    Both the first-difference and second-difference stencils have error series
    in even powers of h, so the (4, 16) elimination weights apply to each.
    """
    def estimate(step: float) -> float:
        if scheme == "first":
            return (f(s + step) - f(s - step)) / (2.0 * step)
        return (f(s + step) - 2.0 * f(s) + f(s - step)) / (step * step)

    d0, d1, d2 = estimate(h), estimate(h / 2.0), estimate(h / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def finite_difference_derivatives(chain: MarkovChain) -> tuple[float, float]:
    """Central-difference (lambda'(-1), lambda''(-1)) with Richardson extrapolation.

    Independent of the closed form in `lambda_derivatives`, which it certifies.
    The first derivative uses base step 1e-4.  The second difference divides
    by h^2, so rounding noise grows like eps/h^2 and a step that small would
    drown the signal; its base step is therefore O(1) scaled by the largest
    |log p_ij| so that truncation stays below rounding for any valid chain.
    """
    f = lambda s: lambda_of_s(chain, s)
    lam_dot = _richardson3(f, -1.0, 1e-4, "first")
    scale = max(
        1.0,
        abs(math.log(chain.p00)),
        abs(math.log(chain.p01)),
        abs(math.log(chain.p10)),
        abs(math.log(chain.p11)),
    )
    lam_ddot = _richardson3(f, -1.0, 0.1 / scale, "second")
    return lam_dot, lam_ddot


@given(probs, probs)
@settings(max_examples=60, deadline=None)
def test_lambda_at_minus_one_is_one(p00, p11):
    chain = MarkovChain(0.5, p00, p11)
    assert abs(lambda_of_s(chain, -1.0) - 1.0) <= 1e-12


def test_lambda_known_values():
    fair = MarkovChain(0.5, 0.5, 0.5)
    # row sums of the s-weighted matrix are 2 * 2^s for the fair chain
    assert abs(lambda_of_s(fair, -2.0) - 0.5) <= 1e-15
    assert abs(lambda_of_s(fair, 0.0) - 2.0) <= 1e-15
    chain = MarkovChain(0.5, 0.6, 0.7)
    # dominant eigenvalue exceeds both diagonal weights
    assert lambda_of_s(chain, -1.5) > max(0.6**1.5, 0.7**1.5)


@given(probs, probs)
@settings(max_examples=40, deadline=None)
def test_first_derivative_is_entropy(p00, p11):
    chain = MarkovChain(0.5, p00, p11)
    lam_dot, _ = lambda_derivatives(chain)
    H, _, _ = entropy_rate(chain)
    assert abs(lam_dot - H) <= 1e-6


@given(probs, probs)
@settings(max_examples=40, deadline=None)
def test_derivatives_match_implicit_closed_form(p00, p11):
    # the closed forms against a numeric route that shares no formula with them
    chain = MarkovChain(0.5, p00, p11)
    lam_dot, lam_ddot = finite_difference_derivatives(chain)
    ex_dot, ex_ddot = lambda_derivatives(chain)
    assert abs(lam_dot - ex_dot) <= 1e-8
    assert abs(lam_ddot - ex_ddot) <= 1e-6 * max(1.0, abs(ex_ddot))


def test_sigma_squared_frozen_values(chain67):
    eigen, explicit = sigma_squared(chain67)
    assert abs(explicit - 0.44566789578520777) <= 1e-14
    assert abs(eigen - explicit) <= 1e-8 * explicit
    eigen, explicit = sigma_squared(MarkovChain(0.5, 0.3, 0.8))
    assert abs(explicit - 2.2624763378274286) <= 1e-13
    eigen, explicit = sigma_squared(MarkovChain(0.5, 0.55, 0.55))
    assert abs(explicit - 0.03058545541959633) <= 1e-14


@pytest.mark.parametrize("p11", [0.505, 0.51])
def test_sigma_squared_forms_agree_near_symmetric(p11):
    # verify's spectral item holds the two forms to 1e-8 relative; a nearly
    # symmetric chain has a small sigma^2, so derivative noise shows here first
    eigen, explicit = sigma_squared(MarkovChain(0.5, 0.5, p11))
    assert abs(eigen - explicit) <= 1e-8 * abs(explicit)


def test_sigma_squared_symmetric_raises():
    with pytest.raises(SymmetricChain):
        sigma_squared(MarkovChain(0.5, 0.5, 0.5))


def test_sigma_squared_invariant_under_state_swap():
    a = sigma_squared(MarkovChain(0.5, 0.6, 0.7))[1]
    b = sigma_squared(MarkovChain(0.5, 0.7, 0.6))[1]
    assert abs(a - b) <= 1e-13


def test_contraction_factor():
    chain = MarkovChain(0.5, 0.6, 0.7)
    xi3 = contraction_factor(chain)
    assert abs(xi3 - 0.7499787858254027) <= 1e-14
    fair = MarkovChain(0.5, 0.5, 0.5)
    assert abs(contraction_factor(fair) - 2 ** -0.5) <= 1e-15


@given(probs, probs)
@settings(max_examples=40, deadline=None)
def test_contraction_factor_below_one(p00, p11):
    # p^{3/2} < p for 0 < p < 1, so each state's weights sum below 1
    assert contraction_factor(MarkovChain(0.5, p00, p11)) < 1.0


def test_multivariate_condition_cases():
    assert multivariate_condition_holds(MarkovChain(0.5, 0.6, 0.7))
    # strongly sticky state 0 with slippery state 1 breaks the 3/2 condition
    assert not multivariate_condition_holds(MarkovChain(0.5, 0.9, 0.2))


def test_spectral_constants_bundle(chain67):
    consts = spectral_constants(chain67)
    H, H0, H1 = entropy_rate(chain67)
    assert consts["H"] == H and consts["H0"] == H0 and consts["H1"] == H1
    assert abs(consts["pi0"] - 3.0 / 7.0) <= 1e-15
    assert abs(consts["pi1"] - 4.0 / 7.0) <= 1e-15
    assert abs(lambda_of_s(chain67, -1.0) - 1.0) <= 1e-12
    assert abs(consts["lambda_dot"] - H) <= 1e-6
    assert abs(consts["sigma2"] - 0.44566789578520777) <= 1e-14
    assert consts["sigma2"] == sigma_squared(chain67)[1]


def test_spectral_constants_symmetric_reads_zero():
    # the variance constant degenerates; every other constant stays defined
    fair = MarkovChain(0.5, 0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        consts = spectral_constants(fair)
    assert consts["sigma2"] == 0.0
    assert consts["H"] == entropy_rate(fair)[0] and consts["lambda_dot"] > 0.0


def test_second_derivative_step_halving_stability():
    # the Richardson ladder should make the estimate insensitive to the base step
    chain = MarkovChain(0.5, 0.3, 0.8)

    def f(s):
        return lambda_of_s(chain, s)

    base = 0.05
    a = _richardson3(f, -1.0, base, "second")
    b = _richardson3(f, -1.0, base / 2, "second")
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


EDGE_PROBS = [PROB_FLOOR, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - PROB_FLOOR]
EDGE_PAIRS = [(a, b) for a in EDGE_PROBS for b in EDGE_PROBS]


# every pair but the symmetric chain, whose variance constant degenerates
ASYMMETRIC_EDGE_PAIRS = [(a, b) for a, b in EDGE_PAIRS if not a == b == 0.5]


def mpmath_lambda_derivatives(p00: float, p11: float):
    """(lambda'(-1), lambda''(-1)) of lambda(s) at 60 digits, differentiated by
    mpmath, for the chain whose p01 and p10 are exactly 1 - p00 and 1 - p11."""
    a, d = mpmath.mpf(p00), mpmath.mpf(p11)
    with mpmath.workdps(60):
        def lam(s):
            ps, ds = a ** (-s), d ** (-s)
            return (ps + ds + mpmath.sqrt((ps - ds) ** 2 + 4 * ((1 - a) * (1 - d)) ** (-s))) / 2

        return mpmath.diff(lam, -1, 1), mpmath.diff(lam, -1, 2)


@pytest.mark.parametrize("p00, p11", EDGE_PAIRS)
def test_derivatives_match_mpmath_at_edge_chains(p00, p11):
    # the worst relative error of the closed forms over this grid was
    # measured at 3.6e-16
    exact = mpmath_lambda_derivatives(p00, p11)
    for got, want in zip(lambda_derivatives(MarkovChain(0.5, p00, p11)), exact):
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("p00, p11", ASYMMETRIC_EDGE_PAIRS)
def test_entropy_and_explicit_sigma2_match_mpmath_at_edge_chains(p00, p11):
    # H from its definition and sigma^2 = (lambda'' - lambda'^2) / lambda'^3,
    # both at 60 digits, against entropy_rate and the explicit sigma^2 form.
    # Worst measured over this grid: H 1.8e-16, sigma^2 3.6e-16 relative, so
    # the 2e-15 bound leaves 11x and 5.5x headroom.  Logs of the rounded
    # 1 - p in place of log1p put them 1.3e-9 and 3.9e-9 off at
    # p00 = p11 = PROB_FLOOR.
    a, d = mpmath.mpf(p00), mpmath.mpf(p11)
    with mpmath.workdps(60):
        b, c = 1 - a, 1 - d
        h0 = -(a * mpmath.log(a) + b * mpmath.log(b))
        h1 = -(c * mpmath.log(c) + d * mpmath.log(d))
        h = (c * h0 + b * h1) / (b + c)
        lam_dot, lam_ddot = mpmath_lambda_derivatives(p00, p11)
        sigma2 = (lam_ddot - lam_dot**2) / lam_dot**3
    chain = MarkovChain(0.5, p00, p11)
    assert abs(entropy_rate(chain)[0] - h) <= 2e-15 * h
    assert abs(sigma_squared(chain)[1] - sigma2) <= 2e-15 * sigma2


@pytest.mark.parametrize("p00, p11", ASYMMETRIC_EDGE_PAIRS)
def test_spectral_constants_finite_at_edge_chains(p00, p11):
    # transition probabilities as close to 0 or 1 as a chain may come; the
    # two sigma^2 forms agree within verify's own limit (worst measured gap
    # 1.4e-15, at p00 = PROB_FLOOR, p11 = 0.5)
    chain = MarkovChain(0.5, p00, p11)
    consts = spectral_constants(chain)
    values = [v for v in consts.values() if type(v) is not bool]
    assert all(math.isfinite(v) and v > 0.0 for v in values), values
    eigen, explicit = sigma_squared(chain)
    assert math.isfinite(eigen) and eigen > 0.0 and math.isfinite(explicit) and explicit > 0.0
    assert abs(eigen - explicit) <= 1e-8 * explicit
