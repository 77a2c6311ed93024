"""Spectral constants of the source: dominant eigenvalue of (p_ij^{-s}) and friends.

For a two-state chain the matrix P(s) = (p_ij^{-s}) has largest eigenvalue

    lambda(s) = (T + sqrt(T^2 - 4 D)) / 2,
    T = p00^{-s} + p11^{-s},   D = (p00 p11)^{-s} - (p01 p10)^{-s},

with discriminant rewritten as (p00^{-s} - p11^{-s})^2 + 4 (p01 p10)^{-s},
which is nonnegative term by term and free of cancellation.  At s = -1 the
matrix is the transition matrix itself, so lambda(-1) = 1 and the first
derivative equals the entropy rate H.  The limit variance constant is

    sigma^2 = (lambda''(-1) - lambda'(-1)^2) / lambda'(-1)^3,

with an equivalent explicit form in the transition probabilities; computing
both and comparing is the module's built-in error bar.
"""

from __future__ import annotations

import math

from trielab.markov_source import MarkovChain, entropy_rate, stationary_distribution


def lambda_of_s(chain: MarkovChain, s: float) -> float:
    """Largest eigenvalue of (p_ij^{-s}); always real for a valid chain."""
    a = chain.p00 ** (-s)
    d = chain.p11 ** (-s)
    cross = (chain.p01 * chain.p10) ** (-s)
    disc = (a - d) ** 2 + 4.0 * cross
    return 0.5 * (a + d + math.sqrt(disc))


def lambda_derivatives(chain: MarkovChain) -> tuple[float, float]:
    """Exact (lambda'(-1), lambda''(-1)) from the eigenvectors (1, 1) and (c, b) at s = -1.

    With a, d = p00, p11, b, c = p01, p10, S = b + c, al = ln a, dl = ln d and
    bc = ln(b c) from log1p:  lambda' = -(a c al + d b dl + b c bc) / S and
    lambda'' = (a c al^2 + d b dl^2 - 2 a d al dl + b c bc^2
                - 2 lambda' (a b al + d c dl - b c bc) / S) / S.
    Implicit differentiation of the characteristic polynomial cancels as
    p00, p11 -> 1; these forms do not, and the tests hold them to mpmath.
    """
    a, d, b, c = chain.p00, chain.p11, chain.p01, chain.p10
    al, dl = math.log(a), math.log(d)
    bc = math.log1p(-a) + math.log1p(-d)
    S = b + c
    lam_dot = -(a * c * al + d * b * dl + b * c * bc) / S
    lam_ddot = (a * c * al * al + d * b * dl * dl - 2.0 * a * d * al * dl + b * c * bc * bc
                - 2.0 * lam_dot * (a * b * al + d * c * dl - b * c * bc) / S) / S
    return lam_dot, lam_ddot


def sigma_squared(chain: MarkovChain) -> tuple[float, float]:
    """Variance constant two ways: (eigenvalue form, explicit form).

    The eigenvalue form is (lambda'' - lambda'^2)/lambda'^3 at s = -1 from
    `lambda_derivatives`; the explicit form is the closed expression in the
    transition probabilities.  Their spread certifies the numerics: <= 1.4e-15
    relative for p_ij up to 1e-9 from 0 or 1, growing as sigma^2 -> 0 near
    the symmetric chain, which degenerates and raises SymmetricChain.
    """
    chain.require_asymmetric()
    lam_dot, lam_ddot = lambda_derivatives(chain)
    eigen = (lam_ddot - lam_dot * lam_dot) / lam_dot**3
    h, h0, h1 = entropy_rate(chain)
    pi0, pi1 = stationary_distribution(chain)
    shift = (h1 - h0) / (chain.p01 + chain.p10)
    term0 = pi0 * chain.p00 * chain.p01 * (math.log(chain.p00 / chain.p01) + shift) ** 2
    term1 = pi1 * chain.p10 * chain.p11 * (math.log(chain.p10 / chain.p11) + shift) ** 2
    explicit = (term0 + term1) / h**3
    return float(eigen), float(explicit)


def contraction_factor(chain: MarkovChain) -> float:
    """xi(3) = max over states of p^{3/2} + (1-p)^{3/2}, the rate at which the
    fixed-point map contracts in the Zolotarev metric of order 3."""
    xi0 = chain.p00**1.5 + chain.p01**1.5
    xi1 = chain.p11**1.5 + chain.p10**1.5
    return max(xi0, xi1)


def multivariate_condition_holds(chain: MarkovChain) -> bool:
    """Joint-convergence condition: (p00 v p11)^{3/2} + (1 - p00 ^ p11)^{3/2} < 1.

    Strictly stronger than xi(3) < 1; chains like (p00, p11) = (0.9, 0.2)
    contract marginally yet fail this joint condition.
    """
    hi = max(chain.p00, chain.p11)
    lo = min(chain.p00, chain.p11)
    return hi**1.5 + (1.0 - lo) ** 1.5 < 1.0


def spectral_constants(chain: MarkovChain) -> dict:
    """analyze's report fields, by their report names; sigma2 (explicit form)
    reads 0.0 on a symmetric chain."""
    h, h0, h1 = entropy_rate(chain)
    pi0, pi1 = stationary_distribution(chain)
    lam_dot, lam_ddot = lambda_derivatives(chain)
    return {
        "H": float(h),
        "H0": float(h0),
        "H1": float(h1),
        "pi0": pi0,
        "pi1": pi1,
        "lambda_dot": lam_dot,
        "lambda_ddot": lam_ddot,
        "sigma2": sigma_squared(chain)[1] if chain.is_asymmetric else 0.0,
        "xi_s3": contraction_factor(chain),
        "cond39": multivariate_condition_holds(chain),
    }
