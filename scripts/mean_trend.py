"""Dyadic trend of the mean path length toward its n log n / H growth.

Prints H nu(n) / (n log n) along powers of two together with the increment
statistic of the deviation table f(n) = nu(n) - n log n / H, whose flatness
is what makes the second-order constant visible in variance fits.
"""

import argparse
import math

import numpy as np

from trielab.exact_moments import MAX_HORIZON, compute_moment_table, error_terms, root_split
from trielab.markov_source import MarkovChain, entropy_rate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu0", type=float, default=0.5)
    ap.add_argument("--p00", type=float, default=0.6)
    ap.add_argument("--p11", type=float, default=0.7)
    ap.add_argument("--n-max", type=int, default=8192)
    args = ap.parse_args()
    if not 128 <= args.n_max <= MAX_HORIZON:
        ap.error(f"--n-max must lie in [128, {MAX_HORIZON}]: the dyadic table starts at "
                 f"2^7 and the moment table stops at its cap")

    chain = MarkovChain(args.mu0, args.p00, args.p11)
    H, H0, H1 = entropy_rate(chain)
    table = compute_moment_table(chain, args.n_max)
    print(f"entropy rate H = {H:.6f} (per-state {H0:.6f}, {H1:.6f})")
    print(f"{'n':>8} {'nu(n)':>14} {'H nu/(n ln n)':>14}")
    k = 7
    while 2**k <= args.n_max:
        n = 2**k
        nu = root_split(chain, table, n)[0]
        print(f"{n:>8} {nu:>14.2f} {H * nu / (n * math.log(n)):>14.6f}")
        k += 1
    if chain.is_asymmetric:
        lo, hi = 64, min(4096, args.n_max)
        steps = np.abs(np.diff(error_terms(table)[:, lo : hi + 1], axis=1))
        print(f"max one-step increment of f on [{lo}, {hi}]: {steps.max():.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
