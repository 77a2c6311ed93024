"""Where does the n log n variance term actually take over?

Fits var(n) ~ a n log n + b n on a dyadic grid and reports, size by size,
how large the linear remainder still is relative to the leading term.  The
crossover size exp(b/a) explains why scaling clouds by sqrt(sigma2 n log n)
leaves them over-dispersed at any size a simulation can reach.
"""

import argparse
import math

from trielab.clt_harness import fit_growth_values
from trielab.exact_moments import MAX_HORIZON, compute_moment_table, root_split
from trielab.markov_source import MarkovChain, SymmetricChain
from trielab.spectral import sigma_squared


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu0", type=float, default=0.5)
    ap.add_argument("--p00", type=float, default=0.6)
    ap.add_argument("--p11", type=float, default=0.7)
    ap.add_argument("--n-max", type=int, default=8192)
    args = ap.parse_args()
    if args.n_max < 2048:
        ap.error("--n-max must be at least 2048: the fit needs the four sizes 256..2048")
    if args.n_max > MAX_HORIZON:
        ap.error(f"--n-max must be at most {MAX_HORIZON}, the moment table's cap")

    chain = MarkovChain(args.mu0, args.p00, args.p11)
    try:
        sig2 = sigma_squared(chain)[1]
    except SymmetricChain as err:
        ap.error(f"the fit compares against sigma2, which needs an asymmetric chain: {err}")
    table = compute_moment_table(chain, args.n_max)
    kmax = int(math.log2(args.n_max))
    grid = [2**k for k in range(8, kmax + 1)]
    variances = [root_split(chain, table, n)[1] for n in grid]
    a, b = fit_growth_values(grid, variances)

    print(f"chain p00={chain.p00:g} p11={chain.p11:g}: sigma2 = {sig2:.6f}")
    print(f"fit over dyadic n in [{grid[0]}, {grid[-1]}]: "
          f"a = {a:.6f}  b = {b:.6f}  (slope off sigma2 by "
          f"{abs(a - sig2) / sig2:.2%})")
    print()
    print(f"{'n':>8} {'var(n)':>14} {'a n ln n':>14} {'b n / a n ln n':>15}")
    for n, var in zip(grid, variances):
        lead = a * n * math.log(n)
        print(f"{n:>8} {var:>14.1f} {lead:>14.1f} {b * n / lead:>15.3f}")
    print()
    cross = math.exp(b / a)
    print(f"linear term matches the leading term near n = exp(b/a) ~ {cross:.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
