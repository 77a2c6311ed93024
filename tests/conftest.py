import math

import pytest

from trielab.exact_moments import compute_moment_table, root_split
from trielab.markov_source import MarkovChain
from trielab.spectral import sigma_squared


@pytest.fixture(scope="session")
def chain67():
    return MarkovChain(0.5, 0.6, 0.7)


@pytest.fixture(scope="session")
def table67(chain67):
    # shared across files; builds in well under a second
    return compute_moment_table(chain67, 8192)


@pytest.fixture(scope="session")
def scale_gap67(chain67, table67):
    """The exact variance of chain67 against its asymptotic form sigma^2 n ln n.

    Over n = 2^7..2^13, with Var(n) from the DP oracle and sigma^2 the spectral
    constant: `ratio[n]` is r_n = Var(n) / (sigma^2 n ln n), the variance of
    the asymptotic-scale cloud; `correction[n]` is (Var(n) - sigma^2 n ln n) / n,
    the linear term left once sigma^2 n ln n is taken off; `spread` is that
    correction's max - min over n = 2^8..2^13.  A sigma^2 off by d tilts the
    correction by -d ln n, so the spread grows by 3.47 |d| over that range.
    """
    sig2 = sigma_squared(chain67)[1]
    ns = [2**k for k in range(7, 14)]
    var = {n: root_split(chain67, table67, n)[1] for n in ns}
    correction = {n: var[n] / n - sig2 * math.log(n) for n in ns}
    flat = [correction[n] for n in ns if n >= 2**8]
    return {
        "sigma2": sig2,
        "ratio": {n: var[n] / (sig2 * n * math.log(n)) for n in ns},
        "correction": correction,
        "spread": max(flat) - min(flat),
    }
