"""Laboratory for external path lengths of tries built over binary Markov sources."""

from trielab.clt_harness import (
    apply_T,
    ks_distance,
    law_ks,
    simulate_epl,
    standardize,
)
from trielab.exact_moments import (
    compute_moment_table,
    root_split,
)
from trielab.markov_source import (
    BitStream,
    MarkovChain,
    SymmetricChain,
    entropy_rate,
    generate_strings,
    stationary_distribution,
)
from trielab.spectral import sigma_squared, spectral_constants
from trielab.trie import DepthExceeded, Trie, build_trie

__all__ = [
    "BitStream",
    "MarkovChain",
    "SymmetricChain",
    "entropy_rate",
    "generate_strings",
    "stationary_distribution",
    "DepthExceeded",
    "Trie",
    "build_trie",
    "compute_moment_table",
    "root_split",
    "sigma_squared",
    "spectral_constants",
    "apply_T",
    "ks_distance",
    "law_ks",
    "simulate_epl",
    "standardize",
]

__version__ = "0.1.0"
