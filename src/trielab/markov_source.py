"""Binary Markov source: chain parameters, entropy, and reproducible bit streams.

The source emits i.i.d. infinite bit strings.  Each string starts with bit 0
with probability ``mu0`` and afterwards follows a two-state homogeneous Markov
chain with transition matrix ``[[p00, 1-p00], [1-p11, p11]]``.

Randomness is counter based and splittable: every stream owns a 64-bit
sub-seed derived by hashing (seed, stream index), and the uniform driving bit
``t`` of that stream is a pure function of (sub-seed, t).  Streams and
replicates are therefore order independent, reproducible, and safe to
generate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# distinct odd multipliers keep stream and replicate index spaces separated
_STREAM_SALT = 0xD1B54A32D192ED03
_REPLICATE_SALT = 0x8CB92BA72F3D8DD7

# transition probabilities this far from {0,1} keep the spectral formulas
# (logs, negative powers) well conditioned
PROB_FLOOR = 1e-9


class SymmetricChain(ValueError):
    """Raised by analyses that require some transition probability != 1/2."""


@dataclass(frozen=True)
class MarkovChain:
    """Two-state chain given by initial mass on 0 and the diagonal transitions.

    ``p01 = 1 - p00`` and ``p10 = 1 - p11`` are derived, so the rows sum to 1
    by construction.  ``mu0`` may be degenerate (0 or 1); the transition
    probabilities must stay strictly inside (0, 1).
    """

    mu0: float
    p00: float
    p11: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu0 <= 1.0:
            raise ValueError(f"mu0 must lie in [0, 1], got {self.mu0}")
        for name in ("p00", "p11"):
            p = getattr(self, name)
            if not PROB_FLOOR <= p <= 1.0 - PROB_FLOOR:
                raise ValueError(
                    f"{name} must lie in [{PROB_FLOOR}, {1 - PROB_FLOOR}], got {p}"
                )

    @property
    def p01(self) -> float:
        return 1.0 - self.p00

    @property
    def p10(self) -> float:
        return 1.0 - self.p11

    @property
    def is_asymmetric(self) -> bool:
        """True iff some transition probability differs from 1/2."""
        return self.p00 != 0.5 or self.p11 != 0.5

    def require_asymmetric(self) -> None:
        if not self.is_asymmetric:
            raise SymmetricChain(
                "all transition probabilities equal 1/2; the variance constant "
                "degenerates and the normal limit does not apply"
            )

    def as_dict(self) -> dict:
        return {"mu0": self.mu0, "p00": self.p00, "p11": self.p11}


def stationary_distribution(chain: MarkovChain) -> tuple[float, float]:
    """Stationary law (pi0, pi1) = (p10, p01) / (p01 + p10)."""
    denom = chain.p01 + chain.p10
    return chain.p10 / denom, chain.p01 / denom


def entropy_rate(chain: MarkovChain) -> tuple[float, float, float]:
    """Entropy rate in nats and the per-state transition entropies.

    H_i = -sum_j p_ij log p_ij and H = pi0*H0 + pi1*H1.  H governs the
    leading n*log(n)/H growth of the expected path length.  log p01 and
    log p10 come from log1p of -p00 and -p11, not from the rounded 1 - p, so
    they keep their digits when p00 or p11 is near 0.
    """
    h0 = -(chain.p00 * np.log(chain.p00) + chain.p01 * np.log1p(-chain.p00))
    h1 = -(chain.p10 * np.log1p(-chain.p11) + chain.p11 * np.log(chain.p11))
    pi0, pi1 = stationary_distribution(chain)
    return pi0 * h0 + pi1 * h1, h0, h1


# --- counter-based randomness -------------------------------------------------

def _mix64(z: np.ndarray | int, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer over uint64 (wraparound intended).

    A uint64 array is mixed in place; anything else is first copied into a
    fresh, possibly 0-d, uint64 array, so the wraparound stays silent (numpy
    scalar arithmetic would warn).  One scratch buffer serves all three shifts:
    `tmp`, a uint64 array of z's shape, when the caller reuses one, else a
    fresh one.
    """
    if not (isinstance(z, np.ndarray) and z.dtype == np.uint64):
        z = np.array(z, dtype=np.uint64)
    if tmp is None:
        tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _keyed(
    seed: int | np.ndarray,
    indices: int | np.ndarray,
    salt: int,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray | int:
    """mix(seed ^ mix((i + 1) * salt)) mod 2^64 for each index i; injective in i.

    Seeds and indices broadcast; a scalar seed is reduced mod 2^64, so negative
    seeds are allowed.  Two scalars give a Python int.  `out` (uint64, the
    broadcast shape) receives the result and `tmp` (the same) serves the outer
    mix, so a grid of sub-seeds can go into reused rows.
    """
    key = np.array(indices, dtype=np.uint64)
    key += np.uint64(1)
    key *= np.uint64(salt)
    if np.isscalar(seed):
        seed = np.uint64(int(seed) & _MASK64)
    key = _mix64(np.bitwise_xor(np.asarray(seed, dtype=np.uint64), _mix64(key), out=out), tmp)
    return key if key.ndim else int(key)


def stream_seeds(
    seed: int | np.ndarray,
    indices: int | np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray | int:
    """Per-stream sub-seed = mix(seed, stream index); seeds and indices broadcast.

    `out` and `tmp` are optional uint64 buffers of the broadcast shape, as in
    `_keyed`; with `out` the result is `out` itself.
    """
    return _keyed(seed, indices, _STREAM_SALT, out, tmp)


def replicate_seed(seed: int, replicate: int | np.ndarray) -> np.ndarray | int:
    """Sub-seed of Monte Carlo replicate(s); feeds `stream_seeds` below it."""
    return _keyed(seed, replicate, _REPLICATE_SALT)


def uniforms_at(
    sub_seeds: int | np.ndarray,
    positions: int | np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """53-bit numerators k of the uniforms k * 2^-53 driving bit `positions` of
    stream `sub_seeds`, as uint64 in [0, 2^53).

    A pure function of (sub-seed, position); the arguments broadcast, so one
    call serves many streams at one position or one stream at many positions.
    `out` receives the numerators and `tmp` is the mixer's scratch, both uint64
    of the broadcast shape; a caller drawing level after level passes the same
    buffers each time instead of allocating two arrays a call.  A caller that
    needs the uniform itself multiplies by 2.0**-53, which is exact.
    """
    z = np.array(positions, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    k = np.add(z, np.asarray(sub_seeds, dtype=np.uint64), out=out)
    if tmp is None:
        tmp = np.empty_like(k)
    k = _mix64(k, tmp)
    return np.right_shift(k, np.uint64(11), out=k)


START = 2  # bit-rule state before the first bit


def bit_thresholds(chain: MarkovChain) -> list[int]:
    """The Markov bit rule as integer thresholds on the 2^-53 lattice.

    The thresholds are [ceil(p00 2^53), ceil(p10 2^53), ceil(mu0 2^53)], and
    the bit driven by numerator k (see `uniforms_at`) is
    `k >= thresholds[state]`, where `state` is the previous bit, or START
    before the first bit.  Scaling by 2^53 is exact and k is an integer, so
    `k >= ceil(t 2^53)` holds exactly when `k 2^-53 >= t`: the rule is the
    float rule `u >= t` on the uniform u = k 2^-53.  Numerators lie in
    [0, 2^53), so a delta initial law is exact: mu0 = 1.0 (threshold 2^53)
    always gives a first bit 0 and mu0 = 0.0 (threshold 0) always gives 1.
    """
    return [math.ceil(t * 2.0**53) for t in (chain.p00, chain.p10, chain.mu0)]


class BitStream:
    """Lazily extended bit string of the stream keyed by `sub_seed`.

    Re-creating a stream with the same (chain, sub_seed) reproduces the
    identical bit sequence; bits are cached so positions can be revisited.
    """

    __slots__ = ("sub_seed", "_thresholds", "_bits")

    def __init__(self, chain: MarkovChain, sub_seed: int):
        self.sub_seed = sub_seed
        self._thresholds = bit_thresholds(chain)
        self._bits: list[int] = []

    def _extend_to(self, length: int) -> None:
        start = len(self._bits)
        if length <= start:
            return
        stop = max(length, 2 * start, 16)
        bits, thresholds = self._bits, self._thresholds
        state = bits[-1] if bits else START
        for k in uniforms_at(self.sub_seed, np.arange(start, stop)).tolist():
            state = int(k >= thresholds[state])
            bits.append(state)

    def bit(self, position: int) -> int:
        """Bit at `position` (0-based), generating as far as needed."""
        self._extend_to(position + 1)
        return self._bits[position]

    def prefix(self, length: int) -> np.ndarray:
        """First `length` bits as an int8 array."""
        self._extend_to(length)
        return np.array(self._bits[:length], dtype=np.int8)


def generate_strings(chain: MarkovChain, n: int, seed: int) -> list[BitStream]:
    """n independent streams; stream j is keyed by `stream_seeds(seed, j)`.

    A chain with mu0 = 1 - i gives every stream the first bit i, the
    per-initial-state law of the oracle's rows nu_i and var_i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    subs = stream_seeds(seed, np.arange(n)).tolist()
    return [BitStream(chain, sub) for sub in subs]
