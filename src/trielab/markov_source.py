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
    def mu1(self) -> float:
        return 1.0 - self.mu0

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
    leading n*log(n)/H growth of the expected path length.
    """
    h0 = -(chain.p00 * np.log(chain.p00) + chain.p01 * np.log(chain.p01))
    h1 = -(chain.p10 * np.log(chain.p10) + chain.p11 * np.log(chain.p11))
    pi0, pi1 = stationary_distribution(chain)
    return pi0 * h0 + pi1 * h1, h0, h1


# --- counter-based randomness -------------------------------------------------

def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wraparound intended)."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """`_mix64` that overwrites `z` if it is a uint64 array (a scalar gets a 0-d copy).

    One scratch buffer serves all three shifts.
    """
    z = np.asarray(z, dtype=np.uint64)
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a plain Python int (mod 2^64)."""
    z = x & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _salted(indices: np.ndarray | int, salt: int) -> np.ndarray:
    """(indices + 1) * salt mod 2^64 on a fresh uint64 array.

    Updated in place, a 0-d array stays an array, so the wraparound is as
    silent as for longer arrays (numpy scalar arithmetic would warn).
    """
    out = np.array(indices, dtype=np.uint64)
    out += np.uint64(1)
    out *= np.uint64(salt)
    return out


def stream_seeds(
    seed: int | np.ndarray, indices: np.ndarray | int
) -> np.ndarray | int:
    """Per-stream sub-seed = mix(seed, stream index); injective in the index.

    `seed` may be an array (one seed per index entry); shapes broadcast.
    """
    if np.isscalar(seed) and np.isscalar(indices):
        return _mix64_int(
            (int(seed) & _MASK64) ^ _mix64_int((int(indices) + 1) * _STREAM_SALT)
        )
    salted = _salted(indices, _STREAM_SALT)
    if np.isscalar(seed):
        base = np.uint64(int(seed) & _MASK64)
    else:
        base = np.asarray(seed, dtype=np.uint64)
    return _mix64_inplace(base ^ _mix64_inplace(salted))


def replicate_seed(seed: int, replicate: int) -> int:
    """Sub-seed for one Monte Carlo replicate; feeds `stream_seeds` below it."""
    return _mix64_int((seed & _MASK64) ^ _mix64_int((replicate + 1) * _REPLICATE_SALT))


def replicate_seeds(seed: int, replicates: np.ndarray) -> np.ndarray:
    salted = _salted(replicates, _REPLICATE_SALT)
    return _mix64_inplace(np.uint64(seed & _MASK64) ^ _mix64_inplace(salted))


def uniforms_at(sub_seeds: np.ndarray, position: int) -> np.ndarray:
    """Uniform(0,1) driving bit `position` of each stream, as a pure function."""
    t = np.uint64((position * _GOLDEN) & _MASK64)
    u64 = _mix64_inplace(np.asarray(sub_seeds, dtype=np.uint64) + t)
    u64 >>= np.uint64(11)
    return u64 * 2.0**-53


def uniform_block(sub_seed: int, start: int, stop: int) -> np.ndarray:
    """Uniforms for positions start..stop-1 of a single stream."""
    t = (np.arange(start, stop, dtype=np.uint64) * np.uint64(_GOLDEN)) + np.uint64(
        sub_seed & _MASK64
    )
    u64 = _mix64_inplace(t)
    u64 >>= np.uint64(11)
    return u64 * 2.0**-53


def next_bits(
    chain: MarkovChain,
    uniforms: np.ndarray,
    states: np.ndarray | None,
    forced_initial: int | None = None,
) -> np.ndarray:
    """Map one column of uniforms to bits, vectorized across streams.

    `states is None` marks the first position: the bit follows the initial
    distribution (or `forced_initial`).  Later positions draw from the
    transition row of the previous bit.
    """
    if states is None:
        if forced_initial is not None:
            return np.full(uniforms.shape, forced_initial, dtype=np.int8)
        return (uniforms >= chain.mu0).astype(np.int8)
    prob0 = np.array([chain.p00, chain.p10])[states]
    return (uniforms >= prob0).astype(np.int8)


class BitStream:
    """Lazily extended bit string of one Markov-source stream.

    Re-creating a stream with the same (chain, seed, index, forced_initial)
    reproduces the identical bit sequence; bits are cached so positions can be
    revisited.  `state` is the last emitted symbol, `emitted` the number of
    bits produced so far.
    """

    __slots__ = ("chain", "seed", "index", "forced_initial", "_sub_seed", "_bits")

    def __init__(
        self,
        chain: MarkovChain,
        seed: int,
        index: int,
        forced_initial: int | None = None,
    ):
        if forced_initial not in (None, 0, 1):
            raise ValueError("forced_initial must be None, 0 or 1")
        self.chain = chain
        self.seed = seed
        self.index = index
        self.forced_initial = forced_initial
        self._sub_seed = stream_seeds(seed, index)
        self._bits: list[int] = []

    @property
    def emitted(self) -> int:
        return len(self._bits)

    @property
    def state(self) -> int | None:
        return self._bits[-1] if self._bits else None

    def _extend_to(self, length: int) -> None:
        start = len(self._bits)
        if length <= start:
            return
        stop = max(length, 2 * start, 16)
        u = uniform_block(self._sub_seed, start, stop)
        bits = self._bits
        chain = self.chain
        state = bits[-1] if bits else None
        for t in range(stop - start):
            if state is None:
                if self.forced_initial is not None:
                    b = self.forced_initial
                else:
                    b = 0 if u[t] < chain.mu0 else 1
            else:
                prob0 = chain.p00 if state == 0 else chain.p10
                b = 0 if u[t] < prob0 else 1
            bits.append(b)
            state = b

    def bit(self, position: int) -> int:
        """Bit at `position` (0-based), generating as far as needed."""
        self._extend_to(position + 1)
        return self._bits[position]

    def prefix(self, length: int) -> np.ndarray:
        """First `length` bits as an int8 array."""
        self._extend_to(length)
        return np.array(self._bits[:length], dtype=np.int8)


def generate_strings(
    chain: MarkovChain,
    n: int,
    seed: int,
    forced_initial: int | None = None,
) -> list[BitStream]:
    """n independent streams; stream j depends only on (seed, j).

    With `forced_initial` set, every first bit equals it, which models the
    degenerate initial distributions used by the per-symbol path lengths.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [BitStream(chain, seed, j, forced_initial) for j in range(n)]
