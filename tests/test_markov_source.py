import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trielab.markov_source import (
    PROB_FLOOR,
    START,
    BitStream,
    MarkovChain,
    _mix64,
    bit_thresholds,
    entropy_rate,
    generate_strings,
    replicate_seed,
    stationary_distribution,
    stream_seeds,
    uniforms_at,
)
from trielab.trie import batch_external_path_lengths

_MASK64 = (1 << 64) - 1

probs = st.floats(min_value=0.01, max_value=0.99)


def test_chain_validation():
    with pytest.raises(ValueError):
        MarkovChain(-0.1, 0.6, 0.7)
    with pytest.raises(ValueError):
        MarkovChain(0.5, 0.0, 0.7)
    with pytest.raises(ValueError):
        MarkovChain(0.5, 1.0, 0.7)
    with pytest.raises(ValueError):
        MarkovChain(0.5, 0.6, 1e-10)
    MarkovChain(0.5, 1e-9, 1 - 1e-9)  # boundary values are allowed
    MarkovChain(0.0, 0.6, 0.7)
    MarkovChain(1.0, 0.6, 0.7)


def test_asymmetry_flag():
    assert not MarkovChain(0.5, 0.5, 0.5).is_asymmetric
    assert MarkovChain(0.5, 0.6, 0.5).is_asymmetric
    assert MarkovChain(0.3, 0.5, 0.5 + 1e-6).is_asymmetric


@given(probs, probs)
@settings(max_examples=60, deadline=None)
def test_stationary_fixed_point(p00, p11):
    chain = MarkovChain(0.5, p00, p11)
    pi0, pi1 = stationary_distribution(chain)
    assert pi0 >= 0 and pi1 >= 0
    assert abs(pi0 + pi1 - 1.0) <= 1e-14
    # left eigenvector of the transition matrix
    assert abs(pi0 * chain.p00 + pi1 * chain.p10 - pi0) <= 1e-14
    assert abs(pi0 * chain.p01 + pi1 * chain.p11 - pi1) <= 1e-14


@given(probs, probs)
@settings(max_examples=60, deadline=None)
def test_entropy_decomposition(p00, p11):
    chain = MarkovChain(0.5, p00, p11)
    H, H0, H1 = entropy_rate(chain)
    h0 = -(p00 * math.log(p00) + (1 - p00) * math.log(1 - p00))
    h1 = -(p11 * math.log(p11) + (1 - p11) * math.log(1 - p11))
    assert abs(H0 - h0) <= 1e-15
    assert abs(H1 - h1) <= 1e-15
    pi0, pi1 = stationary_distribution(chain)
    assert abs(H - (pi0 * H0 + pi1 * H1)) <= 1e-15


def test_entropy_fair_chain():
    H, H0, H1 = entropy_rate(MarkovChain(0.5, 0.5, 0.5))
    assert abs(H - math.log(2)) <= 1e-15
    assert H0 == H1


def _mix64_int(x: int) -> int:
    """Reference SplitMix64 finalizer on a plain Python int (mod 2^64)."""
    z = x & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def test_mixer_reference_vector():
    # first output of the standard 64-bit split-mix generator seeded at 0
    assert _mix64_int(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=80, deadline=None)
def test_mixer_array_matches_int(x):
    assert int(_mix64(np.uint64(x))) == _mix64_int(x)


def test_mixer_no_trivial_collisions():
    vals = _mix64(np.arange(100_000, dtype=np.uint64))
    assert np.unique(vals).size == 100_000


def test_mixing_leaves_inputs_untouched():
    # the mixer works in place on the uint64 array it is given; the seed and
    # uniform functions hand it their own temporaries, never the caller's arrays
    x = np.arange(1000, dtype=np.uint64) * np.uint64(7919)
    seeds = replicate_seed(4, np.arange(1000))
    before_x, before_seeds = x.copy(), seeds.copy()
    mixed = _mix64(x.copy())
    assert (mixed == np.array([_mix64_int(int(v)) for v in x], dtype=np.uint64)).all()
    stream_seeds(seeds, x)
    uniforms_at(seeds, 3)
    uniforms_at(seeds[0], x)
    assert (x == before_x).all() and (seeds == before_seeds).all()


def test_stream_seeds_broadcast():
    idx = np.arange(50)
    batch = stream_seeds(123, idx)
    singles = np.array([stream_seeds(123, int(i)) for i in idx], dtype=np.uint64)
    assert (batch == singles).all()
    # per-replicate seed arrays broadcast against the index array
    seeds = replicate_seed(9, np.arange(50))
    pairwise = stream_seeds(seeds, idx)
    for j in (0, 17, 49):
        assert int(pairwise[j]) == int(stream_seeds(int(seeds[j]), int(idx[j])))


def test_scalar_salting_is_silent():
    # one argument scalar and the other an array: the salted multiply wraps
    # mod 2^64 without an overflow warning, with the values of the int mixer
    seeds = np.array([5, 6], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = stream_seeds(seeds, 3)
        single = replicate_seed(1, 3)
    salted = _mix64_int(4 * 0xD1B54A32D192ED03)
    assert [int(v) for v in pair] == [_mix64_int(5 ^ salted), _mix64_int(6 ^ salted)]
    assert int(single) == _mix64_int(1 ^ _mix64_int(4 * 0x8CB92BA72F3D8DD7))
    assert single == int(replicate_seed(1, np.arange(4))[3])


def test_replicate_seed_scalar_matches_array():
    arr = replicate_seed(42, np.arange(8))
    for r in range(8):
        assert replicate_seed(42, r) == int(arr[r])


def test_uniform_block_range_and_consistency():
    sub = stream_seeds(7, 3)
    u = uniforms_at(sub, np.arange(4096))
    assert u.shape == (4096,) and u.dtype == np.uint64
    assert (u < 2**53).all()
    assert 0.45 <= (u * 2.0**-53).mean() <= 0.55
    # point access agrees with the block
    subs = np.array([sub, sub], dtype=np.uint64)
    at = uniforms_at(subs, 100)
    assert at[0] == u[100] and at[1] == u[100]
    again = uniforms_at(sub, np.arange(100, 104))
    assert (again == u[100:104]).all()


def test_bitstream_determinism_and_state():
    chain = MarkovChain(0.3, 0.6, 0.7)
    a = BitStream(chain, stream_seeds(11, 0))
    b = BitStream(chain, stream_seeds(11, 0))
    assert np.array_equal(a.prefix(200), b.prefix(200))
    assert a.prefix(200).shape == (200,)
    assert a.prefix(200)[-1] == b.bit(199)
    assert np.array_equal(a.prefix(50), b.prefix(200)[:50])
    c = BitStream(chain, stream_seeds(11, 1))
    assert not np.array_equal(c.prefix(200), a.prefix(200))


def test_forced_initial_bit():
    # a delta initial law mu0 = 1 - i starts every stream with bit i
    for forced in (0, 1):
        streams = generate_strings(MarkovChain(1.0 - forced, 0.6, 0.7), 64, 5)
        assert all(s.bit(0) == forced for s in streams)


def test_bit_thresholds_at_extreme_uniforms():
    # numerators lie in [0, 2^53); at both ends the first bit must be the
    # only bit a degenerate initial law (mu0 in {0, 1}) allows
    lowest, highest = 0, 2**53 - 1
    for mu0, expected in ((0.0, (1, 1)), (0.3, (0, 1)), (1.0, (0, 0))):
        chain = MarkovChain(mu0, 0.6, 0.7)
        thresholds = bit_thresholds(chain)
        assert thresholds == [math.ceil(t * 2**53) for t in (chain.p00, chain.p10, mu0)]
        assert all(type(t) is int for t in thresholds)
        first = thresholds[START]
        assert (int(lowest >= first), int(highest >= first)) == expected


def test_lattice_rule_matches_float_rule_at_its_edges():
    # k >= ceil(t 2^53) holds exactly when the uniform k 2^-53 >= t, at each
    # threshold and on either side of it, for every entry of the table
    for t in (0.0, PROB_FLOOR, 0.3, 0.6, 0.7, 1.0 - PROB_FLOOR, 1.0):
        p = min(max(t, PROB_FLOOR), 1.0 - PROB_FLOOR)
        chain = MarkovChain(t, p, p)
        for T, prob in zip(bit_thresholds(chain), (chain.p00, chain.p10, chain.mu0)):
            for k in (T - 1, T, T + 1):
                if 0 <= k < 2**53:
                    assert (k >= T) == (k * 2.0**-53 >= prob), (prob, k)


def test_initial_bit_frequency():
    chain = MarkovChain(0.2, 0.6, 0.7)
    streams = generate_strings(chain, 4000, 99)
    ones = sum(s.bit(0) for s in streams)
    # P(first bit = 1) = 1 - mu0 = 0.8
    se = math.sqrt(0.2 * 0.8 / 4000)
    assert abs(ones / 4000 - 0.8) <= 4 * se


def test_transition_frequencies_long_run():
    chain = MarkovChain(0.5, 0.3, 0.8)
    bits = BitStream(chain, stream_seeds(2024, 0)).prefix(1_000_000)
    arr = np.asarray(bits, dtype=np.int64)
    prev, nxt = arr[:-1], arr[1:]
    for state, p_stay in ((0, chain.p00), (1, chain.p11)):
        mask = prev == state
        cnt = int(mask.sum())
        stay = int((nxt[mask] == state).sum())
        se = math.sqrt(p_stay * (1 - p_stay) / cnt)
        assert abs(stay / cnt - p_stay) <= 4 * se


def test_distinct_streams_decorrelated():
    chain = MarkovChain(0.5, 0.5, 0.5)
    streams = generate_strings(chain, 200, 1)
    firsts = [tuple(s.prefix(64)) for s in streams]
    assert len(set(firsts)) == 200


# Values recorded from the generator before its rules were merged into one
# implementation each; any change to the mixer, the keyed seed, the uniform
# draw or the bit rule moves some of them.
_PINNED_INDICES = (0, 3, 2**40)
_PINNED_STREAM_SEEDS = {  # seed -> stream_seeds(seed, i) for i in _PINNED_INDICES
    0: (0x4e96155e5f0a1c3f, 0x528b2b5e86ce6a12, 0xaeff1a0f152cbcad),
    -1: (0x30fd83b93808e770, 0xc342e50d4655db37, 0x7d785fda38579084),
    2**64 - 1: (0x30fd83b93808e770, 0xc342e50d4655db37, 0x7d785fda38579084),
    20240817: (0x9b2cfb873a4c030a, 0x215c25b2d4fb1091, 0x8ed3014685044e99),
}
_PINNED_REPLICATE_SEEDS = {  # seed -> replicate_seed(seed, i) for i in _PINNED_INDICES
    0: (0x8095aa2a28800d7a, 0x33ba01350ac7dc14, 0xfe8528e1aa1c8520),
    -1: (0xbb762878dfea595f, 0xa5842498ac87e5cd, 0x81b4f80334d0b764),
    2**64 - 1: (0xbb762878dfea595f, 0xa5842498ac87e5cd, 0x81b4f80334d0b764),
    20240817: (0x54dff177f84476cc, 0x4548878ad704f8b6, 0x56257a882452378b),
}
_PINNED_UNIFORMS = {  # position -> uniforms_at(stream_seeds(20240817, _PINNED_INDICES), position) * 2^-53
    0: ('0x1.4bf76bf5c8271p-1', '0x1.b26d229cb631cp-2', '0x1.e1d425b1738ecp-3'),
    1: ('0x1.c878f697ada36p-2', '0x1.3b7e3e4fd30aap-1', '0x1.8b2f3e87caa24p-3'),
    10**6: ('0x1.4ff8534dbf840p-3', '0x1.b0a5a046ab732p-1', '0x1.4be1fdd0f9bdbp-1'),
}
_PINNED_BITS = {  # (mu0, p00, p11) -> first 64 bits of streams 0..2 of seed 20240817
    (0.5, 0.6, 0.7): (0xffb9800fefe1c2ff, 0xb473ae3d07005f47, 0x7dc407c58c3f03ef),
    (0.0, 0.6, 0.7): (0xffb9800fefe1c2ff, 0xb473ae3d07005f47, 0xfdc407c58c3f03ef),
    (1.0, 0.6, 0.7): (0x3fb9800fefe1c2ff, 0x3473ae3d07005f47, 0x7dc407c58c3f03ef),
    (0.0, PROB_FLOOR, 0.5): (0xbebbaaaeabefaad7, 0xb557aeb55555db57, 0xfdd55555ad7abfdf),
    (1.0, PROB_FLOOR, 0.5): (0x7ebbaaaeabefaad7, 0x7557aeb55555db57, 0x7dd55555ad7abfdf),
}
_PINNED_EPLS = {  # mu0 -> EPLs of tries over 2, 100, 2048 streams on chain (mu0, 0.6, 0.7)
    0.5: (8, 822, 27497),
    1.0: (12, 926, 29412),
    0.0: (8, 922, 29923),
}


def test_streams_match_pinned_values():
    for seed, words in _PINNED_STREAM_SEEDS.items():
        assert tuple(stream_seeds(seed, i) for i in _PINNED_INDICES) == words
        assert tuple(int(s) for s in stream_seeds(seed, np.array(_PINNED_INDICES))) == words
    for seed, words in _PINNED_REPLICATE_SEEDS.items():
        assert tuple(replicate_seed(seed, i) for i in _PINNED_INDICES) == words
    subs = stream_seeds(20240817, np.array(_PINNED_INDICES))
    for position, values in _PINNED_UNIFORMS.items():
        assert [float(u).hex() for u in uniforms_at(subs, position) * 2.0**-53] == list(values)
    for (mu0, p00, p11), words in _PINNED_BITS.items():
        streams = generate_strings(MarkovChain(mu0, p00, p11), 3, 20240817)
        assert tuple(int("".join(map(str, s.prefix(64))), 2) for s in streams) == words
    seeds = replicate_seed(20240817, np.arange(3))
    for mu0, epls in _PINNED_EPLS.items():
        got = batch_external_path_lengths(
            MarkovChain(mu0, 0.6, 0.7), np.array([2, 100, 2048]), seeds
        )
        assert tuple(got.tolist()) == epls


def test_output_buffers_change_no_bit():
    # the kernel hands the generator its own rows; the numbers must be the
    # allocating calls' bit for bit, written into and returned as `out` itself
    x = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tmp = np.full_like(x, 12345)
    assert (_mix64(x.copy(), tmp) == _mix64(x.copy())).all()
    subs = stream_seeds(20240817, np.array(_PINNED_INDICES))
    for position, values in _PINNED_UNIFORMS.items():
        out, tmp = np.zeros(3, dtype=np.uint64), np.empty(3, dtype=np.uint64)
        got = uniforms_at(subs, position, out=out, tmp=tmp)
        assert got is out
        assert [float(u).hex() for u in out * 2.0**-53] == list(values)
    for seed, words in _PINNED_STREAM_SEEDS.items():
        out, tmp = np.zeros(3, dtype=np.uint64), np.empty(3, dtype=np.uint64)
        assert stream_seeds(seed, np.array(_PINNED_INDICES), out=out, tmp=tmp) is out
        assert tuple(int(s) for s in out) == words
    # the kernel's (replicate seed, stream index) grid, written into row views
    seeds = replicate_seed(3, np.arange(7))
    rows = np.empty((2, 7 * 50), dtype=np.uint64)
    grid = stream_seeds(seeds[:, None], np.arange(50),
                        out=rows[0].reshape(7, 50), tmp=rows[1].reshape(7, 50))
    assert grid.base is rows and (grid == stream_seeds(seeds[:, None], np.arange(50))).all()
    # uniforms of the grid's strings at one position, into two rows
    flat = grid.ravel().copy()
    u = uniforms_at(flat, 17, out=rows[0], tmp=rows[1])
    assert u.base is rows and (u == uniforms_at(flat, 17)).all()
