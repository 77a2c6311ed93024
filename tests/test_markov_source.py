import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trielab.markov_source import (
    BitStream,
    MarkovChain,
    _mix64,
    _mix64_int,
    entropy_rate,
    generate_strings,
    replicate_seed,
    replicate_seeds,
    stationary_distribution,
    stream_seeds,
    uniform_block,
    uniforms_at,
)

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
    # the mixer works in place on its own temporaries, never on the caller's arrays
    x = np.arange(1000, dtype=np.uint64) * np.uint64(7919)
    seeds = replicate_seeds(4, np.arange(1000))
    before_x, before_seeds = x.copy(), seeds.copy()
    mixed = _mix64(x)
    assert (mixed == np.array([_mix64_int(int(v)) for v in x], dtype=np.uint64)).all()
    stream_seeds(seeds, x)
    uniforms_at(seeds, 3)
    assert (x == before_x).all() and (seeds == before_seeds).all()


def test_stream_seeds_broadcast():
    idx = np.arange(50)
    batch = stream_seeds(123, idx)
    singles = np.array([stream_seeds(123, int(i)) for i in idx], dtype=np.uint64)
    assert (batch == singles).all()
    # per-replicate seed arrays broadcast against the index array
    seeds = replicate_seeds(9, np.arange(50))
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
        single = replicate_seeds(1, 3)
    salted = _mix64_int(4 * 0xD1B54A32D192ED03)
    assert [int(v) for v in pair] == [_mix64_int(5 ^ salted), _mix64_int(6 ^ salted)]
    assert int(single) == _mix64_int(1 ^ _mix64_int(4 * 0x8CB92BA72F3D8DD7))
    assert int(single) == replicate_seed(1, 3)


def test_replicate_seed_scalar_matches_array():
    arr = replicate_seeds(42, np.arange(8))
    for r in range(8):
        assert replicate_seed(42, r) == int(arr[r])


def test_uniform_block_range_and_consistency():
    sub = stream_seeds(7, 3)
    u = uniform_block(sub, 0, 4096)
    assert u.shape == (4096,)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert 0.45 <= u.mean() <= 0.55
    # point access agrees with the block
    subs = np.array([sub, sub], dtype=np.uint64)
    at = uniforms_at(subs, 100)
    assert at[0] == u[100] and at[1] == u[100]
    again = uniform_block(sub, 100, 104)
    assert (again == u[100:104]).all()


def test_bitstream_determinism_and_state():
    chain = MarkovChain(0.3, 0.6, 0.7)
    a = BitStream(chain, 11, 0)
    b = BitStream(chain, 11, 0)
    assert np.array_equal(a.prefix(200), b.prefix(200))
    assert a.emitted >= 200
    assert a.state == a.prefix(200)[-1]
    assert np.array_equal(a.prefix(50), b.prefix(200)[:50])
    c = BitStream(chain, 11, 1)
    assert not np.array_equal(c.prefix(200), a.prefix(200))


def test_forced_initial_bit():
    chain = MarkovChain(0.5, 0.6, 0.7)
    for forced in (0, 1):
        streams = generate_strings(chain, 64, 5, forced_initial=forced)
        assert all(s.bit(0) == forced for s in streams)
    with pytest.raises(ValueError):
        BitStream(chain, 1, 0, forced_initial=2)


def test_initial_bit_frequency():
    chain = MarkovChain(0.2, 0.6, 0.7)
    streams = generate_strings(chain, 4000, 99)
    ones = sum(s.bit(0) for s in streams)
    # P(first bit = 1) = 1 - mu0 = 0.8
    se = math.sqrt(0.2 * 0.8 / 4000)
    assert abs(ones / 4000 - 0.8) <= 4 * se


def test_transition_frequencies_long_run():
    chain = MarkovChain(0.5, 0.3, 0.8)
    bits = BitStream(chain, 2024, 0).prefix(1_000_000)
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
