import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trielab.exact_moments import root_split
from trielab.markov_source import (
    PROB_FLOOR,
    BitStream,
    MarkovChain,
    generate_strings,
    replicate_seed,
    stream_seeds,
)
import trielab.trie
from trielab.trie import (
    DepthExceeded,
    batch_external_path_lengths,
    build_trie,
    default_max_depth,
)


class FixedStream:
    """Finite bit string padded with zeros, for hand-built tries."""

    def __init__(self, bits: str):
        self.bits = bits

    def bit(self, depth: int) -> int:
        return int(self.bits[depth]) if depth < len(self.bits) else 0


def test_prefix_free_example():
    trie = build_trie([FixedStream(s) for s in ("000", "001", "01", "1")])
    assert trie.epl == 9
    assert list(trie.leaf_depths) == [3, 3, 2, 1]
    assert trie.epl == 9
    assert trie.size == 3  # root, "0", "00"
    assert trie.height == 3
    assert list(trie.depth_histogram) == [0, 1, 1, 2]


def test_two_streams_diverging():
    # agreement on the first bit only: both leaves at depth 2
    trie = build_trie([FixedStream("00"), FixedStream("01")])
    assert trie.epl == 4
    # agreement for k bits puts both leaves at depth k+1
    for k in (0, 1, 3, 7):
        a = "1" * k + "0"
        b = "1" * k + "1"
        assert build_trie([FixedStream(a), FixedStream(b)]).epl == 2 * (k + 1)


def test_degenerate_sizes():
    assert build_trie([]).epl == 0
    assert build_trie([FixedStream("0")]).epl == 0
    assert build_trie([FixedStream("0")]).size == 0
    empty, single = build_trie([]), build_trie([FixedStream("0")])
    assert empty.height == 0 and list(empty.depth_histogram) == []
    assert single.height == 0 and list(single.depth_histogram) == [1]


def test_depth_cap_on_duplicate_streams():
    chain = MarkovChain(0.5, 0.6, 0.7)
    dup = [BitStream(chain, stream_seeds(7, 0)), BitStream(chain, stream_seeds(7, 0))]
    with pytest.raises(DepthExceeded) as err:
        build_trie(dup)
    assert err.value.depth == default_max_depth(2) == 256
    assert err.value.indices == (0, 1)
    assert err.value.replicate is None


def test_batch_depth_error_names_one_clashing_group():
    # p11 at its ceiling: streams that start with 1 stay 1 far past the cap,
    # while the streams that start with 0 separate
    chain = MarkovChain(0.5, 0.5, 1.0 - PROB_FLOOR)
    n, m = 64, 20
    with pytest.raises(DepthExceeded) as err:
        batch_external_path_lengths(chain, np.full(m, n), replicate_seed(1, np.arange(m)))
    depth, names = err.value.depth, err.value.indices
    assert depth == default_max_depth(n)
    # the kernel has no max_depth to raise: the message names the depth only
    message = str(err.value)
    assert f"prefix of length {depth}" in message and "max_depth" not in message
    assert 0 <= err.value.replicate < m
    streams = generate_strings(chain, n, replicate_seed(1, err.value.replicate))
    prefixes = {j: streams[j].prefix(depth).tobytes() for j in range(n)}
    shared = prefixes[names[0]]
    assert len(names) >= 2
    # the named streams are exactly the streams with that prefix: one group
    assert set(names) == {j for j in range(n) if prefixes[j] == shared}
    assert len(names) < n
    # and it is the group the reference builder meets first on that replicate
    with pytest.raises(DepthExceeded) as ref:
        build_trie(streams)
    assert ref.value.indices == names and ref.value.depth == depth


def test_batch_depth_error_on_ragged_sizes_names_the_call_replicate():
    # a chunk holds one size, so the replicate a chunk fails on is mapped back
    # to its place in the call: here a 3-string trie behind a singleton
    chain = MarkovChain(0.5, 0.5, 1.0 - PROB_FLOOR)
    sizes = np.array([64, 5, 1, 3, 64])
    seeds = replicate_seed(2, np.arange(sizes.size))
    with pytest.raises(DepthExceeded) as err:
        batch_external_path_lengths(chain, sizes, seeds)
    r, depth, names = err.value.replicate, err.value.depth, err.value.indices
    assert 0 <= r < sizes.size and sizes[r] >= 2
    assert depth == default_max_depth(int(sizes.max()))
    n = int(sizes[r])
    streams = generate_strings(chain, n, seeds[r])
    prefixes = {j: streams[j].prefix(depth).tobytes() for j in range(n)}
    assert len(names) >= 2
    assert set(names) == {j for j in range(n) if prefixes[j] == prefixes[names[0]]}


def test_default_max_depth_grows():
    assert default_max_depth(0) == 128
    assert default_max_depth(1000) > default_max_depth(10)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_batch_kernel_matches_build(n, seed, p0, p1):
    # the per-replicate seed is the same master seed generate_strings takes
    chain = MarkovChain(0.4, p0, p1)
    direct = build_trie(generate_strings(chain, n, seed)).epl
    batch = batch_external_path_lengths(chain, [n], np.array([seed], dtype=np.uint64))
    assert int(batch[0]) == direct


def test_batch_kernel_matches_build_forced():
    # delta initial laws: every stream starts in state 1 - mu0
    for mu0 in (1.0, 0.0):
        chain = MarkovChain(mu0, 0.3, 0.8)
        for seed in (1, 2, 3):
            direct = build_trie(generate_strings(chain, 33, seed)).epl
            batch = batch_external_path_lengths(chain, [33], np.array([seed], dtype=np.uint64))
            assert int(batch[0]) == direct


def _one_call_per_replicate(chain, sizes, seeds):
    """The kernel run on each replicate alone, so each forms its own chunk."""
    return np.array([batch_external_path_lengths(chain, sizes[r:r + 1], seeds[r:r + 1])[0]
                     for r in range(len(sizes))])


def test_batch_kernel_chunking_invariant():
    chain = MarkovChain(0.5, 0.6, 0.7)
    sizes = np.array([17, 40, 256, 3, 9], dtype=np.int64)
    seeds = replicate_seed(8, np.arange(5))
    whole = batch_external_path_lengths(chain, sizes, seeds)
    assert (whole == _one_call_per_replicate(chain, sizes, seeds)).all()


def test_batch_kernel_chunking_at_default_size():
    # 40 tries of 2048 strings overflow one default chunk; the mixed list puts
    # empty and singleton tries on both sides of the chunk boundaries
    chain = MarkovChain(0.5, 0.6, 0.7)
    mixed = np.array([0, 1, 2048, 30000, 1, 0, 40000, 2, 1 << 16, 0, 1, 5000])
    for sizes in (np.full(40, 2048), mixed):
        seeds = replicate_seed(11, np.arange(len(sizes)))
        default = batch_external_path_lengths(chain, sizes, seeds)
        assert (default == _one_call_per_replicate(chain, sizes, seeds)).all()
        assert (default[sizes <= 1] == 0).all()


# under a 1024-string chunk the sizes run in ascending groups through rows as
# wide as the lone 1500, which exceeds the chunk and runs alone last: the
# three pairs share a chunk, the 64 tries of 16 fill one, every other size
# has a chunk of its own, and the empty and singleton tries reach no chunk
_RAGGED = [1500, 900, 600, 37, 2, 1, 0, 300, 2, 5, 0, 64, 3, 200, 1] + [16] * 64 + [1, 0, 2]


def test_batch_kernel_reuses_rows_across_chunks_of_different_widths(chain67, monkeypatch):
    monkeypatch.setattr(trielab.trie, "_CHUNK_ELEMENTS", 1024)
    sizes = np.array(_RAGGED)
    seeds = replicate_seed(21, np.arange(sizes.size))
    got = batch_external_path_lengths(chain67, sizes, seeds)
    want = [build_trie(generate_strings(chain67, int(n), int(s))).epl
            for n, s in zip(sizes, seeds)]
    assert got.tolist() == want


def test_batch_kernel_shared_chunks_give_the_same_epl(chain67, monkeypatch):
    # a shared call packs chunks of 2 x _CHUNK_ELEMENTS strings; under a
    # 1024-string chunk both sizes cut the equal-size list into several
    # chunks, counted here as stream_seeds calls (one a chunk).  No group of
    # _RAGGED outgrows one 1024-string chunk, so it gives no fewer chunks
    # when shared, only the same EPLs
    chunks = []

    def recording(*args, **kwargs):
        chunks.append(True)
        return original(*args, **kwargs)

    original = trielab.trie.stream_seeds
    monkeypatch.setattr(trielab.trie, "stream_seeds", recording)
    monkeypatch.setattr(trielab.trie, "_CHUNK_ELEMENTS", 1024)
    for sizes in (np.array(_RAGGED), np.full(100, 48)):
        seeds = replicate_seed(23, np.arange(sizes.size))
        chunks.clear()
        alone = batch_external_path_lengths(chain67, sizes, seeds)
        alone_chunks = len(chunks)
        chunks.clear()
        shared = batch_external_path_lengths(chain67, sizes, seeds, shared=True)
        assert alone.tolist() == shared.tolist()
        if (sizes == sizes[0]).all():
            assert alone_chunks > len(chunks) > 1


def test_batch_kernel_draws_once_per_live_string_and_level(chain67, monkeypatch):
    # the contract perfbench's probe reads: one uniforms_at call a level, at a
    # scalar position, over exactly the strings still in a group, so the
    # uniforms drawn add up to the path lengths returned
    drawn = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        drawn.append((result.size, args[1]))
        return result

    original = trielab.trie.uniforms_at
    monkeypatch.setattr(trielab.trie, "uniforms_at", recording)
    monkeypatch.setattr(trielab.trie, "_CHUNK_ELEMENTS", 1024)
    sizes = np.array(_RAGGED)
    epl = batch_external_path_lengths(chain67, sizes, replicate_seed(22, np.arange(sizes.size)))
    assert len(drawn) > 50
    assert sum(size for size, _ in drawn) == int(epl.sum())
    assert all(isinstance(position, int) for _, position in drawn)


def test_batch_kernel_threads_share_nothing(chain67):
    # each call owns its rows: calls running at once, with thread switches
    # forced often, give what they give one after the other
    sizes = np.full(300, 512)
    seeds = [replicate_seed(s, np.arange(sizes.size)) for s in (31, 32, 33)]
    alone = [batch_external_path_lengths(chain67, sizes, s) for s in seeds]
    together = [None] * len(seeds)
    start = threading.Barrier(len(seeds), timeout=60)

    def run(i):
        start.wait()
        together[i] = batch_external_path_lengths(chain67, sizes, seeds[i])

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all((a == t).all() for a, t in zip(alone, together))


def test_batch_kernel_memory_stays_cache_sized():
    chain = MarkovChain(0.5, 0.6, 0.7)
    m, n = 400, 2048
    seeds = replicate_seed(5, np.arange(m))
    # a shared call's rows are twice as wide and must stay within the bound
    for shared in (False, True):
        tracemalloc.start()
        try:
            batch_external_path_lengths(chain, np.full(m, n), seeds, shared=shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (shared, peak)


def test_batch_kernel_memory_on_ragged_sizes():
    # one large replicate among many pairs: a chunk holds replicates of one
    # size, so the large one runs alone and no dense grid of 2769 x 60000
    # sub-seeds is ever built
    chain = MarkovChain(0.5, 0.6, 0.7)
    sizes = np.array([60000] + [2] * 2768)
    seeds = replicate_seed(13, np.arange(sizes.size))
    tracemalloc.start()
    try:
        ragged = batch_external_path_lengths(chain, sizes, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    big = batch_external_path_lengths(chain, sizes[:1], seeds[:1])
    small = batch_external_path_lengths(chain, sizes[1:], seeds[1:])
    assert (ragged == np.concatenate([big, small])).all()


def test_take_into_its_own_index_array():
    # the kernel relabels its keys in place, lookup.take(key2, out=key2,
    # mode="clip"); numpy does not document an `out` that aliases the
    # indices, so pin that it gives lookup[idx] and copies nothing that large
    # (under mode="raise" numpy buffers `out`, a copy the size of idx)
    rng = np.random.default_rng(3)
    lookup = rng.integers(-1, 1 << 40, size=4096)
    idx = rng.integers(0, lookup.size, size=1 << 16)
    want = lookup[idx]
    tracemalloc.start()
    try:
        got = lookup.take(idx, out=idx, mode="clip")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is idx
    assert (idx == want).all()
    assert peak < idx.nbytes // 8


def test_batch_kernel_matches_build_on_deep_chain():
    # p11 = 0.99 keeps groups of 1-runs together for hundreds of levels on
    # which no string leaves, so the kernel skips compaction there
    chain = MarkovChain(0.0, 0.3, 0.99)
    n = 256
    for seed in (1, 2, 3):
        trie = build_trie(generate_strings(chain, n, seed))
        quiet_levels = trie.height - np.unique(trie.leaf_depths).size
        assert quiet_levels >= 100
        batch = batch_external_path_lengths(chain, [n], np.array([seed], dtype=np.uint64))
        assert int(batch[0]) == trie.epl


_EDGE_P = st.sampled_from([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5]) | st.floats(
    min_value=PROB_FLOOR, max_value=1.0 - PROB_FLOOR
)


def _epl_or_depth(build):
    try:
        return build()
    except DepthExceeded as err:
        return ("depth", err.depth)


@given(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0), _EDGE_P,
       _EDGE_P, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_batch_kernel_matches_build_on_edge_chains(mu0, p00, p11, n, seed):
    # near-deterministic rows either still separate the strings or leave a
    # clashing group at the cap; both routes must agree on which, and where
    chain = MarkovChain(mu0, p00, p11)
    direct = _epl_or_depth(lambda: build_trie(generate_strings(chain, n, seed)).epl)
    batch = _epl_or_depth(lambda: int(batch_external_path_lengths(
        chain, [n], np.array([seed], dtype=np.uint64))[0]))
    assert batch == direct


@pytest.mark.parametrize("mu0, p00, p11", [
    (0.0, 0.6, 0.7), (1.0, 0.6, 0.7), (0.5, PROB_FLOOR, 0.5), (0.5, 0.5, PROB_FLOOR),
    (0.0, PROB_FLOOR, 0.3), (1.0, 0.3, PROB_FLOOR), (0.5, PROB_FLOOR, PROB_FLOOR),
])
def test_batch_kernel_matches_bitstreams_at_lattice_edges(mu0, p00, p11):
    # thresholds 0 and 2^53 for the first bit, ceil(PROB_FLOOR 2^53) and its
    # complement for later ones: the kernel's bool-state rule and BitStream's
    # integer compare must give the same tries, or clash at the same depth
    chain = MarkovChain(mu0, p00, p11)
    for n, seed in ((2, 1), (40, 2), (300, 3)):
        direct = _epl_or_depth(lambda: build_trie(generate_strings(chain, n, seed)).epl)
        batch = _epl_or_depth(lambda: int(batch_external_path_lengths(
            chain, [n], np.array([seed], dtype=np.uint64))[0]))
        assert batch == direct


# The bound on the two-sample z of the mean path length in the symmetry
# certificates below, fixed before they were first run: an exact symmetry
# exceeds it with probability 6.3e-5 per comparison.
_SYMMETRY_Z = 4.0


def _mean_gap_z(chain_a, chain_b, n=256, m=4000):
    """Two-sample z of the kernel's mean path length on two chains, from
    independent replicate seeds."""
    a, b = (batch_external_path_lengths(chain, np.full(m, n), replicate_seed(seed, np.arange(m)))
            for chain, seed in ((chain_a, 1), (chain_b, 2)))
    return abs(a.mean() - b.mean()) / math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / m)


@pytest.mark.parametrize("mu0, p00, p11", [(0.3, 0.6, 0.7), (0.0, 0.2, 0.9), (1.0, 0.5, 0.05)])
def test_batch_kernel_label_swap_symmetry(mu0, p00, p11):
    # renaming the symbols 0 <-> 1 turns chain (p00, p11, mu0) into
    # (p11, p00, 1 - mu0) and every trie into its mirror image, of the same
    # path length; strings start in both states and switch between them
    z = _mean_gap_z(MarkovChain(mu0, p00, p11), MarkovChain(1.0 - mu0, p11, p00))
    assert z <= _SYMMETRY_Z


@pytest.mark.parametrize("mu0, p", [(0.5, 0.2), (0.0, 0.35), (0.8, 0.9)])
def test_batch_kernel_xor_symmetry(mu0, p):
    # XOR with 0101... keeps the first bit, turns every stay into a switch and
    # back, and is one bijection of the strings of each length, so it keeps
    # the trie's shape: (mu0, p, p) and (mu0, 1 - p, 1 - p) give one law
    z = _mean_gap_z(MarkovChain(mu0, p, p), MarkovChain(mu0, 1.0 - p, 1.0 - p))
    assert z <= _SYMMETRY_Z


@given(st.sampled_from([0.5, 0.0, 1.0]), _EDGE_P, _EDGE_P,
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_record_matches_shared_prefixes(mu0, p00, p11, n, seed):
    # internal nodes are the prefixes shared by >= 2 streams, and a stream's
    # leaf sits one symbol below the longest prefix it shares with another
    chain = MarkovChain(mu0, p00, p11)
    streams = generate_strings(chain, n, seed)
    try:
        trie = build_trie(streams)
    except DepthExceeded as err:
        clash = {streams[j].prefix(err.depth).tobytes() for j in err.indices}
        assert len(err.indices) >= 2 and len(clash) == 1
        return
    size, shared = 0, [-1] * n
    for d in range(trie.height + 1):
        groups: dict[bytes, list[int]] = {}
        for j in range(n):
            groups.setdefault(streams[j].prefix(d).tobytes(), []).append(j)
        for members in groups.values():
            if len(members) >= 2:
                size += 1
                for j in members:
                    shared[j] = d
    assert trie.size == size
    assert list(trie.leaf_depths) == [d + 1 for d in shared]
    assert trie.height == max(trie.leaf_depths, default=0)
    hist = [0] * (trie.height + 1) if n else []
    for d in trie.leaf_depths:
        hist[d] += 1
    assert list(trie.depth_histogram) == hist


def test_permutation_invariance():
    chain = MarkovChain(0.5, 0.6, 0.7)
    streams = generate_strings(chain, 25, 4)
    base = build_trie(streams).epl
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(25)
        assert build_trie([streams[j] for j in perm]).epl == base


def min_external_path_length(n: int) -> int:
    """EPL of the most balanced binary tree with n leaves; a hard lower bound.

    With h = ceil(log2 n), the optimum places 2(n - 2^(h-1)) leaves at depth h
    and the rest at depth h - 1.
    """
    if n <= 1:
        return 0
    h = (n - 1).bit_length()
    deep = 2 * (n - (1 << (h - 1)))
    return h * deep + (h - 1) * (n - deep)


def test_balanced_lower_bound():
    assert min_external_path_length(0) == 0
    assert min_external_path_length(1) == 0
    assert min_external_path_length(2) == 2
    assert min_external_path_length(3) == 5
    assert min_external_path_length(4) == 8
    assert min_external_path_length(5) == 12
    chain = MarkovChain(0.5, 0.6, 0.7)
    for n, seed in ((2, 0), (17, 1), (100, 2)):
        trie = build_trie(generate_strings(chain, n, seed))
        assert trie.epl >= min_external_path_length(n)


def test_stats_histogram_consistency():
    chain = MarkovChain(0.5, 0.3, 0.8)
    trie = build_trie(generate_strings(chain, 300, 12))
    hist = trie.depth_histogram
    assert hist.sum() == 300
    assert trie.height == len(hist) - 1
    assert int((np.arange(len(hist)) * hist).sum()) == trie.epl
    assert hist[0] == 0  # no leaf at the root for n >= 2


def test_mean_epl_matches_oracle(chain67, table67):
    # 200 simulated tries of 1000 strings; the trie's total leaf depth minus n
    # is the quantity the oracle tabulates
    m, n = 200, 1000
    raw = batch_external_path_lengths(
        chain67, np.full(m, n), replicate_seed(424242, np.arange(m))
    )
    sample_mean = float((raw - n).mean())
    mu, var = root_split(chain67, table67, n)
    se = math.sqrt(var / m)
    assert abs(sample_mean - mu) <= 4 * se
