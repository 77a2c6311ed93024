"""Binary tries over bit streams: a reference builder and a batched path-length kernel.

A trie over n distinct strings stores each string at its minimal
distinguishing prefix.  Internal nodes may carry a single child (no path
compression), so a leaf's depth equals the number of symbols read before the
string separates from all others.  The external path length (EPL) is the sum
of the leaf depths and satisfies, for n >= 2,

    epl = n + epl(left subtrie) + epl(right subtrie),

because every string consumes one symbol at the root.  Neither route below
materialises nodes: the reference builder splits groups of streams and
records leaf depths, and the batched kernel exploits exactly this identity,
tracking only which strings still share a group with somebody else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trielab.markov_source import (
    BitStream,
    MarkovChain,
    bit_thresholds,
    stream_seeds,
    uniforms_at,
)

# A chunk holds `chunk // n` replicates of one size n, or one replicate when n
# is larger, where `chunk` is this many strings (twice as many in a shared
# call, see below); that (replicate, index) grid is where its sub-seeds come
# from.  Each level makes a handful of passes over per-string arrays of 8
# bytes a string, and at 2**16 strings (512 KiB an array) they stay in a 2 MiB
# L2 cache between passes.  Chunks of 2**20 strings and more stream every pass
# through main memory and cost about 1.4 times as much per string (n = 2048 on
# a 2-core Xeon); the chunk also bounds the kernel's memory to a few MB
# whatever the total, however ragged the sizes.
#
# Those per-string arrays are four uint64 rows and three bool rows, allocated
# once per call as wide as any of its chunks can be (2.19 MiB at 2**16 strings)
# and reused by every level of every chunk.  Allocated afresh on each level,
# the 512 KiB arrays went back to the OS when freed (glibc trims its heap) and
# were faulted in again on the next level: verify's mean item (n = 16, 256,
# 1024 at m = 20000, 2 threads) took 402,000-613,000 minor faults and 1.5-1.7 s
# of system time, against 6,400-8,300 faults and 0.3-0.55 s with the rows
# (2-core Xeon, glibc 2.36).
#
# A call made with shared=True, as `simulate_epl` makes when it runs more
# than one worker thread, packs chunks of 2 * _CHUNK_ELEMENTS strings, so it
# makes half as many numpy calls.  Threads hand the GIL over between numpy
# calls, and a hand-off costs about as much as one pass over 2**16 uint64
# (gaps of 23-47 us against passes of 23-33 us), so two kernel threads at
# 2**16 convoy.  At n = 1024, m = 20000 on two threads, 2**17 cut the
# voluntary context switches a call from 68-77K to 24-25K and the system time
# from 0.50-0.74 to 0.34-0.46 s, and verify's full budget took 12-14% less wall
# time (2-core Xeon).  Alone, a call keeps 2**16, where 2**17 costs 8-20% more
# a string-level at n = 2048; 2**18 on two threads was no faster than 2**17
# and took 14 MB more.
_CHUNK_ELEMENTS = 1 << 16


class DepthExceeded(RuntimeError):
    """A group of streams stayed unseparated past the depth cap.

    `indices` are the stream indices still clashing, `depth` the cap that was
    hit, `replicate` the Monte Carlo replicate (None for a direct build).
    """

    def __init__(self, indices, depth: int, replicate: int | None = None):
        self.indices = tuple(int(i) for i in indices)
        self.depth = int(depth)
        self.replicate = replicate
        where = f" in replicate {replicate}" if replicate is not None else ""
        super().__init__(f"streams {self.indices}{where} share a prefix of length {self.depth}")


def default_max_depth(n: int) -> int:
    """Depth cap 128 * ceil(log2(n + 2)); generous against prefix collisions."""
    return 128 * (n + 1).bit_length()


@dataclass(frozen=True)
class Trie:
    """Leaf depths and internal-node count of one trie over n streams."""

    leaf_depths: np.ndarray  # leaf_depths[j] = depth of stream j
    size: int  # internal nodes

    @property
    def epl(self) -> int:
        return int(self.leaf_depths.sum())

    @property
    def height(self) -> int:
        return int(self.leaf_depths.max(initial=0))

    @property
    def depth_histogram(self) -> np.ndarray:
        """depth_histogram[d] = #leaves at depth d; empty for n = 0."""
        return np.bincount(self.leaf_depths)


def build_trie(streams: list[BitStream]) -> Trie:
    """Reference builder: split groups of streams bit by bit until each is alone.

    n <= 1 gives a single leaf at depth 0.  Every popped group of >= 2
    streams is one internal node.  Iterative (explicit stack), so the depth
    cap is not limited by the Python recursion limit.  Raises DepthExceeded
    when a group of >= 2 streams still agrees at `default_max_depth(n)`.
    """
    n = len(streams)
    max_depth = default_max_depth(n)
    leaf_depths = np.zeros(n, dtype=np.int64)
    size = 0
    stack = [(list(range(n)), 0)] if n else []
    while stack:
        group, depth = stack.pop()
        if len(group) == 1:
            leaf_depths[group[0]] = depth
            continue
        if depth >= max_depth:
            raise DepthExceeded(group, depth)
        size += 1
        halves = ([], [])
        for j in group:
            halves[streams[j].bit(depth)].append(j)
        stack.extend((half, depth + 1) for half in halves if half)
    return Trie(leaf_depths, size)


def batch_external_path_lengths(
    chain: MarkovChain,
    sizes: np.ndarray,
    rep_seeds: np.ndarray,
    shared: bool = False,
) -> np.ndarray:
    """EPL of one fresh trie per replicate, fully vectorized across replicates.

    Replicate r holds `sizes[r]` streams seeded from `rep_seeds[r]`; stream j
    of that replicate reproduces exactly what
    BitStream(chain, stream_seeds(rep_seeds[r], j)) would emit, so this kernel
    and `build_trie` are interchangeable routes to the same numbers, with the
    same depth cap `default_max_depth` of the largest size.  Mixed sizes are
    grouped by size, each group cut into chunks of one size; a replicate's
    EPL does not depend on the replicates it shares a chunk with.  `shared`
    says that other threads run numpy work at the same time; the call then
    packs chunks twice as large (see _CHUNK_ELEMENTS), with the same results.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rep_seeds = np.asarray(rep_seeds, dtype=np.uint64)
    if sizes.shape != rep_seeds.shape:
        raise ValueError("sizes and rep_seeds must have matching shapes")
    if (sizes < 0).any():
        raise ValueError("sizes must be >= 0")
    largest = int(sizes.max(initial=0))
    max_depth = default_max_depth(largest)
    total = np.zeros(len(sizes), dtype=np.int64)
    chunk = _CHUNK_ELEMENTS * (2 if shared else 1)
    # the rows every level of every chunk works in, as wide as the widest
    # chunk's (replicate, index) grid can be
    width = max(min(len(sizes) * largest, chunk), largest)
    rows = np.empty((4, width), dtype=np.uint64)
    flags = np.empty((3, width), dtype=bool)
    # sorted(set()) rather than np.unique, which imports numpy.ma (1.7 MB)
    for n in sorted(set(sizes[sizes >= 2].tolist())):
        group = np.flatnonzero(sizes == n)
        count = max(1, chunk // n)
        for start in range(0, group.size, count):
            reps = group[start:start + count]
            total[reps] = _epl_chunk(chain, n, rep_seeds[reps], reps, max_depth, rows, flags)
    return total


def _epl_chunk(
    chain: MarkovChain,
    n: int,
    rep_seeds: np.ndarray,
    replicates: np.ndarray,
    max_depth: int,
    rows: np.ndarray,
    flags: np.ndarray,
) -> np.ndarray:
    """EPLs of one trie of n >= 2 strings per seed; `replicates` names them in errors."""
    # Per string its sub-seed, its doubled group key `key2` and its previous
    # bit `state` are carried.  Groups hold >= 2 strings; group g has
    # key2 = 2g, belongs to replicate grep[g] and has gsize[g] members.  A
    # string's next key is key2 + bit; the relabel table sends it to
    # 2 * rank of that child group among the children with >= 2 members, so
    # groups stay sorted by replicate, and to -1 where the child holds the
    # string alone.
    #
    # The bit rule needs no per-group table: with b0 = k >= t0 and
    # b1 = k >= t1 on the string's 53-bit numerator k, the bit is b0 where
    # the state is 0 and b1 where it is 1, that is b0 ^ ((b0 ^ b1) & state),
    # formed in the state row itself; the first bit is k >= t_start.  All
    # compares are on int64 views, with no float pass.
    #
    # Every per-string array lives in the first `live` entries of a row, and
    # each row keeps its role for the whole call: the uint64 rows hold the
    # sub-seeds, the keys (as int64), the level's numerators (then its
    # relabel table) and the mixer's scratch; the bool rows hold the states
    # and the bits b0 and b1 (b0 then holds the leavers' mask).  On a level
    # where strings leave, the survivors behind position `survivors` move into
    # the places the leavers held before it.  Order within the live prefix is
    # free, since nothing downstream depends on where a string sits, and the
    # holes are searched for only in that head, not in every live string.
    t0, t1, t_start = (np.int64(t) for t in bit_thresholds(chain))
    sub_row, key_row, num_row, mix_row = rows
    state_row, b0_row, b1_row = flags
    # one stream_seeds call on the (replicate, index) grid, so the inner mix
    # of index i is computed once for its whole column
    count = len(rep_seeds)
    grid, live = (count, n), count * n
    stream_seeds(rep_seeds[:, None], np.arange(n),
                 out=sub_row[:live].reshape(grid), tmp=mix_row[:live].reshape(grid))
    key_row[:live].view(np.int64).reshape(grid)[...] = np.arange(0, 2 * count, 2)[:, None]
    grep, gsize = np.arange(count), np.full(count, n)
    # strings of each replicate still in a group; they change only on levels
    # where strings leave (float sums stay exact far beyond any EPL here)
    alive_per_rep = gsize
    epl = np.zeros(count)
    depth = 0
    while live:
        sub, key2 = sub_row[:live], key_row[:live].view(np.int64)
        if depth >= max_depth:
            # name the group build_trie would meet first: groups sit in prefix
            # order and build_trie pops the 1-half first, so it is the
            # replicate's last group; stream_seeds is injective in the index,
            # so its members are found by their sub-seeds
            bad = int(grep[0])
            last = np.searchsorted(grep, bad, side="right") - 1
            names = np.nonzero(np.isin(
                stream_seeds(rep_seeds[bad], np.arange(n)), sub[key2 == 2 * last]
            ))[0]
            raise DepthExceeded(names, depth, int(replicates[bad]))
        # everyone left shares a group, so everyone consumes one symbol here;
        # the child keys are formed in place
        epl += alive_per_rep
        k = uniforms_at(sub, depth, out=num_row[:live], tmp=mix_row[:live]).view(np.int64)
        state = state_row[:live]
        if depth:
            b0, b1 = b0_row[:live], b1_row[:live]
            np.greater_equal(k, t0, out=b0)
            np.greater_equal(k, t1, out=b1)
            b1 ^= b0
            state &= b1
            state ^= b0
        else:
            np.greater_equal(k, t_start, out=state)
        key2 += state
        counts = np.bincount(key2, minlength=2 * grep.size)
        alive = np.flatnonzero(counts >= 2)
        if alive.size == counts.size:
            # every child has >= 2 members: child c is group c, so its key is 2c
            key2 <<= 1
        else:
            lookup = num_row[:counts.size].view(np.int64)
            lookup.fill(-1)
            lookup[alive] = np.arange(0, 2 * alive.size, 2)
            lookup.take(key2, out=key2, mode="clip")
        grep, gsize = grep[alive >> 1], counts[alive]
        # compact only on levels where strings left
        survivors = int(gsize.sum())
        if survivors < live:
            alive_per_rep = np.bincount(grep, weights=gsize, minlength=count)
            mask = np.less(key2, 0, out=b0_row[:live])
            holes = np.flatnonzero(mask[:survivors])
            tail = mask[survivors:]
            moved = np.flatnonzero(np.logical_not(tail, out=tail))
            moved += survivors
            sub[holes] = sub[moved]
            key2[holes] = key2[moved]
            state[holes] = state[moved]
            live = survivors
        depth += 1
    return epl.astype(np.int64)
