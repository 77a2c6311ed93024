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
    START,
    BitStream,
    MarkovChain,
    bit_thresholds,
    stream_seeds,
    uniforms_at,
)

# Replicates are processed in chunks of at most this many strings (a single
# larger replicate forms its own chunk).  Each level makes a handful of passes
# over per-string arrays of 8 bytes a string, and at 2**16 strings (512 KiB an
# array) they stay in a 2 MiB L2 cache between passes.  Chunks of 2**20
# strings and more stream every pass through main memory and cost about 1.4
# times as much per string (n = 2048 on a 2-core Xeon); the chunk also bounds
# the kernel's memory to a few MB whatever the total.
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
) -> np.ndarray:
    """EPL of one fresh trie per replicate, fully vectorized across replicates.

    Replicate r holds `sizes[r]` streams seeded from `rep_seeds[r]`; stream j
    of that replicate reproduces exactly what
    BitStream(chain, stream_seeds(rep_seeds[r], j)) would emit, so this kernel
    and `build_trie` are interchangeable routes to the same numbers, with the
    same depth cap `default_max_depth` of the largest size.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rep_seeds = np.asarray(rep_seeds, dtype=np.uint64)
    if sizes.shape != rep_seeds.shape:
        raise ValueError("sizes and rep_seeds must have matching shapes")
    if (sizes < 0).any():
        raise ValueError("sizes must be >= 0")
    max_depth = default_max_depth(int(sizes.max(initial=0)))
    total = np.zeros(len(sizes), dtype=np.int64)
    start = 0
    while start < len(sizes):
        stop = start + 1
        load = int(sizes[start])
        while stop < len(sizes) and load + int(sizes[stop]) <= _CHUNK_ELEMENTS:
            load += int(sizes[stop])
            stop += 1
        _epl_chunk(
            chain, sizes[start:stop], rep_seeds[start:stop], max_depth, total[start:stop], start
        )
        start = stop
    return total


def _epl_chunk(
    chain: MarkovChain,
    sizes: np.ndarray,
    rep_seeds: np.ndarray,
    max_depth: int,
    out: np.ndarray,
    replicate_offset: int,
) -> None:
    # Per string only its sub-seed and group id `key` are carried.  Groups
    # hold >= 2 strings; group g belongs to replicate grep[g], has gsize[g]
    # members and was entered on bit gstate[g] (START for the root groups).
    # Group ids are ranks of key*2 + bit, so they stay sorted by replicate.
    thresholds = np.array(bit_thresholds(chain))
    reps = len(sizes)
    m = int(sizes.sum())
    rep = np.repeat(np.arange(reps, dtype=np.int64), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
    sub = stream_seeds(rep_seeds[rep], np.arange(m, dtype=np.int64) - np.repeat(offsets, sizes))
    # one root group per replicate; singleton tries finish at depth 0
    grep = np.nonzero(sizes >= 2)[0]
    gsize = sizes[grep]
    lookup = np.empty(reps, dtype=np.int64)
    lookup[grep] = np.arange(grep.size)
    keep = sizes[rep] >= 2
    sub, key = sub[keep], lookup[rep[keep]]
    del rep
    gstate = np.full(grep.size, START)
    depth = 0
    while sub.size:
        if depth >= max_depth:
            # name the group build_trie would meet first: groups sit in prefix
            # order and build_trie pops the 1-half first, so it is the
            # replicate's last group; stream_seeds is injective in the index,
            # so its members are found by their sub-seeds
            bad = int(grep[0])
            last = np.searchsorted(grep, bad, side="right") - 1
            names = np.nonzero(np.isin(
                stream_seeds(rep_seeds[bad], np.arange(sizes[bad])), sub[key == last]
            ))[0]
            raise DepthExceeded(names, depth, replicate_offset + bad)
        # everyone left shares a group, so everyone consumes one symbol here
        out += np.bincount(grep, weights=gsize, minlength=reps).astype(np.int64)
        bit = uniforms_at(sub, depth) >= thresholds[gstate][key]
        pair = key * 2 + bit
        counts = np.bincount(pair, minlength=2 * grep.size)
        alive = np.nonzero(counts >= 2)[0]
        keep = counts[pair] >= 2
        lookup = np.empty(counts.size, dtype=np.int64)
        lookup[alive] = np.arange(alive.size)
        sub, key = sub[keep], lookup[pair[keep]]
        grep, gsize, gstate = grep[alive >> 1], counts[alive], alive & 1
        depth += 1
