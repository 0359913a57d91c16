"""Core graph model: interned protein identifiers, interaction networks, partitions.

Networks do not change once constructed; a weighted network builds its
neighbour rows, the Python lists every reader walks, once on first use.
Both network types hold their edges as canonical index arrays (i < j,
sorted lexicographically), put in that order by one function, ``_canonical``.
A Partition is mutated only by a single writer (the detector); it keeps
per-community weight sums incrementally so modularity queries are O(1).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


class ProteinIndex:
    """Bijective label <-> index map, indices assigned by first appearance."""

    def __init__(self, labels: Iterable[str]):
        self._labels: list[str] = list(dict.fromkeys(labels))
        self._index: dict[str, int] = dict(zip(self._labels, range(len(self._labels))))
        if not self._labels:
            raise ValueError("no proteins")

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def index_of(self, label: str) -> int:
        return self._index[label]

    def label_of(self, index: int) -> str:
        return self._labels[index]


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of non-negative int64 values.

    Where each value and its position fit one int64 together, the positions
    come from one sort of value * 2**b + position: its keys are distinct, so
    the fast unstable sort orders them as the stable one orders the values.
    """
    bits = max(values.size - 1, 1).bit_length()
    if values.size and int(values.max()) >> (62 - bits) == 0:
        return np.sort(values << bits | np.arange(values.size)) & ((1 << bits) - 1)
    return np.argsort(values, kind="stable")


def _canonical(num_vertices: int, src: np.ndarray,
               dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort of undirected edges by the key ``lo * n + hi``.

    Returns the sorted keys, the sorting permutation and a mask of the sorted
    positions whose key repeats the one before (the first occurrence is
    kept unmasked). Keys already strictly ascending, as a canonical edge set
    passed on unchanged has them, are not sorted again. Raises
    ``ValueError`` on a vertex outside [0, n).
    """
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if lo.size and (int(lo.min()) < 0 or int(hi.max()) >= num_vertices):
        raise ValueError("vertex out of range")
    key = lo * np.int64(num_vertices) + hi
    if bool(np.all(key[1:] > key[:-1])):
        return key, np.arange(key.size), np.zeros(key.size, dtype=bool)
    order = _stable_argsort(key)
    key = key[order]
    repeat = np.zeros(key.size, dtype=bool)
    repeat[1:] = key[1:] == key[:-1]
    return key, order, repeat


class PpiNetwork:
    """Undirected, unweighted interaction network over interned vertices.

    Built from (src, dst) index arrays. Self-loops are dropped (an
    out-of-range self-loop too) and repeats, in either direction, keep their
    first occurrence; both are counted on the instance for reporting.
    ``edge_src``/``edge_dst`` hold the edges with i < j, sorted
    lexicographically.
    """

    def __init__(self, num_vertices: int, src, dst):
        if num_vertices < 1:
            raise ValueError("empty network")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        loop = src == dst
        key, _, repeat = _canonical(num_vertices, src[~loop], dst[~loop])
        key = key[~repeat]
        self.num_vertices = num_vertices
        self.edge_src = key // num_vertices
        self.edge_dst = key % num_vertices
        self.edge_count = int(key.size)
        self.self_loops_dropped = int(np.count_nonzero(loop))
        self.duplicates_dropped = int(np.count_nonzero(repeat))


class WeightedNetwork:
    """Undirected network whose edges carry co-expression weights in [0, 1].

    Edges are held in canonical order (i < j, sorted lexicographically).
    Each vertex's neighbour row, sorted by neighbor index, is built on first
    use, so per-vertex sums are reproducible bit for bit.
    """

    def __init__(self, num_vertices: int, weighted_edges: Iterable[tuple[int, int, float]]):
        arr = np.array(list(weighted_edges), dtype=np.float64).reshape(-1, 3)
        self._init_from_arrays(num_vertices, arr[:, 0].astype(np.int64),
                               arr[:, 1].astype(np.int64), arr[:, 2])

    @classmethod
    def from_arrays(cls, num_vertices: int, src: np.ndarray, dst: np.ndarray,
                    weights: np.ndarray) -> "WeightedNetwork":
        net = cls.__new__(cls)
        net._init_from_arrays(num_vertices, np.asarray(src, dtype=np.int64),
                              np.asarray(dst, dtype=np.int64),
                              np.asarray(weights, dtype=np.float64))
        return net

    def _init_from_arrays(self, num_vertices: int, src: np.ndarray,
                          dst: np.ndarray, wgt: np.ndarray) -> None:
        if num_vertices < 1:
            raise ValueError("empty network")
        if np.any(src == dst):
            v = int(src[np.argmax(src == dst)])
            raise ValueError(f"self-loop not allowed: ({v}, {v})")
        key, order, repeat = _canonical(num_vertices, src, dst)
        bad = ~((wgt >= 0.0) & (wgt <= 1.0))  # NaN fails both tests
        if bad.any():
            raise ValueError(f"weight out of range [0, 1]: {wgt[bad][0]!r}")
        wgt = wgt[order]
        if np.any(repeat):
            if np.any(wgt[repeat] != wgt[np.flatnonzero(repeat) - 1]):
                raise ValueError("conflicting duplicate edge")
            key = key[~repeat]
            wgt = wgt[~repeat]
        self.num_vertices = num_vertices
        self.edge_src = key // num_vertices
        self.edge_dst = key % num_vertices
        self.edge_weight = wgt
        self.edge_count = int(key.size)

    @cached_property
    def _adjacency(self) -> tuple[list[list[int]], list[list[float]], np.ndarray]:
        """(neighbour rows, weight rows, weighted degrees), each row ascending by neighbour.
        Built on first use, so a network only written out (``build-wppi``) never sorts it."""
        # Listing the reversed edges first, a stable sort by source alone
        # suffices: a vertex's lower neighbours, ascending, come from the
        # reversed half, and its higher ones, ascending, follow.
        adj_src = np.concatenate([self.edge_dst, self.edge_src])
        order = _stable_argsort(adj_src)
        adj_w = np.concatenate([self.edge_weight, self.edge_weight])[order]
        counts = np.bincount(adj_src, minlength=self.num_vertices)
        ends = np.cumsum(counts)
        degrees = np.zeros(self.num_vertices, dtype=np.float64)
        nonempty = counts > 0
        if np.any(nonempty):
            degrees[nonempty] = np.add.reduceat(adj_w, (ends - counts)[nonempty])
        # The rows share one int object per vertex and one float object per
        # edge: half the memory of a new object per entry, as tolist() makes.
        vertex = np.arange(self.num_vertices).astype(object)
        dst = vertex[np.concatenate([self.edge_src, self.edge_dst])[order]].tolist()
        weight = self.edge_weight.astype(object)
        wgt = np.concatenate([weight, weight])[order].tolist()
        spans = list(zip([0, *ends.tolist()], ends.tolist()))
        return [dst[s:e] for s, e in spans], [wgt[s:e] for s, e in spans], degrees

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) with i < j, sorted lexicographically."""
        return list(zip(self.edge_src.tolist(), self.edge_dst.tolist(),
                        self.edge_weight.tolist()))

    def neighbors(self, v: int) -> tuple[list[int], list[float]]:
        """(neighbor indices, weights) of v, ascending by neighbor: rows of ``adjacency_lists``."""
        rows, weights, _ = self._adjacency
        return rows[v], weights[v]

    def adjacency_lists(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-vertex (neighbor, weight) lists, ascending by neighbor; shared, not to be mutated."""
        rows, weights, _ = self._adjacency
        return rows, weights

    def weighted_degree(self, v: int) -> float:
        return float(self._adjacency[2][v])

    @property
    def degrees(self) -> np.ndarray:
        return self._adjacency[2]


class Partition:
    """Disjoint vertex -> community assignment with cached weight sums.

    ``internal_sum[k]`` is the sum over members of their weight to other
    members (each internal edge counted from both endpoints);
    ``external_sum[k]`` is the total weight crossing the community boundary.
    Vertices not yet assigned carry the sentinel ``UNASSIGNED``. ``detach``
    and ``attach`` are the only code that updates the sums for a move; they
    take v's weight into the community as an argument, so a caller that
    caches it (stage 1) skips ``weight_to``.
    """

    UNASSIGNED = -1

    def __init__(self, network: WeightedNetwork):
        self.network = network
        self.assignment: list[int] = [self.UNASSIGNED] * network.num_vertices
        self.communities: dict[int, set[int]] = {}
        self.internal_sum: dict[int, float] = {}
        self.external_sum: dict[int, float] = {}
        self._next_id = 0

    def copy(self) -> "Partition":
        dup = Partition.__new__(Partition)
        dup.network = self.network
        dup.assignment = list(self.assignment)
        dup.communities = {k: set(v) for k, v in self.communities.items()}
        dup.internal_sum = dict(self.internal_sum)
        dup.external_sum = dict(self.external_sum)
        dup._next_id = self._next_id
        return dup

    def community_ids(self) -> list[int]:
        return sorted(self.communities)

    def is_total(self) -> bool:
        return all(a != self.UNASSIGNED for a in self.assignment)

    def weight_to(self, v: int, k: int) -> float:
        """Total edge weight from v into community k (ascending-neighbor order)."""
        idx, wgt = self.network.neighbors(v)
        assign = self.assignment
        total = 0.0
        for u, w in zip(idx, wgt):
            if assign[u] == k:
                total += w
        return total

    def new_community(self, v: int) -> int:
        """Start a fresh singleton community holding v (v must be unassigned)."""
        if self.assignment[v] != self.UNASSIGNED:
            raise ValueError(f"vertex {v} already assigned")
        k = self._next_id
        self._next_id += 1
        self.assignment[v] = k
        self.communities[k] = {v}
        self.internal_sum[k] = 0.0
        self.external_sum[k] = self.network.weighted_degree(v)
        return k

    def move(self, v: int, k: int) -> None:
        """Assign v to community k, detaching it from its current community."""
        if k not in self.communities:
            raise ValueError(f"unknown community {k}")
        src = self.assignment[v]
        if src == k:
            return
        if src != self.UNASSIGNED:
            self.detach(v, self.weight_to(v, src))
        self.attach(v, k, self.weight_to(v, k))

    def detach(self, v: int, w_src: float) -> bool:
        """Unassign v, given its weight w_src into its community.

        Returns whether that community emptied, in which case it is deleted.
        """
        src = self.assignment[v]
        deg = self.network.weighted_degree(v)
        members = self.communities[src]
        members.discard(v)
        self.internal_sum[src] -= 2.0 * w_src
        self.external_sum[src] += 2.0 * w_src - deg
        self.assignment[v] = self.UNASSIGNED
        if members:
            return False
        del self.communities[src], self.internal_sum[src], self.external_sum[src]
        return True

    def attach(self, v: int, k: int, w_dst: float) -> None:
        """Put unassigned v into community k, given its weight w_dst into k."""
        deg = self.network.weighted_degree(v)
        self.assignment[v] = k
        self.communities[k].add(v)
        self.internal_sum[k] += 2.0 * w_dst
        self.external_sum[k] += deg - 2.0 * w_dst

    def recomputed_sums(self, k: int) -> tuple[float, float]:
        """Brute-force (internal, external) sums for community k, for validation."""
        members = self.communities[k]
        internal = 0.0
        external = 0.0
        for v in sorted(members):
            idx, wgt = self.network.neighbors(v)
            for u, w in zip(idx, wgt):
                if u in members:
                    internal += w
                else:
                    external += w
        return internal, external

    @classmethod
    def from_communities(cls, network: WeightedNetwork,
                         groups: Sequence[Iterable[int]]) -> "Partition":
        """Build a total partition from explicit vertex groups (sums recomputed exactly)."""
        part = cls(network)
        for members in groups:
            members = sorted(members)
            if not members:
                continue
            k = part.new_community(members[0])
            for v in members[1:]:
                if part.assignment[v] != cls.UNASSIGNED:
                    raise ValueError(f"vertex {v} listed in two groups")
                part.assignment[v] = k
                part.communities[k].add(v)
        for k in part.communities:
            internal, external = part.recomputed_sums(k)
            part.internal_sum[k] = internal
            part.external_sum[k] = external
        if not part.is_total():
            raise ValueError("groups do not cover every vertex")
        return part
