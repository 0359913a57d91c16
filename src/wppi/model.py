"""Core graph model: interned protein identifiers, interaction networks, partitions.

Networks are immutable once constructed and safe to share across threads.
Both network types hold their edges as canonical index arrays (i < j,
sorted lexicographically), put in that order by one function,
``_canonical``.
A Partition is mutated only by a single writer (the detector); it keeps
per-community weight sums incrementally so modularity queries are O(1).
"""

from __future__ import annotations

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
    order = np.argsort(key, kind="stable")
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

    Edges are held in canonical order (i < j, sorted lexicographically) with
    a CSR-style adjacency sorted by neighbor index, so per-vertex sums are
    reproducible bit for bit.
    """

    def __init__(self, num_vertices: int, weighted_edges: Iterable[tuple[int, int, float]]):
        rows = list(weighted_edges)
        if rows:
            arr = np.array(rows, dtype=np.float64)
            src = arr[:, 0].astype(np.int64)
            dst = arr[:, 1].astype(np.int64)
            wgt = arr[:, 2]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
            wgt = np.empty(0, dtype=np.float64)
        self._init_from_arrays(num_vertices, src, dst, wgt)

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

        # CSR adjacency over both directions, neighbors ascending per vertex.
        # Listing the reversed edges first, a stable sort by source alone
        # suffices: a vertex's lower neighbours, ascending, come from the
        # reversed half, and its higher ones, ascending, follow.
        adj_src = np.concatenate([self.edge_dst, self.edge_src])
        adj_dst = np.concatenate([self.edge_src, self.edge_dst])
        adj_w = np.concatenate([self.edge_weight, self.edge_weight])
        order = np.argsort(adj_src, kind="stable")
        self._adj_dst = adj_dst[order]
        self._adj_w = adj_w[order]
        self._indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        counts = np.bincount(adj_src, minlength=num_vertices)
        np.cumsum(counts, out=self._indptr[1:])
        self._degrees = np.zeros(num_vertices, dtype=np.float64)
        nonempty = counts > 0
        if np.any(nonempty):
            starts = self._indptr[:-1][nonempty]
            self._degrees[nonempty] = np.add.reduceat(self._adj_w, starts)

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) with i < j, sorted lexicographically."""
        return list(zip(self.edge_src.tolist(), self.edge_dst.tolist(),
                        self.edge_weight.tolist()))

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices, weights), ascending by neighbor."""
        s, e = self._indptr[v], self._indptr[v + 1]
        return self._adj_dst[s:e], self._adj_w[s:e]

    def adjacency_lists(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-vertex (neighbor, weight) Python lists, ascending by neighbor."""
        bounds = self._indptr.tolist()
        dst = self._adj_dst.tolist()
        wgt = self._adj_w.tolist()
        spans = list(zip(bounds, bounds[1:]))
        return [dst[s:e] for s, e in spans], [wgt[s:e] for s, e in spans]

    def weighted_degree(self, v: int) -> float:
        return float(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees


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
        for u, w in zip(idx.tolist(), wgt.tolist()):
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
            for u, w in zip(idx.tolist(), wgt.tolist()):
                if u in members:
                    internal += w
                else:
                    external += w
        return internal, external

    def cache_drift(self) -> float:
        """Max absolute difference between cached and recomputed sums."""
        worst = 0.0
        for k in self.communities:
            internal, external = self.recomputed_sums(k)
            worst = max(worst, abs(internal - self.internal_sum[k]),
                        abs(external - self.external_sum[k]))
        return worst

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
