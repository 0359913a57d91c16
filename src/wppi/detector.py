"""Two-stage agglomerative community detection on weighted networks.

Stage 1 seeds communities at hub vertices (weighted degree above a
threshold, mean degree by default) and grows them greedily: each sweep, a
community appends the adjacent vertex whose move raises the summed
community modularity the most. A move that pulls a vertex out of another
community is accepted only if the target's gain exceeds the source's loss,
which makes the total modularity strictly increasing and guarantees
termination on a partition where no single appendable vertex improves it.
Like Traag's faster Louvain, which revisits only the nodes whose
neighbourhood changed ("Faster unfolding of communities", Phys. Rev. E 92,
032801, 2015), stage 1 rescans a community only where a move can have
raised a gain: in full after it gained or lost a vertex, otherwise only at
the candidates whose leave term rose.

Stage 2 compresses stage-1 communities into super-vertices and merges whole
groups that share a super-edge whenever the union's functional cohesion
(interaction intensity times connectivity) is at or above the configured
threshold. Each merge removes a group, so stage 2 terminates after at most
k - 1 merges, and every multi-member group is connected.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Partition, WeightedNetwork

SATURATION_EPS = 1e-12
STAGE1_SWEEP_CAP = 10_000


@dataclass
class HubConfig:
    """Detector thresholds, checked on construction (the CLI's ``--d-alpha`` and ``--lambda``).

    ``hub_threshold`` is the weighted-degree cutoff for seeding (mean
    weighted degree when None). ``cohesion_threshold`` is the stage-2
    acceptance bound; a larger one merges less. On 100 planted blocks of 20
    (p_in 0.4, cross weights up to 0.5) the result matched 2, 6, 21 and 43
    blocks at 1.0, 1.5, 2.0 and 3.0, against 86 for stage 1 alone.
    """

    hub_threshold: float | None = None
    cohesion_threshold: float = 2.0

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, is rejected; inf passes.
        if self.hub_threshold is not None and not self.hub_threshold >= 0:
            raise ValueError("hub threshold must be >= 0")
        if not self.cohesion_threshold > 0:
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
    if k not in partition.communities:
        raise ValueError("empty community")
    return _q(partition.internal_sum[k], partition.external_sum[k])


def delta_modularity(partition: Partition, k: int, v: int) -> float:
    """Modularity change of community k if vertex v were appended."""
    if k not in partition.communities:
        raise ValueError("empty community")
    if partition.assignment[v] == k:
        raise ValueError(f"vertex {v} already in community {k}")
    idx, _ = partition.network.neighbors(v)
    if not any(partition.assignment[u] == k for u in idx):
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

    ``evaluations`` counts the candidates scored: a community's whole
    frontier after it gained or lost a vertex, otherwise only the candidates
    whose leave term rose since its last visit. ``moves`` counts accepted
    moves, and ``steals`` the moves that took a vertex out of another
    community.
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

    Stage 1 is serial; ``config`` and ``threads`` are ignored, kept only
    because ``perfbench/traced.py`` passes them (``config`` positionally). Each
    candidate is scored in O(1) from two per-vertex caches: ``links[v]`` maps
    each assigned community adjacent to v to v's weight into it, and
    ``leave[v]`` is v's leave term for its own community. Both are
    recomputed from scratch, never patched with ``+=``/``-=``, so every score
    equals ``move_gain`` bit for bit: a move re-sums, for each neighbour of
    the moved vertex, its weights into the two communities involved in
    ascending-neighbour order as ``Partition.weight_to`` does, and passes the
    moved vertex's ``links`` weights to ``Partition.detach`` and
    ``Partition.attach``, the sum updates ``Partition.move`` also uses. When
    the two communities have fewer members than the neighbour has
    neighbours, the re-sum walks the partition's ascending member lists
    instead and finds each member in the neighbour's sorted row by
    bisection: the same additions in the same order.

    A community's frontier, its candidate set, is read off ``links``: the
    non-members u with ``k in links[u]``. It changes only where a ``links``
    entry appears or disappears, that is in the re-sum and for the moved
    vertex itself. A candidate's score in k reads k's sums, its weight into
    k and its own leave term. A move changes the first two only for the
    target and the source, and the leave terms only of their members. A
    community whose last visit found no move had no candidate with a
    positive gain, and float addition rounds monotonically, so a candidate
    whose leave term did not rise still has none. One ``pending`` map holds
    what each community's next visit scores: the whole frontier (``None``)
    for every seed and for both communities of a move, otherwise the set of
    candidates whose leave term rose since the last visit; a community
    absent from it is not visited. ``evaluations`` counts the candidates
    scored.
    """
    partition = seeds.copy()
    adj, adj_w = network.adjacency_lists()
    degree = network.degrees.tolist()
    assign = partition.assignment
    communities = partition.communities
    internal = partition.internal_sum
    external = partition.external_sum
    unassigned = Partition.UNASSIGNED
    eps = SATURATION_EPS

    links: list[dict[int, float]] = []
    # Unassigned vertices leave nothing; adding 0.0 to a join term cannot
    # change how it compares.
    leave = [0.0] * network.num_vertices
    frontier: dict[int, set[int]] = {k: set() for k in communities}
    for v in range(network.num_vertices):
        weights: dict[int, float] = {}
        for u, w in zip(adj[v], adj_w[v]):
            c = assign[u]
            if c != unassigned:
                weights[c] = weights.get(c, 0.0) + w
        links.append(weights)
        own = assign[v]
        if own != unassigned:
            leave[v] = _leave_term(internal[own], external[own], len(communities[own]),
                                   weights.get(own, 0.0), degree[v])
        for c in weights:
            if c != own:
                frontier[c].add(v)
    # None scores the whole frontier, a set only its marks. A move sets None
    # on its two communities, so marks stay in the frontier: only a move leaves it.
    pending: dict[int, set[int] | None] = dict.fromkeys(communities)

    sweeps = evaluations = moves = steals = 0
    hit_cap = False
    while True:
        if sweeps >= STAGE1_SWEEP_CAP:
            warnings.warn("stage-1 sweep cap reached; returning current partition",
                          stacklevel=2)
            hit_cap = True
            break
        sweeps += 1
        for k in partition.community_ids():
            if k not in pending:
                continue  # nothing to score, or emptied by a steal earlier in this sweep
            candidates = pending.pop(k)
            if candidates is None:
                candidates = frontier[k]
            evaluations += len(candidates)
            internal_k = internal[k]
            external_k = external[k]
            before = _q(internal_k, external_k)
            best_v = None
            best_gain = 0.0
            # Candidates neighbour a member, so links[v] always holds k. The
            # score is move_gain's, _joined_q and _q written out with the
            # same operations in the same order: (after - before) + leave
            # term. Set order is not index order, so ties go to the lowest
            # index explicitly.
            for v in candidates:
                w2 = 2.0 * links[v][k]
                e = external_k + degree[v] - w2
                gain = (internal_k + w2) / (eps if eps > e else e) - before + leave[v]
                if gain >= best_gain and (gain > best_gain
                                          or (best_v is not None and v < best_v)):
                    best_v, best_gain = v, gain
            if best_v is None:
                continue
            moves += 1
            v = best_v
            src = assign[v]
            src_members = communities.get(src, ())  # read first: detach may delete it
            if src == unassigned:
                src = left = None  # the re-sum below then matches no community
            else:
                steals += 1
                left = frontier[src]
                if partition.detach(v, links[v].get(src, 0.0)):
                    del frontier[src]
                    pending.pop(src, None)
                elif src in links[v]:
                    left.add(v)
            partition.attach(v, k, links[v][k])
            k_members = communities[k]
            candidates = frontier[k]
            candidates.discard(v)
            walk = len(k_members) + len(src_members)
            # Weights into src and k changed for v's neighbours: both entries
            # are summed again from scratch (src may now be absent), and the
            # frontiers follow the entries that appear or disappear (an
            # emptied src's frontier is already dropped).
            for u in adj[v]:
                row = adj[u]
                row_w = adj_w[u]
                end = len(row)
                to_k = to_src = 0.0
                at_src = False
                if walk < end:
                    # Each member found in u's ascending row by bisection,
                    # resuming where the last one was found.
                    i = 0
                    for x in k_members:
                        i = bisect_left(row, x, i)
                        if i == end:
                            break
                        if row[i] == x:
                            to_k += row_w[i]
                    i = 0
                    for x in src_members:
                        i = bisect_left(row, x, i)
                        if i == end:
                            break
                        if row[i] == x:
                            to_src += row_w[i]
                            at_src = True
                else:
                    for x, w in zip(row, row_w):
                        c = assign[x]
                        if c == k:
                            to_k += w
                        elif c == src:
                            to_src += w
                            at_src = True
                weights = links[u]
                weights[k] = to_k
                if assign[u] != k:
                    candidates.add(u)
                if at_src:
                    weights[src] = to_src
                elif weights.pop(src, None) is not None:
                    left.discard(u)
            # The sums of src and k changed for their members, whose leave
            # terms (_leave_term written out) are the only ones that read
            # them. A member whose term rose is marked in the communities it
            # is a candidate of that are not already rescanned in full.
            pending[k] = None
            if src in communities:
                pending[src] = None
            for c in (k, src):
                if c not in communities:
                    continue
                members = communities[c]
                internal_c = internal[c]
                external_c = external[c]
                q_old = _q(internal_c, external_c)
                single = len(members) == 1
                for u in members:
                    if single:
                        q_new = 0.0
                    else:
                        w2 = 2.0 * links[u].get(c, 0.0)
                        e = external_c - (degree[u] - w2)
                        q_new = (internal_c - w2) / (eps if eps > e else e)
                    term = q_new - q_old
                    if term > leave[u]:
                        for c2 in links[u]:
                            if c2 not in pending:
                                pending[c2] = {u}
                            elif (marks := pending[c2]) is not None:
                                marks.add(u)
                    leave[u] = term
        if not pending:  # only a move adds an entry, so this sweep moved nothing
            break
    seeded = tuple(partition.community_ids())
    promoted = tuple(v for v in range(network.num_vertices)
                     if assign[v] == unassigned)
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
    ``neighbors`` holds each super-edge weight in the rows of both ends, and
    every row lists its neighbours in ascending order, so a walk over a row
    needs no sort and its pairs (a, b > a), row by row, come sorted.
    """

    members: list[list[int]]
    degrees: np.ndarray
    neighbors: list[dict[int, float]]
    mean_neighbor_weight: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.members)


def compress(network: WeightedNetwork, partition: Partition) -> CompressedNetwork:
    """Fold each community of a total partition into one super-vertex.

    Every sum is a ``bincount``, which adds in index order: a degree over
    the members ascending, a super-edge weight over its original edges in
    canonical order, and a row total over the row's neighbours ascending
    (each super-edge is listed from its higher end first, as in the
    neighbour rows of ``WeightedNetwork``).
    """
    if not partition.is_total():
        raise ValueError("partition must be total before compression")
    ids = partition.community_ids()
    members = [list(partition.communities[cid]) for cid in ids]
    k = len(ids)
    sv = np.searchsorted(ids, partition.assignment)
    degrees = np.bincount(sv, weights=network.degrees, minlength=k)

    a, b = sv[network.edge_src], sv[network.edge_dst]
    cut = a != b
    keys, slot = np.unique(np.minimum(a[cut], b[cut]) * k + np.maximum(a[cut], b[cut]),
                           return_inverse=True)
    weights = np.bincount(slot, weights=network.edge_weight[cut], minlength=keys.size)
    lo, hi = keys // k, keys % k
    ends = np.concatenate([hi, lo])
    counts = np.bincount(ends, minlength=k)
    totals = np.bincount(ends, weights=np.concatenate([weights, weights]), minlength=k)
    mnw = np.divide(totals, counts, out=np.zeros(k), where=counts > 0)

    neighbors: list[dict[int, float]] = [dict() for _ in range(k)]
    for x, y, w in zip(lo.tolist(), hi.tolist(), weights.tolist()):
        neighbors[x][y] = neighbors[y][x] = w
    return CompressedNetwork(members=members, degrees=degrees,
                             neighbors=neighbors, mean_neighbor_weight=mnw)


def connectivity(member_count: int, internal_edge_count: int) -> float:
    """Realized fraction of the possible edges among a group's members."""
    if member_count < 2:
        raise ValueError("connectivity undefined for singleton")
    if internal_edge_count < 0:
        raise ValueError("edge count must be >= 0")
    return 2.0 * internal_edge_count / (member_count * (member_count - 1))


def _intensity_and_edges(compressed: CompressedNetwork,
                         group: Sequence[int]) -> tuple[float, int]:
    # Interaction intensity and internal super-edge count of a sorted,
    # duplicate-free group, from one walk over its members' rows. Rows are
    # ascending, so the pairs (a, b) come in a pair walk's order.
    if len(group) < 2:
        raise ValueError("interaction intensity needs at least 2 members")
    denom = 0.0
    for sv in group:
        if not compressed.neighbors[sv]:
            raise ValueError("isolated super-vertex")
        denom += float(compressed.mean_neighbor_weight[sv])
    members = set(group)
    count = 0
    weight = 0.0
    for a in group:
        for b, w in compressed.neighbors[a].items():
            if b > a and b in members:
                count += 1
                weight += w
    if count == 0:
        raise ValueError("no internal edges")
    return 2.0 * weight / denom, count


def interaction_intensity(compressed: CompressedNetwork,
                          members: Iterable[int]) -> float:
    """Internal super-edge weight relative to the members' mean neighbor weights."""
    return _intensity_and_edges(compressed, sorted(set(members)))[0]


def functional_cohesion(compressed: CompressedNetwork,
                        members: Iterable[int]) -> float:
    """Interaction intensity times connectivity of a super-vertex group."""
    group = sorted(set(members))
    intensity, count = _intensity_and_edges(compressed, group)
    return intensity * connectivity(len(group), count)


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

    Each group lives at the index of its surviving super-vertex in five
    lists: ``members`` (None once absorbed), internal super-edge count and
    weight, summed mean neighbour weight, and ``rows``. A row holds one
    ``[count, weight]`` cell per adjacent group, shared with that group's
    row and set up in sorted (a, b) order, so a union test reads the pair's
    cross edges in O(1). A merge folds the absorbed row into the survivor's:
    a cell the survivor lacks is re-keyed, and one it has adds the absorbed
    cell, which also updates the third group's row.
    """
    config = config or HubConfig()
    lam = config.cohesion_threshold
    k = compressed.num_vertices
    neighbors = compressed.neighbors
    assign = list(range(k))
    members: list[list[int] | None] = [[sv] for sv in range(k)]
    edge_count = [0] * k
    internal = [0.0] * k
    mnw_sum = compressed.mean_neighbor_weight.tolist()
    rows: list[dict[int, list] | None] = [{} for _ in range(k)]
    for a, row in enumerate(neighbors):
        for b, w in row.items():
            if b > a:
                rows[a][b] = rows[b][a] = [1, w]
    order = sorted(range(k), key=lambda sv: (-float(compressed.degrees[sv]), sv))

    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        for sv in order:
            home = assign[sv]
            row = rows[home]
            for u in neighbors[sv]:
                other = assign[u]
                if other == home:
                    continue
                mnw = mnw_sum[home] + mnw_sum[other]
                if mnw == 0.0:
                    continue  # all weights are 0, so the union's cohesion is 0/0
                links, weight = row[other]
                n = len(members[home]) + len(members[other])
                e = edge_count[home] + edge_count[other] + links
                iw = internal[home] + internal[other] + weight
                if 2.0 * iw / mnw * (2.0 * e / (n * (n - 1))) < lam:
                    continue
                for m in members[other]:
                    assign[m] = home
                members[home].extend(members[other])
                edge_count[home], internal[home], mnw_sum[home] = e, iw, mnw
                del row[other]
                for c, cell in rows[other].items():
                    if c == home:
                        continue
                    third = rows[c]
                    del third[other]
                    shared = row.get(c)
                    if shared is None:
                        row[c] = third[home] = cell
                    else:
                        shared[0] += cell[0]
                        shared[1] += cell[1]
                members[other] = rows[other] = None
                changed = True
    return Stage2Result(groups={gid: set(g) for gid, g in enumerate(members) if g is not None},
                        passes=passes)


@dataclass
class CommunityReport:
    community_id: int
    vertices: list[int]
    modularity: float
    functional_cohesion: float | None


@dataclass
class DetectionResult:
    """Final communities, the hub threshold in effect, and each stage's record."""

    partition: Partition
    communities: list[CommunityReport]
    hub_threshold: float
    hub_count: int
    stage1: Stage1Result
    stage2: Stage2Result


def detect(network: WeightedNetwork, config: HubConfig | None = None) -> DetectionResult:
    """Run the full two-stage detection and report per-community metrics; the
    result's ``hub_threshold`` is ``select_hubs``'s cutoff: the mean weighted degree if unset."""
    config = config or HubConfig()
    threshold = config.hub_threshold
    if threshold is None:
        threshold = mean_weighted_degree(network)
    seeds = select_hubs(network, config)
    hub_count = len(seeds.communities)
    stage1 = stage1_agglomerate(network, seeds)
    compressed = compress(network, stage1.partition)
    stage2 = stage2_refine(compressed, config)

    expanded: list[tuple[list[int], list[int]]] = []
    for supers in map(sorted, stage2.groups.values()):
        expanded.append((sorted(v for sv in supers for v in compressed.members[sv]), supers))
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
        stage1=stage1,
        stage2=stage2,
    )
