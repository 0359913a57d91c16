"""Independent straight-line oracles used to pin expected values.

Everything here is written as plain loops directly from the defining
formulas, deliberately sharing no code with the package under test.
"""

from __future__ import annotations

import math
from itertools import combinations


def pearson_direct(x, y) -> float:
    m = len(x)
    mean_x = sum(x) / m
    mean_y = sum(y) / m
    var_x = sum((v - mean_x) ** 2 for v in x) / m
    var_y = sum((v - mean_y) ** 2 for v in y) / m
    sd_x = math.sqrt(var_x)
    sd_y = math.sqrt(var_y)
    if sd_x == 0.0 or sd_y == 0.0:
        return 0.0
    total = 0.0
    for k in range(m):
        total += ((x[k] - mean_x) / sd_x) * ((y[k] - mean_y) / sd_y)
    return total / m


def quantile_normalize_direct(matrix) -> list[list[float]]:
    """Textbook rank-based normalization with tie groups averaged."""
    n = len(matrix)
    m = len(matrix[0])
    rank_means = []
    sorted_cols = [sorted(matrix[r][c] for r in range(n)) for c in range(m)]
    for r in range(n):
        rank_means.append(sum(col[r] for col in sorted_cols) / m)
    out = [[0.0] * m for _ in range(n)]
    for c in range(m):
        col = [(matrix[r][c], r) for r in range(n)]
        col.sort(key=lambda t: t[0])
        i = 0
        while i < n:
            j = i
            while j + 1 < n and col[j + 1][0] == col[i][0]:
                j += 1
            group_value = sum(rank_means[i:j + 1]) / (j - i + 1)
            for _, r in col[i:j + 1]:
                out[r][c] = group_value
            i = j + 1
    return out


def weighted_degree_direct(edges, v) -> float:
    total = 0.0
    for i, j, w in edges:
        if i == v or j == v:
            total += w
    return total


def community_q_direct(edges, members, eps=1e-12) -> float:
    members = set(members)
    internal = 0.0
    external = 0.0
    for i, j, w in edges:
        if i in members and j in members:
            internal += 2.0 * w
        elif i in members or j in members:
            external += w
    return internal / max(external, eps)


def compress_direct(edges, num_vertices, groups):
    """(degrees, self_weights, cross dict) for explicit vertex groups."""
    owner = {}
    for g, group in enumerate(groups):
        for v in group:
            owner[v] = g
    degrees = [0.0] * len(groups)
    selfs = [0.0] * len(groups)
    cross: dict[tuple[int, int], float] = {}
    for i, j, w in edges:
        degrees[owner[i]] += w
        degrees[owner[j]] += w
        if owner[i] == owner[j]:
            selfs[owner[i]] += w
        else:
            key = tuple(sorted((owner[i], owner[j])))
            cross[key] = cross.get(key, 0.0) + w
    return degrees, selfs, cross


def interaction_intensity_direct(super_edges, members) -> float:
    """Straight evaluation over super-edges (u, v, w) among distinct vertices."""
    members = set(members)
    internal = 0.0
    incident: dict[int, list[float]] = {}
    for u, v, w in super_edges:
        incident.setdefault(u, []).append(w)
        incident.setdefault(v, []).append(w)
        if u in members and v in members:
            internal += w
    denom = 0.0
    for v in members:
        weights = incident[v]
        denom += sum(weights) / len(weights)
    return 2.0 * internal / denom


def connectivity_direct(n, e) -> float:
    return 2.0 * e / (n * (n - 1))


def cohesion_direct(super_edges, members) -> float:
    members = set(members)
    e = sum(1 for u, v, _ in super_edges if u in members and v in members)
    return interaction_intensity_direct(super_edges, members) * \
        connectivity_direct(len(members), e)


def hypergeom_tail_exact(population, community, group, overlap) -> float:
    """P(X >= overlap) from exact integer binomials."""
    total = 0
    for i in range(overlap, min(community, group) + 1):
        if community - i > population - group:
            continue
        total += math.comb(group, i) * math.comb(population - group, community - i)
    return total / math.comb(population, community)


def hypergeom_tail_enumerated(population, community, group, overlap) -> float:
    """P(X >= overlap) by enumerating every possible draw (small inputs only)."""
    marked = set(range(group))
    hits = 0
    draws = 0
    for draw in combinations(range(population), community):
        draws += 1
        if len(marked.intersection(draw)) >= overlap:
            hits += 1
    return hits / draws


def overlap_direct(a, b) -> float:
    inter = len(set(a) & set(b))
    return inter * inter / (len(set(a)) * len(set(b)))


def recall_direct(a, b) -> float:
    return len(set(a) & set(b)) / len(set(b))


def wppi_weights_direct(ppi_edges, gene_rows, values, fallback) -> list[float]:
    """Serial per-edge weighting: |pearson| for matched pairs, else fallback."""
    out = []
    for i, j in ppi_edges:
        ri = gene_rows[i]
        rj = gene_rows[j]
        if ri is None or rj is None:
            out.append(fallback)
        else:
            out.append(abs(pearson_direct(list(values[ri]), list(values[rj]))))
    return out


def fallback_mean_direct(values, block=1024) -> float:
    """Mean of a left-to-right fold within blocks, then across the block sums."""
    partials = []
    for start in range(0, len(values), block):
        acc = values[start]
        for v in values[start + 1:start + block]:
            acc += v
        partials.append(acc)
    total = partials[0]
    for p in partials[1:]:
        total += p
    return total / len(values)
