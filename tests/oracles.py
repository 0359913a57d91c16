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
    """(degrees, cross dict) for explicit vertex groups."""
    owner = {}
    for g, group in enumerate(groups):
        for v in group:
            owner[v] = g
    degrees = [0.0] * len(groups)
    cross: dict[tuple[int, int], float] = {}
    for i, j, w in edges:
        degrees[owner[i]] += w
        degrees[owner[j]] += w
        if owner[i] != owner[j]:
            key = tuple(sorted((owner[i], owner[j])))
            cross[key] = cross.get(key, 0.0) + w
    return degrees, cross


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


def match_complexes_direct(communities, entries, threshold):
    """Best catalogue entry per community by scoring every (community, entry) pair.

    Returns (community_id, community_size, complex_name, complex_size,
    overlap, score, recall, matched) rows in community-id order; a score tie
    keeps the earlier entry and empty communities are skipped.
    """
    rows = []
    for cid in sorted(communities):
        members = set(communities[cid])
        if not members:
            continue
        best = None
        for name, reference in entries:
            score = overlap_direct(members, reference)
            if best is None or score > best[0]:
                best = (score, name, reference)
        score, name, reference = best
        rows.append((cid, len(members), name, len(reference),
                     len(members & set(reference)), score,
                     recall_direct(members, reference), score >= threshold))
    return rows


def enrich_direct(communities, terms, population, pvalue):
    """Least (p, term) over every overlapping term, for each community.

    ``pvalue(population, community_size, group_size, overlap)`` supplies the
    tail, so records can be compared float for float with the package's.
    Returns (community_id, community_size, term, group_size, overlap, p) rows
    sorted by (p, community_id); a community with no annotated member gets
    ("unannotated", 0, 0, 1.0).
    """
    rows = []
    for cid in sorted(communities):
        members = set(communities[cid])
        best = None
        for term in sorted(terms):
            group = terms[term]
            overlap = len(members & set(group))
            if overlap == 0:
                continue
            p = pvalue(population, len(members), len(group), overlap)
            if best is None or (p, term) < (best[0], best[1]):
                best = (p, term, len(group), overlap)
        if best is None:
            rows.append((cid, len(members), "unannotated", 0, 0, 1.0))
        else:
            p, term, group_size, overlap = best
            rows.append((cid, len(members), term, group_size, overlap, p))
    rows.sort(key=lambda r: (r[5], r[0]))
    return rows


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


# Earlier implementations kept verbatim as references for rewrites that must
# reproduce them bit for bit. Unlike the oracles above they use numpy and the
# package's ``Partition`` bookkeeping, because the rewrites must match their
# exact float operations, not only the defining formulas.


def quantile_normalize_loop(values):
    """Per-element tie scan over each sorted column (the pre-vectorization code)."""
    import numpy as np

    v = np.asarray(values, dtype=np.float64)
    n, m = v.shape
    rank_means = np.sort(v, axis=0).mean(axis=1)
    out = np.empty_like(v)
    for c in range(m):
        col = v[:, c]
        order = np.argsort(col, kind="stable")
        ranked = col[order]
        i = 0
        while i < n:
            j = i
            while j + 1 < n and ranked[j + 1] == ranked[i]:
                j += 1
            out[order[i:j + 1], c] = rank_means[i:j + 1].mean()
            i = j + 1
    return out


def _q_reference(internal, external, eps=1e-12):
    return internal / max(external, eps)


def _move_gain_reference(partition, k, v):
    """Summed-modularity change of moving v into k, recomputed from scratch."""
    w_in = partition.weight_to(v, k)
    deg = partition.network.weighted_degree(v)
    before = _q_reference(partition.internal_sum[k], partition.external_sum[k])
    after = _q_reference(partition.internal_sum[k] + 2.0 * w_in,
                         partition.external_sum[k] + deg - 2.0 * w_in)
    gain = after - before
    src = partition.assignment[v]
    if src != partition.UNASSIGNED:
        q_old = _q_reference(partition.internal_sum[src], partition.external_sum[src])
        if len(partition.communities[src]) == 1:
            q_new = 0.0
        else:
            w_src = partition.weight_to(v, src)
            q_new = _q_reference(partition.internal_sum[src] - 2.0 * w_src,
                                 partition.external_sum[src] - (deg - 2.0 * w_src))
        gain += q_new - q_old
    return gain


def stage1_reference(seeds, sweep_cap=10_000):
    """Stage-1 growth scoring every candidate from scratch on every visit.

    Returns (partition, seeded_ids, promoted_vertices, sweeps, evaluations,
    moves, steals).
    """
    partition = seeds.copy()
    network = partition.network
    sweeps = evaluations = moves = steals = 0
    while sweeps < sweep_cap:
        sweeps += 1
        changed = False
        for k in partition.community_ids():
            if k not in partition.communities:
                continue
            members = partition.communities[k]
            seen = set()
            for m in members:
                idx, _ = network.neighbors(m)
                seen.update(int(u) for u in idx)
            candidates = sorted(seen - members)
            evaluations += len(candidates)
            best_v = None
            best_gain = 0.0
            for v in candidates:
                g = _move_gain_reference(partition, k, v)
                if g > best_gain:
                    best_v, best_gain = v, g
            if best_v is not None:
                if partition.assignment[best_v] != partition.UNASSIGNED:
                    steals += 1
                partition.move(best_v, k)
                moves += 1
                changed = True
        if not changed:
            break
    seeded = tuple(partition.community_ids())
    promoted = tuple(v for v in range(network.num_vertices)
                     if partition.assignment[v] == partition.UNASSIGNED)
    for v in promoted:
        partition.new_community(v)
    return partition, seeded, promoted, sweeps, evaluations, moves, steals


def stage2_reference(compressed, lam):
    """Stage-2 merging that finds a union's cross edges by scanning members.

    Each union test walks every adjacency entry of the smaller group's
    members. Returns (groups as {group id: set of super-vertices}, passes).
    """
    k = compressed.num_vertices
    neighbors = compressed.neighbors
    assign = list(range(k))
    # group id -> [members, internal edge count, internal weight, mnw sum]
    groups = {sv: [[sv], 0, 0.0, float(compressed.mean_neighbor_weight[sv])]
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
                small, target = (a, other) if len(a[0]) <= len(b[0]) else (b, home)
                mnw = a[3] + b[3]
                if mnw == 0.0:
                    continue
                links = 0
                weight = 0.0
                for m in small[0]:
                    for v, w in neighbors[m].items():
                        if assign[v] == target:
                            links += 1
                            weight += w
                n = len(a[0]) + len(b[0])
                e = a[1] + b[1] + links
                iw = a[2] + b[2] + weight
                if 2.0 * iw / mnw * (2.0 * e / (n * (n - 1))) < lam:
                    continue
                for m in b[0]:
                    assign[m] = home
                a[0].extend(b[0])
                a[1], a[2], a[3] = e, iw, mnw
                del groups[other]
                changed = True
    return {gid: set(g[0]) for gid, g in groups.items()}, passes


def load_expression_loop(path):
    """The expression loader as it read files before bulk parsing, row by row.

    It imports the package's ``InputError`` and ``ExpressionMatrix`` so that
    errors and results compare directly with ``fileio.load_expression``.
    """
    import numpy as np

    from wppi.expression import ExpressionMatrix
    from wppi.fileio import MISSING_ROW_LIMIT, InputError

    def _fail(path, line_no: int, message: str):
        raise InputError(f"{path}:{line_no}: {message}")

    def _rows(path):
        """(line_no, columns) of each line that is neither empty nor a '#' comment."""
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if line and not line.startswith("#"):
                    yield line_no, line.split("\t")

    rows = _rows(path)
    line_no, header = next(rows, (0, None))
    if header is None:
        raise InputError(f"{path}: empty expression file")
    if len(header) < 2:
        _fail(path, line_no, "header must name at least one sample")
    expected = len(header) - 1
    values: list[list[float]] = []
    gene_index: dict[str, int] = {}
    dropped: list[str] = []
    seen: set[str] = set()
    for line_no, cols in rows:
        if len(cols) - 1 != expected:
            _fail(path, line_no,
                  f"expected {expected} sample values, found {len(cols) - 1}")
        gene = cols[0]
        if not gene:
            _fail(path, line_no, "missing gene label")
        if gene in seen:
            _fail(path, line_no, f"duplicate gene label {gene!r}")
        seen.add(gene)
        cells = cols[1:]
        missing = cells.count("")
        row: list[float] = []
        for c, cell in enumerate(cells, start=2):
            try:
                value = float(cell) if cell else math.nan
            except ValueError:
                _fail(path, line_no, f"column {c}: not a number: {cell!r}")
            if cell and not math.isfinite(value):
                _fail(path, line_no, f"column {c}: not a finite number: {cell!r}")
            row.append(value)
        if missing > MISSING_ROW_LIMIT * expected:
            dropped.append(gene)
            continue
        gene_index[gene] = len(values)
        values.append(row)
    if not values:
        raise InputError(f"{path}: no usable expression rows")
    matrix = np.array(values)
    gaps = np.isnan(matrix)
    for r in np.flatnonzero(gaps.any(axis=1)):
        matrix[r, gaps[r]] = matrix[r, ~gaps[r]].mean()
    return ExpressionMatrix(gene_index=gene_index, values=matrix,
                            sample_names=header[1:], dropped_genes=dropped)
