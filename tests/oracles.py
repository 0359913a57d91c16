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


def neighbours_loop(edges, v) -> list[tuple[int, float]]:
    """(neighbour, weight) of each edge at v, ascending by neighbour."""
    return sorted((j if i == v else i, w) for i, j, w in edges if v in (i, j))


def weight_to_loop(edges, assignment, v, k) -> float:
    """Weight from v into community k, added in ascending-neighbour order."""
    total = 0.0
    for u, w in neighbours_loop(edges, v):
        if assignment[u] == k:
            total += w
    return total


def community_sums_loop(edges, members) -> tuple[float, float]:
    """(internal, external) weight sums of a community, its members walked
    ascending and each member's neighbours ascending."""
    internal = 0.0
    external = 0.0
    for v in sorted(members):
        for u, w in neighbours_loop(edges, v):
            if u in members:
                internal += w
            else:
                external += w
    return internal, external


def cache_drift(partition) -> float:
    """Max absolute difference between a partition's cached and recomputed sums."""
    edges = partition.network.edges()
    worst = 0.0
    for k, members in partition.communities.items():
        internal, external = community_sums_loop(edges, members)
        worst = max(worst, abs(internal - partition.internal_sum[k]),
                    abs(external - partition.external_sum[k]))
    return worst


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
            candidates = sorted(seen.difference(members))
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



def compress_loop(network, partition):
    """Compression of a total partition as plain loops, in their summation order.

    Returns (degrees, edges, rows, mean neighbour weights): a degree sums
    its members' weighted degrees ascending, a super-edge its original edges
    in canonical order, and a mean its row's weights by ascending neighbour.
    """
    ids = sorted(partition.communities)
    remap = {cid: i for i, cid in enumerate(ids)}
    degrees = []
    for cid in ids:
        total = 0.0
        for v in sorted(partition.communities[cid]):
            total += network.weighted_degree(v)
        degrees.append(total)
    cross: dict[tuple[int, int], float] = {}
    for i, j, w in network.edges():
        a = remap[partition.assignment[i]]
        b = remap[partition.assignment[j]]
        if a != b:
            key = (min(a, b), max(a, b))
            cross[key] = cross.get(key, 0.0) + w
    edges = [(a, b, w) for (a, b), w in sorted(cross.items())]
    rows: list[dict[int, float]] = [{} for _ in ids]
    for a, b, w in edges:
        rows[a][b] = rows[b][a] = w
    means = []
    for row in rows:
        total = 0.0
        for u in sorted(row):
            total += row[u]
        means.append(total / len(row) if row else 0.0)
    return degrees, edges, rows, means


def super_edges(compressed) -> list[tuple[int, int, float]]:
    """A compressed network's super-edges as sorted (a, b, weight) with a < b, from its rows."""
    return sorted((a, b, w) for a, row in enumerate(compressed.neighbors)
                  for b, w in row.items() if a < b)


def cohesion_pair_walk(compressed, members):
    """Functional cohesion of a super-vertex group from a walk over all its pairs."""
    group = sorted(set(members))
    denom = 0.0
    for sv in group:
        if not compressed.neighbors[sv]:
            raise ValueError("isolated super-vertex")
        denom += float(compressed.mean_neighbor_weight[sv])
    count = 0
    weight = 0.0
    for pos, a in enumerate(group):
        row = compressed.neighbors[a]
        for b in group[pos + 1:]:
            if b in row:
                count += 1
                weight += row[b]
    if count == 0:
        raise ValueError("no internal edges")
    n = len(group)
    return 2.0 * weight / denom * (2.0 * count / (n * (n - 1)))

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


def _pairs_loop(path, message: str):
    """(line_no, columns) of each row of a two-column file, read line by line."""
    from wppi.fileio import InputError

    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
            continue
        cols = line.split("\t", 2)
        if len(cols) < 2 or not cols[0] or not cols[1]:
            raise InputError(f"{path}:{line_no}: {message}")
        yield line_no, cols


def load_ppi_loop(path):
    """The PPI loader as it read files before the bulk pair path, line by line.

    It builds the package's ``ProteinIndex`` and ``PpiNetwork`` and raises its
    ``InputError``, so results and errors compare directly with
    ``fileio.load_ppi``.
    """
    import numpy as np

    from wppi.fileio import InputError
    from wppi.model import PpiNetwork, ProteinIndex

    labels = [label for _, cols in _pairs_loop(path, "expected two tab-separated protein labels")
              for label in cols[:2]]
    if not labels:
        raise InputError(f"{path}: no interactions found")
    if "," in "".join(labels):
        line_no, label = next((n, a) for n, cols in _pairs_loop(path, "")
                              for a in cols[:2] if "," in a)
        raise InputError(f"{path}:{line_no}: protein label {label!r} contains ','")
    proteins = ProteinIndex(labels)
    idx = np.fromiter(map(proteins.index_of, labels), dtype=np.int64, count=len(labels))
    return proteins, PpiNetwork(len(proteins), idx[0::2], idx[1::2])


def load_annotations_loop(path):
    """The annotation loader as it read files before the bulk pair path, line by line."""
    from wppi.evaluator import AnnotationSet
    from wppi.fileio import InputError

    terms: dict[str, set[str]] = {}
    for _, cols in _pairs_loop(path, "expected protein_label and term_id columns"):
        terms.setdefault(cols[1], set()).add(cols[0])
    if not terms:
        raise InputError(f"{path}: no annotations found")
    return AnnotationSet({t: frozenset(m) for t, m in terms.items()})


def _log_comb_lgamma(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pvalue_loop(population, community_size, group_size, overlap) -> float:
    """The upper tail as ``hypergeom_pvalue`` summed it with lgamma called per binomial."""
    if overlap == 0:
        return 1.0
    n, K, rest = community_size, group_size, population - group_size
    lo = max(overlap, n - rest)
    hi = min(n, K)
    start = min(max((n + 1) * (K + 1) // (population + 2), lo), hi)
    first = math.exp(_log_comb_lgamma(K, start) + _log_comb_lgamma(rest, n - start)
                     - _log_comb_lgamma(population, n))
    total = first
    term = first
    for i in range(start, hi):
        term *= (K - i) * (n - i) / ((i + 1) * (rest - n + i + 1))
        total += term
        if term < 1e-17 * total:
            break
    term = first
    for i in range(start, lo, -1):
        term *= i * (rest - n + i) / ((K - i + 1) * (n - i + 1))
        total += term
        if term < 1e-17 * total:
            break
    return min(1.0, total)


def enrich_loop(communities, annotations, population):
    """``evaluator.enrich`` as it was before counted overlaps and the log-factorial table:
    a dict of shared-term counts per community, one ``hypergeom_pvalue_loop`` per
    distinct key, and a (p, term) tuple comparison per term. Returns the package's
    ``EnrichmentRecord`` objects."""
    from wppi.evaluator import EnrichmentRecord

    terms_of: dict[str, list[str]] = {}
    for term, group in annotations.terms.items():
        for protein in group:
            terms_of.setdefault(protein, []).append(term)
    tails: dict[tuple[int, int, int], float] = {}
    records = []
    for cid in sorted(communities):
        members = set(communities[cid])
        size = len(members)
        if population < size:
            raise ValueError("population smaller than a community")
        shared: dict[str, int] = {}
        for protein in members:
            for term in terms_of.get(protein, ()):
                shared[term] = shared.get(term, 0) + 1
        best = None
        for term, overlap in shared.items():
            key = (size, len(annotations.terms[term]), overlap)
            p = tails.get(key)
            if p is None:
                p = tails[key] = hypergeom_pvalue_loop(population, *key)
            if best is None or (p, term) < (best[0], best[1]):
                best = (p, term, key[1], overlap)
        if best is None:
            records.append(EnrichmentRecord(cid, size, "unannotated", 0, 0, 1.0))
        else:
            p, term, group_size, overlap = best
            records.append(EnrichmentRecord(cid, size, term, group_size, overlap, p))
    records.sort(key=lambda r: (r.p_value, r.community_id))
    return records


def enrichment_route_loop(member_sets, path, annotated_universe):
    """The ``evaluate --annotations`` route as it ran before the one-pass term index:
    ``load_annotations_loop``, each term trimmed to the communities' universe, the
    annotated universe as the union of the trimmed terms, then ``enrich_loop``.
    Returns (population, records); a file that covers no protein of the communities
    raises ``ValueError`` with the message the command prints."""
    from wppi.evaluator import AnnotationSet

    universe = set().union(*member_sets.values())
    annotations = load_annotations_loop(path)
    trimmed = {term: members & universe for term, members in annotations.terms.items()
               if members & universe}
    if not trimmed:
        raise ValueError("no annotation covers any protein in the communities")
    population = len(universe)
    if annotated_universe:
        covered = set().union(*trimmed.values())
        member_sets = {cid: members & covered for cid, members in member_sets.items()}
        population = len(covered)
    return population, enrich_loop(member_sets, AnnotationSet(trimmed), population)
