"""Seeded input generators for the benchmark workloads.

Every generator is vectorised and draws from one ``numpy`` Generator built
from the seed, so the same seed writes byte-identical files. The package's
own ``wppi.synthetic`` generator is not used: it loops over all vertex pairs
in Python and its random-number pattern may change.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Inputs:
    """Files written for one workload plus what the output checks need."""

    files: dict[str, Path]
    descriptor: dict
    proteins: frozenset[str] = frozenset()
    edges: frozenset[tuple[str, str]] = frozenset()
    blocks: list[list[str]] = field(default_factory=list)


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def tie_frac(values: np.ndarray) -> float:
    """Share of non-missing entries that share their value with another in the column."""
    tied = total = 0
    for col in np.asarray(values, dtype=np.float64).T:
        col = np.sort(col[~np.isnan(col)])
        same = col[1:] == col[:-1]
        in_group = np.zeros(col.size, dtype=bool)
        in_group[1:] |= same
        in_group[:-1] |= same
        tied += int(in_group.sum())
        total += col.size
    return tied / total if total else 0.0


def _dedupe_pairs(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered, loop-free, duplicate-free pairs in first-draw order."""
    keep = a != b
    a, b = a[keep], b[keep]
    key = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    _, first = np.unique(key, return_index=True)
    first.sort()
    return a[first], b[first]


def _ged_lines(genes: list[str], values: np.ndarray, decimals: int) -> list[str]:
    """Expression TSV rows; NaN cells are written empty (missing)."""
    text = np.char.mod(f"%.{decimals}f", values)
    text[np.isnan(values)] = ""
    header = "gene_id\t" + "\t".join(f"S{k + 1}" for k in range(values.shape[1]))
    return [header] + [g + "\t" + "\t".join(row) for g, row in zip(genes, text.tolist())]


def pipeline_planted(seed: int, root: Path) -> Inputs:
    """100 planted blocks of 20, p_in 0.4, 2n cross edges, Poisson counts.

    Counts share a per-block rate profile, so genes of one block co-express
    and small counts give many within-column ties. About 1% of cells are
    missing. The catalogue is the planted blocks; each block's own term
    covers about 75% of it, next to 2,000 random decoy terms.
    """
    rng = np.random.default_rng([seed, 1])
    blocks, size, samples = 100, 20, 64
    n = blocks * size
    labels = [f"P{v:04d}" for v in range(n)]
    block_of = np.repeat(np.arange(blocks), size)

    # Exactly 40% of each block's pairs, so every seed gives the same edge counts.
    iu, ju = np.triu_indices(size, k=1)
    pp = np.argsort(rng.random((blocks, iu.size)), axis=1)[:, :round(0.4 * iu.size)]
    bb = np.repeat(np.arange(blocks), pp.shape[1])
    pp = pp.ravel()
    src_in = bb * size + iu[pp]
    dst_in = bb * size + ju[pp]
    ca = rng.integers(0, n, 3 * n)
    cb = rng.integers(0, n, 3 * n)
    cross = block_of[ca] != block_of[cb]
    ca, cb = _dedupe_pairs(ca[cross], cb[cross], n)
    src = np.concatenate([src_in, ca[:2 * n]])
    dst = np.concatenate([dst_in, cb[:2 * n]])
    src, dst = _dedupe_pairs(src, dst, n)

    # A high-variance block profile makes within-block correlation strong
    # enough that stage 2 runs into its pass cap, the regime this workload
    # exists to show; milder profiles let stage 2 converge on some seeds.
    profile = rng.gamma(1.0, 4.0, (blocks, samples))
    scale = rng.uniform(0.8, 1.2, n)
    counts = rng.poisson(profile[block_of] * scale[:, None]).astype(np.float64)
    counts[rng.random(counts.shape) < 0.01] = np.nan

    block_members = [labels[b * size:(b + 1) * size] for b in range(blocks)]
    ann = []
    for b, members in enumerate(block_members):
        ann += [f"{p}\tBLOCK{b:03d}" for p in members if rng.random() < 0.75]
    decoys = 2000
    sizes = rng.integers(3, 31, decoys)
    for t in range(decoys):
        ann += [f"{labels[v]}\tDECOY{t:04d}" for v in np.sort(rng.choice(n, sizes[t], replace=False))]

    files = {name: root / f"{name}.tsv" for name in ("ppi", "ged", "catalogue", "annotations")}
    _write(files["ppi"], (f"{labels[a]}\t{labels[b]}" for a, b in zip(src, dst)))
    _write(files["ged"], _ged_lines(labels, counts, 0))
    _write(files["catalogue"], (f"B{b:03d}\t{','.join(m)}" for b, m in enumerate(block_members)))
    _write(files["annotations"], ann)
    return Inputs(
        files=files,
        descriptor={"vertices": n, "edges": int(src.size), "genes": n, "samples": samples,
                    "expression.tie_frac": tie_frac(counts),
                    "unmatched_edge_frac": 0.0, "terms": blocks + decoys},
        proteins=frozenset(labels),
        edges=frozenset((labels[min(a, b)], labels[max(a, b)]) for a, b in zip(src, dst)),
        blocks=block_members,
    )


def build_microarray(seed: int, root: Path) -> Inputs:
    """16,000 genes x 64 log-intensities and a skewed 12,000-protein PPI.

    Intensities are module effects plus noise, written at 4 decimals. The
    PPI gives every protein one edge, then draws Chung-Lu pairs with
    weights i^-0.6 up to 100,000 edges. A random 20% of the proteins carry
    labels with no expression row, so their edges take the fallback weight.
    """
    rng = np.random.default_rng([seed, 2])
    genes, samples, n, m = 16_000, 64, 12_000, 100_000
    gene_labels = [f"G{g:05d}" for g in range(genes)]
    module = rng.integers(0, 400, genes)
    factors = rng.normal(0.0, 1.0, (400, samples))
    values = (rng.normal(8.0, 1.5, (genes, 1)) + factors[module] * rng.uniform(0.2, 1.0, (genes, 1))
              + rng.normal(0.0, 0.5, (genes, samples)))
    values = np.round(values, 4)

    order = rng.permutation(genes)
    matched = rng.random(n) >= 0.2
    labels = [gene_labels[order[v]] if matched[v] else f"X{v:05d}" for v in range(n)]

    weight = (np.arange(n) + 1.0) ** -0.6
    weight = rng.permutation(weight / weight.sum())
    first = np.arange(1, n)
    src = [first, rng.integers(0, n, 2 * m)]
    dst = [rng.integers(0, first), rng.choice(n, 2 * m, p=weight)]
    src, dst = _dedupe_pairs(np.concatenate(src), np.concatenate(dst), n)
    src, dst = src[:m], dst[:m]

    files = {"ppi": root / "ppi.tsv", "ged": root / "ged.tsv"}
    _write(files["ppi"], (f"{labels[a]}\t{labels[b]}" for a, b in zip(src, dst)))
    _write(files["ged"], _ged_lines(gene_labels, values, 4))
    return Inputs(
        files=files,
        descriptor={"vertices": n, "edges": int(src.size), "genes": genes, "samples": samples,
                    "expression.tie_frac": tie_frac(values),
                    "unmatched_edge_frac": float(np.mean(~(matched[src] & matched[dst]))),
                    "terms": 0},
        proteins=frozenset(labels),
        edges=frozenset((min(labels[a], labels[b]), max(labels[a], labels[b]))
                        for a, b in zip(src, dst)),
    )


def _skewed_sizes(rng, count: int, lo: int, hi: int, alpha: float) -> np.ndarray:
    """Power-law sizes in [lo, hi], from a fixed grid of quantiles in random order.

    The grid keeps the multiset of sizes, and so the total work, the same
    for every seed; only which item gets which size varies.
    """
    u = (rng.permutation(count) + 0.5) / count
    return np.clip(np.floor(lo * u ** (-1.0 / alpha)), lo, hi).astype(int)


def evaluate_genome(seed: int, root: Path) -> Inputs:
    """800 skewed communities over ~8,000 proteins, 1,000 complexes, 20,000 terms.

    A quarter of the complexes and 500 of the terms are noisy copies of a
    community, so matching finds real hits and some enrichment p-values are
    far below 1e-16; the rest are random with skewed sizes. Annotations also
    name 800 proteins outside every community.
    """
    rng = np.random.default_rng([seed, 3])
    sizes = _skewed_sizes(rng, 800, 3, 80, 1.17)
    n = int(sizes.sum())
    labels = [f"Q{v:05d}" for v in range(n + 800)]
    perm = rng.permutation(n)
    cuts = np.cumsum(sizes)[:-1]
    communities = [sorted(labels[v] for v in part) for part in np.split(perm, cuts)]

    def noisy_copy(members, keep):
        kept = [p for p in members if rng.random() < keep]
        extra = rng.integers(0, n + 800, max(1, len(members) // 4))
        return sorted(set(kept or members[:2]) | {labels[v] for v in extra})

    complexes = []
    complex_sizes = _skewed_sizes(rng, 1000, 2, 120, 1.2)
    for c in range(1000):
        if c % 4 == 0:
            complexes.append(noisy_copy(communities[rng.integers(len(communities))], 0.7))
        else:
            picks = rng.choice(n + 800, complex_sizes[c], replace=False)
            complexes.append(sorted(labels[v] for v in picks))

    ann = []
    term_sizes = _skewed_sizes(rng, 20_000, 1, 600, 0.9)
    for t in range(20_000):
        if t < 500:
            members = noisy_copy(communities[rng.integers(len(communities))], 0.8)
        else:
            members = [labels[v] for v in rng.choice(n + 800, term_sizes[t], replace=False)]
        ann += [f"{p}\tT{t:05d}" for p in members]

    files = {"communities": root / "communities.tsv", "catalogue": root / "catalogue.tsv",
             "annotations": root / "annotations.tsv"}
    _write(files["communities"], ["community_id\tproteins\tfunctional_cohesion\tmodularity"]
           + [f"{c}\t{','.join(m)}\tNA\t{rng.random():.6f}" for c, m in enumerate(communities)])
    _write(files["catalogue"], (f"K{c:04d}\t{','.join(m)}" for c, m in enumerate(complexes)))
    _write(files["annotations"], ann)
    return Inputs(
        files=files,
        descriptor={"vertices": n, "edges": 0, "genes": 0, "samples": 0,
                    "expression.tie_frac": 0.0, "unmatched_edge_frac": 0.0,
                    "terms": 20_000, "communities": len(communities),
                    "complexes": len(complexes)},
    )


def build_and_evaluate(seed: int, root: Path) -> Inputs:
    """The inputs of ``build_microarray`` and ``evaluate_genome``, side by side.

    The two draw from separate streams of the seed and share no file name,
    so each command of the workload reads exactly what it would alone.
    """
    build = build_microarray(seed, root)
    evaluate = evaluate_genome(seed, root)
    ev = evaluate.descriptor
    return Inputs(
        files={**build.files, **evaluate.files},
        descriptor={**build.descriptor, "terms": ev["terms"], "communities": ev["communities"],
                    "complexes": ev["complexes"], "community_proteins": ev["vertices"]},
        proteins=build.proteins,
        edges=build.edges,
    )


GENERATORS = {
    "pipeline-planted": pipeline_planted,
    "build-and-evaluate": build_and_evaluate,
}
