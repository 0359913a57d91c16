"""Gene-expression matrices: normalization, correlation, and protein matching.

The correlation convention is the population one: vectors are centred and
scaled by the 1/M standard deviation, which keeps results exactly inside
[-1, 1]. Constant vectors have no co-expression evidence and correlate 0,
with a flag so callers can count them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ProteinIndex


@dataclass
class ExpressionMatrix:
    """Expression levels for N genes across M samples, fully imputed."""

    gene_index: dict[str, int]
    values: np.ndarray
    sample_names: list[str]
    dropped_genes: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("expression values must be a 2-D matrix")
        if len(self.gene_index) != self.values.shape[0]:
            raise ValueError("gene index size does not match value rows")

    @property
    def sample_count(self) -> int:
        return self.values.shape[1]


def quantile_normalize_values(values: np.ndarray) -> np.ndarray:
    """Quantile-normalize columns of a matrix.

    Rank r in every column is replaced by the mean of the r-th order
    statistics across columns; ties within a column receive the mean of the
    rank values they cover. A single-column matrix is a fixed point.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
        raise ValueError("expected a non-empty 2-D matrix")
    if not np.all(np.isfinite(v)):
        raise ValueError("matrix contains non-finite values")
    n, m = v.shape
    rank_means = np.sort(v, axis=0).mean(axis=1)
    out = np.empty_like(v)
    for c in range(m):
        col = v[:, c]
        order = np.argsort(col, kind="stable")
        ranked = col[order]
        # Tie groups are the runs of equal neighbours in sorted order; each
        # run [i, j] gets the mean of the rank values it covers.
        by_rank = rank_means.copy()
        edges = np.diff(np.concatenate(([0], ranked[1:] == ranked[:-1], [0])).astype(np.int8))
        for i, j in zip(np.flatnonzero(edges == 1).tolist(),
                        np.flatnonzero(edges == -1).tolist()):
            by_rank[i:j + 1] = rank_means[i:j + 1].mean()
        out[order, c] = by_rank
    return out


def quantile_normalize(matrix: ExpressionMatrix) -> ExpressionMatrix:
    """Quantile-normalize an expression matrix (requires at least 2 samples)."""
    if matrix.sample_count < 2:
        raise ValueError("insufficient samples")
    return ExpressionMatrix(
        gene_index=dict(matrix.gene_index),
        values=quantile_normalize_values(matrix.values),
        sample_names=list(matrix.sample_names),
        dropped_genes=list(matrix.dropped_genes),
    )


def pearson(x, y) -> float:
    """Population correlation of two expression vectors (0.0 for constant input)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("vectors must be 1-D and of equal length")
    if a.size < 2:
        raise ValueError("insufficient samples")
    sa = float(a.std())
    sb = float(b.std())
    if sa == 0.0 or sb == 0.0:
        return 0.0
    za = (a - a.mean()) / sa
    zb = (b - b.mean()) / sb
    return float((za * zb).mean())


def standardize_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and scale each row by its population deviation.

    Zero-variance rows become all-zero and are reported in the returned
    boolean mask, so a row dot product divided by M reproduces ``pearson``.
    """
    v = np.asarray(values, dtype=np.float64)
    means = v.mean(axis=1, keepdims=True)
    stds = v.std(axis=1, keepdims=True)
    flat = stds[:, 0] == 0.0
    safe = np.where(stds == 0.0, 1.0, stds)
    z = (v - means) / safe
    z[flat] = 0.0
    return z, flat


@dataclass
class GeneMatch:
    """Per-protein gene-row lookup with the resulting matching ratio."""

    rows: list[int | None]
    matched: int
    total: int

    @property
    def ratio_percent(self) -> float:
        return 100.0 * self.matched / self.total if self.total else 0.0


def match_genes(proteins: ProteinIndex, matrix: ExpressionMatrix,
                mapping: dict[str, str] | None = None) -> GeneMatch:
    """Resolve each protein to its expression row via an optional mapping table.

    Without a mapping the protein label itself is used as the gene id.
    Proteins whose gene is absent from the matrix count as unmatched.
    """
    rows: list[int | None] = []
    matched = 0
    for label in proteins:
        gene = mapping.get(label, label) if mapping else label
        row = matrix.gene_index.get(gene)
        rows.append(row)
        if row is not None:
            matched += 1
    return GeneMatch(rows=rows, matched=matched, total=len(proteins))
