"""Gene-expression matrices: normalization, correlation, and protein matching.

The correlation convention is the population one: rows are centred and
scaled by their 1/M deviation, so each has squared norm M, and their dot
product over M lies in [-1, 1] by Cauchy-Schwarz (rounding can add an ulp,
which is why edge weights are clamped to 1). Constant vectors have no
co-expression evidence and correlate 0, with a flag so callers can count them.
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
    # Any sort order will do: the members of a tie run all get the same value.
    order = np.argsort(v.T, axis=1)
    ranked = np.take_along_axis(v.T, order, axis=1)
    # Row means of the (n, m) C-contiguous layout sum as np.sort(v, axis=0).mean(axis=1).
    rank_means = np.ascontiguousarray(ranked.T).mean(axis=1)
    # A run of equal neighbours over ranks [i, j] of a sorted column gets
    # rank_means[i:j + 1].mean(), for all runs of one length at once.
    tied = np.pad(ranked[:, 1:] == ranked[:, :-1], ((0, 0), (1, 1)))
    del ranked
    starts, ends = np.flatnonzero(np.diff(tied, axis=1)).reshape(-1, 2).T
    lengths = ends - starts + 1
    by_rank = np.tile(rank_means, m)
    for length in np.unique(lengths).tolist():
        cells = starts[lengths == length, None] + np.arange(length)
        by_rank[cells] = rank_means[cells % n].mean(axis=1, keepdims=True)
    out = np.empty_like(v)
    np.put_along_axis(out.T, order, by_rank.reshape(m, n), axis=1)
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


def standardize_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and scale each row by its population deviation.

    Each row is first scaled by the power of two that puts its largest
    magnitude in [0.5, 1). That scaling is exact, so it changes no bit of a
    row whose squares stay in the normal range, and it keeps rows near
    1e-160 or 1e200 from underflowing or overflowing. Constant rows (max
    equal to min) become all-zero and are reported in the returned mask.
    """
    v = np.asarray(values, dtype=np.float64)
    hi, lo = v.max(axis=1), v.min(axis=1)
    flat = hi == lo
    _, exponents = np.frexp(np.maximum(hi, -lo))
    z = np.ldexp(v, -exponents[:, None])
    z -= z.mean(axis=1, keepdims=True)
    # np.std's own steps on the already centred rows, so the bits match np.std
    stds = np.sqrt((z * z).mean(axis=1, keepdims=True))
    z /= np.where(flat[:, None], 1.0, stds)
    z[flat] = 0.0
    return z, flat


def row_correlations(z: np.ndarray, rows_i: np.ndarray, rows_j: np.ndarray) -> np.ndarray:
    """Correlation of standardized rows ``rows_i[k]`` and ``rows_j[k]`` for each k."""
    return np.einsum("ij,ij->i", z[rows_i], z[rows_j]) / z.shape[1]


def pearson(x, y) -> float:
    """Population correlation of two expression vectors (0.0 for constant input)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("vectors must be 1-D and of equal length")
    if a.size < 2:
        raise ValueError("insufficient samples")
    z, _ = standardize_rows(np.stack([a, b]))
    return float(row_correlations(z, [0], [1])[0])


@dataclass
class GeneMatch:
    """Per-protein expression row (-1 when unmatched) and the matching ratio."""

    rows: np.ndarray

    @property
    def matched(self) -> int:
        return int(np.count_nonzero(self.rows >= 0))

    @property
    def total(self) -> int:
        return int(self.rows.size)

    @property
    def ratio_percent(self) -> float:
        return 100.0 * self.matched / self.total if self.total else 0.0


def match_genes(proteins: ProteinIndex, matrix: ExpressionMatrix,
                mapping: dict[str, str] | None = None) -> GeneMatch:
    """Resolve each protein to its expression row via an optional mapping table.

    Without a mapping the protein label itself is used as the gene id.
    Proteins whose gene is absent from the matrix count as unmatched.
    """
    genes = (mapping.get(label, label) for label in proteins) if mapping else proteins
    return GeneMatch(np.array([matrix.gene_index.get(gene, -1) for gene in genes],
                              dtype=np.int64))
