"""Builds the weighted interaction network from PPI topology plus co-expression.

Each PPI edge is weighted by the absolute correlation of its endpoints'
expression vectors. Edges whose endpoints lack expression rows receive a
fallback weight (the mean absolute correlation over matched edges by
default) so they stay visible to the weighted detector instead of
disconnecting the network.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .expression import (ExpressionMatrix, GeneMatch, match_genes, row_correlations,
                         standardize_rows)
from .model import PpiNetwork, ProteinIndex, WeightedNetwork

GLOBAL_DEFAULT_WEIGHT = 0.5
_FOLD_BLOCK = 1024
_KERNEL_BLOCK = 1024  # matched edges per task: the gathered rows stay in cache


@dataclass
class BuildResult:
    """Weighted network plus the bookkeeping needed for reports."""

    network: WeightedNetwork
    matching: GeneMatch
    fallback_weight: float
    matched_edge_count: int
    unmatched_edge_count: int
    zero_variance_edge_count: int


def _fold_sum(values: np.ndarray) -> float:
    """Sum left to right within blocks of _FOLD_BLOCK, then across the block sums.

    The order is fixed by the length alone. ``np.sum`` (pairwise) and builtin
    ``sum`` (compensated from Python 3.12) round differently, which would
    change the fallback weight in the last bits.
    """
    partials = [np.cumsum(values[s:s + _FOLD_BLOCK])[-1]
                for s in range(0, values.size, _FOLD_BLOCK)]
    return float(np.cumsum(partials)[-1])


def build_wppi(proteins: ProteinIndex, ppi: PpiNetwork, matrix: ExpressionMatrix,
               mapping: dict[str, str] | None = None,
               default_weight: float | None = None,
               zero_as_unmatched: bool = False,
               threads: int = 1) -> BuildResult:
    """Weight every PPI edge by gene co-expression.

    The edge set of the result equals the edge set of the input exactly.
    ``default_weight`` overrides the computed fallback; ``zero_as_unmatched``
    additionally applies the fallback to matched edges whose correlation is
    exactly zero. ``threads`` workers correlate the matched edges in blocks;
    each edge's correlation depends only on its own two rows, so the result
    does not depend on the thread count.
    """
    if ppi.edge_count == 0:
        raise ValueError("empty network")
    matching = match_genes(proteins, matrix, mapping)

    src, dst = ppi.edge_src, ppi.edge_dst
    row_i, row_j = matching.rows[src], matching.rows[dst]
    matched_idx = np.flatnonzero((row_i >= 0) & (row_j >= 0))
    z, zero_var = standardize_rows(matrix.values)

    abs_corr = np.empty(matched_idx.size)

    def kernel(start: int) -> None:
        idx = matched_idx[start:start + _KERNEL_BLOCK]
        abs_corr[start:start + idx.size] = np.abs(row_correlations(z, row_i[idx], row_j[idx]))

    with ThreadPoolExecutor(max_workers=threads) as executor:
        list(executor.map(kernel, range(0, matched_idx.size, _KERNEL_BLOCK)))

    zero_variance_edges = int(np.sum(zero_var[row_i[matched_idx]] | zero_var[row_j[matched_idx]]))

    # Fallback: mean |correlation| over matched edges in canonical order.
    if default_weight is not None:
        if not 0.0 <= default_weight <= 1.0:
            raise ValueError("default weight must lie in [0, 1]")
        fallback = float(default_weight)
    else:
        pool = abs_corr[abs_corr != 0.0] if zero_as_unmatched else abs_corr
        if pool.size:
            fallback = min(1.0, _fold_sum(pool) / pool.size)
        else:
            fallback = GLOBAL_DEFAULT_WEIGHT

    weights = np.full(src.size, fallback)
    weights[matched_idx] = np.minimum(abs_corr, 1.0)
    if zero_as_unmatched:
        weights[matched_idx[abs_corr == 0.0]] = fallback

    network = WeightedNetwork.from_arrays(ppi.num_vertices, src, dst, weights)
    return BuildResult(
        network=network,
        matching=matching,
        fallback_weight=fallback,
        matched_edge_count=int(matched_idx.size),
        unmatched_edge_count=int(src.size - matched_idx.size),
        zero_variance_edge_count=zero_variance_edges,
    )
