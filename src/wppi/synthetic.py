"""Seeded synthetic networks with planted community structure.

Used by the acceptance suite and the ``gen-synthetic`` command; real
interaction databases are not redistributable, so ground-truth graphs are
generated instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PpiNetwork, ProteinIndex, WeightedNetwork


@dataclass
class SyntheticNetwork:
    proteins: ProteinIndex
    network: WeightedNetwork
    blocks: list[list[int]]

    @property
    def ppi(self) -> PpiNetwork:
        net = self.network
        return PpiNetwork(net.num_vertices, net.edge_src, net.edge_dst)


def check_probability(p: float) -> float:
    """``p`` if it lies in [0, 1]; NaN fails the test too."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probabilities must lie in [0, 1]")
    return p


def check_weight_range(pair: tuple[float, float]) -> tuple[float, float]:
    """``pair`` if it is a range (low, high) with 0 <= low <= high <= 1."""
    if len(pair) != 2 or not 0.0 <= pair[0] <= pair[1] <= 1.0:
        raise ValueError("weight ranges must be pairs (low, high) with 0 <= low <= high <= 1")
    return pair


def check_block_sizes(sizes: list[int]) -> list[int]:
    """``sizes`` if it names at least one block and every size is >= 1."""
    if not sizes or any(b < 1 for b in sizes):
        raise ValueError("block sizes must be one or more integers >= 1")
    return sizes


def check_seed(seed: int) -> int:
    """``seed`` if it is >= 0, as numpy's ``default_rng`` requires."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def planted_partition(block_sizes: list[int],
                      w_in: tuple[float, float] = (0.8, 1.0),
                      w_out: tuple[float, float] = (0.0, 0.1),
                      p_in: float = 1.0,
                      p_out: float = 1.0,
                      seed: int = 0) -> SyntheticNetwork:
    """Weighted graph with dense heavy blocks and light cross-block edges.

    Every vertex pair is visited in ascending order with a fixed RNG call
    pattern, so a given seed always yields the same graph.
    """
    block_sizes = check_block_sizes(block_sizes)
    w_in, w_out = check_weight_range(w_in), check_weight_range(w_out)
    p_in, p_out = check_probability(p_in), check_probability(p_out)
    rng = np.random.default_rng(check_seed(seed))
    n = sum(block_sizes)
    block_of = np.empty(n, dtype=np.int64)
    blocks: list[list[int]] = []
    start = 0
    for b, size in enumerate(block_sizes):
        block_of[start:start + size] = b
        blocks.append(list(range(start, start + size)))
        start += size

    edges: list[tuple[int, int, float]] = []
    for i in range(n):
        for j in range(i + 1, n):
            same = block_of[i] == block_of[j]
            p = p_in if same else p_out
            lo, hi = w_in if same else w_out
            keep = rng.random() < p if p < 1.0 else True
            if keep:
                edges.append((i, j, float(rng.uniform(lo, hi))))
    labels = [f"P{i:04d}" for i in range(n)]
    proteins = ProteinIndex(labels)
    return SyntheticNetwork(proteins=proteins,
                            network=WeightedNetwork(n, edges),
                            blocks=blocks)


def block_expression(synthetic: SyntheticNetwork, samples: int,
                     noise: float = 0.15, seed: int = 0) -> tuple[list[str], np.ndarray]:
    """Expression rows whose correlation mirrors the planted block structure.

    Each block shares a latent profile; member rows are the profile plus
    independent noise, so within-block correlation is high and cross-block
    correlation is near zero.
    """
    if samples < 2:
        raise ValueError("insufficient samples (need at least 2)")
    rng = np.random.default_rng(seed + 1)
    n = synthetic.network.num_vertices
    values = np.empty((n, samples), dtype=np.float64)
    for block in synthetic.blocks:
        profile = rng.normal(0.0, 1.0, size=samples)
        for v in block:
            values[v] = profile + rng.normal(0.0, noise, size=samples)
    return synthetic.proteins.labels, values
