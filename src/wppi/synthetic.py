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
    if not block_sizes or any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    for lo, hi in (w_in, w_out):
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("weight ranges must satisfy 0 <= low <= high <= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):  # NaN fails too
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
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
        raise ValueError("insufficient samples")
    rng = np.random.default_rng(seed + 1)
    n = synthetic.network.num_vertices
    values = np.empty((n, samples), dtype=np.float64)
    for block in synthetic.blocks:
        profile = rng.normal(0.0, 1.0, size=samples)
        for v in block:
            values[v] = profile + rng.normal(0.0, noise, size=samples)
    return synthetic.proteins.labels, values
