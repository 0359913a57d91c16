import numpy as np
import pytest

from wppi.model import WeightedNetwork


def weighted(n, edges):
    """A WeightedNetwork from (i, j, weight) tuples."""
    src, dst, weights = zip(*edges) if edges else ((), (), ())
    return WeightedNetwork(n, src, dst, weights)


@pytest.fixture
def two_triangles():
    """Two unit-weight triangles joined by one weak bridge (2-3)."""
    edges = [
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
        (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
        (2, 3, 0.1),
    ]
    return weighted(6, edges)


@pytest.fixture
def star_half():
    """Three leaves around vertex 0, every edge 0.5."""
    return weighted(4, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)])


def random_network(seed, n=40, p=0.12, w_lo=0.05, w_hi=1.0):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, float(rng.uniform(w_lo, w_hi))))
    if not edges:
        edges = [(0, 1, 0.5)]
    return weighted(n, edges)
