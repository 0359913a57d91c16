"""Seeded planted-block network for detector scaling runs.

Blocks of 20 vertices, each in-block pair an edge with probability 0.4 and
weight U(0.4, 1), plus about 2n cross-block edges of weight U(0, 0.5) between
uniformly drawn vertex pairs. At n = 32,000 that is about 185k edges.

    python tests/scale_fixture.py 32000 [seed] [lambda]

runs ``detect``'s stages one by one on that network and prints the wall
time and the process's peak RSS after each stage, with stage 1's sweeps,
evaluations, moves and steals.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wppi import detector  # noqa: E402
from wppi.model import WeightedNetwork  # noqa: E402

BLOCK = 20
P_IN = 0.4
CROSS_PER_VERTEX = 2


def scale_network(n: int, seed: int = 0):
    """(network, block of each vertex) for n vertices; n need not divide by 20."""
    rng = np.random.default_rng(seed)
    block = np.arange(n, dtype=np.int64) // BLOCK
    iu, ju = np.triu_indices(BLOCK, 1)
    starts = np.arange(0, n, BLOCK, dtype=np.int64)[:, None]
    src = (starts + iu).ravel()
    dst = (starts + ju).ravel()
    inside = (dst < n) & (rng.random(src.size) < P_IN)
    src, dst = src[inside], dst[inside]

    pairs = rng.integers(0, n, size=(CROSS_PER_VERTEX * n, 2), dtype=np.int64)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keep = block[lo] != block[hi]
    key = np.unique(lo[keep] * n + hi[keep])

    weights = np.concatenate([rng.uniform(0.4, 1.0, src.size),
                              rng.uniform(0.0, 0.5, key.size)])
    network = WeightedNetwork.from_arrays(n, np.concatenate([src, key // n]),
                                          np.concatenate([dst, key % n]), weights)
    return network, block


def _main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 32_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    lam = float(argv[2]) if len(argv) > 2 else detector.HubConfig().cohesion_threshold

    def report(stage: str, seconds: float, detail: str = "") -> None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{stage:<10} {seconds:8.3f} s  peak RSS {rss:7.1f} MB  {detail}", flush=True)

    start = time.perf_counter()
    network, _ = scale_network(n, seed)
    report("generate", time.perf_counter() - start,
           f"n={network.num_vertices} edges={network.edge_count} seed={seed}")
    total = time.perf_counter()
    start = time.perf_counter()
    config = detector.HubConfig(
        hub_threshold=detector.mean_weighted_degree(network), cohesion_threshold=lam)
    seeds = detector.select_hubs(network, config)
    report("hubs", time.perf_counter() - start, f"hubs={len(seeds.communities)}")
    start = time.perf_counter()
    stage1 = detector.stage1_agglomerate(network, seeds, config)
    report("stage 1", time.perf_counter() - start,
           f"sweeps={stage1.sweeps} evaluations={stage1.evaluations} "
           f"moves={stage1.moves} steals={stage1.steals} "
           f"communities={len(stage1.partition.communities)}")
    start = time.perf_counter()
    compressed = detector.compress(network, stage1.partition)
    report("compress", time.perf_counter() - start)
    start = time.perf_counter()
    stage2 = detector.stage2_refine(compressed, config)
    report("stage 2", time.perf_counter() - start,
           f"lambda={lam} passes={stage2.passes} groups={len(stage2.groups)}")
    report("stages", time.perf_counter() - total)
    start = time.perf_counter()
    result = detector.detect(network, config)
    report("detect", time.perf_counter() - start, f"communities={len(result.communities)}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
