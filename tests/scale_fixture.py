"""Seeded planted-block networks for detector scaling runs.

By default, blocks of 20 vertices, each in-block pair an edge with
probability 0.4 and weight U(0.4, 1), plus about 2n cross-block edges of
weight U(0, 0.5) between uniformly drawn vertex pairs. At n = 32,000 that is
about 185k edges. ``--dense`` uses blocks of 100, p_in 0.5 and 10 cross
pairs per vertex: 277,204 edges at n = 8,000, seed 0.

    python tests/scale_fixture.py [N [seed [lambda]]] [--dense] [--hub-percentile P]

runs ``detect``'s stages one by one on that network (N defaults to 32,000,
or 8,000 with ``--dense``) and prints the wall time and the process's peak
RSS after each stage, with stage 1's sweeps, evaluations, moves and steals.
Hubs are the vertices above the mean weighted degree, or above its P-th
percentile with ``--hub-percentile P``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wppi import detector  # noqa: E402
from wppi.model import WeightedNetwork  # noqa: E402

DENSE = dict(block_size=100, p_in=0.5, cross_per_vertex=10)


def scale_network(n: int, seed: int = 0, block_size: int = 20, p_in: float = 0.4,
                  cross_per_vertex: int = 2):
    """(network, block of each vertex) for n vertices; n need not divide by block_size.

    Cross pairs are drawn uniformly; those inside one block are dropped and
    repeats kept once.
    """
    rng = np.random.default_rng(seed)
    block = np.arange(n, dtype=np.int64) // block_size
    iu, ju = np.triu_indices(block_size, 1)
    starts = np.arange(0, n, block_size, dtype=np.int64)[:, None]
    src = (starts + iu).ravel()
    dst = (starts + ju).ravel()
    inside = (dst < n) & (rng.random(src.size) < p_in)
    src, dst = src[inside], dst[inside]

    pairs = rng.integers(0, n, size=(cross_per_vertex * n, 2), dtype=np.int64)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keep = block[lo] != block[hi]
    key = np.unique(lo[keep] * n + hi[keep])

    weights = np.concatenate([rng.uniform(0.4, 1.0, src.size),
                              rng.uniform(0.0, 0.5, key.size)])
    network = WeightedNetwork.from_arrays(n, np.concatenate([src, key // n]),
                                          np.concatenate([dst, key % n]), weights)
    return network, block


def _main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time detect's stages on a planted network.")
    parser.add_argument("n", type=int, nargs="?")
    parser.add_argument("seed", type=int, nargs="?", default=0)
    parser.add_argument("lam", type=float, nargs="?",
                        default=detector.HubConfig().cohesion_threshold)
    parser.add_argument("--dense", action="store_true",
                        help="blocks of 100, p_in 0.5, 10 cross pairs per vertex")
    parser.add_argument("--hub-percentile", type=float, metavar="P",
                        help="seed above this percentile of weighted degree")
    args = parser.parse_args(argv)
    shape = DENSE if args.dense else {}
    n = args.n if args.n is not None else 8_000 if args.dense else 32_000
    seed, lam = args.seed, args.lam

    def report(stage: str, seconds: float, detail: str = "") -> None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{stage:<10} {seconds:8.3f} s  peak RSS {rss:7.1f} MB  {detail}", flush=True)

    start = time.perf_counter()
    network, _ = scale_network(n, seed, **shape)
    report("generate", time.perf_counter() - start,
           f"n={network.num_vertices} edges={network.edge_count} seed={seed}")
    total = time.perf_counter()
    start = time.perf_counter()
    if args.hub_percentile is None:
        threshold = detector.mean_weighted_degree(network)
    else:
        threshold = float(np.percentile(network.degrees, args.hub_percentile))
    config = detector.HubConfig(hub_threshold=threshold, cohesion_threshold=lam)
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
