"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from wppi.builder import build_wppi
from wppi.cli import main as cli_main
from wppi.detector import (
    HubConfig,
    compress,
    connectivity,
    delta_modularity,
    detect,
    functional_cohesion,
    interaction_intensity,
    move_gain,
    select_hubs,
    stage1_agglomerate,
)
from wppi.evaluator import hypergeom_pvalue, overlap_score, recall_ratio
from wppi.expression import ExpressionMatrix, pearson
from wppi.model import Partition, WeightedNetwork
from wppi.synthetic import planted_partition

from .conftest import random_network
from .oracles import (
    cache_drift,
    hypergeom_tail_enumerated,
    hypergeom_tail_exact,
    pearson_direct,
)

DATA = Path(__file__).parent / "data"


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d}: {text} -- PASS")


@pytest.fixture(scope="module")
def fuzz_graphs():
    """100 seeded random weighted graphs (up to 300 vertices) with stage-1 runs."""
    sizes = [30, 45, 60, 80, 100] * 18 + [150, 180, 200, 220, 240, 260, 280, 300,
                                          300, 300]
    assert len(sizes) == 100
    out = []
    for seed, n in enumerate(sizes):
        net = random_network(seed, n=n, p=min(0.3, 6.0 / n))
        result = stage1_agglomerate(net, select_hubs(net))
        out.append((net, result))
    return out


def test_criterion_01_cohesion_fixtures():
    started = time.perf_counter()
    assert connectivity(6, 6) == 0.4

    # six super-vertices in a cycle (internal sum 2.12) with two external
    # spokes each (total 1.4), so the member mean-neighbor weights sum to 1.41
    inner = 2.12 / 6
    outer = 1.4 / 12
    edges = [(k, (k + 1) % 6, inner) for k in range(6)]
    ext = 6
    for k in range(6):
        edges.append((k, ext, outer))
        edges.append((k, ext + 1, outer))
        ext += 2
    net = WeightedNetwork(18, edges)
    comp = compress(net, Partition.from_communities(net, [[v] for v in range(18)]))
    members = list(range(6))
    mnw_sum = sum(float(comp.mean_neighbor_weight[v]) for v in members)
    assert mnw_sum == pytest.approx(1.41, abs=1e-12)

    ii = interaction_intensity(comp, members)
    fc = functional_cohesion(comp, members)
    assert 3.00 <= ii <= 3.01
    assert 1.20 <= fc <= 1.21
    assert fc == pytest.approx(ii * 0.4, abs=1e-12)
    # reported composition fixture: intensity 2.43 at full connectivity
    assert 2.43 * connectivity(2, 1) == pytest.approx(2.43)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"cohesion fixtures (II={ii:.4f}, FC={fc:.4f}, {elapsed:.3f}s)")


def test_criterion_02_overlap_conventions():
    pc = {"YNG2", "EAF1", "ESA1"}
    kc = {"YNG2", "EAF1", "ESA1", "EPL1", "EAF3", "TRA1"}
    assert overlap_score(pc, kc) == 0.50

    kc8 = {f"K{i}" for i in range(8)}
    pc3 = set(list(kc8)[:3]) | {"extra1", "extra2", "extra3"}
    assert recall_ratio(pc3, kc8) == 0.375
    report(2, "overlap score 0.50 and recall 0.375 reproduce exactly")


def test_criterion_03_pearson_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        a = rng.normal(0, rng.uniform(0.5, 3.0), size=m)
        b = rng.normal(0, rng.uniform(0.5, 3.0), size=m)
        got = pearson(a, b)
        expected = pearson_direct(a.tolist(), b.tolist())
        assert abs(got - expected) <= 1e-12

    for _ in range(200):
        m = int(rng.integers(3, 40))
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        alpha = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(-5.0, 5.0))
        base = pearson(a, b)
        assert pearson(alpha * a + beta, b) == pytest.approx(base, abs=1e-10)
        assert pearson(-alpha * a + beta, b) == pytest.approx(-base, abs=1e-10)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, f"1000 correlation pairs within 1e-12 of the oracle ({elapsed:.2f}s)")


def test_criterion_04_hypergeometric_exactness():
    started = time.perf_counter()
    assert hypergeom_pvalue(10, 4, 5, 3) == pytest.approx(55 / 210, abs=1e-12)
    assert hypergeom_tail_enumerated(10, 4, 5, 3) == pytest.approx(55 / 210, abs=1e-12)

    checked = 0
    for population in range(1, 21):
        for community in range(population + 1):
            for group in range(population + 1):
                for overlap in range(min(community, group) + 1):
                    expected = hypergeom_tail_exact(population, community,
                                                    group, overlap)
                    got = hypergeom_pvalue(population, community, group, overlap)
                    assert math.isclose(got, expected, abs_tol=1e-10), (
                        population, community, group, overlap)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"hypergeometric exact on {checked} cases up to population 20 "
              f"({elapsed:.1f}s)")


def test_criterion_05_stage1_local_optimality(fuzz_graphs):
    # no appendable vertex improves the summed modularity at termination
    scanned = 0
    for net, result in fuzz_graphs:
        part = result.partition
        for k in result.seeded_ids:
            members = part.communities[k]
            neighbors = set()
            for m in members:
                idx, _ = net.neighbors(m)
                neighbors.update(int(u) for u in idx)
            for v in sorted(neighbors.difference(members)):
                assert move_gain(part, k, v) <= 1e-9
                scanned += 1

    # incremental delta vs from-scratch recomputation across a 10,000-move fuzz
    from .oracles import community_q_direct

    net = random_network(777, n=50, p=0.15)
    edges = net.edges()
    part = Partition(net)
    ids = [part.new_community(v) for v in range(0, 50, 5)]
    rng = np.random.default_rng(777)
    moves = 0
    while moves < 10_000:
        v = int(rng.integers(50))
        k = ids[int(rng.integers(len(ids)))]
        if k not in part.communities or part.assignment[v] == k:
            continue
        members = part.communities[k]
        idx, _ = net.neighbors(v)
        if not any(int(u) in members for u in idx):
            continue
        inc = delta_modularity(part, k, v)
        brute = community_q_direct(edges, {*members, v}) - \
            community_q_direct(edges, members)
        assert abs(inc - brute) <= 1e-9
        part.move(v, k)
        moves += 1
    assert cache_drift(part) <= 1e-9
    report(5, f"local optimality holds over {scanned} candidate joins; "
              f"10,000-move fuzz stays within 1e-9")


def test_criterion_06_compression_conservation(fuzz_graphs):
    for net, result in fuzz_graphs:
        comp = compress(net, result.partition)
        total_super = float(np.sum(comp.degrees))
        total = sum(net.weighted_degree(v) for v in range(net.num_vertices))
        assert abs(total_super - total) <= 1e-9
    report(6, f"degree conservation within 1e-9 on {len(fuzz_graphs)} fuzz graphs")


def test_criterion_07_planted_partition_recovery():
    recovered = 0
    truth = [list(range(10)), list(range(10, 20))]
    for seed in range(100):
        syn = planted_partition([10, 10], w_in=(0.8, 1.0), w_out=(0.0, 0.1),
                                seed=seed)
        result = detect(syn.network, HubConfig(cohesion_threshold=2.0))
        found = sorted(sorted(c.vertices) for c in result.communities)
        if found == truth:
            recovered += 1
    assert recovered >= 95
    report(7, f"planted blocks recovered exactly on {recovered}/100 seeds")


def test_criterion_08_determinism_and_parallel_equivalence(tmp_path):
    outputs = {}
    for tag, threads in [("t1", 1), ("t2", 2), ("t4", 4), ("t8", 8), ("again", 1)]:
        out = tmp_path / tag
        code = cli_main(["pipeline", "--ppi", str(DATA / "toy_ppi.tsv"),
                         "--ged", str(DATA / "toy_ged.tsv"),
                         "--threads", str(threads), "--output", str(out)])
        assert code == 0
        outputs[tag] = ((out / "communities.tsv").read_bytes(),
                        (out / "wppi.tsv").read_bytes())
    reference = outputs["t1"]
    for tag, pair in outputs.items():
        assert pair[0] == reference[0], f"communities differ for {tag}"
        assert pair[1] == reference[1], f"weighted network differs for {tag}"
    report(8, "pipeline output byte-identical across 1/2/4/8 threads and reruns")


def test_criterion_09_scaling_documented():
    # soft criterion: measured and reported, never gated. The reference
    # target (>= 2x at 4 threads) presumes at least 4 physical cores.
    syn = planted_partition([220, 230], w_out=(0.0, 0.2), seed=9)
    ppi = syn.ppi
    assert ppi.edge_count >= 100_000
    rng = np.random.default_rng(9)
    samples = 256
    values = rng.normal(size=(ppi.num_vertices, samples))
    matrix = ExpressionMatrix(
        gene_index={lbl: i for i, lbl in enumerate(syn.proteins.labels)},
        values=values,
        sample_names=[f"S{k}" for k in range(samples)],
    )

    def timed(threads):
        best = math.inf
        result = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = build_wppi(syn.proteins, ppi, matrix, threads=threads)
            best = min(best, time.perf_counter() - t0)
        return best, result

    serial_time, serial = timed(1)
    quad_time, quad = timed(4)
    assert [w for _, _, w in quad.network.edges()] == \
        [w for _, _, w in serial.network.edges()]
    speedup = serial_time / quad_time if quad_time > 0 else float("inf")
    cores = os.cpu_count() or 1
    report(9, f"{ppi.edge_count}-edge build: 4-thread speedup {speedup:.2f}x "
              f"on {cores} cores (soft target 2x on >= 4 cores; "
              f"serial {serial_time:.3f}s, parallel {quad_time:.3f}s)")


def test_criterion_10_published_scale_fixtures():
    # Cluster-scale counts are out of desk-scale reach by design; the stated
    # replacement is the property suites plus these format-level fixtures.
    rows = []
    for line in (DATA / "known_complex_overlaps.tsv").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, network, kc, pc, ov, printed = line.split("\t")
        rows.append((name, network, int(kc), int(pc), int(ov), float(printed)))
    assert len(rows) == 12
    for name, network, kc_size, pc_size, ov, printed in rows:
        kc = {f"{name}:{i}" for i in range(kc_size)}
        pc = set(list(kc)[:ov]) | {f"{name}:x{i}" for i in range(pc_size - ov)}
        assert len(pc) == pc_size
        got = 100.0 * recall_ratio(pc, kc)
        assert got == pytest.approx(printed, abs=0.005), name
    # one row doubles as a squared-overlap fixture (both conventions agree)
    assert overlap_score({"a", "b", "c"},
                         {"a", "b", "c", "d", "e", "f"}) == 0.5

    # enrichment report format: scientific-notation p-values
    p = hypergeom_pvalue(200, 4, 6, 3)
    rendered = f"{p:.2E}"
    assert "E-" in rendered and len(rendered.split("E-")[1]) == 2
    report(10, "published tables covered by format fixtures; "
               "cluster-scale counts documented as not reproducible at desk scale")
