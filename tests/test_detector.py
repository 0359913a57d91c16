import numpy as np
import pytest

from wppi.detector import (
    HubConfig,
    community_modularity,
    compress,
    connectivity,
    delta_modularity,
    detect,
    functional_cohesion,
    interaction_intensity,
    mean_weighted_degree,
    move_gain,
    select_hubs,
    stage1_agglomerate,
    stage2_refine,
    weighted_degree,
)
from wppi.model import Partition, WeightedNetwork
from wppi.synthetic import planted_partition

from .conftest import random_network
from .oracles import (
    cohesion_direct,
    community_q_direct,
    compress_direct,
    interaction_intensity_direct,
    weighted_degree_direct,
)


class TestWeightedDegree:
    def test_isolated_vertex(self):
        net = WeightedNetwork(3, [(0, 1, 0.7)])
        assert weighted_degree(net, 2) == 0.0

    def test_star_center(self, star_half):
        assert weighted_degree(star_half, 0) == pytest.approx(
            weighted_degree_direct(star_half.edges(), 0))
        assert weighted_degree(star_half, 0) == pytest.approx(1.5)

    def test_star_leaf(self, star_half):
        assert weighted_degree(star_half, 1) == 0.5


class TestSelectHubs:
    def test_mean_threshold_picks_strictly_above(self):
        # degrees [1, 1, 4, 1, 1], mean 1.6: only the center clears it
        net = WeightedNetwork(5, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)])
        assert mean_weighted_degree(net) == pytest.approx(1.6)
        seeds = select_hubs(net)
        assert [next(iter(m)) for m in seeds.communities.values()] == [2]

    def test_degenerate_all_equal_seeds_everyone(self):
        net = WeightedNetwork(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        seeds = select_hubs(net)
        assert len(seeds.communities) == 3

    def test_empty_threshold_above_max_seeds_everyone(self, two_triangles):
        seeds = select_hubs(two_triangles, HubConfig(hub_threshold=100.0))
        assert len(seeds.communities) == two_triangles.num_vertices

    def test_bridge_endpoints_are_the_hubs(self, two_triangles):
        seeds = select_hubs(two_triangles)
        seeded = {next(iter(m)) for m in seeds.communities.values()}
        assert seeded == {2, 3}

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty network"):
            WeightedNetwork(0, [])


class TestCommunityModularity:
    def test_isolated_community_saturates(self):
        net = WeightedNetwork(2, [(0, 1, 1.0)])
        part = Partition.from_communities(net, [[0, 1]])
        assert community_modularity(part, 0) == pytest.approx(2.0 / 1e-12)

    def test_triangle_with_one_outgoing_edge(self):
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        net = WeightedNetwork(4, edges)
        part = Partition.from_communities(net, [[0, 1, 2], [3]])
        assert community_modularity(part, 0) == pytest.approx(6.0)
        assert community_modularity(part, 0) == pytest.approx(
            community_q_direct(edges, [0, 1, 2]))

    def test_balanced_community_is_one(self):
        # internal weight 1.0 counted twice = 2.0; external 2 x 1.0
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
        net = WeightedNetwork(4, edges)
        part = Partition.from_communities(net, [[0, 1], [2], [3]])
        assert community_modularity(part, 0) == pytest.approx(1.0)

    def test_empty_community_rejected(self, two_triangles):
        part = Partition(two_triangles)
        with pytest.raises(ValueError, match="empty community"):
            community_modularity(part, 0)


class TestDeltaModularity:
    def test_pure_insider_gains(self):
        # vertex 3 only connects into the community
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 0.8), (1, 3, 0.7)]
        net = WeightedNetwork(4, edges)
        part = Partition.from_communities(net, [[0, 1, 2], [3]])
        assert delta_modularity(part, 0, 3) > 0

    def test_non_adjacent_vertex_rejected(self):
        net = WeightedNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
        part = Partition.from_communities(net, [[0, 1], [2], [3]])
        with pytest.raises(ValueError, match="not adjacent"):
            delta_modularity(part, 0, 2)

    def test_member_rejected(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ValueError, match="already in community"):
            delta_modularity(part, 0, 1)

    def test_incremental_matches_recompute_over_fuzz(self):
        rng = np.random.default_rng(5)
        net = random_network(17, n=30, p=0.2)
        part = Partition(net)
        ids = [part.new_community(v) for v in range(0, 30, 4)]
        checked = 0
        for _ in range(1000):
            v = int(rng.integers(30))
            k = ids[int(rng.integers(len(ids)))]
            if k not in part.communities or part.assignment[v] == k:
                continue
            members = part.communities[k]
            idx, _ = net.neighbors(v)
            if not any(int(u) in members for u in idx):
                continue
            inc = delta_modularity(part, k, v)
            before = community_q_direct(net.edges(), members)
            after = community_q_direct(net.edges(), members | {v})
            assert inc == pytest.approx(after - before, abs=1e-9)
            part.move(v, k)
            checked += 1
        assert checked > 200


class TestStage1:
    def test_two_triangles_recovered(self, two_triangles):
        seeds = select_hubs(two_triangles)
        result = stage1_agglomerate(two_triangles, seeds)
        groups = sorted(sorted(m) for m in result.partition.communities.values())
        assert groups == [[0, 1, 2], [3, 4, 5]]

    def test_two_triangles_locally_optimal(self, two_triangles):
        result = stage1_agglomerate(two_triangles, select_hubs(two_triangles))
        part = result.partition
        for k in result.seeded_ids:
            members = part.communities[k]
            neighbors = set()
            for m in members:
                idx, _ = two_triangles.neighbors(m)
                neighbors.update(int(u) for u in idx)
            for v in sorted(neighbors - members):
                assert move_gain(part, k, v) <= 1e-12

    def test_complete_graph_collapses_to_one_community(self):
        net = WeightedNetwork(6, [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)])
        result = stage1_agglomerate(net, select_hubs(net))
        assert len(result.partition.communities) == 1

    def test_isolated_vertex_becomes_singleton(self):
        net = WeightedNetwork(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        result = stage1_agglomerate(net, select_hubs(net))
        assert result.partition.communities[result.partition.assignment[3]] == {3}
        assert 3 in result.promoted_vertices

    def test_partition_total_after_finalize(self):
        for seed in range(5):
            net = random_network(seed, n=50, p=0.08)
            result = stage1_agglomerate(net, select_hubs(net))
            assert result.partition.is_total()
            assert result.partition.cache_drift() < 1e-9


class TestCompress:
    def test_singleton_partition_is_isomorphic(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[v] for v in range(6)])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 6
        assert [(i, j, w) for i, j, w in comp.edges] == two_triangles.edges()
        assert np.all(comp.self_weights == 0.0)

    def test_two_triangles_compression(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 2
        assert comp.edges == [(0, 1, pytest.approx(0.1))]
        assert comp.degrees[0] == pytest.approx(6.1)
        assert comp.degrees[1] == pytest.approx(6.1)
        assert comp.self_weights[0] == pytest.approx(3.0)
        degrees, selfs, cross = compress_direct(
            two_triangles.edges(), 6, [[0, 1, 2], [3, 4, 5]])
        assert list(comp.degrees) == pytest.approx(degrees)
        assert list(comp.self_weights) == pytest.approx(selfs)

    def test_whole_graph_one_supervertex(self, two_triangles):
        part = Partition.from_communities(two_triangles, [list(range(6))])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 1
        assert comp.edges == []
        assert comp.self_weights[0] == pytest.approx(6.1)

    def test_degree_conservation(self):
        for seed in range(6):
            net = random_network(seed + 40, n=60, p=0.1)
            result = stage1_agglomerate(net, select_hubs(net))
            comp = compress(net, result.partition)
            total_original = sum(net.weighted_degree(v) for v in range(net.num_vertices))
            assert float(np.sum(comp.degrees)) == pytest.approx(total_original, abs=1e-9)

    def test_partial_partition_rejected(self, two_triangles):
        part = Partition(two_triangles)
        part.new_community(0)
        with pytest.raises(ValueError, match="total"):
            compress(two_triangles, part)


class TestCohesionMetrics:
    def test_connectivity_six_vertices_six_edges(self):
        assert connectivity(6, 6) == pytest.approx(0.4)

    def test_connectivity_pair(self):
        assert connectivity(2, 1) == 1.0

    def test_connectivity_complete_four(self):
        assert connectivity(4, 6) == 1.0

    def test_connectivity_singleton_rejected(self):
        with pytest.raises(ValueError, match="undefined for singleton"):
            connectivity(1, 0)

    def _ring_with_spokes(self):
        """Six super-vertices in a cycle plus two external spokes each."""
        inner = 2.12 / 6
        outer = 1.4 / 12
        edges = []
        for k in range(6):
            edges.append((k, (k + 1) % 6, inner))
        ext = 6
        for k in range(6):
            edges.append((k, ext, outer))
            edges.append((k, ext + 1, outer))
            ext += 2
        net = WeightedNetwork(18, edges)
        part = Partition.from_communities(net, [[v] for v in range(18)])
        return compress(net, part)

    def test_interaction_intensity_reference_case(self):
        comp = self._ring_with_spokes()
        ii = interaction_intensity(comp, range(6))
        assert ii == pytest.approx(2 * 2.12 / 1.41, abs=1e-9)
        assert 3.00 <= ii <= 3.01

    def test_cohesion_reference_case(self):
        comp = self._ring_with_spokes()
        fc = functional_cohesion(comp, range(6))
        assert fc == pytest.approx(0.4 * 2 * 2.12 / 1.41, abs=1e-9)
        assert 1.20 <= fc <= 1.21

    def test_closed_pair_intensity_is_one(self):
        net = WeightedNetwork(2, [(0, 1, 0.7)])
        part = Partition.from_communities(net, [[0], [1]])
        comp = compress(net, part)
        assert interaction_intensity(comp, [0, 1]) == pytest.approx(1.0)
        assert functional_cohesion(comp, [0, 1]) == pytest.approx(1.0)

    def test_against_direct_formula_on_random_graph(self):
        rng = np.random.default_rng(9)
        n = 8
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    edges.append((i, j, float(rng.uniform(0.1, 1.0))))
        net = WeightedNetwork(n, edges)
        part = Partition.from_communities(net, [[v] for v in range(n)])
        comp = compress(net, part)
        members = [0, 2, 3, 5]
        expected = interaction_intensity_direct(edges, members)
        assert interaction_intensity(comp, members) == pytest.approx(expected, abs=1e-12)
        assert functional_cohesion(comp, members) == pytest.approx(
            cohesion_direct(edges, members), abs=1e-12)

    def test_isolated_super_vertex_rejected(self):
        net = WeightedNetwork(3, [(0, 1, 0.5)])
        part = Partition.from_communities(net, [[0], [1], [2]])
        comp = compress(net, part)
        with pytest.raises(ValueError, match="isolated super-vertex"):
            interaction_intensity(comp, [0, 2])


class TestStage2:
    def _compressed_triangles(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        return compress(two_triangles, part)

    def test_high_threshold_keeps_everything_separate(self, two_triangles):
        comp = self._compressed_triangles(two_triangles)
        result = stage2_refine(comp, HubConfig(cohesion_threshold=1e6))
        assert sorted(len(g) for g in result.groups.values()) == [1, 1]

    def test_tiny_threshold_merges_closed_pair(self, two_triangles):
        comp = self._compressed_triangles(two_triangles)
        result = stage2_refine(comp, HubConfig(cohesion_threshold=1e-9))
        assert sorted(len(g) for g in result.groups.values()) == [2]

    def test_default_threshold_keeps_triangles_apart(self, two_triangles):
        comp = self._compressed_triangles(two_triangles)
        assert functional_cohesion(comp, [0, 1]) == pytest.approx(1.0)
        result = stage2_refine(comp, HubConfig(cohesion_threshold=2.0))
        assert sorted(len(g) for g in result.groups.values()) == [1, 1]


class TestDetect:
    def test_single_edge_graph(self):
        # an isolated pair saturates stage-1 modularity, so it always merges
        net = WeightedNetwork(2, [(0, 1, 0.9)])
        for lam in (2.0, 0.5):
            result = detect(net, HubConfig(cohesion_threshold=lam))
            assert [len(c.vertices) for c in result.communities] == [2]

    def test_planted_blocks_recovered(self):
        syn = planted_partition([10, 10], seed=123)
        result = detect(syn.network, HubConfig(cohesion_threshold=2.0))
        found = sorted(sorted(c.vertices) for c in result.communities)
        assert found == [list(range(10)), list(range(10, 20))]

    def test_every_vertex_covered_once(self):
        for seed in range(4):
            net = random_network(seed + 60, n=45, p=0.1)
            result = detect(net)
            seen = sorted(v for c in result.communities for v in c.vertices)
            assert seen == list(range(net.num_vertices))

    def test_reports_carry_metrics(self, two_triangles):
        result = detect(two_triangles, HubConfig(cohesion_threshold=0.5))
        assert all(c.modularity >= 0 for c in result.communities)
        for c in result.communities:
            if c.functional_cohesion is not None:
                assert c.functional_cohesion >= 0.5

    def test_one_vertex_graph_is_one_singleton(self):
        result = detect(WeightedNetwork(1, []))
        assert [c.vertices for c in result.communities] == [[0]]

    def test_deterministic_across_threads(self):
        syn = planted_partition([8, 8, 8], w_out=(0.0, 0.2), seed=5)
        base = detect(syn.network, threads=1)
        for threads in (2, 4):
            other = detect(syn.network, threads=threads)
            assert [c.vertices for c in other.communities] == \
                [c.vertices for c in base.communities]
            assert [c.modularity for c in other.communities] == \
                [c.modularity for c in base.communities]

class TestScaleInvariance:
    def test_stage1_output_unchanged_by_positive_scaling(self):
        for seed in (3, 11, 29):
            net = random_network(seed, n=35, p=0.15, w_lo=0.1, w_hi=0.5)
            base = stage1_agglomerate(net, select_hubs(net))
            base_groups = sorted(sorted(m) for m in base.partition.communities.values())
            for alpha in (0.5, 2.0):
                scaled = WeightedNetwork.from_arrays(
                    net.num_vertices, net.edge_src, net.edge_dst, net.edge_weight * alpha)
                result = stage1_agglomerate(scaled, select_hubs(scaled))
                groups = sorted(sorted(m) for m in result.partition.communities.values())
                assert groups == base_groups
