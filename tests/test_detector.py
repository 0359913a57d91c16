import hashlib

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
)
from wppi.model import Partition, WeightedNetwork
from wppi.synthetic import planted_partition

from .conftest import random_network, weighted
from .scale_fixture import DENSE, _main as scale_fixture_main, scale_network
from .oracles import (
    cache_drift,
    cohesion_direct,
    cohesion_pair_walk,
    community_q_direct,
    compress_direct,
    compress_loop,
    interaction_intensity_direct,
    stage1_reference,
    stage2_reference,
    super_edges,
    weighted_degree_direct,
)


class TestWeightedDegree:
    def test_isolated_vertex(self):
        net = weighted(3, [(0, 1, 0.7)])
        assert net.weighted_degree(2) == 0.0

    def test_star_center(self, star_half):
        assert star_half.weighted_degree(0) == pytest.approx(
            weighted_degree_direct(star_half.edges(), 0))
        assert star_half.weighted_degree(0) == pytest.approx(1.5)

    def test_star_leaf(self, star_half):
        assert star_half.weighted_degree(1) == 0.5


class TestSelectHubs:
    def test_mean_threshold_picks_strictly_above(self):
        # degrees [1, 1, 4, 1, 1], mean 1.6: only the center clears it
        net = weighted(5, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)])
        assert mean_weighted_degree(net) == pytest.approx(1.6)
        seeds = select_hubs(net)
        assert [next(iter(m)) for m in seeds.communities.values()] == [2]

    def test_degenerate_all_equal_seeds_everyone(self):
        net = weighted(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        seeds = select_hubs(net)
        assert len(seeds.communities) == 3

    def test_empty_threshold_above_max_seeds_everyone(self, two_triangles):
        seeds = select_hubs(two_triangles, HubConfig(hub_threshold=100.0))
        assert len(seeds.communities) == two_triangles.num_vertices

    @pytest.mark.parametrize("kwargs, rule", [
        ({"hub_threshold": float("nan")}, "hub threshold must be >= 0"),
        ({"hub_threshold": -1.0}, "hub threshold must be >= 0"),
        ({"cohesion_threshold": 0.0}, "cohesion threshold must be > 0"),
        ({"cohesion_threshold": float("nan")}, "cohesion threshold must be > 0"),
    ])
    def test_bad_threshold_raises_its_rule(self, kwargs, rule):
        # The message is the rule alone: the CLI adds the flag and the value.
        with pytest.raises(ValueError) as info:
            HubConfig(**kwargs)
        assert str(info.value) == rule

    def test_bridge_endpoints_are_the_hubs(self, two_triangles):
        seeds = select_hubs(two_triangles)
        seeded = {next(iter(m)) for m in seeds.communities.values()}
        assert seeded == {2, 3}

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty network"):
            weighted(0, [])


class TestCommunityModularity:
    def test_isolated_community_saturates(self):
        net = weighted(2, [(0, 1, 1.0)])
        part = Partition.from_communities(net, [[0, 1]])
        assert community_modularity(part, 0) == pytest.approx(2.0 / 1e-12)

    def test_triangle_with_one_outgoing_edge(self):
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        net = weighted(4, edges)
        part = Partition.from_communities(net, [[0, 1, 2], [3]])
        assert community_modularity(part, 0) == pytest.approx(6.0)
        assert community_modularity(part, 0) == pytest.approx(
            community_q_direct(edges, [0, 1, 2]))

    def test_balanced_community_is_one(self):
        # internal weight 1.0 counted twice = 2.0; external 2 x 1.0
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
        net = weighted(4, edges)
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
        net = weighted(4, edges)
        part = Partition.from_communities(net, [[0, 1, 2], [3]])
        assert delta_modularity(part, 0, 3) > 0

    def test_non_adjacent_vertex_rejected(self):
        net = weighted(4, [(0, 1, 1.0), (2, 3, 1.0)])
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
            after = community_q_direct(net.edges(), {*members, v})
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
            for v in sorted(neighbors.difference(members)):
                assert move_gain(part, k, v) <= 1e-12

    def test_complete_graph_collapses_to_one_community(self):
        net = weighted(6, [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)])
        result = stage1_agglomerate(net, select_hubs(net))
        assert len(result.partition.communities) == 1

    def test_isolated_vertex_becomes_singleton(self):
        net = weighted(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        result = stage1_agglomerate(net, select_hubs(net))
        assert result.partition.communities[result.partition.assignment[3]] == [3]
        assert 3 in result.promoted_vertices

    def test_partition_total_after_finalize(self):
        for seed in range(5):
            net = random_network(seed, n=50, p=0.08)
            result = stage1_agglomerate(net, select_hubs(net))
            assert result.partition.is_total()
            assert cache_drift(result.partition) < 1e-9

    def test_work_counters_on_two_triangles(self, two_triangles):
        # Hubs 2 and 3 grow {2}->{0,2}->{0,1,2} and {3}->{3,4}->{3,4,5}; the
        # sweeps score 3+3, 2+2 and 1+1 candidates, and nothing is stolen.
        result = stage1_agglomerate(two_triangles, select_hubs(two_triangles))
        assert (result.sweeps, result.evaluations, result.moves, result.steals) == \
            (3, 12, 4, 0)


# Same seeds and sizes as the ``fuzz_graphs`` fixture of the acceptance tests.
FUZZ_SIZES = [30, 45, 60, 80, 100] * 18 + [150, 180, 200, 220, 240, 260, 280, 300, 300, 300]
LAMBDAS = (1.0, 1.5, 2.0, 3.0)


class TestStage1MatchesReference:
    """The cached scorer reproduces the from-scratch stage 1 exactly.

    Only ``evaluations`` may differ: after a visit that found no move, stage
    1 scores only the candidates whose leave term has since risen, and
    skips the visit when there are none, where the reference scores every
    candidate on every visit.
    """

    @staticmethod
    def assert_same(net, config=None):
        seeds = select_hubs(net, config)
        result = stage1_agglomerate(net, seeds, config)
        part, seeded, promoted, sweeps, evaluations, moves, steals = stage1_reference(seeds)
        assert result.partition.assignment == part.assignment
        assert result.partition.internal_sum == part.internal_sum
        assert result.partition.external_sum == part.external_sum
        assert (result.seeded_ids, result.promoted_vertices, result.sweeps) == \
            (seeded, promoted, sweeps)
        assert (result.moves, result.steals) == (moves, steals)
        assert result.evaluations <= evaluations
        return result, evaluations

    def test_fuzz_graphs(self):
        steals = 0
        for seed, n in enumerate(FUZZ_SIZES):
            steals += self.assert_same(random_network(seed, n=n, p=min(0.3, 6.0 / n)))[0].steals
        assert steals > 0

    def test_planted_fixtures_with_steals_and_promoted_vertices(self):
        promoted = evaluated = reference_evaluated = 0
        for kwargs in (dict(block_sizes=[10, 10]),
                       dict(block_sizes=[15, 10, 20], p_in=0.3, p_out=0.05,
                            w_in=(0.2, 1.0), w_out=(0.0, 1.0)),
                       dict(block_sizes=[20] * 5, p_in=0.2, p_out=0.02,
                            w_in=(0.0, 1.0), w_out=(0.0, 1.0))):
            for seed in range(4):
                result, evaluations = self.assert_same(
                    planted_partition(seed=seed, **kwargs).network)
                assert result.steals > 0
                promoted += len(result.promoted_vertices)
                evaluated += result.evaluations
                reference_evaluated += evaluations
        assert promoted > 0
        # The skip of unchanged communities fires.
        assert evaluated < reference_evaluated

    def test_decimal_weights_where_summation_order_decides(self):
        # Sums of 0.1s and 0.2s round differently in different orders, so
        # gains that tie exactly in ascending-neighbour order can split when
        # the weights are patched with +=/-= instead (seed 12 does).
        for seed in range(100):
            rng = np.random.default_rng(seed)
            edges = [(i, j, float(rng.choice([0.1, 0.2])))
                     for i in range(50) for j in range(i + 1, 50) if rng.random() < 0.12]
            self.assert_same(weighted(50, edges))

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_blocks_seeded_at_a_high_percentile(self, seed):
        # Six seeds grow over dense blocks: frontiers span much of the graph,
        # steals are frequent, many visits score only the candidates whose
        # leave term rose (150-240 such visits per seed), and the re-sums
        # mostly walk the member lists. The reference bounds evaluations
        # only from above; the counters pin that partial-visit path exactly.
        net, _ = scale_network(300, seed, block_size=50, p_in=0.5, cross_per_vertex=6)
        config = HubConfig(hub_threshold=float(np.percentile(net.degrees, 97)))
        result, evaluations = self.assert_same(net, config)
        assert len(result.seeded_ids) < 10 and result.steals > 0
        assert result.evaluations < evaluations
        assert (result.sweeps, result.evaluations, result.moves, result.steals) == \
            [(98, 90_979, 481, 190), (85, 78_298, 423, 132), (81, 79_733, 432, 141)][seed]


class TestCompress:
    def test_singleton_partition_is_isomorphic(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[v] for v in range(6)])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 6
        assert super_edges(comp) == two_triangles.edges()

    def test_two_triangles_compression(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 2
        assert super_edges(comp) == [(0, 1, pytest.approx(0.1))]
        assert comp.degrees[0] == pytest.approx(6.1)
        assert comp.degrees[1] == pytest.approx(6.1)
        degrees, cross = compress_direct(
            two_triangles.edges(), 6, [[0, 1, 2], [3, 4, 5]])
        assert list(comp.degrees) == pytest.approx(degrees)
        assert super_edges(comp) == [(a, b, pytest.approx(w))
                                     for (a, b), w in sorted(cross.items())]

    def test_whole_graph_one_supervertex(self, two_triangles):
        part = Partition.from_communities(two_triangles, [list(range(6))])
        comp = compress(two_triangles, part)
        assert comp.num_vertices == 1
        assert super_edges(comp) == []
        assert comp.degrees[0] == pytest.approx(12.2)

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
        net = weighted(18, edges)
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
        net = weighted(2, [(0, 1, 0.7)])
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
        net = weighted(n, edges)
        part = Partition.from_communities(net, [[v] for v in range(n)])
        comp = compress(net, part)
        members = [0, 2, 3, 5]
        expected = interaction_intensity_direct(edges, members)
        assert interaction_intensity(comp, members) == pytest.approx(expected, abs=1e-12)
        assert functional_cohesion(comp, members) == pytest.approx(
            cohesion_direct(edges, members), abs=1e-12)

    def test_isolated_super_vertex_rejected(self):
        net = weighted(3, [(0, 1, 0.5)])
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


def _stage1_compressed(net):
    return compress(net, stage1_agglomerate(net, select_hubs(net)).partition)


class TestStage2MatchesReference:
    """The shared-cell group adjacency merges exactly as the member scan does."""

    @staticmethod
    def assert_same(comp):
        merges = 0
        for lam in LAMBDAS:
            result = stage2_refine(comp, HubConfig(cohesion_threshold=lam))
            groups, passes = stage2_reference(comp, lam)
            assert (result.groups, result.passes) == (groups, passes), lam
            merges += comp.num_vertices - len(groups)
        return merges

    def test_fuzz_graphs(self):
        merges = 0
        for seed, n in enumerate(FUZZ_SIZES):
            merges += self.assert_same(
                _stage1_compressed(random_network(seed, n=n, p=min(0.3, 6.0 / n))))
        assert merges > 0

    def test_planted_fixture(self):
        syn = planted_partition([20] * 30, p_in=0.4, p_out=0.005, w_out=(0.0, 0.5), seed=1)
        assert self.assert_same(_stage1_compressed(syn.network)) > 0

    def test_dense_preset_where_nearly_every_group_merges(self):
        # At each of the four lambdas all 192 super-vertices end in one group:
        # 191 merges, each folding the absorbed group's row into the survivor's.
        comp = _stage1_compressed(scale_network(600, 0, **DENSE)[0])
        assert comp.num_vertices == 192
        assert self.assert_same(comp) == 764

    def test_large_lambdas_on_every_fixture(self):
        # At lambda = inf no union clears the bound: every super-vertex stays
        # alone and the one pass merges nothing.
        syn = planted_partition([20] * 30, p_in=0.4, p_out=0.005, w_out=(0.0, 0.5), seed=1)
        nets = [random_network(seed, n=n, p=min(0.3, 6.0 / n))
                for seed, n in enumerate(FUZZ_SIZES)]
        nets += [syn.network, scale_network(600, 0, **DENSE)[0]]
        merges = 0
        for net in nets:
            comp = _stage1_compressed(net)
            for lam in (5.0, float("inf")):
                result = stage2_refine(comp, HubConfig(cohesion_threshold=lam))
                groups, passes = stage2_reference(comp, lam)
                assert (result.groups, result.passes) == (groups, passes), lam
                merges += comp.num_vertices - len(groups)
            singletons = {sv: {sv} for sv in range(comp.num_vertices)}
            assert (result.groups, result.passes) == (singletons, 1)  # lambda = inf's
        assert merges > 0  # all at lambda = 5


def _value_or_error(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


class TestExactSums:
    """compress and functional_cohesion add in the plain loops' order, so
    their floats equal the oracles' under ==, not approx."""

    @staticmethod
    def partitions():
        rng = np.random.default_rng(15)
        for seed in range(24):
            n = (30, 60, 120, 200)[seed % 4]
            net = random_network(seed, n=n, p=8.0 / n, w_lo=0.0)
            yield net, stage1_agglomerate(net, select_hubs(net)).partition
            labels = rng.integers(0, (2, 5, n // 4, n // 2)[seed // 6], size=n).tolist()
            groups = [[v for v in range(n) if labels[v] == g] for g in set(labels)]
            yield net, Partition.from_communities(net, groups)

    def test_compress_matches_the_loops(self):
        for net, part in self.partitions():
            comp = compress(net, part)
            degrees, edges, rows, means = compress_loop(net, part)
            assert comp.degrees.tolist() == degrees
            assert super_edges(comp) == edges
            assert comp.neighbors == rows
            assert comp.mean_neighbor_weight.tolist() == means
            assert all(list(row) == sorted(row) for row in comp.neighbors)

    def test_cohesion_matches_the_pair_walk(self):
        rng = np.random.default_rng(16)
        numeric = 0
        for net, part in self.partitions():
            comp = compress(net, part)
            k = comp.num_vertices
            for sv in range(k):
                near = list(comp.neighbors[sv])[:int(rng.integers(0, 6))]
                far = rng.integers(0, k, size=int(rng.integers(0, 3))).tolist()
                group = sorted({sv, *near, *far})
                if len(group) < 2:
                    continue
                fc = _value_or_error(functional_cohesion, comp, group)
                assert fc == _value_or_error(cohesion_pair_walk, comp, group), group
                numeric += isinstance(fc, float)
        assert numeric > 1000


class TestScaleFixture:
    def test_shape(self):
        net, block = scale_network(1010, seed=3)
        assert net.num_vertices == 1010 and block[-1] == 50
        src, dst = net.edge_src, net.edge_dst
        inside = block[src] == block[dst]
        # 50 full blocks and one of 10: 50 * 190 + 45 pairs at p_in 0.4.
        assert abs(int(inside.sum()) - 0.4 * 9545) < 5 * np.sqrt(9545 * 0.24)
        assert 1900 < int((~inside).sum()) <= 2020
        assert net.edge_weight[inside].min() >= 0.4
        assert net.edge_weight[~inside].max() <= 0.5

    def test_default_network_pinned(self):
        # The 32k timings and counters in the README compare across changes
        # only while the default network stays the same.
        net, _ = scale_network(32_000, 0)
        digest = hashlib.sha256(b"".join(
            a.tobytes() for a in (net.edge_src, net.edge_dst, net.edge_weight))).hexdigest()
        assert (net.edge_count, digest) == (
            185_575, "c132f7906400403f17862fe293b9c5b49b9030f8821a01b1cf54987091e3cc7d")

    def test_dense_preset(self):
        net, block = scale_network(8_000, 0, **DENSE)
        assert net.edge_count == 277_204 and block[-1] == 79
        inside = block[net.edge_src] == block[net.edge_dst]
        assert net.edge_weight[inside].min() >= 0.4
        assert net.edge_weight[~inside].max() <= 0.5

    def test_script_seeds_at_a_percentile(self, capsys):
        assert scale_fixture_main(["400", "1", "--dense", "--hub-percentile", "95"]) == 0
        lines = capsys.readouterr().out.splitlines()
        net, _ = scale_network(400, 1, **DENSE)
        hubs = int(np.count_nonzero(net.degrees > np.percentile(net.degrees, 95)))
        assert f"edges={net.edge_count} " in lines[0] and f"hubs={hubs}" in lines[1]

    def test_small_instance_matches_both_references(self):
        net, _ = scale_network(600, seed=1)
        result, evaluations = TestStage1MatchesReference.assert_same(net)
        assert result.evaluations < evaluations
        assert TestStage2MatchesReference.assert_same(compress(net, result.partition)) > 0

    @pytest.mark.parametrize("seed, counters", [(1, (15, 70_727, 2_413, 1_391)),
                                                (2, (22, 78_671, 2_595, 1_565))])
    def test_stage1_counters_pinned(self, seed, counters):
        # The reference check above bounds evaluations only from above, so a
        # frontier that loses a candidate without changing the partition
        # would pass it; these are exact.
        net, _ = scale_network(2000, seed)
        result = stage1_agglomerate(net, select_hubs(net))
        assert (result.sweeps, result.evaluations, result.moves, result.steals) == counters


class TestDetect:
    def test_single_edge_graph(self):
        # an isolated pair saturates stage-1 modularity, so it always merges
        net = weighted(2, [(0, 1, 0.9)])
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
        result = detect(weighted(1, []))
        assert [c.vertices for c in result.communities] == [[0]]

    def test_zero_weight_edges_do_not_divide_by_zero(self):
        # A zero-weight union has mean-neighbor-weight sum 0 and is never merged.
        result = detect(weighted(2, [(0, 1, 0.0)]))
        assert [c.vertices for c in result.communities] == [[0], [1]]
        result = detect(weighted(3, [(0, 1, 0.0), (1, 2, 0.5)]))
        assert sorted(v for c in result.communities for v in c.vertices) == [0, 1, 2]
        assert all(c.functional_cohesion is None for c in result.communities)

    @pytest.mark.parametrize("name", ["two_triangles", "random"])
    def test_default_hub_threshold_is_the_mean_weighted_degree(self, two_triangles, name):
        # select_hubs resolves a None threshold; detect reports the value it resolved to.
        net = two_triangles if name == "two_triangles" else random_network(41, n=50, p=0.1)
        mean = mean_weighted_degree(net)
        default, explicit = detect(net), detect(net, HubConfig(hub_threshold=mean))
        assert default.hub_threshold == explicit.hub_threshold == mean
        assert [c.vertices for c in default.communities] == \
            [c.vertices for c in explicit.communities]
        assert default.hub_count == explicit.hub_count
        for stage in ("stage1", "stage2"):
            a, b = getattr(default, stage), getattr(explicit, stage)
            counters = [f for f in vars(a) if f not in ("partition", "groups")]
            assert [getattr(a, f) for f in counters] == [getattr(b, f) for f in counters]
        assert default.stage2.groups == explicit.stage2.groups


class TestScaleInvariance:
    def test_stage1_output_unchanged_by_positive_scaling(self):
        for seed in (3, 11, 29):
            net = random_network(seed, n=35, p=0.15, w_lo=0.1, w_hi=0.5)
            base = stage1_agglomerate(net, select_hubs(net))
            base_groups = sorted(sorted(m) for m in base.partition.communities.values())
            for alpha in (0.5, 2.0):
                scaled = WeightedNetwork(
                    net.num_vertices, net.edge_src, net.edge_dst, net.edge_weight * alpha)
                result = stage1_agglomerate(scaled, select_hubs(scaled))
                groups = sorted(sorted(m) for m in result.partition.communities.values())
                assert groups == base_groups
