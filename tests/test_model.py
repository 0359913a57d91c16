import numpy as np
import pytest

from wppi.model import Partition, PpiNetwork, ProteinIndex, WeightedNetwork

from .conftest import random_network


class TestInternProteins:
    def test_duplicates_collapse(self):
        idx = ProteinIndex(["A", "B", "A"])
        assert len(idx) == 2
        assert idx.index_of("A") == 0
        assert idx.index_of("B") == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no proteins"):
            ProteinIndex([])

    def test_large_label_set_gets_contiguous_indices(self):
        labels = [f"Y{i:05d}" for i in range(6391)]
        idx = ProteinIndex(labels)
        assert len(idx) == 6391
        assert [idx.index_of(lbl) for lbl in labels] == list(range(6391))
        assert idx.label_of(6390) == "Y06390"

    def test_first_appearance_order(self):
        idx = ProteinIndex(["Z", "A", "Z", "M"])
        assert idx.labels == ["Z", "A", "M"]


class TestPpiNetwork:
    def test_repeat_is_dropped_and_counted(self):
        net = PpiNetwork(3, [0, 0, 1, 1], [1, 1, 2, 2])
        assert net.edge_count == 2
        assert net.duplicates_dropped == 2

    def test_reversed_edge_is_the_same_edge(self):
        net = PpiNetwork(4, [3, 1, 0, 2, 0], [1, 0, 1, 0, 3])
        assert list(zip(net.edge_src.tolist(), net.edge_dst.tolist())) == \
            [(0, 1), (0, 2), (0, 3), (1, 3)]
        assert net.duplicates_dropped == 1

    def test_self_loop_rejected_with_count(self):
        net = PpiNetwork(3, [0, 2, 0], [0, 2, 2])
        assert (net.edge_src.tolist(), net.edge_dst.tolist()) == ([0], [2])
        assert net.self_loops_dropped == 2

    def test_out_of_range_self_loop_is_counted_not_raised(self):
        net = PpiNetwork(3, [7, 0], [7, 1])
        assert net.self_loops_dropped == 1
        assert net.edge_count == 1

    def test_out_of_range_edge_rejected(self):
        for src, dst in (([0, 3], [1, 1]), ([0], [-1])):
            with pytest.raises(ValueError, match="out of range"):
                PpiNetwork(3, src, dst)

    def test_degree_sum_is_twice_edges(self):
        net = PpiNetwork(5, [0, 0, 1, 3], [1, 2, 2, 4])
        degrees = np.bincount(np.concatenate([net.edge_src, net.edge_dst]), minlength=5)
        assert degrees.tolist() == [2, 2, 2, 1, 1]
        assert degrees.sum() == 2 * net.edge_count


class TestWeightedNetwork:
    def test_weights_validated(self):
        with pytest.raises(ValueError, match="weight out of range"):
            WeightedNetwork(2, [(0, 1, 1.5)])

    def test_neighbors_sorted(self):
        net = WeightedNetwork(4, [(2, 0, 0.3), (0, 1, 0.2), (0, 3, 0.9)])
        idx, wgt = net.neighbors(0)
        assert list(idx) == [1, 2, 3]
        assert list(wgt) == [0.2, 0.3, 0.9]

    def test_weighted_degree_sums_incident(self, star_half):
        assert star_half.weighted_degree(0) == pytest.approx(1.5)
        assert star_half.weighted_degree(1) == 0.5

    def test_degree_sum_counts_each_edge_twice(self, two_triangles):
        total = sum(two_triangles.weighted_degree(v) for v in range(6))
        assert total == pytest.approx(2 * sum(w for _, _, w in two_triangles.edges()))

    def test_scaled_preserves_structure(self, two_triangles):
        half = WeightedNetwork.from_arrays(
            two_triangles.num_vertices, two_triangles.edge_src, two_triangles.edge_dst,
            two_triangles.edge_weight * 0.5)
        assert [(i, j) for i, j, _ in half.edges()] == \
            [(i, j) for i, j, _ in two_triangles.edges()]
        assert half.weighted_degree(0) == pytest.approx(1.0)


class TestPartitionCache:
    def test_single_move_updates_sums(self, two_triangles):
        part = Partition(two_triangles)
        k = part.new_community(0)
        part.move(1, k)
        assert part.internal_sum[k] == pytest.approx(2.0)
        # boundary: 0-2, 1-2
        assert part.external_sum[k] == pytest.approx(2.0)

    def test_steal_updates_both_communities(self, two_triangles):
        part = Partition(two_triangles)
        a = part.new_community(0)
        b = part.new_community(3)
        part.move(1, a)
        part.move(1, b)  # pulled across
        assert part.communities[a] == {0}
        assert 1 in part.communities[b]
        assert part.cache_drift() < 1e-12

    def test_cache_matches_recompute_after_random_moves(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            net = random_network(seed, n=min(200, 30 + seed * 20), p=0.1)
            part = Partition(net)
            ids = [part.new_community(v) for v in range(0, net.num_vertices, 3)]
            for _ in range(400):
                v = int(rng.integers(net.num_vertices))
                k = ids[int(rng.integers(len(ids)))]
                if k in part.communities and part.assignment[v] != k:
                    part.move(v, k)
            assert part.cache_drift() < 1e-9

    def test_from_communities_covers_and_caches(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        assert part.is_total()
        assert part.cache_drift() == 0.0
        assert part.internal_sum[0] == pytest.approx(6.0)
        assert part.external_sum[0] == pytest.approx(0.1)


class TestRoundTrip:
    def test_wppi_file_round_trip_bit_for_bit(self, tmp_path):
        from wppi.fileio import load_wppi, write_wppi

        rng = np.random.default_rng(3)
        net = random_network(11, n=30, p=0.2)
        labels = ProteinIndex([f"P{i}" for i in range(net.num_vertices)])
        path = tmp_path / "net.tsv"
        write_wppi(path, labels, net)
        labels2, net2 = load_wppi(path)

        def by_label(index, network):
            out = {}
            for i, j, w in network.edges():
                key = tuple(sorted((index.label_of(i), index.label_of(j))))
                out[key] = w
            return out

        original = by_label(labels, net)
        loaded = by_label(labels2, net2)
        assert original.keys() == loaded.keys()
        for key, w in original.items():
            assert loaded[key] == w  # exact, not approx
