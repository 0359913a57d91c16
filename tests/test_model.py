import numpy as np
import pytest

from wppi.model import Partition, PpiNetwork, ProteinIndex, WeightedNetwork, _stable_argsort

from .conftest import random_network
from .oracles import cache_drift, community_sums_loop, weight_to_loop


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

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="weight out of range"):
            WeightedNetwork(2, [(0, 1, float("nan"))])
        with pytest.raises(ValueError, match="weight out of range"):
            WeightedNetwork.from_arrays(3, [0, 1], [1, 2], [0.5, np.nan])

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

    def test_canonical_and_shuffled_arrays_build_the_same_network(self):
        base = random_network(7, n=120, p=0.1)
        rng = np.random.default_rng(7)
        perm = rng.permutation(base.edge_count)
        flip = rng.random(base.edge_count) < 0.5
        src = np.where(flip, base.edge_dst, base.edge_src)[perm]
        dst = np.where(flip, base.edge_src, base.edge_dst)[perm]
        canonical = WeightedNetwork.from_arrays(base.num_vertices, base.edge_src,
                                                base.edge_dst, base.edge_weight)
        shuffled = WeightedNetwork.from_arrays(base.num_vertices, src, dst,
                                               base.edge_weight[perm])
        expected: dict[int, list[tuple[int, float]]] = {}
        for i, j, w in base.edges():
            expected.setdefault(i, []).append((j, w))
            expected.setdefault(j, []).append((i, w))
        for net in (canonical, shuffled):
            assert net.edges() == base.edges()
            assert np.array_equal(net.degrees, base.degrees)
            adj, adj_w = net.adjacency_lists()
            for v in range(net.num_vertices):
                assert list(zip(adj[v], adj_w[v])) == sorted(expected.get(v, []))

    def test_adjacency_rows_are_built_once_and_shared(self):
        net = random_network(3, n=300, p=0.03)  # ids above CPython's cached small ints
        rows, weights = net.adjacency_lists()
        again = net.adjacency_lists()
        assert again[0] is rows and again[1] is weights
        for v in range(net.num_vertices):
            idx, wgt = net.neighbors(v)
            assert idx is rows[v] and wgt is weights[v]
            assert type(idx) is list and type(wgt) is list
            for u, w in zip(idx, wgt):  # one float object per edge
                assert weights[u][rows[u].index(v)] is w
        # and one int object per vertex
        assert len({id(u) for row in rows for u in row}) == len({u for row in rows for u in row})

    def test_sorted_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError, match="conflicting duplicate"):
            WeightedNetwork.from_arrays(3, np.array([0, 0, 1]), np.array([1, 1, 2]),
                                        np.array([0.2, 0.3, 0.4]))


def test_stable_argsort_equals_numpys_on_both_routes():
    rng = np.random.default_rng(8)
    arrays = [np.empty(0, dtype=np.int64), np.array([5]), np.zeros(9, dtype=np.int64)]
    for size in (2, 3, 100, 5000):
        for high in (2, 50, 1 << 40, 1 << 62, np.iinfo(np.int64).max):
            arrays.append(rng.integers(0, high, size, dtype=np.int64))
    for values in arrays:  # the largest values take numpy's merge sort
        assert np.array_equal(_stable_argsort(values), np.argsort(values, kind="stable"))


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
        assert cache_drift(part) < 1e-12

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
            assert cache_drift(part) < 1e-9

    def test_from_communities_covers_and_caches(self, two_triangles):
        part = Partition.from_communities(two_triangles, [[0, 1, 2], [3, 4, 5]])
        assert part.is_total()
        assert cache_drift(part) == 0.0
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


def test_weight_to_and_recomputed_sums_equal_the_loops_to_the_bit():
    rng = np.random.default_rng(21)
    checked = 0
    for seed in range(6):
        net = random_network(seed + 40, n=int(rng.integers(20, 90)), p=0.15)
        edges = net.edges()
        part = Partition(net)
        ids = [part.new_community(v) for v in range(0, net.num_vertices, 4)]
        for v in range(net.num_vertices):
            if part.assignment[v] == Partition.UNASSIGNED and rng.random() < 0.7:
                part.move(v, ids[int(rng.integers(len(ids)))])
        for v in range(net.num_vertices):
            for k in ids:
                assert part.weight_to(v, k).hex() == \
                    weight_to_loop(edges, part.assignment, v, k).hex()
                checked += 1
        for k, members in part.communities.items():
            got = part.recomputed_sums(k)
            want = community_sums_loop(edges, members)
            assert [x.hex() for x in got] == [x.hex() for x in want]
    assert checked > 1000
