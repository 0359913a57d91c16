import pytest

from wppi.expression import pearson
from wppi.synthetic import block_expression, planted_partition


class TestPlantedPartition:
    def test_deterministic_for_seed(self):
        a = planted_partition([5, 5], seed=42)
        b = planted_partition([5, 5], seed=42)
        assert a.network.edges() == b.network.edges()

    def test_different_seed_differs(self):
        a = planted_partition([5, 5], seed=1)
        b = planted_partition([5, 5], seed=2)
        assert a.network.edges() != b.network.edges()

    def test_block_structure_in_weights(self):
        syn = planted_partition([6, 6], w_in=(0.8, 1.0), w_out=(0.0, 0.1), seed=3)
        blocks = syn.blocks
        for i, j, w in syn.network.edges():
            same = (i in blocks[0]) == (j in blocks[0])
            if same:
                assert 0.8 <= w <= 1.0
            else:
                assert 0.0 <= w <= 0.1

    def test_complete_when_probabilities_one(self):
        syn = planted_partition([4, 4], seed=0)
        assert syn.network.edge_count == 8 * 7 // 2

    def test_sparse_probabilities(self):
        syn = planted_partition([10, 10], p_in=0.5, p_out=0.1, seed=7)
        assert syn.network.edge_count < 190

    def test_bad_arguments(self):
        for sizes in ([], [0, 3], [-2]):
            with pytest.raises(ValueError) as info:
                planted_partition(sizes)
            assert str(info.value) == "block sizes must be one or more integers >= 1"
        for w_in in ((0.9, 0.2), (0.9,), (0.0, 0.5, 1.0)):
            with pytest.raises(ValueError, match="weight ranges"):
                planted_partition([3, 3], w_in=w_in)
        for p in (float("nan"), -0.1, 1.5):
            with pytest.raises(ValueError, match="edge probabilities"):
                planted_partition([3, 3], p_in=p)
            with pytest.raises(ValueError, match="edge probabilities"):
                planted_partition([3, 3], p_out=p)
        with pytest.raises(ValueError) as info:
            planted_partition([3, 3], seed=-1)
        assert str(info.value) == "seed must be >= 0"


class TestBlockExpression:
    def test_within_block_correlation_dominates(self):
        syn = planted_partition([8, 8], seed=11)
        labels, values = block_expression(syn, samples=24, seed=11)
        assert len(labels) == 16
        within = pearson(values[0], values[1])
        across = pearson(values[0], values[9])
        assert abs(within) > 0.8
        assert abs(within) > abs(across)

    def test_requires_two_samples(self):
        syn = planted_partition([3, 3], seed=0)
        for samples in (1, 0, -3):
            with pytest.raises(ValueError) as info:
                block_expression(syn, samples=samples)
            assert str(info.value) == "insufficient samples (need at least 2)"
